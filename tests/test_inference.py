import json
import time
import types

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.inference as inf
import mlpcascade.numkit as nk
from mlpcascade.numkit import softmax_rows
from mlpcascade.params import LayerStack

# Frozen from 40-digit evaluation.
CONF_ROWS_12_30 = 0.8418163527262190  # mean(max softmax) of [[1,2],[3,0]]
WEIGHTS_06_09 = [0.4255574831883410, 0.5744425168116590]  # softmax(0.6, 0.9)


def build_cascade(rng, n_students, d=4, hidden=3, c=3, dtype=np.float64):
    students = [
        cas.init_student(d, hidden, c, 2, rng, dtype) for _ in range(n_students)
    ]
    metas = [
        cas.StudentTrainMeta(
            1, 1, 0.0, init_fingerprint=s.fingerprint(), lambda_history=[0.1]
        ) for s in students
    ]
    return cas.Cascade(students=students, metas=metas, teacher_fingerprint="none")


# logits that class-major scoring refuses, and how the message names them
REFUSED_LOGITS = [
    (np.zeros((3, 4), np.float16), r"float16 of shape \(3, 4\)"),
    (np.zeros((3, 4), np.int64), r"int64 of shape \(3, 4\)"),
    (np.zeros(4), r"float64 of shape \(4,\)"),
    (np.zeros((2, 3, 4), np.float32), r"float32 of shape \(2, 3, 4\)"),
]


class TestConfidence:
    def test_uniform_logits_hit_lower_bound(self):
        assert inf.confidence(np.zeros((5, 4)), np.arange(5)) == pytest.approx(0.25, abs=1e-12)

    def test_dominant_logits_approach_one(self):
        logits = np.zeros((3, 4))
        logits[:, 0] = 30.0
        assert inf.confidence(logits, np.arange(3)) > 1 - 1e-9

    def test_frozen_value(self):
        logits = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert inf.confidence(logits, [0, 1]) == pytest.approx(CONF_ROWS_12_30, abs=1e-12)

    def test_empty_eval_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            inf.confidence(np.zeros((2, 2)), [])

    def test_negative_index_rejected(self):
        # numpy would wrap -1 onto row 1 and return its confidence
        with pytest.raises(ValueError, match="index -1 out of range for 2 rows"):
            inf.confidence(np.array([[0.0, 0.0], [9.0, 0.0]]), [-1])

    def test_index_past_the_end_rejected(self):
        with pytest.raises(ValueError, match="index 2 out of range for 2 rows"):
            inf.confidence(np.zeros((2, 2)), [0, 2])

    @pytest.mark.parametrize("logits, what", REFUSED_LOGITS)
    def test_logits_other_than_2d_float32_or_float64_rejected(self, logits, what):
        with pytest.raises(ValueError, match=f"^confidence: logits must be .*got {what}"):
            inf.confidence(logits, [0])

    @pytest.mark.parametrize("seed", range(10))
    def test_range_property(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 6))
        logits = rng.standard_normal((12, c)) * rng.uniform(0.1, 20)
        idx = rng.choice(12, size=5, replace=False)
        got = inf.confidence(logits, idx)
        assert 1.0 / c - 1e-12 <= got <= 1.0 + 1e-12


class TestEnsemble:
    def test_single_member_passthrough(self):
        rng = np.random.default_rng(0)
        p = softmax_rows(rng.standard_normal((4, 3)))
        combined, weights = inf.ensemble([p], [0.7])
        assert np.allclose(weights, [1.0], atol=1e-15)
        assert np.allclose(combined, p, atol=1e-15)

    def test_equal_confidences_average(self):
        rng = np.random.default_rng(1)
        preds = [softmax_rows(rng.standard_normal((4, 3))) for _ in range(3)]
        combined, weights = inf.ensemble(preds, [0.9, 0.9, 0.9])
        assert np.allclose(weights, 1.0 / 3.0, atol=1e-15)
        assert np.allclose(combined, sum(preds) / 3.0, atol=1e-12)

    def test_frozen_weights(self):
        rng = np.random.default_rng(2)
        preds = [softmax_rows(rng.standard_normal((2, 2))) for _ in range(2)]
        _, weights = inf.ensemble(preds, [0.6, 0.9])
        assert np.max(np.abs(weights - np.array(WEIGHTS_06_09))) < 1e-12

    def test_rows_remain_distributions(self):
        rng = np.random.default_rng(3)
        preds = [softmax_rows(rng.standard_normal((6, 4))) for _ in range(4)]
        combined, weights = inf.ensemble(preds, list(rng.uniform(0.3, 1.0, 4)))
        assert abs(weights.sum() - 1.0) < 1e-9
        assert np.max(np.abs(combined.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(combined >= 0)

    @pytest.mark.parametrize("k", range(1, 65))
    def test_weights_are_numpys_row_softmax_of_the_confidences(self, k):
        """The weights keep the bits of a numpy row softmax of the 1 x K
        confidences, frozen here, whatever K: ties and spread alike."""
        rng = np.random.default_rng(k)
        preds = np.full((k, 1, 2), 0.5)
        for _ in range(50):
            confs = rng.uniform(0.25, 1.0, k)
            confs[rng.random(k) < 0.2] = confs[0]
            row = confs[None, :]
            e = np.exp(row - row.max(axis=1, keepdims=True))
            want = (e / e.sum(axis=1, keepdims=True))[0]
            _, weights = inf.ensemble(preds, list(confs))
            assert weights.tobytes() == want.tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 predictions vs 1"):
            inf.ensemble([np.ones((1, 2)) / 2] * 2, [0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no predictions"):
            inf.ensemble([], [])


class TestRunAnytime:
    def test_float16_cascade_rejected(self):
        c = build_cascade(np.random.default_rng(0), 2, dtype=np.float16)
        x = np.zeros((8, 4), np.float16)
        with pytest.raises(
            ValueError, match=r"^run_anytime: logits must be .*got float16 of shape \(8, 3\)"
        ):
            inf.run_anytime(c, x, inf.InferencePolicy(max_students=2), np.arange(8))

    def test_zero_threshold_executes_one(self):
        c = build_cascade(np.random.default_rng(0), 3)
        x = np.random.default_rng(1).standard_normal((8, 4))
        result = inf.run_anytime(c, x, inf.InferencePolicy(conf_threshold=0.0), np.arange(8))
        assert result.executed == 1
        assert len(result.confidences) == 1

    def test_disabled_threshold_runs_all(self):
        c = build_cascade(np.random.default_rng(0), 4)
        x = np.random.default_rng(1).standard_normal((8, 4))
        result = inf.run_anytime(c, x, inf.InferencePolicy(max_students=4), np.arange(8))
        assert result.executed == 4

    def test_two_student_fixture_with_hand_ensemble(self):
        # student 1: all-zero weights -> uniform logits, confidence exactly 1/C
        # student 2: huge class-0 bias -> confidence ~1
        d, hidden, c = 2, 2, 3
        s1 = LayerStack(
            [(np.zeros((d + hidden, hidden)), np.zeros(hidden)),
             (np.zeros((hidden, c)), np.zeros(c))]
        )
        s2 = LayerStack(
            [(np.zeros((d + hidden, hidden)), np.zeros(hidden)),
             (np.zeros((hidden, c)), np.array([30.0, 0.0, 0.0]))]
        )
        casc = cas.Cascade(
            students=[s1, s2],
            metas=[
                cas.StudentTrainMeta(1, 1, 0.0, init_fingerprint="a", lambda_history=[0.1])
            ] * 2,
            teacher_fingerprint="none",
        )
        x = np.ones((5, d))
        thr = 0.9  # c1 = 1/3 < thr <= c2 ~= 1
        result = inf.run_anytime(casc, x, inf.InferencePolicy(conf_threshold=thr), np.arange(5))
        assert result.executed == 2
        assert result.confidences[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result.confidences[1] > thr

        c1, c2 = result.confidences
        e1, e2 = np.exp(c1), np.exp(c2)
        w = [e1 / (e1 + e2), e2 / (e1 + e2)]
        p1 = np.full((5, 3), 1.0 / 3.0)
        p2 = softmax_rows(np.tile([30.0, 0.0, 0.0], (5, 1)))
        expected = w[0] * p1 + w[1] * p2
        assert np.max(np.abs(result.prediction - expected)) < 1e-9

    @pytest.mark.parametrize("max_students", [1, 2, 3, 5])
    def test_matches_brute_force_recombination(self, max_students):
        rng = np.random.default_rng(7)
        casc = build_cascade(rng, 5)
        x = rng.standard_normal((10, 4))
        idx = np.arange(10)
        result = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=max_students), idx)

        # brute force: run every student unconditionally, then recombine the
        # first min(max_students, first-exit) of them
        h = np.zeros((10, casc.students[0].hidden_dim))
        all_preds, all_confs = [], []
        for p in casc.students:
            h, logits = cas.student_forward(p, np.concatenate([x, h], axis=1))
            all_preds.append(softmax_rows(logits))
            all_confs.append(inf.confidence(logits, idx))
        k = max_students
        expected, expected_w = inf.ensemble(all_preds[:k], all_confs[:k])
        assert result.executed == k
        assert np.max(np.abs(result.prediction - expected)) < 1e-9
        assert np.allclose(result.weights, expected_w, atol=1e-12)

    def test_executed_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        casc = build_cascade(rng, 6)
        x = rng.standard_normal((12, 4))
        idx = np.arange(12)
        executed = []
        for thr in (0.0, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0):
            r = inf.run_anytime(
                casc, x, inf.InferencePolicy(conf_threshold=thr, max_students=6), idx
            )
            executed.append(r.executed)
        assert executed == sorted(executed)

    def test_budget_zero_executes_one(self):
        rng = np.random.default_rng(3)
        casc = build_cascade(rng, 4)
        x = rng.standard_normal((6, 4))
        r = inf.run_anytime(casc, x, inf.InferencePolicy(wall_clock_budget=0.0), np.arange(6))
        assert r.executed == 1

    def test_cascade_not_mutated(self):
        rng = np.random.default_rng(4)
        casc = build_cascade(rng, 3)
        before = casc.fingerprint()
        x = rng.standard_normal((6, 4))
        inf.run_anytime(casc, x, inf.InferencePolicy(max_students=3), np.arange(6))
        assert casc.fingerprint() == before

    def test_feature_width_checked(self):
        casc = build_cascade(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="expected 4, got 7"):
            inf.run_anytime(casc, np.zeros((3, 7)), inf.InferencePolicy(max_students=1), [0])

    def test_empty_cascade_rejected(self):
        empty = cas.Cascade(students=[], metas=[], teacher_fingerprint="x")
        with pytest.raises(ValueError, match="empty cascade"):
            inf.run_anytime(empty, np.zeros((2, 4)), inf.InferencePolicy(max_students=1), [0])

    def test_policy_needs_a_rule(self):
        with pytest.raises(ValueError, match="stopping rule"):
            inf.InferencePolicy()

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -0.5])
    def test_budget_must_be_finite_and_non_negative(self, budget):
        # spent >= nan never holds, so a NaN budget would run every student
        with pytest.raises(
            ValueError, match=f"^wall_clock_budget {budget} must be finite and >= 0$"
        ):
            inf.InferencePolicy(conf_threshold=None, wall_clock_budget=budget)

    def test_executed_capped_by_cascade_size(self):
        rng = np.random.default_rng(5)
        casc = build_cascade(rng, 2)
        x = rng.standard_normal((4, 4))
        r = inf.run_anytime(casc, x, inf.InferencePolicy(conf_threshold=1.0), np.arange(4))
        assert r.executed == 2  # threshold never fires; runs out of students


class TestPrefixEnsembles:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_students", [1, 3, 5])
    def test_each_prefix_equals_a_capped_run(self, dtype, n_students):
        rng = np.random.default_rng(n_students)
        casc = build_cascade(rng, n_students, dtype=dtype)
        x = rng.standard_normal((15, 4)).astype(dtype)
        idx = rng.choice(15, size=9, replace=False)
        full = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=n_students), idx)
        assert full.executed == n_students
        assert full.probs.shape == (n_students, 15, 3) and full.probs.dtype == dtype
        prefixes = list(inf.prefix_ensembles(full.probs, full.confidences))
        assert len(prefixes) == n_students
        for k in range(1, n_students + 1):
            capped = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=k), idx)
            assert np.array_equal(prefixes[k - 1], capped.prediction)
        assert np.array_equal(prefixes[-1], full.prediction)

    def test_probs_follow_execution_order(self):
        rng = np.random.default_rng(2)
        casc = build_cascade(rng, 3)
        x = rng.standard_normal((6, 4))
        r = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=2), np.arange(6))
        h = np.zeros((6, casc.students[0].hidden_dim))
        for params, probs in zip(casc.students, r.probs):
            h, logits = cas.student_forward(params, np.concatenate([x, h], axis=1))
            assert np.array_equal(probs, softmax_rows(logits))
        assert len(r.probs) == 2


class TestScoreLogits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scores_of_known_logits_equal_a_run(self, dtype):
        rng = np.random.default_rng(5)
        casc = build_cascade(rng, 3, dtype=dtype)
        x = rng.standard_normal((15, 4)).astype(dtype)
        idx = rng.choice(15, size=9, replace=False)
        run = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=3), idx)
        h = np.zeros((15, casc.students[0].hidden_dim), dtype=dtype)
        logits = []
        for params in casc.students:
            h, z = cas.student_forward(params, np.concatenate([x, h], axis=1))
            logits.append(z)
        probs, confs = inf.score_logits(logits, idx)
        assert confs == run.confidences
        for got, ref in zip(probs, run.probs, strict=True):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_index_set_checked(self):
        with pytest.raises(ValueError, match="^score_logits: evaluation index 3 out of range"):
            inf.score_logits([np.zeros((3, 2))], [0, 3])
        with pytest.raises(ValueError, match="no students"):
            inf.score_logits([], [0])

    def test_shapes_checked(self):
        # a 1 x 2 array would broadcast into the stack of 3 x 2 ones
        with pytest.raises(
            ValueError, match=r"^score_logits: logits of shapes \[\(3, 2\), \(1, 2\)\]"
        ):
            inf.score_logits([np.zeros((3, 2)), np.zeros((1, 2))], [0])

    @pytest.mark.parametrize("logits, what", REFUSED_LOGITS)
    def test_logits_other_than_2d_float32_or_float64_rejected(self, logits, what):
        # whether the refused array comes first or after an accepted one
        match = f"^score_logits: logits must be .*got {what}"
        for stack in ([logits], [np.zeros((3, 4), np.float32), logits]):
            with pytest.raises(ValueError, match=match):
                inf.score_logits(stack, [0])


class TestAccuracy:
    def test_perfect(self):
        y = np.eye(4)
        assert inf.accuracy(y, y, np.arange(4)) == 1.0

    def test_always_wrong(self):
        y = np.eye(2)
        pred = y[::-1]
        assert inf.accuracy(pred, y, [0, 1]) == 0.0

    def test_three_of_four(self):
        y = np.eye(4)
        pred = y.copy()
        pred[3] = [1, 0, 0, 0]
        assert inf.accuracy(pred, y, np.arange(4)) == 0.75

    def test_tie_breaks_to_lowest_class(self):
        pred = np.array([[0.5, 0.5]])
        assert inf.accuracy(pred, np.array([[1.0, 0.0]]), [0]) == 1.0
        assert inf.accuracy(pred, np.array([[0.0, 1.0]]), [0]) == 0.0

    def test_empty_idx_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            inf.accuracy(np.eye(2), np.eye(2), [])

    @pytest.mark.parametrize("idx", [[0, 1, 2], None])
    @pytest.mark.parametrize("n_pred, n_labels", [(4, 3), (3, 4)])
    def test_row_count_mismatch_rejected(self, n_pred, n_labels, idx):
        """Rows beyond the shorter array are never silently dropped: 4
        predictions scored against 3 labels would read 1.0 on rows 0..2,
        with a row set or without one."""
        with pytest.raises(ValueError) as err:
            inf.accuracy(np.eye(4)[:n_pred], np.eye(4)[:n_labels], idx)
        assert str(err.value) == (
            f"accuracy: {n_pred} prediction rows vs {n_labels} label rows"
        )

    def test_is_the_one_numkit_accuracy(self):
        assert inf.accuracy is nk.accuracy

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_omitted_row_set_scores_every_row_as_the_indexed_form(self, dtype):
        # random predictions against one-hot labels, ties included
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 3, (50, 5)).astype(dtype)
        y = np.eye(5, dtype=dtype)[rng.integers(0, 5, 50)]
        idx = np.sort(rng.choice(50, 20, replace=False))
        whole = inf.accuracy(pred, y, np.arange(50))
        assert inf.accuracy(pred, y) == whole
        assert whole == np.mean(np.argmax(pred, axis=1) == np.argmax(y, axis=1))
        assert inf.accuracy(pred[idx], y[idx]) == inf.accuracy(pred, y, idx)


class TestOutputFiles:
    def test_prediction_csv_format(self, tmp_path):
        rng = np.random.default_rng(0)
        casc = build_cascade(rng, 2)
        x = rng.standard_normal((5, 4))
        result = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=2), np.arange(5))
        path = tmp_path / "pred.csv"
        inf.write_prediction_csv(path, result)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "node,pred_class,confidence_weighted_max"
        assert len(lines) == 6
        node, cls, prob = lines[1].split(",")
        assert int(node) == 0 and 0 <= int(cls) < 3 and 0 < float(prob) <= 1
        # the confidence column is each row's maximum
        pred = result.prediction
        assert [line.split(",")[2] for line in lines[1:]] == [
            "%.9g" % v for v in pred.max(axis=1)
        ]

    def test_metadata_json_fields(self, tmp_path):
        rng = np.random.default_rng(1)
        casc = build_cascade(rng, 3)
        x = rng.standard_normal((5, 4))
        result = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=2), np.arange(5))
        path = tmp_path / "meta.json"
        inf.write_result_json(path, result)
        doc = json.loads(path.read_text())
        # no clock value: the times are timings_ms's, for a file of their own
        assert sorted(doc) == ["confidences", "executed", "stopped_by", "weights"]
        assert doc["executed"] == 2
        assert len(doc["confidences"]) == 2
        assert len(doc["weights"]) == 2
        assert abs(sum(doc["weights"]) - 1.0) < 1e-9
        timings = result.timings_ms()
        assert len(timings["per_student_ms"]) == 2
        # the softmax and ensemble after the loop are timed on their own
        assert timings["scoring_ms"] > 0
        assert timings["total_ms"] == sum(timings["per_student_ms"]) + timings["scoring_ms"]
        assert timings["scoring_ms"] == 1000.0 * result.scoring


def reference_softmax(logits):
    """Row softmax whose row sum adds the classes left to right from +0,
    in the logits' dtype."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = np.zeros((e.shape[0], 1), e.dtype)
    for j in range(e.shape[1]):
        s = s + e[:, j : j + 1]
    return e / s


def reference_run_anytime(c, x, policy, idx):
    """The anytime loop before the shared [x | h] buffer: a fresh
    concatenate per student, out-of-place layers, a second softmax for the
    confidence and an out-of-place float64 ensemble. No budget rule: its
    stopping point depends on the clock."""
    assert policy.wall_clock_budget is None
    h = np.zeros((x.shape[0], c.students[0].hidden_dim), dtype=x.dtype)
    preds, confs = [], []
    for k, params in enumerate(c.students, start=1):
        a = np.concatenate([x, h], axis=1)
        for w, b in params.layers[:-1]:
            a = np.maximum(a @ w + b, 0)
        h = a
        w, b = params.layers[-1]
        logits = a @ w + b
        preds.append(reference_softmax(logits))
        probs = reference_softmax(logits[idx].astype(np.float64))
        confs.append(float(probs.max(axis=1).mean()))
        if policy.conf_threshold is not None and confs[-1] >= policy.conf_threshold:
            break
        if policy.max_students is not None and k >= policy.max_students:
            break
    # the weights are a softmax over the students, summed as numpy sums
    z = np.asarray(confs, dtype=np.float64)
    weights = np.exp(z - z.max())
    weights = weights / weights.sum()
    combined = np.zeros(preds[0].shape, dtype=np.float64)
    for w, p in zip(weights, preds):
        combined += w * p.astype(np.float64)
    return combined, preds, confs, weights


class TestBitIdenticalToReference:
    """run_anytime gives exactly the outputs of the reference loop."""

    @pytest.mark.parametrize(
        "x_dtype, casc_dtype",
        [
            (np.float32, np.float32),
            (np.float64, np.float64),
            (np.float32, np.float64),
            (np.float64, np.float32),
        ],
    )
    @pytest.mark.parametrize("c", [2, 4, 7, 40, 47])
    def test_policies_and_eval_sets(self, x_dtype, casc_dtype, c):
        rng = np.random.default_rng(c)
        k_total = 5
        casc = build_cascade(rng, k_total, d=6, hidden=8, c=c, dtype=casc_dtype)
        for s in casc.students:  # sharper logits, so confidences spread out
            s.layers[-1][0][...] *= 6
        n = 700
        x = rng.standard_normal((n, 6)).astype(x_dtype)
        eval_sets = {
            "full": (x, np.arange(n)),
            "random": (x, rng.choice(n, size=150, replace=False)),
            "query-128": (x[:128], np.arange(128)),
        }
        for name, (xs, idx) in eval_sets.items():
            confs = reference_run_anytime(
                casc, xs, inf.InferencePolicy(max_students=k_total), idx
            )[2]
            policies = {
                "cap-K": inf.InferencePolicy(max_students=k_total),
                "cap-1": inf.InferencePolicy(max_students=1),
                "threshold": inf.InferencePolicy(conf_threshold=float(np.median(confs))),
            }
            for label, policy in policies.items():
                want_pred, want_probs, want_confs, want_w = reference_run_anytime(
                    casc, xs, policy, idx
                )
                got = inf.run_anytime(casc, xs, policy, idx)
                where = f"{name} {label}"
                assert got.executed == len(want_probs), where
                assert got.confidences == want_confs, where
                assert np.array_equal(got.weights, want_w), where
                assert got.prediction.dtype == np.float64, where
                assert np.array_equal(got.prediction, want_pred), where
                for mine, theirs in zip(got.probs, want_probs):
                    assert mine.dtype == theirs.dtype, where
                    assert np.array_equal(mine, theirs), where

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_confidence_and_ensemble(self, dtype):
        rng = np.random.default_rng(3)
        logits = (rng.standard_normal((500, 4)) * 5).astype(dtype)
        idx = rng.choice(500, size=200, replace=False)
        want = float(reference_softmax(logits[idx].astype(np.float64)).max(axis=1).mean())
        assert inf.confidence(logits, idx) == want
        preds = [reference_softmax(logits), reference_softmax(logits[::-1].copy())]
        combined, weights = inf.ensemble(preds, [0.4, 0.8])
        ref = np.zeros(logits.shape)
        for w, p in zip(weights, preds):
            ref += w * p.astype(np.float64)
        assert np.array_equal(combined, ref)


class TestStackedScoring:
    """A call scores its students once, class-major at every class count:
    their confidences on C x (m * n) blocks of m students' n evaluation
    rows, one student at a time in the loop when a threshold rule reads
    them and in chunks after the loop otherwise, then one softmax over the
    stacked logits of all of them, on a C x (k * N) block."""

    # each scoring kernel and the module it is looked up in
    KERNELS = {
        "softmax_rows": nk,
        "softmax_classes": inf,
        "_confidences": inf,
    }

    @classmethod
    def count_calls(cls, monkeypatch):
        """Record the shape of the first argument of every call made to each
        scoring kernel."""
        calls = {name: [] for name in cls.KERNELS}
        for name, module in cls.KERNELS.items():
            original = getattr(module, name)

            def counted(logits, *args, _name=name, _original=original):
                calls[_name].append(logits.shape)
                return _original(logits, *args)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("c", [2, 7, 8, 12, 47])
    @pytest.mark.parametrize("cap", [1, 3, 5])
    def test_one_softmax_per_run_whatever_the_executed_count(self, monkeypatch, cap, c):
        rng = np.random.default_rng(cap + c)
        casc = build_cascade(rng, 5, c=c)
        x = rng.standard_normal((12, 4))
        gated = inf.InferencePolicy(conf_threshold=1.0, max_students=cap)
        for policy in (inf.InferencePolicy(max_students=cap),
                       inf.InferencePolicy(wall_clock_budget=3600.0, max_students=cap),
                       gated):
            calls = self.count_calls(monkeypatch)
            r = inf.run_anytime(casc, x, policy, np.arange(0, 12, 2))
            assert r.executed == cap
            # a threshold rule reads a confidence per student in the loop;
            # otherwise the few students of a small batch are one chunk
            # after it. Then the probabilities of all of them: the
            # ensemble's weights need no row softmax.
            confidences = [(c, 6)] * cap if policy is gated else [(c, cap * 6)]
            assert calls == {
                "softmax_rows": [],
                "softmax_classes": [(c, cap * 12)],
                "_confidences": confidences,
            }
            assert r.probs.shape == (cap, 12, c)

    @pytest.mark.parametrize("c", [2, 7, 8, 12, 47])
    def test_one_softmax_per_score_logits_call(self, monkeypatch, c):
        rng = np.random.default_rng(c)
        logits = [rng.standard_normal((9, c)) for _ in range(4)]
        calls = self.count_calls(monkeypatch)
        probs, confs = inf.score_logits(logits, [0, 4, 8])
        assert calls == {
            "softmax_rows": [],
            "softmax_classes": [(c, 4 * 9)],
            "_confidences": [(c, 4 * 3)],
        }
        assert probs.shape == (4, 9, c) and len(confs) == 4

    @pytest.mark.parametrize("rows, chunks", [(3, [5]), (6, [3, 2]), (13, [1] * 5)])
    def test_confidences_after_the_loop_come_in_chunks(self, monkeypatch, rows, chunks):
        """SCORE_BLOCK float64 values of the evaluation rows' logits per call,
        at least one student: 108 values are 6, 3 and 1 students of 3, 6
        and 13 rows of 6 classes. The chunks keep the bits of one student
        per call."""
        c = 6
        rng = np.random.default_rng(rows)
        casc = build_cascade(rng, 5, c=c)
        x = rng.standard_normal((20, 4))
        idx = rng.integers(0, 20, size=rows)
        logits = [rng.standard_normal((20, c)) for _ in range(5)]
        want = inf.run_anytime(casc, x, inf.InferencePolicy(conf_threshold=1.0), idx)
        monkeypatch.setattr(inf, "SCORE_BLOCK", 108)
        calls = self.count_calls(monkeypatch)
        got = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=5), idx)
        scored = inf.score_logits(logits, idx)[1]
        assert calls["_confidences"] == [(c, m * rows) for m in chunks] * 2
        assert got.confidences == want.confidences
        assert scored == [inf.confidence(z, idx) for z in logits]

    @pytest.mark.parametrize(
        "x_dtype, casc_dtype",
        [
            (np.float32, np.float32),
            (np.float64, np.float64),
            (np.float32, np.float64),
            (np.float64, np.float32),
        ],
    )
    @pytest.mark.parametrize("n", [40, 128])
    @pytest.mark.parametrize("k_total", [1, 10])
    def test_stack_crossing_the_fold_thresholds_keeps_the_bits(
        self, x_dtype, casc_dtype, n, k_total
    ):
        """A query of 40 or 128 rows of 4 classes, one student or a stack of
        10: the one stacked softmax must keep the bits of a softmax per
        student, which ran numpy's row reductions."""
        c = 4
        rng = np.random.default_rng(n + k_total)
        casc = build_cascade(rng, k_total, d=6, hidden=8, c=c, dtype=casc_dtype)
        for s in casc.students:
            s.layers[-1][0][...] *= 6
        x = rng.standard_normal((n, 6)).astype(x_dtype)
        idx = np.arange(n)
        confs = reference_run_anytime(
            casc, x, inf.InferencePolicy(max_students=k_total), idx
        )[2]
        policies = {
            "cap-K": inf.InferencePolicy(max_students=k_total),
            "cap-1": inf.InferencePolicy(max_students=1),
            "threshold": inf.InferencePolicy(conf_threshold=float(np.median(confs))),
        }
        for label, policy in policies.items():
            want_pred, want_probs, want_confs, want_w = reference_run_anytime(
                casc, x, policy, idx
            )
            got = inf.run_anytime(casc, x, policy, idx)
            assert got.confidences == want_confs, label
            assert np.array_equal(got.weights, want_w), label
            assert np.array_equal(got.prediction, want_pred), label
            assert got.probs.shape == (len(want_probs), n, c), label
            assert got.probs.dtype == want_probs[0].dtype, label
            for mine, theirs in zip(got.probs, want_probs, strict=True):
                assert np.array_equal(mine, theirs), label


def frozen_confidence_per_student(logits_t, idx):
    """The confidence kernel before the block kernel: one student's C x N
    class-major logits over the index array ``idx`` (None for every row in
    order)."""
    cols = logits_t if idx is None else logits_t.take(idx, axis=1)
    z = np.subtract(cols, cols.max(axis=0), dtype=np.float64)
    np.exp(z, out=z)
    r = nk.class_sum(z)
    np.divide(1.0, r, out=r)
    return float(np.add.reduce(r) / r.size)


def frozen_run_anytime(c, x, policy, idx):
    """run_anytime before the lazy scoring: every student's confidence by
    the per-student kernel in the loop, whatever the policy. Returns the
    prediction, weights, probs, confidences, executed count and rule."""
    n, d = x.shape
    dtype = np.result_type(x.dtype, c.students[0].layers[0][0].dtype)
    inputs = np.zeros((n, c.students[0].input_dim), dtype=dtype)
    inputs[:, :d] = x
    gather = None if np.array_equal(idx, np.arange(n)) else idx
    stack, h, confs, spent, stopped_by = None, None, [], 0.0, None
    for k, params in enumerate(c.students):
        t0 = time.perf_counter()
        if h is not None:
            inputs[:, d:] = h
        h, logits = cas.student_forward(params, inputs)
        if stack is None:
            stack = np.empty((logits.shape[1], c.n_students, n), logits.dtype)
        stack[:, k] = logits.T
        confs.append(frozen_confidence_per_student(stack[:, k], gather))
        spent += time.perf_counter() - t0
        stopped_by = policy.fired(confs[-1], k + 1, spent)
        if stopped_by is not None:
            break
    k = len(confs)
    e = nk.softmax_classes(stack[:, :k].reshape(stack.shape[0], k * n))
    probs = np.ascontiguousarray(e.reshape(-1, k, n).transpose(1, 2, 0))
    prediction, weights = inf.ensemble(probs, confs)
    return prediction, weights, probs, confs, k, stopped_by or "exhausted"


class TestLazyScoringKeepsTheBits:
    """Confidences scored in chunks after the loop, or one student at a time
    in it, are the bits of the per-student kernel they replaced, and so is
    everything computed from them."""

    @staticmethod
    def policies(confs):
        """Cap, budget and threshold policies, the threshold ones at the
        median confidence of a full run, so that they stop partway."""
        thr = float(np.median(confs))
        return {
            "cap": inf.InferencePolicy(max_students=3),
            "budget-all": inf.InferencePolicy(wall_clock_budget=3600.0),
            "budget-one": inf.InferencePolicy(wall_clock_budget=0.0),
            "threshold": inf.InferencePolicy(conf_threshold=thr),
            "threshold-cap": inf.InferencePolicy(conf_threshold=thr, max_students=2),
        }

    def check(self, casc, x, idx):
        full = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=casc.n_students), idx)
        for label, policy in self.policies(full.confidences).items():
            pred, weights, probs, confs, executed, stopped_by = frozen_run_anytime(
                casc, x, policy, idx
            )
            got = inf.run_anytime(casc, x, policy, idx)
            assert got.confidences == confs, label
            assert got.weights == [float(w) for w in weights], label
            assert np.array_equal(got.probs, probs), label
            assert np.array_equal(got.prediction, pred), label
            assert (got.executed, got.stopped_by) == (executed, stopped_by), label

    @pytest.mark.parametrize("c", [2, 7, 8, 47])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index", ["every", "strided", "repeated"])
    def test_small_batches(self, c, dtype, index):
        rng = np.random.default_rng(c)
        casc = build_cascade(rng, 5, d=6, hidden=8, c=c, dtype=dtype)
        for s in casc.students:
            s.layers[-1][0][...] *= 4
        n = 40
        x = rng.standard_normal((n, 6)).astype(dtype)
        idx = {
            "every": np.arange(n),
            "strided": np.arange(1, n, 3),
            "repeated": rng.integers(0, n, size=n + 7),
        }[index]
        self.check(casc, x, idx)

    @pytest.mark.parametrize("index", ["every", "repeated"])
    def test_students_spanning_chunks(self, index):
        """8 classes of 6000 rows: 2 students per call, so 5 students take
        three calls after the loop."""
        c, n = 8, 6000
        assert inf.SCORE_BLOCK // (c * n) == 2
        rng = np.random.default_rng(5)
        casc = build_cascade(rng, 5, d=6, hidden=8, c=c, dtype=np.float32)
        x = rng.standard_normal((n, 6)).astype(np.float32)
        idx = np.arange(n) if index == "every" else rng.integers(0, n, size=n)
        self.check(casc, x, idx)


class TestConfidenceReaders:
    """Only the threshold rule reads a confidence."""

    def test_cap_and_budget_rules_take_none(self):
        cap = inf.InferencePolicy(max_students=2)
        budget = inf.InferencePolicy(wall_clock_budget=0.5)
        assert cap.fired(None, 1, 9.0) is None
        assert cap.fired(None, 2, 0.0) == "cap"
        assert budget.fired(None, 3, 0.25) is None
        assert budget.fired(None, 1, 0.5) == "budget"
        assert inf.InferencePolicy(max_students=2, wall_clock_budget=0.5).fired(
            None, 1, 0.5
        ) == "budget"

    def test_threshold_rules_are_handed_every_confidence(self, monkeypatch):
        rng = np.random.default_rng(2)
        casc = build_cascade(rng, 4)
        x = rng.standard_normal((10, 4))
        handed = []
        fired = inf.InferencePolicy.fired

        def recorded(self, conf, executed, spent):
            handed.append(conf)
            return fired(self, conf, executed, spent)

        monkeypatch.setattr(inf.InferencePolicy, "fired", recorded)
        for policy in (
            inf.InferencePolicy(conf_threshold=1.0),
            inf.InferencePolicy(conf_threshold=1.0, max_students=3),
            inf.InferencePolicy(conf_threshold=1.0, wall_clock_budget=3600.0),
            inf.InferencePolicy(max_students=3),
            inf.InferencePolicy(wall_clock_budget=3600.0),
        ):
            handed.clear()
            r = inf.run_anytime(casc, x, policy, np.arange(10))
            if policy.conf_threshold is None:
                assert handed == [None] * r.executed
            else:
                assert handed == r.confidences
                assert all(type(conf) is float for conf in handed)


class TestElapsed:
    """``elapsed[j]`` is student j's forward pass plus its confidence, on a
    clock that advances 1 s per forward pass and 0.5 s per confidence call."""

    @pytest.fixture()
    def clock(self, monkeypatch):
        now = [0.0]
        forward, confidences = inf.student_forward, inf._confidences

        def slow_forward(*args):
            now[0] += 1.0
            return forward(*args)

        def slow_confidences(*args):
            now[0] += 0.5
            return confidences(*args)

        monkeypatch.setattr(inf, "student_forward", slow_forward)
        monkeypatch.setattr(inf, "_confidences", slow_confidences)
        monkeypatch.setattr(inf, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))

    def run(self, policy):
        rng = np.random.default_rng(6)
        casc = build_cascade(rng, 4)
        return inf.run_anytime(casc, rng.standard_normal((8, 4)), policy, np.arange(8))

    def test_a_threshold_run_times_each_confidence_in_the_loop(self, clock):
        r = self.run(inf.InferencePolicy(conf_threshold=1.0))
        assert r.elapsed == [1.5] * 4 and r.scoring == 0.0

    def test_a_capped_run_shares_the_batched_confidences(self, clock):
        r = self.run(inf.InferencePolicy(max_students=2))
        assert r.elapsed == [1.25, 1.25] and r.scoring == 0.0

    def test_a_budget_only_run_counts_forward_passes(self, clock):
        # 1.5 s: two forward passes, but one forward pass and confidence
        assert self.run(inf.InferencePolicy(wall_clock_budget=1.5)).elapsed == [1.25, 1.25]
        gated = self.run(inf.InferencePolicy(conf_threshold=1.0, wall_clock_budget=1.5))
        assert gated.elapsed == [1.5]


class TestEvaluationIndexRange:
    @pytest.mark.parametrize("idx", [[-1, -5], [0, -1], [8], [0, 9]])
    def test_run_anytime_rejects_out_of_range(self, idx):
        casc = build_cascade(np.random.default_rng(0), 2)
        x = np.zeros((8, 4))
        with pytest.raises(ValueError, match="out of range for 8 rows"):
            inf.run_anytime(casc, x, inf.InferencePolicy(max_students=1), idx)

    def test_run_anytime_rejects_empty(self):
        casc = build_cascade(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="empty"):
            inf.run_anytime(casc, np.zeros((3, 4)), inf.InferencePolicy(max_students=1), [])

    def test_run_anytime_checks_its_index_set_once(self, monkeypatch):
        # the per-student confidence must not repeat the check
        calls = []
        check = inf.check_index
        monkeypatch.setattr(inf, "check_index", lambda *a: calls.append(a) or check(*a))
        casc = build_cascade(np.random.default_rng(0), 4)
        result = inf.run_anytime(
            casc, np.ones((6, 4)), inf.InferencePolicy(max_students=4), np.arange(6)
        )
        assert result.executed == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("idx", [[-1], [1, -2], [4]])
    def test_accuracy_rejects_out_of_range(self, idx):
        with pytest.raises(ValueError, match="out of range for 4 rows"):
            inf.accuracy(np.eye(4), np.eye(4), idx)

    @pytest.mark.parametrize("idx", [np.array([True, False, True, False]), [0.0, 2.0]])
    def test_non_integer_index_sets_rejected(self, idx):
        casc = build_cascade(np.random.default_rng(0), 2)
        calls = {
            "run_anytime": lambda: inf.run_anytime(
                casc, np.zeros((4, 4)), inf.InferencePolicy(max_students=1), idx
            ),
            "confidence": lambda: inf.confidence(np.eye(4), idx),
            "accuracy": lambda: inf.accuracy(np.eye(4), np.eye(4), idx),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=f"^{name}: evaluation index set must hold"):
                call()


class TestStoppedBy:
    def run(self, policy, n_students=3):
        rng = np.random.default_rng(11)
        casc = build_cascade(rng, n_students)
        x = rng.standard_normal((6, 4))
        return inf.run_anytime(casc, x, policy, np.arange(6))

    def test_threshold(self):
        r = self.run(inf.InferencePolicy(conf_threshold=0.0, max_students=1))
        assert (r.stopped_by, r.executed) == ("threshold", 1)

    def test_cap(self):
        r = self.run(inf.InferencePolicy(conf_threshold=1.0, max_students=2))
        assert (r.stopped_by, r.executed) == ("cap", 2)

    def test_budget(self):
        r = self.run(inf.InferencePolicy(conf_threshold=1.0, wall_clock_budget=0.0))
        assert (r.stopped_by, r.executed) == ("budget", 1)

    def test_exhausted(self):
        r = self.run(inf.InferencePolicy(conf_threshold=1.0, max_students=5))
        assert (r.stopped_by, r.executed) == ("exhausted", 3)

    def test_cap_at_cascade_size_is_cap(self):
        r = self.run(inf.InferencePolicy(max_students=3))
        assert (r.stopped_by, r.executed) == ("cap", 3)

    def test_written_to_result_json(self, tmp_path):
        r = self.run(inf.InferencePolicy(max_students=2))
        inf.write_result_json(tmp_path / "meta.json", r)
        assert json.loads((tmp_path / "meta.json").read_text())["stopped_by"] == "cap"


def reference_prediction_csv(path, result):
    """The per-row writer write_prediction_csv replaced."""
    pred_class = np.argmax(result.prediction, axis=1)
    max_prob = result.prediction.max(axis=1)
    with open(path, "w") as f:
        f.write("node,pred_class,confidence_weighted_max\n")
        for i in range(result.prediction.shape[0]):
            f.write(f"{i},{pred_class[i]},{format(float(max_prob[i]), '.9g')}\n")


class TestPredictionCsvBytes:
    @pytest.mark.parametrize("n", [1, 5, 20001])
    def test_matches_per_row_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        casc = build_cascade(rng, 2, c=4)
        x = rng.standard_normal((n, 4))
        result = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=2), np.arange(n))
        inf.write_prediction_csv(tmp_path / "new.csv", result)
        reference_prediction_csv(tmp_path / "ref.csv", result)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_matches_per_row_writer_with_special_values(self, tmp_path):
        rng = np.random.default_rng(0)
        casc = build_cascade(rng, 1, c=3)
        x = rng.standard_normal((6, 4))
        result = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=1), [0])
        result.prediction[0] = np.nan
        result.prediction[1] = [np.nan, 0.5, 0.2]
        result.prediction[2] = [0.0, -0.0, 0.0]
        result.prediction[3] = [1e-300, 5e-324, 0.0]
        result.prediction[4] = [np.inf, 0.1, 0.2]
        result.prediction[5] = [0.123456789123, 1 / 3, 2 / 3]
        inf.write_prediction_csv(tmp_path / "new.csv", result)
        reference_prediction_csv(tmp_path / "ref.csv", result)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

