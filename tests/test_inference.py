import json

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.inference as inf
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
        cas.StudentTrainMeta(1, 1, 0.0, 0.1, s.fingerprint()) for s in students
    ]
    return cas.Cascade(students=students, metas=metas, teacher_fingerprint="none")


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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 predictions vs 1"):
            inf.ensemble([np.ones((1, 2)) / 2] * 2, [0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no predictions"):
            inf.ensemble([], [])


class TestRunAnytime:
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
            metas=[cas.StudentTrainMeta(1, 1, 0.0, 0.1, "a")] * 2,
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
        assert len(full.probs) == full.executed == n_students
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

    def test_metadata_json_fields(self, tmp_path):
        rng = np.random.default_rng(1)
        casc = build_cascade(rng, 3)
        x = rng.standard_normal((5, 4))
        result = inf.run_anytime(casc, x, inf.InferencePolicy(max_students=2), np.arange(5))
        path = tmp_path / "meta.json"
        inf.write_result_json(path, result)
        doc = json.loads(path.read_text())
        assert doc["executed"] == 2
        assert len(doc["confidences"]) == 2
        assert len(doc["weights"]) == 2
        assert len(doc["per_student_ms"]) == 2
        assert abs(sum(doc["weights"]) - 1.0) < 1e-9


def reference_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


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
    weights = reference_softmax(np.asarray(confs, dtype=np.float64)[None, :]).ravel()
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
    @pytest.mark.parametrize("c", [2, 4, 7, 40])
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
        check = inf._check_index
        monkeypatch.setattr(inf, "_check_index", lambda *a: calls.append(a) or check(*a))
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

