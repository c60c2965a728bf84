"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The two Cora-based criteria need the real dataset on disk; they skip with
instructions when it is absent (this sandbox has no network access), and run
at full fidelity once `scripts/prepare_cora.py` has produced `data/cora`.
"""

import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import mlpcascade as mc
import mlpcascade.cascade as cas
import mlpcascade.graphio as gio
import mlpcascade.inference as inf
import mlpcascade.teacher as t
from mlpcascade.cli import main as cli_main
from mlpcascade.numkit import (
    GradPair,
    finite_diff_check,
    kl_divergence,
    masked_cross_entropy,
    soft_targets,
    softmax_rows,
)
from mlpcascade.params import LayerStack


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def cora_dir():
    cands = [os.environ.get("MLPCASCADE_CORA")]
    cands.append(Path(__file__).resolve().parent.parent / "data" / "cora")
    for cand in cands:
        if cand and Path(cand).is_dir():
            return Path(cand)
    return None


requires_cora = pytest.mark.skipif(
    cora_dir() is None,
    reason="Cora dataset not present (no network in this environment); "
    "run scripts/prepare_cora.py and place the result in data/cora "
    "or point MLPCASCADE_CORA at it",
)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    n, d, hidden, c = 20, 7, 4, 3
    worst = {"ce": 0.0, "kl": 0.0, "gcn": 0.0, "student": 0.0}
    for seed in range(20):
        rng = np.random.default_rng(seed)

        onehot = np.eye(c)[rng.integers(0, c, n)].astype(float)
        mask = np.sort(rng.choice(n, size=6, replace=False))
        params = {"logits": rng.standard_normal((n, c))}
        worst["ce"] = max(
            worst["ce"],
            finite_diff_check(lambda p: masked_cross_entropy(p["logits"], onehot, mask), params),
        )

        kl_targets = soft_targets(softmax_rows(rng.standard_normal((n, c))))
        params = {"logits": rng.standard_normal((n, c))}
        worst["kl"] = max(
            worst["kl"],
            finite_diff_check(lambda p: kl_divergence(kl_targets, p["logits"]), params),
        )

        dense = (rng.random((n, n)) < 0.2).astype(np.float64)
        dense = np.triu(dense, 1)
        adj = gio.normalize_adjacency(sparse.csr_array(dense + dense.T))
        x = rng.standard_normal((n, d))

        # both objectives at the dropout training runs (0.5 by default),
        # each call drawing the same masks from a fresh rng
        def gcn_loss(p):
            tp = LayerStack([(p["w1"], p["b1"]), (p["w2"], p["b2"])])
            return t.teacher_ce_gradpair(
                adj, x, tp, onehot, mask, t.TeacherConfig().dropout, np.random.default_rng(seed)
            )

        tp = t.init_teacher(d, hidden, c, 2, rng, np.float64)
        worst["gcn"] = max(worst["gcn"], finite_diff_check(gcn_loss, tp.param_dict()))

        h_prev = rng.standard_normal((n, hidden))
        teacher_probs = softmax_rows(rng.standard_normal((n, c)))
        pairs = cas.sample_mixup_pairs(mask, seed=seed)

        targets = soft_targets(teacher_probs)  # what train_cascade passes

        def student_loss(p):
            sp = LayerStack([(p["w1"], p["b1"]), (p["w2"], p["b2"])])
            distill, mix, grads = cas.total_loss_gradpair(
                sp, np.hstack([x[:, :d], h_prev]), targets, onehot, mask, k=3,
                cfg=cas.CascadeConfig(alpha=0.5, beta=0.8), pairs=pairs, lam=0.35,
                rng=np.random.default_rng(seed),
            )
            return GradPair(distill + mix, grads)

        sp = cas.init_student(d, hidden, c, 2, rng, np.float64)
        worst["student"] = max(worst["student"], finite_diff_check(student_loss, sp.param_dict()))

    elapsed = time.perf_counter() - start
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 120.0
    report(
        "criterion 1 (gradient suite)",
        ok,
        f"max rel errs: ce={worst['ce']:.2e} kl={worst['kl']:.2e} "
        f"gcn={worst['gcn']:.2e} student={worst['student']:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: small-instance oracles
# ---------------------------------------------------------------------------


def test_criterion_2_small_instance_oracles():
    checks = []

    # spmm vs dense matmul, 1e-12 relative
    worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        s = sparse.csr_array(sparse.random_array((8, 8), density=0.3, rng=r))
        d = r.standard_normal((8, 5))
        got = mc.spmm(s, d)
        expect = s.toarray() @ d
        worst = max(worst, np.max(np.abs(got - expect) / np.maximum(np.abs(expect), 1.0)))
    checks.append(("spmm", worst < 1e-12, worst))

    # normalize_adjacency vs dense formula, 1e-12
    worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 30))
        dense = np.triu((r.random((n, n)) < 0.2).astype(np.float64), 1)
        dense = dense + dense.T
        got = gio.normalize_adjacency(sparse.csr_array(dense)).toarray()
        a_tilde = dense + np.eye(n)
        inv = 1.0 / np.sqrt(a_tilde.sum(axis=1))
        worst = max(worst, np.max(np.abs(got - inv[:, None] * a_tilde * inv[None, :])))
    checks.append(("normalize_adjacency", worst < 1e-12, worst))

    # student_forward vs compositional oracle, 1e-10
    worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        p = cas.init_student(4, 3, 2, 2, r, np.float64)
        x = r.standard_normal((6, 4))
        hp = r.standard_normal((6, 3))
        a = np.concatenate([x, hp], axis=1)
        h, logits = cas.student_forward(p, a)
        a = np.maximum(a @ p.layers[0][0] + p.layers[0][1], 0.0)
        oracle = a @ p.layers[1][0] + p.layers[1][1]
        worst = max(worst, np.max(np.abs(logits - oracle)), np.max(np.abs(h - a)))
    checks.append(("student_forward", worst < 1e-10, worst))

    # ensemble weights vs independently computed softmax, 1e-12
    worst = 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        confs = list(r.uniform(0.3, 1.0, size=int(r.integers(1, 6))))
        preds = [softmax_rows(r.standard_normal((5, 3))) for _ in confs]
        _, weights = mc.ensemble(preds, confs)
        e = np.exp(np.asarray(confs) - max(confs))
        worst = max(worst, np.max(np.abs(weights - e / e.sum())))
    checks.append(("ensemble weights", worst < 1e-12, worst))

    # run_anytime vs brute-force run-all-then-recombine
    count_ok = True
    worst = 0.0
    for seed in range(5):
        r = np.random.default_rng(seed)
        students = [cas.init_student(4, 3, 3, 2, r, np.float64) for _ in range(5)]
        meta = cas.StudentTrainMeta(1, 1, 0.0, init_fingerprint="x", lambda_history=[0.1])
        casc = cas.Cascade(students, [meta] * 5, "fp")
        x = r.standard_normal((9, 4))
        idx = np.arange(9)
        h = np.zeros((9, 3))
        all_preds, all_confs = [], []
        for p in students:
            h, logits = cas.student_forward(p, np.concatenate([x, h], axis=1))
            all_preds.append(softmax_rows(logits))
            all_confs.append(inf.confidence(logits, idx))
        for max_k in (1, 2, 3, 5):
            got = inf.run_anytime(casc, x, mc.InferencePolicy(max_students=max_k), idx)
            expect, _ = inf.ensemble(all_preds[:max_k], all_confs[:max_k])
            count_ok = count_ok and got.executed == max_k
            worst = max(worst, np.max(np.abs(got.prediction - expect)))
        thr = all_confs[1]  # fires exactly at student 2
        got = inf.run_anytime(casc, x, mc.InferencePolicy(conf_threshold=thr), idx)
        first = next(i + 1 for i, cv in enumerate(all_confs) if cv >= thr)
        count_ok = count_ok and got.executed == first
    checks.append(("run_anytime brute force", count_ok and worst < 1e-9, worst))

    ok = all(flag for _, flag, _ in checks)
    report(
        "criterion 2 (small-instance oracles)",
        ok,
        ", ".join(f"{name} {val:.1e}" for name, _, val in checks),
    )


# ---------------------------------------------------------------------------
# criteria 3 and 4: Cora reproduction (desk scale)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cora_runs():
    """Five seeded teacher trainings on Cora with fresh 20/500/1000 splits."""
    import dataclasses

    path = cora_dir()
    base = gio.load_dataset(path)
    assert base.n_nodes == 2708
    assert base.n_edges == 5278
    assert base.feat_dim == 1433
    assert base.n_classes == 7
    runs = []
    for seed in range(5):
        splits = gio._splits_from_labels(
            np.argmax(base.labels, axis=1), 20, 500, 1000, seed=seed
        )
        g = dataclasses.replace(base, splits=splits)
        cfg = t.TeacherConfig(
            hidden_dim=64, lr=0.01, weight_decay=5e-4, dropout=0.5,
            max_epochs=200, patience=50, seed=seed,
        )
        art = t.train_teacher(g, gio.normalized_adjacency(g), cfg)
        nadj = gio.normalize_adjacency(g.adjacency)
        logits = t.gcn_forward(nadj, g.features, art.params)
        acc = inf.accuracy(logits, g.labels, g.splits.test)
        runs.append((g, art, acc))
    return runs


@requires_cora
def test_criterion_3_cora_teacher(cora_runs):
    start = time.perf_counter()
    accs = [acc for _, _, acc in cora_runs]
    median = statistics.median(accs)
    epochs_ok = all(art.train_meta.epochs <= 200 for _, art, _ in cora_runs)
    elapsed = time.perf_counter() - start
    ok = median >= 0.77 and epochs_ok and elapsed < 600.0
    report(
        "criterion 3 (Cora teacher)",
        ok,
        f"median test acc {median:.4f} over {[f'{a:.3f}' for a in accs]}",
    )


@requires_cora
def test_criterion_4_cora_distillation(cora_runs):
    teacher_median = statistics.median(acc for _, _, acc in cora_runs)
    accs = []
    for seed, (g, art, _) in enumerate(cora_runs):
        cfg = cas.CascadeConfig(
            n_students=4, hidden_dim=128, n_layers=2, lr=0.001, weight_decay=5e-4,
            dropout=0.5, max_epochs=200, patience=50,
            alpha=0.5, beta=0.8, gamma=0.9, seed=seed,
        )
        casc = cas.train_cascade(g, art, cfg)
        result = inf.run_anytime(
            casc, g.features, mc.InferencePolicy(max_students=4), g.splits.unlabeled
        )
        accs.append(inf.accuracy(result.prediction, g.labels, g.splits.test))
    median = statistics.median(accs)
    ok = median >= teacher_median - 0.01
    report(
        "criterion 4 (Cora distillation)",
        ok,
        f"cascade median {median:.4f} vs teacher median {teacher_median:.4f}",
    )


# ---------------------------------------------------------------------------
# criteria 5 and 6: trade-off sweep and early exit
# ---------------------------------------------------------------------------


def prefix_accuracies(casc, g):
    """Test accuracy of each cap-k run, k = 1..K, by k."""
    accs = {}
    for k in range(1, casc.n_students + 1):
        r = inf.run_anytime(
            casc, g.features, mc.InferencePolicy(max_students=k), g.splits.unlabeled
        )
        accs[k] = inf.accuracy(r.prediction, g.labels, g.splits.test)
    return accs


def tradeoff_holds(runs):
    """Criterion 5's rule on the runs' accuracies: the median ensemble
    accuracies of k = 1..4 never drop and end no lower than they start,
    each within half a point. The rule and the medians k = 1..4."""
    medians = [statistics.median(accs[k] for accs in runs) for k in range(1, 5)]
    band = 0.005  # half a point
    end_gain_ok = medians[3] >= medians[0] - band
    monotone_ok = all(b >= a - band for a, b in zip(medians, medians[1:]))
    return end_gain_ok and monotone_ok, medians


@pytest.fixture(scope="module")
def tradeoff_runs():
    """Five seeded teacher+cascade runs on the pinned synthetic config."""
    runs = []
    for seed in range(5):
        g = mc.synth_sbm(600, 3, 32, 0.15, 0.02, 1.5, seed=seed)
        tcfg = t.TeacherConfig(
            hidden_dim=32, lr=0.01, weight_decay=5e-4, dropout=0.5,
            max_epochs=200, patience=50, seed=seed,
        )
        art = t.train_teacher(g, gio.normalized_adjacency(g), tcfg)
        ccfg = cas.CascadeConfig(
            n_students=4, hidden_dim=64, n_layers=2, lr=0.01, weight_decay=5e-4,
            dropout=0.5, max_epochs=150, patience=30,
            alpha=0.5, beta=0.8, gamma=0.9, seed=seed,
        )
        casc = cas.train_cascade(g, art, ccfg)
        runs.append({"graph": g, "teacher": art, "config": ccfg, "cascade": casc,
                     "accs": prefix_accuracies(casc, g)})
    return runs


def test_criterion_5_tradeoff_sweep(tradeoff_runs):
    ok, medians = tradeoff_holds([run["accs"] for run in tradeoff_runs])
    report(
        "criterion 5 (accuracy vs cost trade-off)",
        ok,
        "medians k=1..4: " + ", ".join(f"{m:.4f}" for m in medians),
    )


def test_criterion_5_rule_fails_on_uniform_soft_labels(tradeoff_runs):
    """Criterion 5's rule can fail: cascades distilled from soft labels
    that are all 1/C, on the same graphs and teachers, break it."""
    runs = []
    for run in tradeoff_runs:
        art, g = run["teacher"], run["graph"]
        uniform = replace(art, soft_labels=np.full_like(art.soft_labels, 1.0 / g.n_classes))
        runs.append(prefix_accuracies(cas.train_cascade(g, uniform, run["config"]), g))
    ok, medians = tradeoff_holds(runs)
    assert not ok, medians


def test_criterion_6_early_exit(tradeoff_runs):
    run = tradeoff_runs[0]
    casc, g = run["cascade"], run["graph"]
    x, idx = g.features, g.splits.unlabeled

    zero_thr = inf.run_anytime(casc, x, mc.InferencePolicy(conf_threshold=0.0), idx)
    all_students = inf.run_anytime(casc, x, mc.InferencePolicy(max_students=4), idx)
    executed = [
        inf.run_anytime(
            casc, x, mc.InferencePolicy(conf_threshold=thr, max_students=4), idx
        ).executed
        for thr in (0.5, 0.7, 0.9, 0.99)
    ]
    ok = (
        zero_thr.executed == 1
        and all_students.executed == 4
        and executed == sorted(executed)
    )
    report(
        "criterion 6 (early-exit behavior)",
        ok,
        f"threshold 0 -> {zero_thr.executed}, disabled -> {all_students.executed}, "
        f"counts over thresholds {executed}",
    )


# ---------------------------------------------------------------------------
# criterion 7: inference speedup at 20k nodes
# ---------------------------------------------------------------------------


def test_criterion_7_inference_speedup():
    g = mc.synth_sbm(20_000, 4, 64, 0.018, 0.0005, 1.5, seed=0)
    nadj = gio.normalize_adjacency(g.adjacency)
    rng = np.random.default_rng(0)
    teacher_params = t.init_teacher(64, 64, 4, 2, rng, np.float32)
    student = cas.init_student(64, 64, 4, 2, rng, np.float32)
    meta = cas.StudentTrainMeta(1, 1, 0.0, init_fingerprint="x", lambda_history=[0.1])
    casc = cas.Cascade([student], [meta], "fp")
    policy = mc.InferencePolicy(max_students=1)
    eval_idx = np.arange(g.n_nodes)

    teacher_times, cascade_times = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        t.gcn_forward(nadj, g.features, teacher_params)
        teacher_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        inf.run_anytime(casc, g.features, policy, eval_idx)
        cascade_times.append(time.perf_counter() - t0)
    teacher_ms = 1000 * statistics.median(teacher_times)
    cascade_ms = 1000 * statistics.median(cascade_times)
    ok = cascade_ms <= 0.5 * teacher_ms
    report(
        "criterion 7 (inference speedup)",
        ok,
        f"teacher {teacher_ms:.1f}ms vs single-student {cascade_ms:.1f}ms "
        f"({teacher_ms / cascade_ms:.2f}x, avg degree {2 * g.n_edges / g.n_nodes:.0f})",
    )


# ---------------------------------------------------------------------------
# criterion 8: invariant suites
# ---------------------------------------------------------------------------


def test_criterion_8a_lambda_clamping(tradeoff_runs):
    violations = 0
    for run in tradeoff_runs:
        for meta in run["cascade"].metas:
            violations += sum(
                1 for lam in meta.lambda_history if not 0.0 <= lam <= 0.5
            )
    for cfg in (cas.CascadeConfig(), cas.CascadeConfig(gamma=-0.9)):
        rng = np.random.default_rng(0)
        lam, ema = 0.1, 0.2
        for _ in range(1000):
            lam, ema = cfg.update_lambda(lam, ema, float(rng.uniform(0, 5)))
            violations += not 0.0 <= lam <= 0.5
    report("criterion 8a (lambda clamping)", violations == 0, f"{violations} violations")


def test_criterion_8b_mixed_label_normalization():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        n, c = 12, int(rng.integers(2, 6))
        x = rng.standard_normal((n, 5))
        h = rng.standard_normal((n, 3))
        y = np.eye(c)[rng.integers(0, c, n)].astype(float)
        pairs = cas.sample_mixup_pairs(np.arange(n), seed=int(rng.integers(1 << 30)))
        lam = float(rng.uniform(0, 0.5))
        _, mixed_y = cas.mixup_examples(np.hstack([x, h]), y, pairs, lam)
        worst = max(worst, float(np.max(np.abs(mixed_y.sum(axis=1) - 1.0))))
    report("criterion 8b (mixed-label normalization)", worst < 1e-12, f"worst {worst:.1e}")


def test_criterion_8c_softmax_row_sums():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        scale = float(rng.choice([1.0, 10.0, 1e4]))
        logits = rng.standard_normal((20, 5)) * scale
        worst = max(worst, float(np.max(np.abs(softmax_rows(logits).sum(axis=1) - 1.0))))
    report("criterion 8c (softmax row sums)", worst < 1e-6, f"worst {worst:.1e}")


def test_criterion_8d_warm_start_isolation(tradeoff_runs):
    ok = True
    for run in tradeoff_runs:
        casc = run["cascade"]
        for k in range(1, casc.n_students):
            # student k+1 started as an exact copy of student k's final
            # weights; if its training had mutated them, the stored student
            # would no longer match the recorded init fingerprint
            ok = ok and casc.metas[k].init_fingerprint == casc.students[k - 1].fingerprint()
    report("criterion 8d (warm-start isolation)", ok)


def test_criterion_8e_determinism_byte_identical(tmp_path):
    def pipeline(out_root: Path):
        data = out_root / "data"
        run = out_root / "run"
        assert cli_main([
            "synth", "--nodes", "90", "--classes", "3", "--feat-dim", "8",
            "--p-in", "0.4", "--p-out", "0.05", "--noise", "1.0",
            "--seed", "5", "--out", str(data),
        ]) == 0
        assert cli_main([
            "train-teacher", "--data", str(data), "--out", str(run),
            "--hidden", "8", "--epochs", "12", "--patience", "6", "--seed", "5",
        ]) == 0
        assert cli_main([
            "distill", "--data", str(data), "--teacher-dir", str(run),
            "--out", str(run), "--students", "2", "--hidden", "8",
            "--epochs", "10", "--patience", "5", "--seed", "5",
        ]) == 0
        assert cli_main([
            "infer", "--cascade", str(run / "cascade.json"),
            "--features", str(data / "features.csv"),
            "--conf-threshold", "none", "--max-students", "2", "--out", str(run),
        ]) == 0
        return data, run

    d1, r1 = pipeline(tmp_path / "a")
    d2, r2 = pipeline(tmp_path / "b")
    compared = []
    for rel in ("features.csv", "edges.csv", "labels.csv", "splits.json"):
        compared.append((rel, (d1 / rel).read_bytes() == (d2 / rel).read_bytes()))
    for rel in (
        "teacher.json", "soft_labels.csv", "teacher_report.json",
        "cascade.json", "distill_report.json", "predictions.csv",
    ):
        compared.append((rel, (r1 / rel).read_bytes() == (r2 / rel).read_bytes()))
    bad = [name for name, same in compared if not same]
    report(
        "criterion 8e (same-seed byte-identical artifacts)",
        not bad,
        f"{len(compared)} files compared" + (f"; mismatches: {bad}" if bad else ""),
    )
