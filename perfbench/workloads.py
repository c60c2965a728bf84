"""The benchmark workloads and the output checks that guard them.

Every workload runs the same phases on its own graph shape, in ``rounds``
rounds; each round does

1. setup     -- generate the seeded block-model dataset and write it as CSV
                (``setups`` times in all; extra ones come before round one);
2. pipeline  -- ``train-teacher -> distill -> sweep -> infer`` through the
                in-process ``mlpcascade.cli.main``, with the epoch counts
                pinned (``patience = max_epochs - 1``) so every run does the
                same training work;
3. queries   -- its share of a closed loop with one client sending
                ``queries`` sequential ``run_anytime`` calls of ``BATCH``
                seeded-random rows in the fixed policy ``MIX``;
4. loop      -- its share of ``--seconds`` of full-graph ``run_anytime``
                (cap K and cap 1) and teacher ``gcn_forward`` calls.

The shares of 3 and 4 are spread over the run because the speed of a shared
host drifts. For the same reason every timed sample is reported in
host-adjusted time, from a reference probe that runs all through the run
(see hostclock.py); the raw wall times are in the ``detail`` block.
Command and setup times are medians over their samples. Per-call latencies
are means over their calls, each call adjusted by its nearest probes (a
median of calls lands in whichever host mode held for most of them); the
query tail is a percentile of the same adjusted calls.

The shapes decide which layer dominates: see README.md in this directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hostclock import HostClock
from mlpcascade import cascade, cli, graphio, inference, teacher

BATCH = 128
SWEEP_REPS = 2
CONF_THRESHOLD = 0.9  # the CLI's default policy, passed explicitly to infer
# Cap K is the majority, so most queries run the whole student loop.
MIX = ("cap_k", "cap_1", "cap_k", "threshold", "cap_k")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
COMMANDS = ("train_teacher_s", "distill_s", "sweep_s", "infer_s")


@dataclass(frozen=True)
class Spec:
    nodes: int
    classes: int
    feat_dim: int
    p_in: float
    p_out: float
    teacher_hidden: int
    teacher_epochs: int
    students: int
    student_hidden: int
    student_epochs: int
    student_lr: float  # short epoch caps need a faster rate than the 0.001 default
    queries: int  # whole run; a multiple of len(MIX)
    rounds: int  # pipeline rounds
    setups: int = 2  # at least rounds; extra setups run before the first round
    noise: float = 1.5


WORKLOADS = {
    # Wide dense features: student GEMMs, dropout masks, AdamW, CSV ingest and
    # the JSON checkpoint dominate; aggregation is negligible (avg degree ~4).
    "cora-shape": Spec(2702, 7, 1433, 0.009, 0.0003, 64, 20, 4, 128, 10, 0.005, 600, 2, 3),
    # Criterion-7 graph: spmm dominates the teacher, edge lines dominate
    # ingest, and K=10 makes the O(K^2) per-prefix reruns the largest
    # inference cost. Its 128-row query stream (K=10, d=64) is where the
    # per-call overhead of run_anytime dominates instead of GEMM throughput.
    "sbm-20k": Spec(20000, 4, 64, 0.018, 0.0005, 64, 4, 10, 64, 4, 0.01, 1500, 2, 2),
}

# Same phases at toy sizes, for the smoke test of the benchmark itself.
TINY = {
    "cora-shape": Spec(350, 7, 48, 0.05, 0.002, 16, 4, 3, 16, 3, 0.005, 30, 2),
    "sbm-20k": Spec(400, 4, 16, 0.05, 0.002, 16, 4, 3, 16, 3, 0.01, 30, 2),
}

# Deterministic artifacts of the pipeline (no timing fields inside).
HASHED = (
    "teacher.json",
    "soft_labels.csv",
    "cascade.json",
    "teacher_report.json",
    "distill_report.json",
    "predictions.csv",
)


class PipelineFailed(RuntimeError):
    """A CLI command failed, so later phases have no artifacts to use."""


class Checks:
    """Counts checked operations; each failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return bool(ok)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile with at least
    TAIL_MIN_BEYOND samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p, float(np.percentile(samples, p))
    return 50.0, float(np.percentile(samples, 50.0))


class Workload:
    def __init__(self, name, spec: Spec, seed: int, seconds: float, workdir: Path,
                 tracer=None):
        if spec.queries % len(MIX) or spec.setups < spec.rounds:
            raise ValueError(f"{name}: queries must be a multiple of the mix length "
                             "and setups at least rounds")
        self.name = name
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.data = workdir / "data"
        self.out = workdir / "run"
        self.tracer = tracer
        self.checks = Checks()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: dict = {"workload": name, "seed": seed}
        self.digests: dict[str, str] = {}
        self.clock = HostClock()
        # wall times and their host-adjusted values, sample by sample
        self.times: dict[str, list[float]] = {m: [] for m in ("setup_s", *COMMANDS)}
        self.times_adj: dict[str, list[float]] = {m: [] for m in self.times}
        # (start, wall seconds) of every query and full-graph loop call
        self.calls: dict[str, list[tuple[float, float]]] = {
            name: [] for name in ("query", "full", "one", "teacher")
        }
        self.hits = 0
        self.executed: dict[str, list[int]] = {name: [] for name in MIX}
        self.worst_row_sum_error = 0.0
        self.g = None
        self.casc = None

    # -- helpers ---------------------------------------------------------------

    def _phase(self, run: str) -> None:
        if self.tracer is not None:
            self.tracer.run = run

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _timed(self, metric: str, fn):
        """Run ``fn``; record its wall and adjusted time."""
        mark = self.clock.mark()
        result = fn()
        dt = self.clock.wall(mark)
        self.times[metric].append(dt)
        self.times_adj[metric].append(dt * self.clock.factor(mark[0], time.perf_counter()))
        return result

    def _call(self, name: str, fn):
        """Run one short call of ``fn``; record its start and wall time."""
        mark = self.clock.mark()
        result = fn()
        self.calls[name].append((mark[0], self.clock.wall(mark)))
        return result

    def _metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def _rows_sum_to_one(self, res) -> bool:
        """Ensemble rows sum to 1 within 1e-9 for a float64 cascade. A
        float32 cascade rounds each student's softmax to float32 before the
        float64 ensemble, so there the bound is the 1e-6 of criterion 8c."""
        err = float(np.abs(res.prediction.sum(axis=1) - 1.0).max())
        self.worst_row_sum_error = max(self.worst_row_sum_error, err)
        return err <= self.row_sum_tol

    # -- phases ----------------------------------------------------------------

    def run(self) -> None:
        s = self.spec
        # The queries and the full-graph loop run in evenly spread shares,
        # one after every command from the first distill on.
        self.slots = len(COMMANDS) * s.rounds - 1
        self.slots_done = 0
        self.clock.start()
        try:
            self.run_rounds()
        finally:
            self.clock.stop()
        self.finish()

    def run_rounds(self) -> None:
        s = self.spec
        for r in range(s.rounds):
            for _ in range(s.setups - s.rounds + 1 if r == 0 else 1):
                self.setup()
            self.pipeline()
            self._phase("checks")
            if r == 0:
                self.check_artifacts()
                continue
            for name in HASHED:
                self.checks.expect(sha256_file(self.out / name) == self.digests[name],
                                   f"round {r}: {name} differs from round 0")

    def slot(self) -> None:
        if self.casc is None:
            if not (self.out / cli.CASCADE_CKPT).is_file():
                return  # first train-teacher: nothing to query yet
            self.prepare()
        i, n, q = self.slots_done, self.slots, self.spec.queries
        self.query_chunk(i * q // n, (i + 1) * q // n)
        self.loop_chunk(self.seconds / n)
        self.slots_done += 1

    def setup(self) -> None:
        s = self.spec
        self._phase("setup")

        def generate_and_write():
            g = graphio.synth_sbm(
                s.nodes, s.classes, s.feat_dim, s.p_in, s.p_out, s.noise, seed=self.seed
            )
            graphio.save_dataset(g, self.data)
            return g

        g = self._timed("setup_s", generate_and_write)
        digest = [sha256_file(p) for p in sorted(self.data.iterdir())]
        if self.g is None:
            self.g, self.dataset_digest = g, digest
        self.checks.expect(digest == self.dataset_digest,
                           "same-seed datasets differ between rounds")

    def pipeline(self) -> None:
        s, data, out, seed = self.spec, str(self.data), str(self.out), str(self.seed)
        commands = [
            ["train-teacher", "--data", data, "--out", out, "--seed", seed,
             "--hidden", str(s.teacher_hidden), "--epochs", str(s.teacher_epochs),
             "--patience", str(s.teacher_epochs - 1)],
            ["distill", "--data", data, "--teacher-dir", out, "--out", out, "--seed", seed,
             "--students", str(s.students), "--hidden", str(s.student_hidden),
             "--epochs", str(s.student_epochs), "--patience", str(s.student_epochs - 1),
             "--lr", str(s.student_lr)],
            ["sweep", "--data", data, "--out", out, "--seed", seed,
             "--reps", str(SWEEP_REPS)],
            ["infer", "--cascade", str(self.out / cli.CASCADE_CKPT),
             "--features", str(self.data / "features.csv"), "--out", out, "--seed", seed,
             "--conf-threshold", str(CONF_THRESHOLD)],
        ]
        # Keep a reference to the cascade the CLI trains, to compare its
        # fingerprint with the one load_cascade gives back.
        saved = []
        save = cascade.save_cascade

        def keep_and_save(c, path):
            saved.append(c)
            return save(c, path)

        def command(argv):
            with self._span("cli." + argv[0]):
                return cli.main(argv)

        cascade.save_cascade = keep_and_save
        try:
            for metric, argv in zip(COMMANDS, commands):
                self._phase("pipeline")
                rc = self._timed(metric, lambda: command(argv))
                if not self.checks.expect(rc == 0, f"{argv[0]} exited {rc}"):
                    raise PipelineFailed(f"{argv[0]} exited {rc}")
                self.slot()
        finally:
            cascade.save_cascade = save
        self.trained = saved[-1]

    def prepare(self) -> None:
        """After the first distill: load what the queries and the loop use
        and calibrate the threshold policy."""
        g = self.g
        self._phase("prep")
        self.casc = cascade.load_cascade(self.out / cli.CASCADE_CKPT)
        self.ckpt_bytes = (self.out / cli.CASCADE_CKPT).stat().st_size
        dtype = self.casc.students[0].layers[0][0].dtype
        self.row_sum_tol = 1e-9 if dtype == np.float64 else 1e-6
        self.teacher_params = teacher.load_teacher(
            self.out / cli.TEACHER_CKPT, self.out / cli.SOFT_LABELS
        )[0].params
        self.norm_adj = graphio.normalize_adjacency(g.adjacency)
        self.class_ids = np.argmax(g.labels, axis=1)
        k_total = self.casc.n_students
        self.rng = np.random.default_rng([self.seed, 1])
        self.eval_idx = np.arange(BATCH)
        cap_k = inference.InferencePolicy(max_students=k_total)
        cap_1 = inference.InferencePolicy(max_students=1)
        # One threshold for the run, calibrated on batches the stream does not
        # send so that about half of them stop by the middle student: batch
        # confidence need not grow with k, so take each batch's best
        # confidence up to there.
        middle = (k_total + 1) // 2
        calib = [
            max(inference.run_anytime(
                self.casc, g.features[self.rng.choice(g.n_nodes, BATCH, replace=False)],
                cap_k, self.eval_idx,
            ).confidences[:middle])
            for _ in range(16)
        ]
        self.threshold = statistics.median(calib)
        self.policies = {
            "cap_k": cap_k,
            "cap_1": cap_1,
            "threshold": inference.InferencePolicy(conf_threshold=self.threshold),
        }
        self.full_cap_1 = inference.run_anytime(
            self.casc, g.features, cap_1, np.arange(g.n_nodes)
        ).prediction

    def check_artifacts(self) -> None:
        s, g, casc, out, ok = self.spec, self.g, self.casc, self.out, self.checks.expect
        with open(out / cli.TEACHER_REPORT) as f:
            t_report = json.load(f)
        with open(out / cli.DISTILL_REPORT) as f:
            d_report = json.load(f)
        ok(t_report["epochs"] == s.teacher_epochs,
           f"teacher ran {t_report['epochs']} epochs, pinned {s.teacher_epochs}")
        ok(casc.n_students == s.students and d_report["n_students"] == s.students,
           "cascade size differs from the requested K")
        for st in d_report["students"]:
            ok(st["epochs"] == s.student_epochs,
               f"student {st['k']} ran {st['epochs']} epochs, pinned {s.student_epochs}")
        ok(casc.fingerprint() == self.trained.fingerprint(),
           "load_cascade does not give back the trained cascade")
        self._metric("teacher_test_acc", t_report["accuracy"]["test"], "fraction")
        self._metric("student1_test_acc", d_report["students"][0]["test_accuracy"], "fraction")
        self._metric("cascade_test_acc", d_report["students"][-1]["test_accuracy"], "fraction")
        logits = teacher.gcn_forward(self.norm_adj, g.features, self.teacher_params)
        ok(inference.accuracy(logits, g.labels, g.splits.test) == t_report["accuracy"]["test"],
           "teacher forward disagrees with teacher_report.json")

        # tradeoff.csv and the distill report against per-k library runs
        with open(out / cli.TRADEOFF_CSV) as f:
            rows = list(csv.DictReader(f))
        ok(len(rows) == s.students, f"tradeoff.csv has {len(rows)} rows, want {s.students}")
        for k in range(1, s.students + 1):
            res = inference.run_anytime(
                casc, g.features, inference.InferencePolicy(max_students=k),
                g.splits.unlabeled,
            )
            acc = inference.accuracy(res.prediction, g.labels, g.splits.test)
            row = rows[k - 1] if k <= len(rows) else {"k": -1, "accuracy": "nan"}
            ok(int(row["k"]) == k and abs(float(row["accuracy"]) - acc) <= 1e-6,
               f"tradeoff.csv row {k} disagrees with the library run")
            ok(d_report["students"][k - 1]["test_accuracy"] == acc,
               f"distill report k={k} disagrees with the library run")
            ok(self._rows_sum_to_one(res), f"ensemble rows (k={k}) do not sum to 1")

        # infer output against a library run on the loaded checkpoint
        res = inference.run_anytime(
            casc, g.features, inference.InferencePolicy(conf_threshold=CONF_THRESHOLD),
            np.arange(g.n_nodes),
        )
        with open(out / cli.PREDICTIONS_CSV) as f:
            pred = list(csv.DictReader(f))
        with open(out / cli.INFER_META) as f:
            meta = json.load(f)
        classes = np.array([int(r["pred_class"]) for r in pred])
        maxprob = np.array([float(r["confidence_weighted_max"]) for r in pred])
        ok(len(pred) == g.n_nodes, f"predictions.csv has {len(pred)} rows, want {g.n_nodes}")
        ok(len(pred) == 0 or (classes.min() >= 0 and classes.max() < g.n_classes),
           "predicted class outside [0, C)")
        ok(len(pred) == g.n_nodes
           and np.array_equal(classes, np.argmax(res.prediction, axis=1))
           and np.allclose(maxprob, res.prediction.max(axis=1), rtol=1e-8, atol=0)
           and meta["executed"] == res.executed,
           "infer predictions differ from the library run")
        self.detail["infer_executed"] = meta["executed"]

        for name in HASHED:
            self.digests[name] = sha256_file(out / name)

    def query_chunk(self, start: int, stop: int) -> None:
        g, casc, ok = self.g, self.casc, self.checks.expect
        k_total = casc.n_students
        self._phase("queries")
        for i in range(start, stop):
            name = MIX[i % len(MIX)]
            rows = self.rng.choice(g.n_nodes, BATCH, replace=False)
            xq = g.features[rows]
            res = self._call("query", lambda: inference.run_anytime(
                casc, xq, self.policies[name], self.eval_idx))
            self.hits += int(np.sum(np.argmax(res.prediction, axis=1) == self.class_ids[rows]))
            self.executed[name].append(res.executed)
            good = 1 <= res.executed <= k_total and self._rows_sum_to_one(res)
            if name == "cap_k":
                good = good and res.executed == k_total
            elif name == "cap_1":
                good = (good and res.executed == 1
                        and float(np.abs(res.prediction - self.full_cap_1[rows]).max()) <= 1e-6)
            ok(good, f"query {i} ({name}) failed its checks")

        # The budget rule stops on wall-clock time, so its executed count is
        # not fixed work; it runs once per share, untimed, and is only checked.
        self._phase("checks")
        res = inference.run_anytime(
            casc, xq, inference.InferencePolicy(wall_clock_budget=1e-4), self.eval_idx
        )
        ok(1 <= res.executed <= k_total and self._rows_sum_to_one(res),
           "budget-rule query failed its checks")

    def loop_chunk(self, seconds: float) -> None:
        g, casc, ok = self.g, self.casc, self.checks.expect
        all_idx = np.arange(g.n_nodes)
        cap_k = self.policies["cap_k"]
        cap_1 = self.policies["cap_1"]
        first = not self.calls["teacher"]
        self._phase("loop")
        reps = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or reps < 1:
            res = self._call("full", lambda: inference.run_anytime(
                casc, g.features, cap_k, all_idx))
            self._call("one", lambda: inference.run_anytime(casc, g.features, cap_1, all_idx))
            self._call("teacher", lambda: teacher.gcn_forward(
                self.norm_adj, g.features, self.teacher_params))
            reps += 1
            if first:
                first = False
                ok(res.executed == casc.n_students and self._rows_sum_to_one(res),
                   "full-graph cap-K run failed its checks")

    def finish(self) -> None:
        s, ok = self.spec, self.checks.expect
        ok(all(len(v) == s.queries * MIX.count(name) // len(MIX)
               for name, v in self.executed.items()),
           "policy mix differs from the fixed one")
        for name, values in self.times_adj.items():
            self._metric(name, statistics.median(values), "s")
        wall_ms = {name: [1000.0 * w for _, w in calls] for name, calls in self.calls.items()}
        adj_ms = {name: [1000.0 * self.clock.adjust_call(t0, w) for t0, w in calls]
                  for name, calls in self.calls.items()}
        ms = wall_ms["query"]
        pct, tail = tail_latency(adj_ms["query"])
        self._metric("query_mean_ms", statistics.mean(adj_ms["query"]), "ms")
        self._metric("query_tail_ms", tail, "ms")
        self._metric("query_acc", self.hits / (s.queries * BATCH), "fraction")
        self._metric("anytime_full_ms", statistics.mean(adj_ms["full"]), "ms")
        self._metric("teacher_infer_ms", statistics.mean(adj_ms["teacher"]), "ms")
        self._metric(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
        k_total = self.casc.n_students
        self.detail.update({
            "graph": {"nodes": self.g.n_nodes, "edges": self.g.n_edges},
            "wall_times_s": self.times,
            "adjusted_times_s": self.times_adj,
            "probes": {"count": len(self.clock.durations),
                       "mean_ms": 1000.0 * statistics.mean(self.clock.durations),
                       "total_s": self.clock.busy},
            "queries": {
                "count": s.queries,
                "batch": BATCH,
                "tail_percentile": pct,
                "tail_samples_beyond": int(round(len(ms) * (100.0 - pct) / 100.0)),
                "wall_p50_ms": statistics.median(ms),
                "wall_mean_ms": statistics.mean(ms),
                "wall_tail_ms": float(np.percentile(ms, pct)),
                "threshold": self.threshold,
                "executed_histogram": {
                    name: np.bincount(v, minlength=k_total + 1)[1:].tolist()
                    for name, v in self.executed.items()
                },
            },
            "loop": {"reps": len(self.calls["full"]),
                     "anytime_one_ms": statistics.mean(adj_ms["one"]),
                     "wall_anytime_full_mean_ms": statistics.mean(wall_ms["full"]),
                     "wall_teacher_mean_ms": statistics.mean(wall_ms["teacher"])},
            "worst_row_sum_error": self.worst_row_sum_error,
        })


def check_determinism(record: Path, key: str, digests: dict, checks: Checks) -> None:
    """Compare this run's artifact digests with earlier runs of the same key
    (workload, size and seed) in this checkout, then record them."""
    seen = {}
    if record.is_file():
        with open(record) as f:
            seen = json.load(f)
    if key in seen:
        for name, digest in digests.items():
            checks.expect(seen[key].get(name) == digest,
                          f"{name} differs from an earlier same-seed run")
    else:
        seen[key] = digests
        tmp = record.with_name(record.name + f".{os.getpid()}")
        with open(tmp, "w") as f:
            json.dump(seen, f, sort_keys=True, indent=1)
        os.replace(tmp, record)
