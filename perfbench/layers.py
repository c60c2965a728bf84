"""Per-layer metrics of the traced run, one group per package module.

``install`` wraps the package's public functions where their callers look
them up; ``layer_metrics`` turns the recorded spans into the per-layer
metrics listed in BENCHMARK.json. Totals are taken over the fixed-work
phases (``pipeline`` and ``queries``), so they do not depend on how many
repetitions the time-bounded loop managed. ``numkit`` kernels have no spans
of their own: they are attributed through their callers' spans.
"""

from __future__ import annotations

import statistics

from mlpcascade import cascade, graphio, inference, optim, teacher

from spans import Tracer, median_ms, span_cost_us, total_ms
from workloads import COMMANDS, SWEEP_REPS

FIXED = ("pipeline", "queries")


def install(tracer: Tracer) -> None:
    for name in ("synth_sbm", "save_dataset", "load_dataset", "normalize_adjacency"):
        tracer.wrap(graphio, name, "graphio." + name)
    for name in ("train_teacher", "spmm", "dropout_mask", "gcn_forward",
                 "save_teacher", "export_soft_labels", "load_teacher"):
        tracer.wrap(teacher, name, "teacher." + name)
    for name in ("train_cascade", "train_student", "student_forward", "distill_loss",
                 "mixup_loss", "mixup_examples", "sample_mixup_pairs", "dropout_mask",
                 "save_cascade", "load_cascade"):
        tracer.wrap(cascade, name, "cascade." + name)
    tracer.wrap(optim.AdamW, "step", "optim.AdamW.step")
    tracer.wrap(inference, "run_anytime", "inference.run_anytime",
                count=lambda result: result.executed)
    for name in ("student_forward", "confidence", "ensemble"):
        tracer.wrap(inference, name, "inference." + name)


def _gemm_gflop(w) -> float:
    """Computed FLOP of the full-graph train-mode forward and backward GEMMs
    of one student epoch (2-layer students): forward X1 @ W1 and H @ W2,
    backward dW2, dH and dW1."""
    s = w.spec
    n, d, h, c = s.nodes, s.feat_dim, s.student_hidden, s.classes
    layer1 = 2.0 * n * (d + h) * h
    layer2 = 2.0 * n * h * c
    return (2 * layer1 + 3 * layer2) * s.students * s.student_epochs / 1e9


def layer_metrics(tracer: Tracer, w) -> dict[str, tuple[float, str]]:
    """Totals are over the whole run: ``rounds`` pipelines and all queries."""
    t = tracer
    s = w.spec
    cmd = {name: t.named("cli." + name)
           for name in ("train-teacher", "distill", "sweep", "infer")}

    def within(name: str, command: str) -> list:
        return [x for c in cmd[command] for x in t.named(name, within=c)]

    m: dict[str, tuple[float, str]] = {}

    # graphio
    loads = t.named("graphio.load_dataset", FIXED)
    m["graphio.load_dataset_s"] = (statistics.median(x.dur for x in loads), "s")
    values = len(loads) * (s.nodes * s.feat_dim + w.g.n_edges)
    m["graphio.values_per_s"] = (values / sum(x.dur for x in loads), "1/s")
    m["graphio.normalize_adjacency_ms"] = (median_ms(t.named("graphio.normalize_adjacency")), "ms")
    m["graphio.save_dataset_s"] = (median_ms(t.named("graphio.save_dataset")) / 1000.0, "s")

    # teacher: totals inside the train-teacher commands
    trainings = t.named("teacher.train_teacher", FIXED)
    m["teacher.epochs"] = (s.teacher_epochs, "count")
    m["teacher.epoch_ms"] = (total_ms(trainings) / (s.teacher_epochs * len(trainings)), "ms")
    spmm = within("teacher.spmm", "train-teacher")
    m["teacher.spmm_ms"] = (total_ms(spmm), "ms")
    m["teacher.spmm_calls"] = (len(spmm), "count")
    m["teacher.spmm_share"] = (total_ms(spmm) / total_ms(cmd["train-teacher"]), "fraction")
    m["teacher.dropout_mask_ms"] = (total_ms(within("teacher.dropout_mask", "train-teacher")), "ms")
    m["teacher.gcn_forward_ms"] = (median_ms(t.named("teacher.gcn_forward")), "ms")
    ckpt = sum((t.named("teacher." + n, FIXED)
                for n in ("save_teacher", "export_soft_labels", "load_teacher")), [])
    m["teacher.ckpt_io_s"] = (total_ms(ckpt) / 1000.0, "s")

    # cascade: totals inside the distill commands
    trainings = t.named("cascade.train_cascade", FIXED)
    epochs = s.students * s.student_epochs
    m["cascade.epochs"] = (epochs, "count")
    m["cascade.epoch_ms"] = (total_ms(trainings) / (epochs * len(trainings)), "ms")
    train_ids = {i for i, x in enumerate(t.spans) if x.name == "cascade.train_student"}
    self_ms = 1000.0 * sum(t.self_time(i) for i in train_ids)
    gflop = _gemm_gflop(w) * len(trainings)
    m["cascade.train_self_ms"] = (self_ms, "ms")
    m["cascade.gemm_gflop"] = (gflop, "GFLOP")
    m["cascade.gemm_gflops"] = (gflop / (self_ms / 1000.0), "GFLOP/s")
    m["cascade.val_forward_ms"] = (total_ms(
        [x for x in t.named("cascade.student_forward") if x.parent in train_ids]), "ms")
    m["cascade.distill_loss_ms"] = (total_ms(t.named("cascade.distill_loss", FIXED)), "ms")
    mixup = sum((t.named("cascade." + n, FIXED)
                 for n in ("sample_mixup_pairs", "mixup_examples", "mixup_loss")), [])
    m["cascade.mixup_ms"] = (total_ms(mixup), "ms")
    m["cascade.dropout_mask_ms"] = (total_ms(t.named("cascade.dropout_mask", FIXED)), "ms")
    m["cascade.save_s"] = (median_ms(t.named("cascade.save_cascade", FIXED)) / 1000.0, "s")
    m["cascade.load_s"] = (median_ms(t.named("cascade.load_cascade")) / 1000.0, "s")
    m["cascade.ckpt_bytes"] = (w.ckpt_bytes, "bytes")

    # optim
    steps = t.named("optim.AdamW.step", FIXED)
    m["optim.step_ms"] = (total_ms(steps), "ms")
    m["optim.steps"] = (len(steps), "count")
    student = w.casc.students[0]
    m["optim.param_count"] = (sum(a.size for pair in student.layers for a in pair), "count")

    # inference: totals over every run_anytime call of the fixed-work
    # phases; the per-student time over the pipeline's full-graph calls;
    # the overhead share over the small-batch queries
    runs = t.named("inference.run_anytime", FIXED)
    m["inference.run_anytime_ms"] = (total_ms(runs), "ms")
    m["inference.calls"] = (len(runs), "count")
    m["inference.students_executed_mean"] = (statistics.mean(x.n for x in runs), "count")
    full = t.named("inference.student_forward", ("pipeline",))
    m["inference.student_forward_ms"] = (total_ms(full) / len(full), "ms")
    m["inference.confidence_ms"] = (total_ms(t.named("inference.confidence", FIXED)), "ms")
    m["inference.ensemble_ms"] = (total_ms(t.named("inference.ensemble", FIXED)), "ms")
    query_ms = total_ms(t.named("inference.run_anytime", ("queries",)))
    query_forward_ms = total_ms(t.named("inference.student_forward", ("queries",)))
    m["inference.overhead_share"] = ((query_ms - query_forward_ms) / query_ms, "fraction")
    one = [x for x in t.named("inference.run_anytime", ("loop",)) if x.n == 1]
    m["inference.student_vs_teacher_x"] = (
        median_ms(t.named("teacher.gcn_forward", ("loop",))) / median_ms(one), "x")

    # cli: student forwards of one sweep and one distill report. One pass
    # per run gives every prefix, so K forwards suffice for the distill
    # report and reps * K for the sweep.
    rounds = len(cmd["sweep"])
    sweep_f = len(within("inference.student_forward", "sweep")) // rounds
    distill_f = len(within("inference.student_forward", "distill")) // rounds
    m["cli.sweep_forwards"] = (sweep_f, "count")
    m["cli.distill_report_forwards"] = (distill_f, "count")
    needed = s.students + SWEEP_REPS * s.students
    m["cli.forward_useful_ratio"] = (needed / (sweep_f + distill_f), "fraction")

    # tracing overhead: compare traced.* with the untraced end-to-end run
    m["trace.spans"] = (len(t.spans), "count")
    m["trace.span_cost_us"] = (span_cost_us(), "us")
    m["traced.cli_s"] = (sum(w.metrics[name][0] for name in COMMANDS), "s")
    m["traced.query_mean_ms"] = (w.metrics["query_mean_ms"][0], "ms")
    return m
