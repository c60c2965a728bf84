"""Experiment orchestration CLI.

Commands: ``synth``, ``train-teacher``, ``distill``, ``infer``, ``sweep``.
Values resolve with documented precedence: built-in defaults (the reference
hyperparameters) < ``--config`` JSON file < explicit command-line flags.
Artifacts land under ``--out`` with fixed filenames; reports hold only
deterministic fields, while timing lives in ``tradeoff.csv`` and
``infer_meta.json``.

Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.
"""

from __future__ import annotations

import os
import sys


def _cap_thread_env() -> None:
    """BLAS thread caps must be in the environment before numpy first loads,
    so the --threads flag is scanned from argv at import time. Default is
    single-threaded for bit-reproducible runs."""
    n = "1"
    argv = sys.argv
    for i, tok in enumerate(argv):
        if tok == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif tok.startswith("--threads="):
            n = tok.split("=", 1)[1]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


_cap_thread_env()

import argparse
import json
import statistics
from pathlib import Path

import numpy as np

from . import cascade as cascade_mod
from . import graphio, inference, teacher
from .optim import TrainingDivergedError

# Reference defaults; a bare run mirrors the published configuration.
DEFAULTS = {
    "teacher": {
        "hidden_dim": 64,
        "lr": 0.01,
        "weight_decay": 5e-4,
        "dropout": 0.5,
        "max_epochs": 200,
        "patience": 50,
        "depth": 2,
    },
    "cascade": {
        "n_students": 10,
        "hidden_dim": 128,
        "n_layers": 2,
        "lr": 0.001,
        "weight_decay": 5e-4,
        "dropout": 0.5,
        "max_epochs": 200,
        "patience": 50,
        "alpha": 0.5,
        "beta": 0.8,
        "gamma": 0.9,
        "tau": 0.1,
        "sigma": 0.1,
        "lambda_init": 0.1,
        "lambda_sign_inverted": False,
    },
    "policy": {"conf_threshold": 0.9, "max_students": None, "budget_ms": None},
    "run": {"seed": 0, "out": ".", "precision": "f32"},
}

TEACHER_CKPT = "teacher.json"
SOFT_LABELS = "soft_labels.csv"
TEACHER_REPORT = "teacher_report.json"
CASCADE_CKPT = "cascade.json"
DISTILL_REPORT = "distill_report.json"
TRADEOFF_CSV = "tradeoff.csv"
PREDICTIONS_CSV = "predictions.csv"
INFER_META = "infer_meta.json"

_DISABLED = "disabled"


class _RuntimeFail(Exception):
    """Command failure that maps to exit code 1."""


def _threshold_arg(tok: str):
    if tok.lower() in ("none", "off", "disabled"):
        return _DISABLED
    value = float(tok)
    return _DISABLED if value < 0 else value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {p}")
    try:
        with open(p) as f:
            cfg = json.load(f)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {p} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {p} must hold a JSON object")
    return cfg


def _resolve(flag_value, section: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in section:
        return section[key]
    return default


def _section(config: dict, name: str) -> dict:
    sec = config.get(name, {})
    if not isinstance(sec, dict):
        raise ValueError(f"config section {name!r} must be an object")
    return sec


def _run_values(args, config):
    run = _section(config, "run")
    seed = int(_resolve(args.seed, run, "seed", DEFAULTS["run"]["seed"]))
    out = Path(_resolve(args.out, run, "out", DEFAULTS["run"]["out"]))
    precision = _resolve(args.precision, run, "precision", DEFAULTS["run"]["precision"])
    if precision not in ("f32", "f64"):
        raise ValueError(f"precision must be f32 or f64, got {precision!r}")
    dtype = np.float32 if precision == "f32" else np.float64
    return seed, out, dtype


def _data_dir(args, config) -> Path:
    path = _resolve(getattr(args, "data", None), _section(config, "dataset"), "path", None)
    if path is None:
        raise ValueError("no dataset: pass --data or set dataset.path in the config")
    return Path(path)


def _norm_features(args, config) -> bool:
    return bool(
        _resolve(
            getattr(args, "normalize_features", None),
            _section(config, "dataset"),
            "normalize_features",
            False,
        )
    )


def _teacher_config(args, config, seed) -> teacher.TeacherConfig:
    sec = _section(config, "teacher")
    d = DEFAULTS["teacher"]
    return teacher.TeacherConfig(
        hidden_dim=int(_resolve(args.hidden, sec, "hidden_dim", d["hidden_dim"])),
        lr=float(_resolve(args.lr, sec, "lr", d["lr"])),
        weight_decay=float(
            _resolve(args.weight_decay, sec, "weight_decay", d["weight_decay"])
        ),
        dropout=float(_resolve(args.dropout, sec, "dropout", d["dropout"])),
        max_epochs=int(_resolve(args.epochs, sec, "max_epochs", d["max_epochs"])),
        patience=int(_resolve(args.patience, sec, "patience", d["patience"])),
        depth=int(_resolve(args.depth, sec, "depth", d["depth"])),
        seed=seed,
    )


def _cascade_config(args, config, seed) -> cascade_mod.CascadeConfig:
    sec = _section(config, "cascade")
    d = DEFAULTS["cascade"]
    distill = cascade_mod.DistillConfig(
        alpha=float(_resolve(args.alpha, sec, "alpha", d["alpha"])),
        beta=float(_resolve(args.beta, sec, "beta", d["beta"])),
    )
    mixup = cascade_mod.MixupConfig(
        gamma=float(_resolve(args.gamma, sec, "gamma", d["gamma"])),
        tau=float(_resolve(args.tau, sec, "tau", d["tau"])),
        sigma=float(_resolve(args.sigma, sec, "sigma", d["sigma"])),
        lambda_init=float(
            _resolve(args.lambda_init, sec, "lambda_init", d["lambda_init"])
        ),
        sign_inverted=bool(
            _resolve(
                args.lambda_sign_inverted,
                sec,
                "lambda_sign_inverted",
                d["lambda_sign_inverted"],
            )
        ),
    )
    return cascade_mod.CascadeConfig(
        n_students=int(_resolve(args.students, sec, "n_students", d["n_students"])),
        hidden_dim=int(_resolve(args.hidden, sec, "hidden_dim", d["hidden_dim"])),
        n_layers=int(_resolve(args.layers, sec, "n_layers", d["n_layers"])),
        lr=float(_resolve(args.lr, sec, "lr", d["lr"])),
        weight_decay=float(
            _resolve(args.weight_decay, sec, "weight_decay", d["weight_decay"])
        ),
        dropout=float(_resolve(args.dropout, sec, "dropout", d["dropout"])),
        max_epochs=int(_resolve(args.epochs, sec, "max_epochs", d["max_epochs"])),
        patience=int(_resolve(args.patience, sec, "patience", d["patience"])),
        distill=distill,
        mixup=mixup,
        seed=seed,
    )


def _policy(args, config) -> inference.InferencePolicy:
    sec = _section(config, "policy")
    d = DEFAULTS["policy"]
    thr = _resolve(args.conf_threshold, sec, "conf_threshold", d["conf_threshold"])
    if thr is _DISABLED:
        thr = None
    max_students = _resolve(args.max_students, sec, "max_students", d["max_students"])
    budget_ms = _resolve(args.budget_ms, sec, "budget_ms", d["budget_ms"])
    return inference.InferencePolicy(
        conf_threshold=None if thr is None else float(thr),
        max_students=None if max_students is None else int(max_students),
        wall_clock_budget=None if budget_ms is None else float(budget_ms) / 1000.0,
    )


def _load_teacher_artifact(teacher_dir: Path):
    ckpt = teacher_dir / TEACHER_CKPT
    soft = teacher_dir / SOFT_LABELS
    for p in (ckpt, soft):
        if not p.is_file():
            raise _RuntimeFail(f"teacher artifact missing: {p}")
    return teacher.load_teacher(ckpt, soft)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def cmd_synth(args, config) -> int:
    seed, out, dtype = _run_values(args, config)
    g = graphio.synth_sbm(
        n_nodes=args.nodes,
        n_classes=args.classes,
        feat_dim=args.feat_dim,
        p_in=args.p_in,
        p_out=args.p_out,
        feat_noise=args.noise,
        seed=seed,
        dtype=dtype,
    )
    graphio.save_dataset(g, out)
    print(f"synth: wrote N={g.n_nodes} C={g.n_classes} d={g.feat_dim} "
          f"edges={g.n_edges} -> {out}")
    return 0


def cmd_train_teacher(args, config) -> int:
    seed, out, dtype = _run_values(args, config)
    g = graphio.load_dataset(
        _data_dir(args, config), dtype=dtype, normalize_features=_norm_features(args, config)
    )
    cfg = _teacher_config(args, config, seed)
    artifact = teacher.train_teacher(g, cfg)
    out.mkdir(parents=True, exist_ok=True)
    teacher.save_teacher(artifact, cfg, out / TEACHER_CKPT)
    teacher.export_soft_labels(artifact, out / SOFT_LABELS)

    norm_adj = graphio.normalize_adjacency(g.adjacency)
    logits = teacher.gcn_forward(norm_adj, g.features, artifact.params)
    report = {
        "seed": seed,
        "epochs": artifact.train_meta.epochs,
        "best_epoch": artifact.train_meta.best_epoch,
        "accuracy": {
            "labeled": inference.accuracy(logits, g.labels, g.splits.labeled),
            "validation": inference.accuracy(logits, g.labels, g.splits.validation),
            "test": inference.accuracy(logits, g.labels, g.splits.test),
        },
    }
    _write_json(out / TEACHER_REPORT, report)
    print(
        f"train-teacher: test_accuracy={report['accuracy']['test']:.4f} "
        f"epochs={report['epochs']} -> {out}"
    )
    return 0


def cmd_distill(args, config) -> int:
    seed, out, dtype = _run_values(args, config)
    g = graphio.load_dataset(
        _data_dir(args, config), dtype=dtype, normalize_features=_norm_features(args, config)
    )
    teacher_dir = Path(args.teacher_dir) if args.teacher_dir else out
    artifact, _teacher_cfg = _load_teacher_artifact(teacher_dir)
    if artifact.soft_labels.shape != (g.n_nodes, g.n_classes):
        raise _RuntimeFail(
            f"teacher/dataset mismatch: soft labels {artifact.soft_labels.shape} vs "
            f"graph ({g.n_nodes}, {g.n_classes})"
        )
    cfg = _cascade_config(args, config, seed)
    casc = cascade_mod.train_cascade(g, artifact, cfg)
    out.mkdir(parents=True, exist_ok=True)
    cascade_mod.save_cascade(casc, out / CASCADE_CKPT)

    result = inference.run_anytime(
        casc,
        g.features,
        inference.InferencePolicy(max_students=casc.n_students),
        g.splits.unlabeled,
    )
    students = []
    lambda_trajectory: list[float] = []
    prefixes = inference.prefix_ensembles(result.probs, result.confidences)
    for k, (meta, prediction) in enumerate(zip(casc.metas, prefixes), start=1):
        students.append(
            {
                "k": k,
                "epochs": meta.epochs,
                "final_lambda": meta.final_lambda,
                "val_accuracy": inference.accuracy(
                    prediction, g.labels, g.splits.validation
                ),
                "test_accuracy": inference.accuracy(
                    prediction, g.labels, g.splits.test
                ),
            }
        )
        lambda_trajectory.extend(meta.lambda_history[1:])
    report = {
        "seed": seed,
        "n_students": casc.n_students,
        "teacher_fingerprint": casc.teacher_fingerprint,
        "students": students,
        "lambda_trajectory": lambda_trajectory,
    }
    _write_json(out / DISTILL_REPORT, report)
    print(
        f"distill: K={casc.n_students} "
        f"full_cascade_test_accuracy={students[-1]['test_accuracy']:.4f} -> {out}"
    )
    return 0


def _sweep_one(casc, g, reps: int):
    """Rows (k, accuracy, cum_ms) for one cascade from ``reps`` full runs:
    cumulative cost from per-student time medians, accuracies from the
    prefix ensembles of the last run (each equals a run capped at k)."""
    k_total = casc.n_students
    eval_idx = g.splits.unlabeled
    per_student_ms = []
    for _ in range(reps):
        result = inference.run_anytime(
            casc, g.features, inference.InferencePolicy(max_students=k_total), eval_idx
        )
        per_student_ms.append([1000.0 * t for t in result.elapsed])
    rows = []
    cum = 0.0
    prefixes = inference.prefix_ensembles(result.probs, result.confidences)
    for k, prediction in enumerate(prefixes, start=1):
        cum += statistics.median(rep[k - 1] for rep in per_student_ms)
        rows.append((k, inference.accuracy(prediction, g.labels, g.splits.test), cum))
    return rows


def cmd_sweep(args, config) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    seed, out, dtype = _run_values(args, config)
    g = graphio.load_dataset(
        _data_dir(args, config), dtype=dtype, normalize_features=_norm_features(args, config)
    )
    paths = [Path(p) for p in args.cascade] if args.cascade else [out / CASCADE_CKPT]
    for p in paths:
        if not p.is_file():
            raise _RuntimeFail(f"cascade checkpoint missing: {p}")

    out.mkdir(parents=True, exist_ok=True)
    with open(out / TRADEOFF_CSV, "w") as f:
        f.write("k,accuracy,cum_ms\n")
        for p in paths:
            casc = cascade_mod.load_cascade(p)
            for k, acc, cum_ms in _sweep_one(casc, g, args.reps):
                f.write(f"{k},{acc:.6f},{cum_ms:.3f}\n")
    print(f"sweep: {len(paths)} cascade(s), reps={args.reps} -> {out / TRADEOFF_CSV}")
    return 0


def cmd_infer(args, config) -> int:
    seed, out, dtype = _run_values(args, config)
    cascade_path = Path(args.cascade)
    if not cascade_path.is_file():
        raise _RuntimeFail(f"cascade checkpoint missing: {cascade_path}")
    casc = cascade_mod.load_cascade(cascade_path)
    features_path = Path(args.features)
    if not features_path.is_file():
        raise _RuntimeFail(f"feature file missing: {features_path}")
    x = graphio._read_features(features_path, dtype)
    expected = casc.students[0].feat_dim
    if x.shape[1] != expected:
        raise _RuntimeFail(
            f"feature width mismatch: cascade expects d={expected}, file has d={x.shape[1]}"
        )
    policy = _policy(args, config)
    result = inference.run_anytime(casc, x, policy, np.arange(x.shape[0]))
    out.mkdir(parents=True, exist_ok=True)
    inference.write_prediction_csv(out / PREDICTIONS_CSV, result)
    inference.write_result_json(out / INFER_META, result)
    total_ms = 1000.0 * sum(result.elapsed)
    print(
        f"infer: executed {result.executed} of {casc.n_students} students "
        f"in {total_ms:.2f} ms -> {out}"
    )
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (sections: dataset, teacher, cascade, policy, run)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS thread cap (default 1; >1 trades bit-reproducibility for speed)")
    p.add_argument("--precision", choices=("f32", "f64"),
                   help="working precision (default f32)")


def _add_teacher_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=int, help="teacher hidden width")
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int, help="max epochs")
    p.add_argument("--patience", type=int, help="early-stopping patience")
    p.add_argument("--depth", type=int, help="graph-conv layers (2 or 3)")


def _add_cascade_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--students", type=int, help="number of students K")
    p.add_argument("--hidden", type=int, help="student hidden width d'")
    p.add_argument("--layers", type=int, help="student layer count L")
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int, help="max epochs per student")
    p.add_argument("--patience", type=int, help="early-stopping patience")
    p.add_argument("--alpha", type=float, help="CE weight in the distillation blend")
    p.add_argument("--beta", type=float, help="k^beta growth of the distillation term")
    p.add_argument("--gamma", type=float, help="mixing-rate adjustment rate")
    p.add_argument("--tau", type=float, help="mixing-rate loss reference point")
    p.add_argument("--sigma", type=float, help="mixup-loss EMA smoothing")
    p.add_argument("--lambda-init", type=float, help="initial mixing rate")
    p.add_argument("--lambda-sign-inverted", action="store_const", const=True,
                   default=None, help="grow the mixing rate when the loss drops")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--conf-threshold", type=_threshold_arg,
                   help="confidence gate in [0,1]; 'none' or negative disables")
    p.add_argument("--max-students", type=int)
    p.add_argument("--budget-ms", type=float, help="wall-clock budget in milliseconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpcascade",
        description="Distill a graph-convolution teacher into an anytime cascade of MLP students.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a stochastic-block-model dataset")
    p.add_argument("--nodes", type=int, default=600)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--feat-dim", type=int, default=32)
    p.add_argument("--p-in", type=float, default=0.1)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--noise", type=float, default=1.0)
    _add_run_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-teacher", help="train the graph-conv teacher and export soft labels")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--normalize-features", action="store_const", const=True, default=None,
                   help="L1-normalize feature rows on load")
    _add_teacher_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill", help="train the student cascade from teacher soft labels")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--teacher-dir", help="directory with teacher.json + soft_labels.csv (default: --out)")
    p.add_argument("--normalize-features", action="store_const", const=True, default=None,
                   help="L1-normalize feature rows on load")
    _add_cascade_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("sweep", help="accuracy vs cumulative inference cost for k=1..K")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--cascade", action="append",
                   help="cascade checkpoint; repeat for one block of rows per "
                        "(per-seed) cascade (default: <out>/cascade.json)")
    p.add_argument("--normalize-features", action="store_const", const=True, default=None,
                   help="L1-normalize feature rows on load")
    p.add_argument("--reps", type=int, default=5, help="timing repetitions per row")
    _add_run_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("infer", help="anytime inference over a feature file")
    p.add_argument("--cascade", required=True, help="cascade checkpoint")
    p.add_argument("--features", required=True, help="features.csv-format file")
    _add_policy_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (_RuntimeFail, FileNotFoundError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
