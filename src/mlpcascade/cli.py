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

import argparse
import os
import sys


def _cap_thread_env() -> None:
    """BLAS thread caps must be in the environment before numpy first loads,
    so the --threads flag is scanned from the process command line at import
    time. An explicit ``--threads N`` overrides the inherited variables;
    without it, a variable already set is kept and an unset one gets 1
    (single-threaded, for bit-reproducible runs). A value that is not an
    integer >= 1 sets nothing: argument parsing refuses it with exit 2."""
    n = None
    argv = sys.argv
    for i, tok in enumerate(argv):
        if tok == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif tok.startswith("--threads="):
            n = tok.split("=", 1)[1]
    try:
        n = str(_thread_count(n)) if n is not None else None
    except argparse.ArgumentTypeError:
        n = None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if n is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = n


def _thread_count(tok: str) -> int:
    try:
        n = int(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{tok!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} must be >= 1")
    return n


_cap_thread_env()

import json
import statistics
from pathlib import Path

import numpy as np

from . import cascade as cascade_mod
from . import graphio, inference, numkit, teacher
from .optim import TrainingDivergedError
from .params import json_value

# Defaults of the CLI-only settings. Model and training defaults (the
# reference hyperparameters) are those of TeacherConfig and CascadeConfig.
DEFAULTS = {
    "policy": {"conf_threshold": 0.9, "max_students": None, "budget_ms": None},
    "run": {"seed": 0, "out": ".", "precision": "f32"},
}

# (dataclass field, config-file key, flag dest, type) of every model and
# training value a config file or a flag may set
_TRAINING_VALUES = (
    ("hidden_dim", "hidden_dim", "hidden", int),
    ("lr", "lr", "lr", float),
    ("weight_decay", "weight_decay", "weight_decay", float),
    ("dropout", "dropout", "dropout", float),
    ("max_epochs", "max_epochs", "epochs", int),
    ("patience", "patience", "patience", int),
)
_TEACHER_VALUES = _TRAINING_VALUES + (("depth", "depth", "depth", int),)
_CASCADE_VALUES = _TRAINING_VALUES + (
    ("n_students", "n_students", "students", int),
    ("n_layers", "n_layers", "layers", int),
)
_DISTILL_VALUES = (
    ("alpha", "alpha", "alpha", float),
    ("beta", "beta", "beta", float),
)
_MIXUP_VALUES = (
    ("gamma", "gamma", "gamma", float),
    ("tau", "tau", "tau", float),
    ("sigma", "sigma", "sigma", float),
    ("lambda_init", "lambda_init", "lambda_init", float),
    ("sign_inverted", "lambda_sign_inverted", "lambda_sign_inverted", bool),
)

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


def _resolve(args, dest: str, config: dict, name: str, key: str, kind: type,
             default=None, nullable: bool = False):
    """The value of one setting: its flag ``dest`` when given (argparse typed
    it), else the config file's ``name.key``, else ``default``. A config
    value must be a JSON value of type ``kind`` (``params.json_value``), or
    null where ``nullable``; anything else is a ValueError naming the key
    and the file."""
    flag = getattr(args, dest, None)
    if flag is not None:
        return flag
    sec = _section(config, name)
    if key not in sec:
        return default
    if nullable and sec[key] is None:
        return None
    return json_value(sec[key], kind, f"config file {args.config}: {name}.{key}")


def _section(config: dict, name: str) -> dict:
    sec = config.get(name, {})
    if not isinstance(sec, dict):
        raise ValueError(f"config section {name!r} must be an object")
    return sec


def _run_values(args, config):
    d = DEFAULTS["run"]
    seed = _resolve(args, "seed", config, "run", "seed", int, d["seed"])
    out = Path(_resolve(args, "out", config, "run", "out", str, d["out"]))
    precision = _resolve(args, "precision", config, "run", "precision", str, d["precision"])
    if precision not in ("f32", "f64"):
        raise ValueError(f"precision must be f32 or f64, got {precision!r}")
    dtype = np.float32 if precision == "f32" else np.float64
    return seed, out, dtype


def _data_dir(args, config) -> Path:
    path = _resolve(args, "data", config, "dataset", "path", str)
    if path is None:
        raise ValueError("no dataset: pass --data or set dataset.path in the config")
    return Path(path)


def _norm_features(args, config) -> bool:
    return _resolve(
        args, "normalize_features", config, "dataset", "normalize_features", bool, False
    )


def _set_values(args, config, name: str, table) -> dict:
    """The values of ``table`` that a flag or the config section ``name``
    sets; flags win. Unset values are left out, so the dataclass defaults
    fill them."""
    out = {}
    for field, key, dest, kind in table:
        value = _resolve(args, dest, config, name, key, kind)
        if value is not None:
            out[field] = value
    return out


def _teacher_config(args, config, seed) -> teacher.TeacherConfig:
    return teacher.TeacherConfig(
        **_set_values(args, config, "teacher", _TEACHER_VALUES), seed=seed
    )


def _cascade_config(args, config, seed) -> cascade_mod.CascadeConfig:
    def values(table):
        return _set_values(args, config, "cascade", table)

    return cascade_mod.CascadeConfig(
        **values(_CASCADE_VALUES),
        distill=cascade_mod.DistillConfig(**values(_DISTILL_VALUES)),
        mixup=cascade_mod.MixupConfig(**values(_MIXUP_VALUES)),
        seed=seed,
    )


def _policy(args, config) -> inference.InferencePolicy:
    d = DEFAULTS["policy"]

    def value(dest, key, kind):
        return _resolve(args, dest, config, "policy", key, kind, d[key], nullable=True)

    thr = value("conf_threshold", "conf_threshold", float)
    budget_ms = value("budget_ms", "budget_ms", float)
    return inference.InferencePolicy(
        conf_threshold=None if thr is _DISABLED else thr,
        max_students=value("max_students", "max_students", int),
        wall_clock_budget=None if budget_ms is None else budget_ms / 1000.0,
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
    cfg = _teacher_config(args, config, seed)
    g = graphio.load_dataset(
        _data_dir(args, config), dtype=dtype, normalize_features=_norm_features(args, config)
    )
    artifact = teacher.train_teacher(g, cfg)
    out.mkdir(parents=True, exist_ok=True)
    teacher.save_teacher(artifact, cfg, out / TEACHER_CKPT)
    teacher.export_soft_labels(artifact, out / SOFT_LABELS)

    logits = artifact.logits
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
    cfg = _cascade_config(args, config, seed)
    # the students are MLPs: they never read the graph, so edges.csv is not opened
    nodes = graphio.load_nodes(
        _data_dir(args, config), dtype=dtype, normalize_features=_norm_features(args, config)
    )
    teacher_dir = Path(args.teacher_dir) if args.teacher_dir else out
    artifact, _teacher_cfg = _load_teacher_artifact(teacher_dir)
    if artifact.soft_labels.shape != (nodes.n_nodes, nodes.n_classes):
        raise _RuntimeFail(
            f"teacher/dataset mismatch: soft labels {artifact.soft_labels.shape} vs "
            f"graph ({nodes.n_nodes}, {nodes.n_classes})"
        )
    casc = cascade_mod.train_cascade(nodes, artifact, cfg)
    out.mkdir(parents=True, exist_ok=True)
    cascade_mod.save_cascade(casc, out / CASCADE_CKPT)

    # training already ran every student on every row: score those logits
    # as a cap-K run_anytime over the unlabeled rows would
    probs, confidences = inference.score_logits(
        [meta.logits for meta in casc.metas], nodes.splits.unlabeled
    )
    val, test = nodes.splits.validation, nodes.splits.test
    # class ids once for every prefix; the floats inference.accuracy gives
    val_truth, test_truth = (np.argmax(nodes.labels[s], axis=1) for s in (val, test))
    students = []
    lambda_trajectory: list[float] = []
    prefixes = inference.prefix_ensembles(probs, confidences)
    for k, (meta, prediction) in enumerate(zip(casc.metas, prefixes), start=1):
        students.append(
            {
                "k": k,
                "epochs": meta.epochs,
                "final_lambda": meta.final_lambda,
                "val_accuracy": numkit.accuracy(prediction[val], val_truth),
                "test_accuracy": numkit.accuracy(prediction[test], test_truth),
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


def _sweep_one(casc, nodes, reps: int):
    """Rows (k, accuracy, cum_ms) for one cascade from ``reps`` full runs:
    cumulative cost from per-student time medians, accuracies from the
    prefix ensembles of the last run (each equals a run capped at k)."""
    k_total = casc.n_students
    eval_idx = nodes.splits.unlabeled
    per_student_ms = []
    for _ in range(reps):
        result = inference.run_anytime(
            casc, nodes.features, inference.InferencePolicy(max_students=k_total), eval_idx
        )
        per_student_ms.append([1000.0 * t for t in result.elapsed])
    rows = []
    cum = 0.0
    test = nodes.splits.test
    truth = np.argmax(nodes.labels[test], axis=1)  # once, not once per k
    prefixes = inference.prefix_ensembles(result.probs, result.confidences)
    for k, prediction in enumerate(prefixes, start=1):
        cum += statistics.median(rep[k - 1] for rep in per_student_ms)
        rows.append((k, numkit.accuracy(prediction[test], truth), cum))
    return rows


def cmd_sweep(args, config) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    seed, out, dtype = _run_values(args, config)
    nodes = graphio.load_nodes(
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
            for k, acc, cum_ms in _sweep_one(casc, nodes, args.reps):
                f.write(f"{k},{acc:.6f},{cum_ms:.3f}\n")
    print(f"sweep: {len(paths)} cascade(s), reps={args.reps} -> {out / TRADEOFF_CSV}")
    return 0


def cmd_infer(args, config) -> int:
    seed, out, dtype = _run_values(args, config)
    policy = _policy(args, config)
    cascade_path = Path(args.cascade)
    if not cascade_path.is_file():
        raise _RuntimeFail(f"cascade checkpoint missing: {cascade_path}")
    casc = cascade_mod.load_cascade(cascade_path)
    features_path = Path(args.features)
    if not features_path.is_file():
        raise _RuntimeFail(f"feature file missing: {features_path}")
    x = graphio.read_features(features_path, dtype)
    expected = casc.feat_dim
    if x.shape[1] != expected:
        raise _RuntimeFail(
            f"feature width mismatch: cascade expects d={expected}, file has d={x.shape[1]}"
        )
    result = inference.run_anytime(casc, x, policy, np.arange(x.shape[0]))
    out.mkdir(parents=True, exist_ok=True)
    inference.write_prediction_csv(out / PREDICTIONS_CSV, result)
    inference.write_result_json(out / INFER_META, result)
    print(
        f"infer: executed {result.executed} of {casc.n_students} students "
        f"in {result.timings_ms()['total_ms']:.2f} ms -> {out}"
    )
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (sections: dataset, teacher, cascade, policy, run)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--threads", type=_thread_count, default=None,
                   help="BLAS thread cap, set when the process starts; overrides "
                        "OMP/OPENBLAS/MKL_NUM_THREADS (default: those, else 1; "
                        ">1 trades bit-reproducibility for speed)")
    p.add_argument("--precision", choices=("f32", "f64"),
                   help="working precision (default f32)")


_DROPOUT_HELP = ("dropout rate in [0, 1 - 2^-17), taken as the nearest multiple "
                 "of 1/65536 (default 0.5)")


def _add_teacher_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=int, help="teacher hidden width")
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--dropout", type=float, help=_DROPOUT_HELP)
    p.add_argument("--epochs", type=int, help="max epochs")
    p.add_argument("--patience", type=int, help="early-stopping patience")
    p.add_argument("--depth", type=int, help="graph-conv layers (2 or 3)")


def _add_cascade_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--students", type=int, help="number of students K")
    p.add_argument("--hidden", type=int, help="student hidden width d'")
    p.add_argument("--layers", type=int, help="student layer count L")
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--dropout", type=float, help=_DROPOUT_HELP)
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
