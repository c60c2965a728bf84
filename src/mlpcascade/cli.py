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
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import cascade as cascade_mod
from . import graphio, inference, numkit, teacher
from .optim import TrainingDivergedError
from .params import json_value, write_json

# Defaults of the run and policy settings. Model and training defaults (the
# reference hyperparameters) are the field defaults of TeacherConfig,
# CascadeConfig, DistillConfig and MixupConfig.
DEFAULTS = {
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
    return _DISABLED if tok.lower() in ("none", "off", "disabled") else float(tok)


class _Setting(NamedTuple):
    """One setting: the config file's ``section.key`` and the flag that
    overrides it (dest ``section.key``). ``kind`` is the JSON type of the
    config value and the type of the flag's value, a bool being a switch.
    ``field`` names the config dataclass field it sets where that is not
    ``key``, ``parse`` parses the flag where ``kind`` does not, and
    ``choices`` limits the values of both."""

    section: str
    key: str
    flag: str
    kind: type
    help: str | None = None
    field: str | None = None
    parse: Callable | None = None
    choices: tuple | None = None


_DROPOUT_HELP = ("dropout rate in [0, 1 - 2^-17), taken as the nearest multiple "
                 "of 1/65536 (default 0.5)")

# every setting a config file or a flag may set, each declared once
_SETTINGS = (
    _Setting("dataset", "path", "--data", str, "dataset directory"),
    _Setting("dataset", "normalize_features", "--normalize-features", bool,
             "L1-normalize feature rows on load"),
    _Setting("teacher", "hidden_dim", "--hidden", int, "teacher hidden width"),
    _Setting("teacher", "lr", "--lr", float),
    _Setting("teacher", "weight_decay", "--weight-decay", float),
    _Setting("teacher", "dropout", "--dropout", float, _DROPOUT_HELP),
    _Setting("teacher", "max_epochs", "--epochs", int, "max epochs"),
    _Setting("teacher", "patience", "--patience", int, "early-stopping patience"),
    _Setting("teacher", "depth", "--depth", int, "graph-conv layers (2 or 3)"),
    _Setting("cascade", "n_students", "--students", int, "number of students K"),
    _Setting("cascade", "hidden_dim", "--hidden", int, "student hidden width d'"),
    _Setting("cascade", "n_layers", "--layers", int, "student layer count L"),
    _Setting("cascade", "lr", "--lr", float),
    _Setting("cascade", "weight_decay", "--weight-decay", float),
    _Setting("cascade", "dropout", "--dropout", float, _DROPOUT_HELP),
    _Setting("cascade", "max_epochs", "--epochs", int, "max epochs per student"),
    _Setting("cascade", "patience", "--patience", int, "early-stopping patience"),
    _Setting("cascade", "alpha", "--alpha", float, "CE weight in the distillation blend"),
    _Setting("cascade", "beta", "--beta", float, "k^beta growth of the distillation term"),
    _Setting("cascade", "gamma", "--gamma", float, "mixing-rate adjustment rate"),
    _Setting("cascade", "tau", "--tau", float, "mixing-rate loss reference point"),
    _Setting("cascade", "sigma", "--sigma", float, "mixup-loss EMA smoothing"),
    _Setting("cascade", "lambda_init", "--lambda-init", float, "initial mixing rate"),
    _Setting("cascade", "lambda_sign_inverted", "--lambda-sign-inverted", bool,
             "grow the mixing rate when the loss drops", field="sign_inverted"),
    _Setting("policy", "conf_threshold", "--conf-threshold", float,
             "confidence gate in [0, 1]; 'none', 'off' or 'disabled' disables it",
             parse=_threshold_arg),
    _Setting("policy", "max_students", "--max-students", int),
    _Setting("policy", "budget_ms", "--budget-ms", float, "wall-clock budget in milliseconds"),
    _Setting("run", "seed", "--seed", int, "RNG seed (default 0)"),
    _Setting("run", "out", "--out", str, "output directory (default .)"),
    _Setting("run", "precision", "--precision", str, "working precision (default f32)",
             choices=("f32", "f64")),
)
_BY_KEY = {(s.section, s.key): s for s in _SETTINGS}
_SECTIONS = sorted({s.section for s in _SETTINGS})


def _load_config(path: str | None) -> dict:
    """The config file at ``path``, checked whole: every section and key a
    declared setting, every value a JSON value of its type
    (``params.json_value``) and one of its choices, ``null`` only in
    ``policy``. A ValueError naming the file and the key otherwise."""
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
    checked = {}
    for name, section in cfg.items():
        if name not in _SECTIONS:
            raise ValueError(
                f"config file {p}: unknown section {name!r} (sections: {', '.join(_SECTIONS)})"
            )
        if not isinstance(section, dict):
            raise ValueError(f"config file {p}: config section {name!r} must be an object")
        checked[name] = {}
        for key, value in section.items():
            where = f"config file {p}: {name}.{key}"
            setting = _BY_KEY.get((name, key))
            if setting is None:
                keys = ", ".join(s.key for s in _SETTINGS if s.section == name)
                raise ValueError(f"{where} is not a setting ({name} keys: {keys})")
            if not (value is None and name == "policy"):
                value = json_value(value, setting.kind, where)
            if setting.choices and value not in setting.choices:
                raise ValueError(
                    f"{where} must be {' or '.join(setting.choices)}, got {json.dumps(value)}"
                )
            checked[name][key] = value
    return checked


def _given(args, config: dict, section: str) -> dict:
    """The values of ``section``'s settings that a flag or the config file
    sets, by dataclass field: the flag's when given, else the config
    file's. Unset values are left out, so the defaults fill them."""
    values, file = {}, config.get(section, {})
    for s in _SETTINGS:
        if s.section == section:
            flag = getattr(args, f"{section}.{s.key}", None)
            if flag is not None or s.key in file:
                values[s.field or s.key] = file[s.key] if flag is None else flag
    return values


def _run_values(args, config):
    run = {**DEFAULTS["run"], **_given(args, config, "run")}
    dtype = np.float32 if run["precision"] == "f32" else np.float64
    return run["seed"], Path(run["out"]), dtype


def _read_dataset(args, config, dtype, read=graphio.load_nodes):
    """The dataset of ``dataset.path``, read by ``read``."""
    dataset = _given(args, config, "dataset")
    if "path" not in dataset:
        raise ValueError("no dataset: pass --data or set dataset.path in the config")
    return read(
        Path(dataset["path"]),
        dtype=dtype,
        normalize_features=dataset.get("normalize_features", False),
    )


def _teacher_config(args, config, seed) -> teacher.TeacherConfig:
    return teacher.TeacherConfig(**_given(args, config, "teacher"), seed=seed)


def _cascade_config(args, config, seed) -> cascade_mod.CascadeConfig:
    values = _given(args, config, "cascade")

    def of(cls):
        names = {f.name for f in fields(cls)}
        return {k: v for k, v in values.items() if k in names}

    return cascade_mod.CascadeConfig(
        **of(cascade_mod.CascadeConfig),
        distill=cascade_mod.DistillConfig(**of(cascade_mod.DistillConfig)),
        mixup=cascade_mod.MixupConfig(**of(cascade_mod.MixupConfig)),
        seed=seed,
    )


def _policy(args, config) -> inference.InferencePolicy:
    policy = {**DEFAULTS["policy"], **_given(args, config, "policy")}
    thr, budget_ms = policy["conf_threshold"], policy["budget_ms"]
    return inference.InferencePolicy(
        conf_threshold=None if thr is _DISABLED else thr,
        max_students=policy["max_students"],
        wall_clock_budget=None if budget_ms is None else budget_ms / 1000.0,
    )


def _load_teacher_artifact(teacher_dir: Path):
    ckpt = teacher_dir / TEACHER_CKPT
    soft = teacher_dir / SOFT_LABELS
    for p in (ckpt, soft):
        if not p.is_file():
            raise _RuntimeFail(f"teacher artifact missing: {p}")
    return teacher.load_teacher(ckpt, soft)


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
    g = _read_dataset(args, config, dtype, graphio.load_dataset)
    # the teacher reads the graph only through Â: the edge list goes before training
    norm_adj = graphio.normalized_adjacency(g)
    nodes = graphio.NodeTables(g.features, g.labels, g.splits)
    del g
    artifact = teacher.train_teacher(nodes, norm_adj, cfg)
    out.mkdir(parents=True, exist_ok=True)
    teacher.save_teacher(artifact, cfg, out / TEACHER_CKPT)
    teacher.export_soft_labels(artifact, out / SOFT_LABELS)

    logits = artifact.logits
    report = {
        "seed": seed,
        "epochs": artifact.train_meta.epochs,
        "best_epoch": artifact.train_meta.best_epoch,
        "accuracy": {
            "labeled": inference.accuracy(logits, nodes.labels, nodes.splits.labeled),
            "validation": inference.accuracy(logits, nodes.labels, nodes.splits.validation),
            "test": inference.accuracy(logits, nodes.labels, nodes.splits.test),
        },
    }
    write_json(out / TEACHER_REPORT, report)
    print(
        f"train-teacher: test_accuracy={report['accuracy']['test']:.4f} "
        f"epochs={report['epochs']} -> {out}"
    )
    return 0


def cmd_distill(args, config) -> int:
    seed, out, dtype = _run_values(args, config)
    cfg = _cascade_config(args, config, seed)
    # the students are MLPs: they never read the graph, so edges.csv is not opened
    nodes = _read_dataset(args, config, dtype)
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
    write_json(out / DISTILL_REPORT, report)
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
    nodes = _read_dataset(args, config, dtype)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpcascade",
        description="Distill a graph-convolution teacher into an anytime cascade of MLP students.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, sections, help_text):
        """A subcommand with the flags of the settings of ``sections`` and run."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for s in _SETTINGS:
            if s.section not in (*sections, "run"):
                continue
            if s.kind is bool:
                kw = {"action": "store_const", "const": True}
            else:
                kw = {"type": s.parse or s.kind, "choices": s.choices,
                      "metavar": None if s.choices else s.flag[2:].replace("-", "_").upper()}
            p.add_argument(s.flag, dest=f"{s.section}.{s.key}", help=s.help, **kw)
        p.add_argument("--config", help="JSON config file (sections: dataset, teacher, cascade, policy, run)")
        p.add_argument("--threads", type=_thread_count, default=None,
                       help="BLAS thread cap, set when the process starts; overrides "
                            "OMP/OPENBLAS/MKL_NUM_THREADS (default: those, else 1; "
                            ">1 trades bit-reproducibility for speed)")
        return p

    p = command("synth", cmd_synth, (), "generate a stochastic-block-model dataset")
    p.add_argument("--nodes", type=int, default=600)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--feat-dim", type=int, default=32)
    p.add_argument("--p-in", type=float, default=0.1)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--noise", type=float, default=1.0)

    command("train-teacher", cmd_train_teacher, ("dataset", "teacher"),
            "train the graph-conv teacher and export soft labels")

    p = command("distill", cmd_distill, ("dataset", "cascade"),
                "train the student cascade from teacher soft labels")
    p.add_argument("--teacher-dir", help="directory with teacher.json + soft_labels.csv (default: --out)")

    p = command("sweep", cmd_sweep, ("dataset",), "accuracy vs cumulative inference cost for k=1..K")
    p.add_argument("--cascade", action="append",
                   help="cascade checkpoint; repeat for one block of rows per "
                        "(per-seed) cascade (default: <out>/cascade.json)")
    p.add_argument("--reps", type=int, default=5, help="timing repetitions per row")

    p = command("infer", cmd_infer, ("policy",), "anytime inference over a feature file")
    p.add_argument("--cascade", required=True, help="cascade checkpoint")
    p.add_argument("--features", required=True, help="features.csv-format file")
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
