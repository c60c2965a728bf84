"""Experiment orchestration CLI.

Commands: ``synth``, ``train-teacher``, ``distill``, ``infer``, ``sweep``.
Values resolve with documented precedence: built-in defaults (the reference
hyperparameters) < ``--config`` JSON file < explicit command-line flags.
Artifacts land under ``--out`` with fixed filenames. Every clock value a
command measures goes to its ``<command>_timing.json`` (``sweep_timing.json``,
``infer_timing.json``) and to no other file, so at one BLAS thread every
other file is byte-identical for a seed.

Exit codes: 0 success, 1 a missing input file (``params.require_file``,
the config file included) or diverged training, 2 usage/validation error,
a directory in place of an input file among them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import cascade as cascade_mod
from . import graphio, inference, teacher
from .optim import TrainingDivergedError
from .params import json_value, read_json, write_json

# Defaults of the run and policy settings. Model and training defaults (the
# reference hyperparameters) are the field defaults of TeacherConfig and
# CascadeConfig.
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
SWEEP_TIMING = "sweep_timing.json"
INFER_TIMING = "infer_timing.json"

_DISABLED = "disabled"


def _threshold_arg(tok: str):
    return _DISABLED if tok.lower() in ("none", "off", "disabled") else float(tok)


class _Setting(NamedTuple):
    """One setting: the config file's ``section.key`` and the flag that
    overrides it (dest ``section.key``). ``kind`` is the JSON type of the
    config value and the type of the flag's value. The key is the name of
    the config dataclass field it sets; ``parse`` parses the flag where
    ``kind`` does not, and ``choices`` limits the values of both."""

    section: str
    key: str
    flag: str
    kind: type
    help: str | None = None
    parse: Callable | None = None
    choices: tuple | None = None


_DROPOUT_HELP = ("dropout rate in [0, 1 - 2^-17), taken as the nearest multiple "
                 "of 1/65536 (default 0.5)")

# every setting a config file or a flag may set, each declared once
_SETTINGS = (
    _Setting("dataset", "path", "--data", str, "dataset directory"),
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
    _Setting("cascade", "beta", "--beta", float,
             "exponent of k^beta on student k's CE + KL; under AdamW its only effect "
             "is to shrink the mixup term's share"),
    _Setting("cascade", "gamma", "--gamma", float,
             "mixing-rate adjustment rate; a negative rate reverses the drift"),
    _Setting("cascade", "tau", "--tau", float, "mixing-rate loss reference point"),
    _Setting("cascade", "sigma", "--sigma", float, "mixup-loss EMA smoothing"),
    _Setting("cascade", "lambda_init", "--lambda-init", float, "initial mixing rate"),
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
    cfg = read_json(p)
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
                values[s.key] = file[s.key] if flag is None else flag
    return values


def _run_values(args, config):
    """The seed, the output directory and the dtype. An output path that
    is an existing non-directory, or lies under one, is refused here,
    before a command reads its inputs."""
    run = {**DEFAULTS["run"], **_given(args, config, "run")}
    dtype = np.float32 if run["precision"] == "f32" else np.float64
    out = Path(run["out"])
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                under = "" if p == out else f" is under {p}, which"
                raise ValueError(f"output path {out}{under} is not a directory")
            break
    return run["seed"], out, dtype


def _dataset_dir(args, config) -> Path:
    path = _given(args, config, "dataset").get("path")
    if path is None:
        raise ValueError("no dataset: pass --data or set dataset.path in the config")
    return Path(path)


def _read_dataset(args, config, dtype, read=graphio.load_nodes):
    """The dataset of ``dataset.path``, read by ``read``. ``train-teacher``
    and ``distill`` fit on the labeled and validation nodes and score the
    test nodes, and ``sweep`` scores the test nodes, so a ``splits.json``
    with an empty list, which the library loader accepts, is refused here,
    naming the file and the key, before any training or any write."""
    path = _dataset_dir(args, config)
    data = read(path, dtype=dtype)
    for name in ("labeled", "validation", "test"):
        if getattr(data.splits, name).size == 0:
            raise ValueError(
                f"{path / 'splits.json'}: {name!r} is an empty list; train-teacher, "
                "distill and sweep need labeled, validation and test nodes"
            )
    return data


def _teacher_config(args, config, seed) -> teacher.TeacherConfig:
    return teacher.TeacherConfig(**_given(args, config, "teacher"), seed=seed)


def _cascade_config(args, config, seed) -> cascade_mod.CascadeConfig:
    return cascade_mod.CascadeConfig(**_given(args, config, "cascade"), seed=seed)


def _policy(args, config) -> inference.InferencePolicy:
    """The policy of the flags, the config file and the defaults. A value
    outside its ``inference.POLICY_RANGES`` range is refused naming the
    flag, or the config file and the key, that gave it; the budget's range
    in milliseconds is that of the seconds it becomes."""
    policy = {**DEFAULTS["policy"], **_given(args, config, "policy")}
    for key, value in policy.items():
        ok, refusal = inference.POLICY_RANGES["wall_clock_budget" if key == "budget_ms" else key]
        if value is not None and value is not _DISABLED and not ok(value):
            given = (_BY_KEY["policy", key].flag if getattr(args, f"policy.{key}") is not None
                     else f"config file {args.config}: policy.{key}")
            shown = f"{value:g}" if isinstance(value, float) else value
            raise ValueError(f"{given} {shown} {refusal}")
    thr, budget_ms = policy["conf_threshold"], policy["budget_ms"]
    return inference.InferencePolicy(
        conf_threshold=None if thr is _DISABLED else thr,
        max_students=policy["max_students"],
        wall_clock_budget=None if budget_ms is None else budget_ms / 1000.0,
    )


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
    artifact, _teacher_cfg = teacher.load_teacher(
        teacher_dir / TEACHER_CKPT, teacher_dir / SOFT_LABELS
    )
    if artifact.soft_labels.shape != (nodes.n_nodes, nodes.n_classes):
        (n, c), labels = artifact.soft_labels.shape, _dataset_dir(args, config) / "labels.csv"
        raise ValueError(
            f"teacher/dataset mismatch: {teacher_dir / SOFT_LABELS} holds {n} nodes of "
            f"{c} classes, {labels} {nodes.n_nodes} nodes of {nodes.n_classes} classes"
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
    students = []
    lambda_trajectory: list[float] = []
    prefixes = inference.prefix_ensembles(probs, confidences)
    for k, (meta, prediction) in enumerate(zip(casc.metas, prefixes), start=1):
        students.append(
            {
                "k": k,
                "epochs": meta.epochs,
                "final_lambda": meta.final_lambda,
                "val_accuracy": inference.accuracy(prediction, nodes.labels, val),
                "test_accuracy": inference.accuracy(prediction, nodes.labels, test),
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
    """The test accuracies and the cumulative milliseconds of k = 1..K for
    one cascade from ``reps`` full runs: the cost sums per-student time
    medians, the accuracies come from the prefix ensembles of the last run
    (each equals a run capped at k)."""
    policy = inference.InferencePolicy(max_students=casc.n_students)
    runs_ms = []
    for _ in range(reps):
        result = inference.run_anytime(casc, nodes.features, policy, nodes.splits.unlabeled)
        runs_ms.append([1000.0 * t for t in result.elapsed])
    prefixes = inference.prefix_ensembles(result.probs, result.confidences)
    accuracies = [inference.accuracy(p, nodes.labels, nodes.splits.test) for p in prefixes]
    cumulative = np.cumsum([statistics.median(student) for student in zip(*runs_ms)])
    return accuracies, cumulative.tolist()


def _load_cascade(
    path: Path, features: Path, width: int, labels: Path | None = None, classes: int | None = None
):
    """The cascade checkpoint at ``path``, refused, naming both files,
    unless it takes the ``width`` of the feature file ``features`` and,
    when ``labels`` is given, predicts the ``classes`` of that label file."""
    casc = cascade_mod.load_cascade(path)
    if casc.feat_dim != width:
        raise ValueError(
            f"feature width mismatch: {path} expects d={casc.feat_dim}, {features} has d={width}"
        )
    if labels is not None and casc.n_classes != classes:
        raise ValueError(
            f"class count mismatch: {path} predicts C={casc.n_classes}, {labels} has C={classes}"
        )
    return casc


def cmd_sweep(args, config) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    seed, out, dtype = _run_values(args, config)
    nodes = _read_dataset(args, config, dtype)
    paths = args.cascade or [str(out / CASCADE_CKPT)]
    data = _dataset_dir(args, config)
    features, labels = data / "features.csv", data / "labels.csv"
    cascades = [
        _load_cascade(Path(p), features, nodes.feat_dim, labels, nodes.n_classes) for p in paths
    ]

    out.mkdir(parents=True, exist_ok=True)
    timings = []
    with open(out / TRADEOFF_CSV, "w") as f:
        f.write("cascade,k,accuracy\n")
        for i, (path, casc) in enumerate(zip(paths, cascades), start=1):
            accuracies, cumulative = _sweep_one(casc, nodes, args.reps)
            f.writelines(f"{i},{k},{acc:.6f}\n" for k, acc in enumerate(accuracies, start=1))
            timings.append({"path": path, "cum_ms": cumulative})
    write_json(out / SWEEP_TIMING, {"reps": args.reps, "cascades": timings})
    print(f"sweep: {len(paths)} cascade(s), reps={args.reps} -> {out / TRADEOFF_CSV}")
    return 0


def cmd_infer(args, config) -> int:
    seed, out, dtype = _run_values(args, config)
    policy = _policy(args, config)
    features_path = Path(args.features)
    x = graphio.read_features(features_path, dtype)
    casc = _load_cascade(Path(args.cascade), features_path, x.shape[1])
    result = inference.run_anytime(casc, x, policy, np.arange(x.shape[0]))
    out.mkdir(parents=True, exist_ok=True)
    inference.write_prediction_csv(out / PREDICTIONS_CSV, result)
    inference.write_result_json(out / INFER_META, result)
    timings = result.timings_ms()
    write_json(out / INFER_TIMING, timings)
    print(
        f"infer: executed {result.executed} of {casc.n_students} students "
        f"in {timings['total_ms']:.2f} ms -> {out}"
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
            p.add_argument(s.flag, dest=f"{s.section}.{s.key}", help=s.help,
                           type=s.parse or s.kind, choices=s.choices,
                           metavar=None if s.choices else s.flag[2:].replace("-", "_").upper())
        p.add_argument("--config", help="JSON config file (sections: dataset, teacher, cascade, policy, run)")
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
    except (FileNotFoundError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
