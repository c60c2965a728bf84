"""Digests of the deterministic artifacts of a fixed grid of CLI runs.

    python3 scripts/artifact_digests.py OUT [--tiny]

Runs ``synth -> train-teacher --depth 3 -> distill -> infer -> sweep``
through the in-process ``mlpcascade.cli.main`` of this checkout's own
``src/``, with one BLAS thread, at f32 and at f64. Each precision has one
dataset and one teacher, and one ``distill``, ``infer`` and ``sweep
--reps 1`` per cascade setting in ``GRID``.
That teacher's hidden layer is at least as wide as the features, so its
first layer aggregates before it projects; a second teacher per precision,
``teacher-narrow``, has a hidden layer narrower than the features and keeps
the project-first order, and a third, ``teacher-nodrop``, trains the first
teacher's setting with ``--dropout 0``, so its training forwards start
from the ``Â X`` that the run computes once. No cascade is distilled from
either. The ``inverted`` cascade setting goes through a ``--config`` file,
written to a temporary directory outside OUT; the others through flags.
A second dataset per precision, ``classes10``, has 10 classes, where a
class-order sum is not the order in which numpy sums a row (from 8
classes); it gets one teacher, the ``defaults`` cascade, its ``infer`` and
its ``sweep``.
Every ``infer`` above runs at the default confidence threshold, so it
scores each student in its loop. One more per precision, into
``cap-only``, runs the ``defaults`` cascade with no threshold and a cap of
all its students (``--conf-threshold none --max-students K``), the run that
scores every confidence after its loop.
Everything is written under OUT, which must be empty or absent. Then it
prints one ``<sha256>  <path>`` line per file under OUT but the timing
files (``*_timing.json``, which hold every clock value a command
measures), the path relative to OUT, sorted by path; each checkpoint is
two files, its JSON manifest and the raw weights file beside it
(``teacher.json`` and ``teacher.weights``, ``cascade.json`` and
``cascade.weights``). The commands' own output goes to standard error.

Run it in two checkouts and ``diff`` the two outputs: no difference means
every artifact of the grid is byte-identical. ``--tiny`` runs the same grid
on a 60-node graph with a few epochs, in seconds.

``--datasets`` runs ``synth`` alone, once per benchmark workload, with the
generator settings (nodes, classes, features, p_in, p_out, noise) that
``perfbench/workloads.py`` declares for it and the seed and precision of
the grid, into ``OUT/<workload>``; with ``--tiny`` it takes the workloads'
toy settings. So the dataset bytes at benchmark scale can be diffed across
checkouts in seconds.

Exit code 2 when OUT is not empty, 1 when a command of the grid fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRECISIONS = ("f32", "f64")

# cascade settings: the defaults, deeper students, a lambda that moves
# across [0, 0.5], and the two ends of the CE/KL blend; distill flags, or
# the cascade section of a config file
GRID = {
    "defaults": [],
    "layers3": ["--layers", "3"],
    "inverted": {"lambda_sign_inverted": True, "gamma": 0.3, "tau": 0.9},
    "alpha1": ["--alpha", "1"],
    "alpha0": ["--alpha", "0", "--sigma", "0.7"],
}

# (synth flags, train-teacher flags, distill flags, teacher-narrow hidden
# width, synth flags added for classes10) of each size; the full grid keeps
# every training default of the CLI (32 features, hidden width 64)
SIZES = {
    "full": (["--nodes", "600", "--noise", "1.5"], [], [], "16", ["--classes", "10"]),
    "tiny": (
        ["--nodes", "60", "--classes", "3", "--feat-dim", "8", "--p-in", "0.3",
         "--p-out", "0.02", "--noise", "1.5"],
        ["--hidden", "8", "--epochs", "6", "--patience", "5"],
        ["--students", "2", "--hidden", "8", "--epochs", "6", "--patience", "5"],
        "4",
        ["--classes", "10", "--feat-dim", "10"],
    ),
}


def cli(*args) -> None:
    """Run one command of ``mlpcascade.cli``, its output sent to standard
    error; SystemExit(1) naming the command when it fails."""
    from mlpcascade.cli import main

    argv = [str(a) for a in args]
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"artifact_digests: exit {code} from: {' '.join(argv)}")


def run_grid(out: Path, size: str, tmp: Path) -> None:
    """Write every artifact of the grid under ``out`` and the config files
    under ``tmp``; SystemExit(1) naming the command when one fails."""
    grid = {}
    for name, settings in GRID.items():
        if isinstance(settings, dict):
            config = tmp / f"{name}.json"
            config.write_text(json.dumps({"cascade": settings}))
            settings = ["--config", config]
        grid[name] = settings

    synth_flags, teacher_flags, cascade_flags, narrow_hidden, wide_flags = SIZES[size]
    for precision in PRECISIONS:
        base = out / precision
        data = base / "data"
        teacher = base / "teacher"
        run = ["--precision", precision, "--seed", "0"]
        wide = base / "classes10"
        cli("synth", *synth_flags, *wide_flags, *run, "--out", wide / "data")
        cli("train-teacher", "--data", wide / "data", "--depth", "3", *teacher_flags,
            *run, "--out", wide / "teacher")
        cli("distill", "--data", wide / "data", "--teacher-dir", wide / "teacher",
            *cascade_flags, *run, "--out", wide / "defaults")
        cli("infer", "--cascade", wide / "defaults" / "cascade.json", "--features",
            wide / "data" / "features.csv", *run, "--out", wide / "defaults")
        cli("sweep", "--data", wide / "data", "--cascade", wide / "defaults" / "cascade.json",
            "--reps", "1", *run, "--out", wide / "defaults")
        cli("synth", *synth_flags, *run, "--out", data)
        cli("train-teacher", "--data", data, "--depth", "3", *teacher_flags, *run,
            "--out", teacher)
        cli("train-teacher", "--data", data, "--depth", "3", *teacher_flags,
            "--hidden", narrow_hidden, *run, "--out", base / "teacher-narrow")
        cli("train-teacher", "--data", data, "--depth", "3", *teacher_flags,
            "--dropout", "0", *run, "--out", base / "teacher-nodrop")
        for name, flags in grid.items():
            dest = base / name
            cli("distill", "--data", data, "--teacher-dir", teacher, *cascade_flags,
                *flags, *run, "--out", dest)
            cli("infer", "--cascade", dest / "cascade.json", "--features",
                data / "features.csv", *run, "--out", dest)
            cli("sweep", "--data", data, "--cascade", dest / "cascade.json", "--reps", "1",
                *run, "--out", dest)
        cascade = base / "defaults" / "cascade.json"
        k_total = json.loads(cascade.read_text())["config"]["n_students"]
        cli("infer", "--cascade", cascade, "--features", data / "features.csv",
            "--conf-threshold", "none", "--max-students", k_total, *run,
            "--out", base / "cap-only")


def run_datasets(out: Path, tiny: bool) -> None:
    """Write the dataset of every benchmark workload under ``out``, by
    ``synth`` at the generator settings ``perfbench/workloads.py`` declares;
    SystemExit(1) naming the command when one fails."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name, s in (workloads.TINY if tiny else workloads.WORKLOADS).items():
        cli("synth", "--nodes", s.nodes, "--classes", s.classes, "--feat-dim", s.feat_dim,
            "--p-in", s.p_in, "--p-out", s.p_out, "--noise", s.noise, "--seed", "0",
            "--out", out / name)


def digests(out: Path) -> list[str]:
    """``<sha256>  <path>`` of every file under ``out`` but the
    ``*_timing.json`` files, sorted by path."""
    names = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and not p.name.endswith("_timing.json"))
    return [f"{hashlib.sha256((out / n).read_bytes()).hexdigest()}  {n}" for n in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="output directory, empty or absent")
    parser.add_argument("--tiny", action="store_true", help="a 60-node grid, in seconds")
    parser.add_argument("--datasets", action="store_true",
                        help="only the benchmark workloads' datasets, by synth")
    args = parser.parse_args(argv)
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        print(f"error: {args.out} is not an empty directory", file=sys.stderr)
        return 2
    # one BLAS thread whatever the environment holds, set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.datasets:
        run_datasets(args.out, args.tiny)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run_grid(args.out, "tiny" if args.tiny else "full", Path(tmp))
    print("\n".join(digests(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
