"""Benchmark of the mlpcascade package: one single-threaded process per run.

    python3 perfbench/run.py --workload sbm-20k --seed 1 --seconds 5 --trace 0

Runs one workload (see workloads.py and README.md) against the package
sources in ``src/`` of the checkout it sits in, checks the outputs and
prints every metric with its unit. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured with nothing
instrumented; with ``--trace 1`` the package's public functions are wrapped
in spans and the metrics are the per-layer ones. Scratch files live in
``.perfbench/`` at the checkout root; spans of a traced run are written
there too.

Exit codes: 0 when a result was printed, 1 when the workload could not run
to the end, 2 when the package or the arguments are missing.
"""

from __future__ import annotations

import os

# BLAS thread caps must be in place before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the time-bounded full-graph loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the smoke test of the benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mlpcascade" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as wl

    specs = wl.TINY if args.tiny else wl.WORKLOADS
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(specs)}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    w = wl.Workload(args.workload, specs[args.workload], args.seed, args.seconds,
                    workdir, tracer)
    env = environment()
    w.checks.expect(all(v == "1" for v in env["thread_caps"].values()),
                    "BLAS thread caps are not 1")
    try:
        w.run()
    except wl.PipelineFailed as exc:
        print(f"error: {exc}; checks: {w.checks.messages}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    spec_id = hashlib.sha256(repr(w.spec).encode()).hexdigest()[:12]
    wl.check_determinism(scratch / "digests.json", f"{args.workload}/{args.seed}/{spec_id}",
                         w.digests, w.checks)
    metrics = w.metrics
    if tracer is not None:
        metrics = layers.layer_metrics(tracer, w)
        path = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(path)
        w.detail["spans_file"] = str(path.relative_to(ROOT))

    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(w.detail, sort_keys=True))
    for message in w.checks.messages:
        print("failed check: " + message)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": w.checks.failed == 0,
        "attempted": w.checks.attempted,
        "failed": w.checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
