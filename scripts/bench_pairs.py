"""Paired benchmark runs of two checkouts of this repository.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sbm-20k \
        --pairs 10 --seed0 101

Runs ``perfbench/run.py`` of each checkout once per pair, on seeds
``seed0 .. seed0 + pairs - 1``, alternating which side runs first so that a
drift of the host favours neither. Then prints, for every metric of the
result lines, each side's median and quartiles, the change's median
relative to the parent's, the number of pairs the change wins (by the
``better`` direction in the change's BENCHMARK.json) and whether the gain
would count as a claim: at least 9 in 10 pairs won, and the medians further
apart than the parent's interquartile range. For each end-to-end metric it
also prints whether the change regresses: its median worse than the
parent's by more than the metric's ``bound``, a share of the parent's
median. Then it prints each seed's ``correct`` and failed checks on both
sides, each followed by the ``failed check:`` lines (side, seed and
message) of that seed's runs whose result is incorrect, and each side's
summed failed and attempted checks with the failed share. Under the
metrics it prints the same columns, without a regression verdict, for the
raw wall times that each run's ``detail`` line holds: the query and loop
means (``WALL_TIMES``), then each command's median over the run's samples
(``wall_times_s.<metric>``, from the ``wall_times_s`` lists). The
host-adjusted metrics can move against them, so a claimed command gain is
read next to its raw one. Last, it
compares the two checkouts' ``.perfbench/digests.json`` on the keys
(workload, size, seed) both have seen: equal entries mean both wrote the
same artifacts, as they must unless the change declares a number change.

Exit code 1 when a run fails or prints an incorrect result, when an
end-to-end metric regresses, when the change's failed share is above the
parent's, or when the digests disagree; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


FAILED_CHECK = "failed check: "
DETAIL = "detail "

# Unadjusted wall times of a run's ``detail`` line, as dotted key paths; all
# are better lower.
WALL_TIMES = (
    "queries.wall_mean_ms",
    "queries.wall_tail_ms",
    "loop.wall_anytime_full_mean_ms",
    "loop.wall_teacher_mean_ms",
)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one benchmark run, with the messages of its
    ``failed check:`` lines under ``failed_checks`` and its ``detail`` line
    under ``detail``, or a failure record."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-500:], "metrics": {}}
    result = json.loads(lines[-1])
    result["failed_checks"] = [
        line[len(FAILED_CHECK):] for line in lines if line.startswith(FAILED_CHECK)
    ]
    details = [json.loads(line[len(DETAIL):]) for line in lines if line.startswith(DETAIL)]
    if details:
        result["detail"] = details[-1]
    return result


def wall_time(result: dict, path: str) -> float | None:
    """The value at dotted key ``path`` of a run's ``detail``, or None."""
    value = result.get("detail")
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def command_walls(result: dict) -> dict[str, float]:
    """Each command's (and setup's) median raw wall time over one run's
    samples, from its ``detail`` block's ``wall_times_s`` lists."""
    times = result.get("detail", {}).get("wall_times_s", {})
    return {name: statistics.median(values) for name, values in times.items() if values}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_specs(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """(``better`` direction of every metric, ``bound`` of every end-to-end
    metric) from the checkout's BENCHMARK.json."""
    with open(checkout / "BENCHMARK.json") as f:
        bench = json.load(f)
    better = {m["name"]: m["better"]
              for group in ("end_to_end", "per_layer") for m in bench.get(group, [])}
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    return better, bounds


def table_row(name: str, a: list[float], b: list[float], lower: bool,
              pairs: int) -> tuple[str, float, float]:
    """(table line up to the regression verdict, parent median, change
    median) of one metric's parent values ``a`` and change values ``b``."""
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    delta = (b2 - a2) / a2 if a2 else float("nan")
    gained = (b2 < a2) if lower else (b2 > a2)
    claim = wins >= 0.9 * pairs and gained and abs(b2 - a2) > a3 - a1
    line = (f"{name:32} {a2:12.5g} [{a1:.5g}, {a3:.5g}] {b2:12.5g} [{b1:.5g}, {b3:.5g}] "
            f"{100 * delta:+7.1f}% {wins:3d}/{pairs}  {'yes' if claim else 'no':5}  ")
    return line, a2, b2


def regresses(parent_median: float, change_median: float, bound: float, lower: bool) -> bool:
    """Whether the change's median is worse than the parent's by more than
    ``bound`` times the parent's median."""
    slack = bound * abs(parent_median)
    if lower:
        return change_median > parent_median + slack
    return change_median < parent_median - slack


def failed_share(runs: list[dict]) -> tuple[int, int, float]:
    """(failed, attempted, failed / attempted) summed over a side's runs; a
    run that printed no result counts as one failed check of one."""
    failed = sum(r.get("failed", 1) for r in runs)
    attempted = sum(r.get("attempted", 1) for r in runs)
    return failed, attempted, (failed / attempted if attempted else 0.0)


def compare_digests(parent: Path, change: Path) -> tuple[int, list[str]]:
    """(shared key count, keys whose entries differ) of the two checkouts'
    artifact digest records."""
    records = []
    for checkout in (parent, change):
        path = checkout / ".perfbench" / "digests.json"
        records.append(json.loads(path.read_text()) if path.is_file() else {})
    shared = sorted(set(records[0]) & set(records[1]))
    return len(shared), [k for k in shared if records[0][k] != records[1][k]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's result line here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[dict]] = {name: [] for name in sides}
    ok = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            res = run_once(sides[name], args.workload, seed, args.seconds, args.trace)
            res["seed"] = seed
            results[name].append(res)
            if not res.get("correct"):
                ok = False
                print(f"pair {i + 1} seed {seed}: {name} run failed: "
                      f"{res.get('error') or res.get('failed')}", file=sys.stderr)
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done", file=sys.stderr)

    better, bounds = metric_specs(sides["change"])
    names = [m for m in results["change"][0]["metrics"]
             if all(m in r["metrics"] for side in results.values() for r in side)]
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed0}..{args.seed0 + args.pairs - 1}")
    print(f"{'metric':32} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'delta':>8} {'wins':>6}  claim  regress")
    for m in names:
        a = [r["metrics"][m]["value"] for r in results["parent"]]
        b = [r["metrics"][m]["value"] for r in results["change"]]
        lower = better.get(m, "lower") == "lower"
        line, a2, b2 = table_row(m, a, b, lower, args.pairs)
        if m in bounds:
            worse = regresses(a2, b2, bounds[m], lower)
            ok = ok and not worse
            line += f"{'YES' if worse else 'no'} (bound {bounds[m]:g})"
        print(line)
    for path in WALL_TIMES:
        a, b = ([wall_time(r, path) for r in results[side]] for side in ("parent", "change"))
        if None not in a + b:
            print(table_row(path, a, b, True, args.pairs)[0])
    walls = {side: [command_walls(r) for r in runs] for side, runs in results.items()}
    for name in walls["change"][0]:
        if all(name in w for side in walls.values() for w in side):
            a, b = ([w[name] for w in walls[side]] for side in ("parent", "change"))
            print(table_row("wall_times_s." + name, a, b, True, args.pairs)[0])

    for p, c in zip(results["parent"], results["change"]):
        print(f"seed {p['seed']}: " + ", ".join(
            f"{name} correct={r.get('correct', False)} failed={r.get('failed', '-')}"
            for name, r in (("parent", p), ("change", c))))
        for name, r in (("parent", p), ("change", c)):
            if not r.get("correct"):
                for message in r.get("failed_checks", []):
                    print(f"seed {r['seed']}: {name} {FAILED_CHECK}{message}")
    shares = {name: failed_share(runs) for name, runs in results.items()}
    for name, (failed, attempted, share) in shares.items():
        print(f"{name}: {failed} of {attempted} checks failed ({100 * share:.3f}%)")
    if shares["change"][2] > shares["parent"][2]:
        ok = False
        print("failed share: the change's is above the parent's")

    shared, differing = compare_digests(sides["parent"], sides["change"])
    if differing:
        ok = False
        print(f"digests: {len(differing)} of {shared} shared keys differ: {differing}")
    else:
        print(f"digests: all {shared} shared keys equal")
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
