"""Smoke test of the benchmark itself at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each test copies the package sources, the benchmark and BENCHMARK.json into
a temporary checkout and runs ``run.py --tiny`` there as a subprocess.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def make_checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def run_bench(checkout: Path, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    cmd += ["--tiny"] if tiny else []
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(tmp_path, workload, trace):
    res = result_of(run_bench(make_checkout(tmp_path), workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in res["metrics"].items()
    }
    for name, v in res["metrics"].items():
        assert math.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name


def test_same_seed_artifact_mismatch_counts_as_failure(tmp_path):
    checkout = make_checkout(tmp_path)
    assert result_of(run_bench(checkout, WORKLOADS[0], 0))["failed"] == 0
    record = checkout / ".perfbench" / "digests.json"
    seen = json.loads(record.read_text())
    (entry,) = seen.values()
    entry["cascade.json"] = "0" * 64
    record.write_text(json.dumps(seen))
    res = result_of(run_bench(checkout, WORKLOADS[0], 0))
    assert res["correct"] is False and res["failed"] == 1


def test_fails_without_the_package(tmp_path):
    checkout = make_checkout(tmp_path, with_src=False)
    proc = run_bench(checkout, WORKLOADS[0], 0, tiny=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_clock_adjusts_by_the_probes_around_a_sample():
    from hostclock import MIN_PROBES, REFERENCE_S, HostClock

    clock = HostClock()
    clock.starts = [float(i) for i in range(4 * MIN_PROBES)]
    clock.durations = [REFERENCE_S] * (2 * MIN_PROBES) + [2 * REFERENCE_S] * (2 * MIN_PROBES)
    assert clock.factor(0.0, 2 * MIN_PROBES - 0.5) == pytest.approx(1.0)
    assert clock.factor(2 * MIN_PROBES, 4 * MIN_PROBES) == pytest.approx(0.5)
    # a sample shorter than the probe interval borrows its nearest probes
    assert clock.factor(3.2, 3.3) == pytest.approx(1.0)


def test_host_clock_leaves_probe_time_out_of_wall_time():
    import time

    from hostclock import HostClock

    clock = HostClock()
    clock.start()
    try:
        mark = clock.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        wall = clock.wall(mark)
    finally:
        clock.stop()
    assert len(clock.durations) >= 3
    assert wall == pytest.approx(time.perf_counter() - t0 - clock.busy, abs=0.01)
