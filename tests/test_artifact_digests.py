"""scripts/artifact_digests.py: the byte-identity grid runs, lists every
deterministic artifact and gives the same digests when run again."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"


def digests(out):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(out), "--tiny"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_tiny_grid_repeats_itself(tmp_path):
    first = digests(tmp_path / "a")
    assert first == digests(tmp_path / "b")
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    per_run = ["cascade.json", "distill_report.json", "predictions.csv"]
    for precision in ("f32", "f64"):
        for teacher in ("teacher", "teacher-narrow", "teacher-nodrop"):
            for artifact in ("teacher.json", "soft_labels.csv", "teacher_report.json"):
                assert f"{precision}/{teacher}/{artifact}" in paths
        assert f"{precision}/data/features.csv.mirror" in paths
        for name in ("defaults", "layers3", "inverted", "alpha1", "alpha0"):
            for artifact in per_run:
                assert f"{precision}/{name}/{artifact}" in paths
    # 7 dataset files, 3 files of each of the three teachers and 3 per
    # cascade setting
    assert len(paths) == 2 * (7 + 3 * 3 + 5 * 3)
    assert not any(p.endswith("infer_meta.json") for p in paths)


def test_non_empty_out_exits_2(tmp_path):
    (tmp_path / "stale.txt").write_text("x")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path), "--tiny"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {tmp_path} is not an empty directory\n"
    assert proc.stdout == ""
