"""scripts/artifact_digests.py: the byte-identity grid runs, lists every
deterministic artifact and gives the same digests when run again."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mlpcascade.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"


def digests(out):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(out), "--tiny"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    """The tiny grid's output directory and its digest lines."""
    out = tmp_path_factory.mktemp("grid") / "a"
    return out, digests(out)


def test_tiny_grid_repeats_itself(tiny_grid, tmp_path):
    out, first = tiny_grid
    assert first == digests(tmp_path / "b")
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    per_run = ["cascade.json", "cascade.weights", "distill_report.json", "predictions.csv",
               "infer_meta.json", "tradeoff.csv"]
    teacher_files = ["teacher.json", "teacher.weights", "soft_labels.csv", "teacher_report.json"]
    for precision in ("f32", "f64"):
        for teacher in ("teacher", "teacher-narrow", "teacher-nodrop"):
            for artifact in teacher_files:
                assert f"{precision}/{teacher}/{artifact}" in paths
        for data in ("data", "classes10/data"):
            assert f"{precision}/{data}/features.csv.mirror" in paths
        for name in ("defaults", "layers3", "inverted", "alpha1", "alpha0",
                     "classes10/defaults"):
            for artifact in per_run:
                assert f"{precision}/{name}/{artifact}" in paths
        for artifact in teacher_files:
            assert f"{precision}/classes10/teacher/{artifact}" in paths
        for artifact in ("predictions.csv", per_run[4]):
            assert f"{precision}/cap-only/{artifact}" in paths
    # per precision: 7 files of each dataset, 4 of each of the four teachers,
    # 6 per cascade setting, classes10's defaults among them, and the
    # cap-only infer's 2
    assert len(paths) == 2 * (2 * 7 + 4 * 4 + 6 * 6 + 2)
    assert not any(p.endswith("_timing.json") for p in paths)
    for precision in ("f32", "f64"):
        for name in ("defaults", "layers3", "inverted", "alpha1", "alpha0",
                     "classes10/defaults"):
            for timing in ("infer_timing.json", "sweep_timing.json"):
                assert (out / precision / name / timing).is_file()
        assert (out / precision / "cap-only" / "infer_timing.json").is_file()


def test_digests_skip_timing_files_only(tmp_path):
    """A digest line per file but the *_timing.json ones: an edit to a
    timing file does not show, an edit to any other file does."""
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    files = {"run/infer_meta.json": '{"executed": 2}\n',
             "run/infer_timing.json": '{"total_ms": 3.5}\n',
             "run/sweep_timing.json": '{"reps": 1}\n',
             "run/tradeoff.csv": "cascade,k,accuracy\n1,1,0.812500\n",
             "data/features.csv": "0.5,1\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    first = script.digests(tmp_path)
    assert [line.split("  ", 1)[1] for line in first] == [
        "data/features.csv", "run/infer_meta.json", "run/tradeoff.csv"]
    for name in ("run/infer_timing.json", "run/sweep_timing.json"):
        (tmp_path / name).write_text('{"total_ms": 25.0}\n')
    assert script.digests(tmp_path) == first
    for name, text in files.items():
        if not name.endswith("_timing.json"):
            (tmp_path / name).write_text(text + " ")
            assert script.digests(tmp_path) != first, name
            (tmp_path / name).write_text(text)


@pytest.mark.parametrize(
    "field, value, stored",
    [("n_students", 7, 2), ("hidden_dim", 3, 8), ("n_layers", 5, 2)],
)
def test_cascade_config_unlike_its_students_exits_2(
    tiny_grid, tmp_path, capsys, field, value, stored
):
    out, _ = tiny_grid
    path = tmp_path / "cascade.json"
    for name in ("cascade.json", "cascade.weights"):
        shutil.copy(out / "f32" / "defaults" / name, tmp_path / name)
    doc = json.loads(path.read_text())
    doc["config"][field] = value
    path.write_text(json.dumps(doc))
    code = main([
        "infer", "--cascade", str(path), "--features",
        str(out / "f32" / "data" / "features.csv"), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path} config {field} {value} does not match {stored}, ")
    assert err.count("\n") == 1


def test_student_1_init_fingerprint_unlike_the_config_seed_exits_2(tiny_grid, tmp_path, capsys):
    out, _ = tiny_grid
    path = tmp_path / "cascade.json"
    shutil.copy(out / "f32" / "defaults" / "cascade.weights", tmp_path / "cascade.weights")
    doc = json.loads((out / "f32" / "defaults" / "cascade.json").read_text())
    stored = doc["students"][0]["meta"]["init_fingerprint"]
    doc["students"][0]["meta"]["init_fingerprint"] = "x"
    path.write_text(json.dumps(doc))
    code = main([
        "infer", "--cascade", str(path), "--features",
        str(out / "f32" / "data" / "features.csv"), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f'error: {path} student 1 meta init_fingerprint "x" does not match "{stored}", '
        "the fingerprint of the config seed's init\n"
    )


def test_datasets_mode_writes_each_workload_dataset(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "a"), "--datasets", "--tiny"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    paths = [line.split("  ", 1)[1] for line in proc.stdout.splitlines()]
    files = ["edges.csv", "edges.csv.mirror", "features.csv", "features.csv.mirror",
             "labels.csv", "labels.csv.mirror", "splits.json"]
    assert paths == [f"{w}/{f}" for w in ("cora-shape", "sbm-20k") for f in files]
    # the toy settings of perfbench/workloads.py: 350 and 400 nodes
    assert "N=350 C=7 d=48" in proc.stderr and "N=400 C=4 d=16" in proc.stderr


def test_non_empty_out_exits_2(tmp_path):
    (tmp_path / "stale.txt").write_text("x")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path), "--tiny"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {tmp_path} is not an empty directory\n"
    assert proc.stdout == ""
