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
    _, first = tiny_grid
    assert first == digests(tmp_path / "b")
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    per_run = ["cascade.json", "cascade.weights", "distill_report.json", "predictions.csv",
               "infer_meta.json#executed,stopped_by,confidences,weights",
               "tradeoff.csv#k,accuracy"]
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
    # per precision: 7 files of each dataset, 4 of each of the four teachers
    # and 6 per cascade setting, classes10's defaults among them
    assert len(paths) == 2 * (2 * 7 + 4 * 4 + 6 * 6)
    assert not any(p.endswith(("infer_meta.json", "tradeoff.csv")) for p in paths)


def test_infer_meta_digest_covers_its_deterministic_fields_only(tmp_path):
    """An infer_meta.json line digests executed, stopped_by, confidences and
    weights: a change to any of them shows, a change to a timing does not."""
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    doc = {"executed": 2, "stopped_by": "cap", "confidences": [0.5, 0.75],
           "weights": [0.4378234991142019, 0.5621765008857981],
           "per_student_ms": [1.0, 2.0], "scoring_ms": 0.5, "total_ms": 3.5}
    path = tmp_path / "run" / "infer_meta.json"
    path.parent.mkdir()

    def digest(**changes):
        path.write_text(json.dumps({**doc, **changes}))
        [line] = script.digests(tmp_path)
        return line

    first = digest()
    assert first.endswith("  run/infer_meta.json#executed,stopped_by,confidences,weights")
    assert digest(per_student_ms=[9.0, 9.0], scoring_ms=7.0, total_ms=25.0) == first
    for field, value in [("executed", 1), ("stopped_by", "threshold"),
                         ("confidences", [0.5, 0.7500000000000001]),
                         ("weights", [0.4378234991142019, 0.562176500885798])]:
        assert digest(**{field: value}) != first, field


def test_tradeoff_digest_covers_k_and_accuracy_only(tmp_path):
    """A tradeoff.csv line digests the k and accuracy columns: a change to
    either shows, a change to cum_ms does not."""
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    path = tmp_path / "run" / "tradeoff.csv"
    path.parent.mkdir()

    def digest(rows):
        path.write_text("k,accuracy,cum_ms\n" + "".join(f"{r}\n" for r in rows))
        [line] = script.digests(tmp_path)
        return line

    first = digest(["1,0.812500,0.210", "2,0.875000,0.433"])
    assert first.endswith("  run/tradeoff.csv#k,accuracy")
    assert digest(["1,0.812500,9.999", "2,0.875000,12.500"]) == first
    assert digest(["1,0.812500,0.210", "2,0.875001,0.433"]) != first
    assert digest(["1,0.812500,0.210", "3,0.875000,0.433"]) != first
    assert digest(["1,0.812500,0.210"]) != first


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
