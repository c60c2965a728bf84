import base64
import csv
import json

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.inference as inf
from mlpcascade.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def dataset_args(out, nodes=90, classes=3, p_in=1.0, p_out=0.0, noise=0.0, seed=1):
    return [
        "synth", "--nodes", nodes, "--classes", classes, "--feat-dim", 8,
        "--p-in", p_in, "--p-out", p_out, "--noise", noise,
        "--seed", seed, "--out", out,
    ]


@pytest.fixture()
def separable_run(tmp_path):
    """Dataset + teacher + cascade artifacts for a fast separable problem."""
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert run_cli(*dataset_args(data)) == 0
    assert run_cli(
        "train-teacher", "--data", data, "--out", run,
        "--hidden", 8, "--dropout", 0.0, "--epochs", 30, "--patience", 20,
        "--seed", 0,
    ) == 0
    assert run_cli(
        "distill", "--data", data, "--teacher-dir", run, "--out", run,
        "--students", 2, "--hidden", 8, "--epochs", 15, "--patience", 10,
        "--dropout", 0.0, "--seed", 0,
    ) == 0
    return data, run


class TestSynth:
    def test_writes_four_files_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli(*dataset_args(out, nodes=30)) == 0
        for name in ("features.csv", "edges.csv", "labels.csv", "splits.json"):
            assert (out / name).is_file()
        assert "N=30 C=3 d=8" in capsys.readouterr().out

    def test_rerun_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli(*dataset_args(a, nodes=30, seed=9)) == 0
        assert run_cli(*dataset_args(b, nodes=30, seed=9)) == 0
        for name in ("features.csv", "edges.csv", "labels.csv", "splits.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_heterophily_rejected_with_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--nodes", 30, "--classes", 3, "--p-in", "0.01",
            "--p-out", "0.02", "--out", tmp_path / "x",
        )
        assert code == 2
        assert "p_in > p_out" in capsys.readouterr().err


class TestTrainTeacher:
    def test_separable_reports_perfect_accuracy(self, separable_run):
        _, run = separable_run
        report = json.loads((run / "teacher_report.json").read_text())
        assert report["accuracy"]["test"] == 1.0

    def test_same_seed_identical_report_and_artifacts(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(
                "train-teacher", "--data", data, "--out", out,
                "--hidden", 8, "--epochs", 10, "--patience", 5, "--seed", 3,
            ) == 0
            outs.append(out)
        for name in ("teacher.json", "soft_labels.csv", "teacher_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_dataset_exits_1(self, tmp_path):
        assert run_cli(
            "train-teacher", "--data", tmp_path / "absent", "--out", tmp_path
        ) == 1

    def test_nonfinite_feature_exits_2_naming_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        lines = (data / "features.csv").read_text().splitlines(keepends=True)
        lines[4] = ",".join(["nan"] * 8) + "\n"
        (data / "features.csv").write_text("".join(lines))
        assert run_cli("train-teacher", "--data", data, "--out", tmp_path / "run") == 2
        assert "features.csv: non-finite value at line 5" in capsys.readouterr().err


    def test_class_id_gap_exits_2_naming_labels_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        lines = (data / "labels.csv").read_text().splitlines(keepends=True)
        lines[0] = "100000\n"
        (data / "labels.csv").write_text("".join(lines))
        assert run_cli("train-teacher", "--data", data, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert "labels.csv" in err and "class 3 has no node" in err


class TestDistill:
    def test_report_structure(self, separable_run):
        _, run = separable_run
        report = json.loads((run / "distill_report.json").read_text())
        assert report["n_students"] == 2
        assert len(report["students"]) == 2
        assert [s["k"] for s in report["students"]] == [1, 2]
        assert all(0.0 <= lam <= 0.5 for lam in report["lambda_trajectory"])
        assert (run / "cascade.json").is_file()

    def test_k1_report_has_single_entry(self, tmp_path):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        assert run_cli(
            "train-teacher", "--data", data, "--out", run,
            "--hidden", 8, "--epochs", 8, "--patience", 4, "--seed", 0,
        ) == 0
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", run,
            "--students", 1, "--hidden", 8, "--epochs", 5, "--patience", 3,
        ) == 0
        report = json.loads((run / "distill_report.json").read_text())
        assert len(report["students"]) == 1

    def test_mismatched_teacher_exits_1(self, tmp_path, capsys):
        data = tmp_path / "data"
        other = tmp_path / "other"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        assert run_cli(*dataset_args(other, nodes=60, seed=2)) == 0
        assert run_cli(
            "train-teacher", "--data", other, "--out", run,
            "--hidden", 8, "--epochs", 8, "--patience", 4,
        ) == 0
        code = run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", run,
            "--students", 1, "--epochs", 5, "--patience", 3,
        )
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_missing_teacher_exits_1(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", tmp_path / "nowhere",
            "--out", tmp_path / "run",
        ) == 1


    def test_f64_cli_cascade_matches_library_path(self, tmp_path):
        import mlpcascade.graphio as gio
        import mlpcascade.teacher as tch

        data = tmp_path / "data"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=30, p_out=0.1, noise=1.0)) == 0
        assert run_cli(
            "train-teacher", "--data", data, "--out", run, "--precision", "f64",
            "--hidden", 8, "--epochs", 10, "--patience", 5, "--seed", 0,
        ) == 0
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", run,
            "--precision", "f64", "--students", 2, "--hidden", 8,
            "--epochs", 5, "--patience", 3, "--seed", 0,
        ) == 0

        g = gio.load_dataset(data, dtype=np.float64)
        art = tch.train_teacher(
            g, tch.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=0)
        )
        casc = cas.train_cascade(
            g, art,
            cas.CascadeConfig(n_students=2, hidden_dim=8, max_epochs=5, patience=3, seed=0),
        )
        assert cas.load_cascade(run / "cascade.json").fingerprint() == casc.fingerprint()

    def test_edited_soft_labels_exit_2(self, separable_run, tmp_path, capsys):
        data, run = separable_run
        soft = run / "soft_labels.csv"
        lines = soft.read_text().splitlines(keepends=True)
        first = [float(v) for v in lines[0].split(",")]
        first[0] += 1e-6  # still a distribution within the row-sum tolerance
        lines[0] = ",".join(repr(v) for v in first) + "\n"
        soft.write_text("".join(lines))
        code = run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", tmp_path / "r",
            "--students", 1, "--hidden", 8, "--epochs", 5, "--patience", 3,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "soft_labels.csv" in err and "teacher.json" in err


    def test_cascade_names_its_teacher_across_precisions(self, tmp_path):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=30, p_out=0.1, noise=1.0)) == 0
        assert run_cli(
            "train-teacher", "--data", data, "--out", run, "--precision", "f64",
            "--hidden", 8, "--epochs", 10, "--patience", 5, "--seed", 0,
        ) == 0
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", run,
            "--precision", "f32", "--students", 1, "--hidden", 8,
            "--epochs", 5, "--patience", 3, "--seed", 0,
        ) == 0
        teacher_doc = json.loads((run / "teacher.json").read_text())
        cascade_doc = json.loads((run / "cascade.json").read_text())
        assert cascade_doc["dtype"] == "float32" and teacher_doc["dtype"] == "float64"
        assert cascade_doc["teacher_fingerprint"] == teacher_doc["soft_label_fingerprint"]


class TestSweep:
    def test_rows_and_monotone_cost(self, separable_run, tmp_path):
        data, run = separable_run
        assert run_cli("sweep", "--data", data, "--out", run, "--reps", 3) == 0
        with open(run / "tradeoff.csv") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["k"]) for r in rows] == [1, 2]
        cum = [float(r["cum_ms"]) for r in rows]
        assert cum[1] > cum[0] > 0

    def test_accuracy_matches_run_anytime(self, separable_run):
        data, run = separable_run
        assert run_cli("sweep", "--data", data, "--out", run, "--reps", 2) == 0
        with open(run / "tradeoff.csv") as f:
            rows = list(csv.DictReader(f))
        import mlpcascade.graphio as gio

        g = gio.load_dataset(data)
        casc = cas.load_cascade(run / "cascade.json")
        for row in rows:
            k = int(row["k"])
            result = inf.run_anytime(
                casc, g.features, inf.InferencePolicy(max_students=k), g.splits.unlabeled
            )
            expected = inf.accuracy(result.prediction, g.labels, g.splits.test)
            assert float(row["accuracy"]) == pytest.approx(expected, abs=5e-7)

    def test_missing_cascade_exits_1(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        assert run_cli("sweep", "--data", data, "--out", tmp_path / "empty") == 1

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_below_one_exits_2_naming_flag(self, separable_run, reps, capsys):
        data, run = separable_run
        assert run_cli("sweep", "--data", data, "--out", run, "--reps", reps) == 2
        assert "--reps" in capsys.readouterr().err

    def test_multiple_cascades_emit_row_blocks_per_seed(self, separable_run, tmp_path):
        data, run = separable_run
        second = tmp_path / "run2"
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", second,
            "--students", 2, "--hidden", 8, "--epochs", 15, "--patience", 10,
            "--dropout", 0.0, "--seed", 1,
        ) == 0
        assert run_cli(
            "sweep", "--data", data, "--out", tmp_path / "sweep2", "--reps", 2,
            "--cascade", run / "cascade.json", "--cascade", second / "cascade.json",
        ) == 0
        with open(tmp_path / "sweep2" / "tradeoff.csv") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["k"]) for r in rows] == [1, 2, 1, 2]


class TestForwardCounts:
    """One full run yields every prefix ensemble, so the distill report needs
    K student forwards and a sweep R * K, with no per-k reruns."""

    @pytest.fixture()
    def counter(self, monkeypatch):
        calls = []
        forward = inf.student_forward

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(inf, "student_forward", counted)
        return calls

    def test_distill_report_runs_each_student_once(self, tmp_path, counter):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        assert run_cli(
            "train-teacher", "--data", data, "--out", run,
            "--hidden", 8, "--epochs", 8, "--patience", 4,
        ) == 0
        assert len(counter) == 0
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", run,
            "--students", 3, "--hidden", 8, "--epochs", 5, "--patience", 3,
        ) == 0
        assert len(counter) == 3

    def test_sweep_runs_reps_times_k(self, separable_run, counter):
        data, run = separable_run
        assert run_cli("sweep", "--data", data, "--out", run, "--reps", 3) == 0
        assert len(counter) == 3 * 2


class TestInfer:
    def test_zero_threshold_executes_one(self, separable_run):
        data, run = separable_run
        assert run_cli(
            "infer", "--cascade", run / "cascade.json",
            "--features", data / "features.csv",
            "--conf-threshold", 0, "--out", run,
        ) == 0
        meta = json.loads((run / "infer_meta.json").read_text())
        assert meta["executed"] == 1

    def test_disabled_threshold_max_students_runs_all(self, separable_run):
        data, run = separable_run
        assert run_cli(
            "infer", "--cascade", run / "cascade.json",
            "--features", data / "features.csv",
            "--conf-threshold", "none", "--max-students", 2, "--out", run,
        ) == 0
        meta = json.loads((run / "infer_meta.json").read_text())
        assert meta["executed"] == 2

    def test_rerun_identical_prediction_csv(self, separable_run, tmp_path):
        data, run = separable_run
        outs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            assert run_cli(
                "infer", "--cascade", run / "cascade.json",
                "--features", data / "features.csv",
                "--max-students", 2, "--conf-threshold", "none", "--out", out,
            ) == 0
            outs.append(out)
        assert (outs[0] / "predictions.csv").read_bytes() == (outs[1] / "predictions.csv").read_bytes()

    def test_width_mismatch_exits_1_naming_dims(self, separable_run, tmp_path, capsys):
        _, run = separable_run
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0,4.0\n")
        code = run_cli(
            "infer", "--cascade", run / "cascade.json", "--features", bad,
            "--out", tmp_path,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "d=8" in err and "d=2" in err

    def test_nonfinite_features_exit_2_naming_line(self, separable_run, tmp_path, capsys):
        data, run = separable_run
        lines = (data / "features.csv").read_text().splitlines(keepends=True)
        lines[2] = "inf," + lines[2].split(",", 1)[1]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "out"
        code = run_cli(
            "infer", "--cascade", run / "cascade.json", "--features", bad, "--out", out,
        )
        assert code == 2
        assert "bad.csv: non-finite value at line 3" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_missing_cascade_exits_1(self, tmp_path):
        feat = tmp_path / "f.csv"
        feat.write_text("1.0\n")
        assert run_cli(
            "infer", "--cascade", tmp_path / "none.json", "--features", feat,
            "--out", tmp_path,
        ) == 1


def _edit_doc(edit):
    """Case helper: edit the checkpoint manifest as JSON."""
    def apply(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return apply


def _edit_cascade(edit):
    """Case helper: edit the loaded cascade and save it again, so the stored
    fingerprints match the edited weights."""
    def apply(path):
        casc = cas.load_cascade(path)
        edit(casc)
        cas.save_cascade(casc, path)
    return apply


def _flip_char(array):
    data = array["data"]
    i = len(data) // 2
    array["data"] = data[:i] + ("B" if data[i] == "A" else "A") + data[i + 1:]


def _to_decimal(doc):
    """The weight format of earlier versions: decimal lists, no encoding key."""
    doc.pop("array_encoding")
    stacks = [s["layers"] for s in doc["students"]] if "students" in doc else [doc["layers"]]
    for layers in stacks:
        for layer in layers:
            for array in layer.values():
                raw = base64.b64decode(array["data"])
                array["data"] = np.frombuffer(raw, "<f4").astype(float).tolist()


def _widen_last_layer(casc):
    w, b = casc.students[1].layers[-1]
    casc.students[1].layers[-1] = (np.hstack([w, w[:, :1]]), np.append(b, b[:1]))


def _uneven_hidden_width(casc):
    (w1, b1), (w2, b2) = casc.students[0].layers
    wide = w1.shape[1] + 1
    casc.students[0].layers = [
        (w1, b1),
        (np.ones((w1.shape[1], wide), w1.dtype), np.ones(wide, w1.dtype)),
        (np.ones((wide, w2.shape[1]), w1.dtype), b2),
    ]


CASCADE_CASES = {
    "missing meta key": (
        _edit_doc(lambda d: d["students"][0]["meta"].pop("final_lambda")),
        "student 1 meta: missing keys ['final_lambda']",
    ),
    "missing manifest key": (
        _edit_doc(lambda d: d.pop("teacher_fingerprint")),
        "missing keys ['teacher_fingerprint']",
    ),
    "n_students disagrees": (
        _edit_doc(lambda d: d.update(n_students=7)),
        "n_students is 7",
    ),
    "unsupported dtype": (
        _edit_doc(lambda d: d.update(dtype="float16")),
        "dtype 'float16'",
    ),
    "byte count disagrees with shape": (
        _edit_doc(lambda d: d["students"][0]["layers"][0]["b"].update(shape=[9])),
        "student 1 layer 1 b: data holds 32 bytes",
    ),
    "edited weights": (
        _edit_doc(lambda d: _flip_char(d["students"][1]["layers"][0]["w"])),
        "student 2: weights do not match their stored fingerprint",
    ),
    "decimal format": (_edit_doc(_to_decimal), "decimal format"),
    "mis-shaped last layer": (
        _edit_cascade(_widen_last_layer),
        "student 2: layer shapes [(16, 8), (8, 4)] differ",
    ),
    "first-layer width": (
        _edit_cascade(_uneven_hidden_width),
        "student 1: layer shapes [(16, 8), (8, 9), (9, 3)] are not",
    ),
}

TEACHER_CASES = {
    "missing config key": (
        _edit_doc(lambda d: d["config"].pop("lr")),
        "config: missing keys ['lr']",
    ),
    "unknown config key": (
        _edit_doc(lambda d: d["config"].update(width=3)),
        "unknown keys ['width']",
    ),
    "depth disagrees with config": (
        _edit_doc(lambda d: d["config"].update(depth=3)),
        "layer widths [8] do not match depth 3",
    ),
    "missing train_meta key": (
        _edit_doc(lambda d: d["train_meta"].pop("best_epoch")),
        "train_meta: missing keys ['best_epoch']",
    ),
    "edited weights": (
        _edit_doc(lambda d: _flip_char(d["layers"][0]["w"])),
        "teacher weights do not match their stored fingerprint",
    ),
    "decimal format": (_edit_doc(_to_decimal), "decimal format"),
}


class TestMalformedCheckpoints:
    @pytest.mark.parametrize("case", CASCADE_CASES)
    def test_cascade_exits_2_naming_file(self, separable_run, tmp_path, capsys, case):
        data, run = separable_run
        edit, message = CASCADE_CASES[case]
        edit(run / "cascade.json")
        code = run_cli(
            "infer", "--cascade", run / "cascade.json",
            "--features", data / "features.csv", "--out", tmp_path / "out",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert str(run / "cascade.json") in err and message in err

    @pytest.mark.parametrize("case", TEACHER_CASES)
    def test_teacher_exits_2_naming_file(self, separable_run, tmp_path, capsys, case):
        data, run = separable_run
        edit, message = TEACHER_CASES[case]
        edit(run / "teacher.json")
        code = run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", tmp_path / "out",
            "--students", 1, "--hidden", 8, "--epochs", 5, "--patience", 3,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert str(run / "teacher.json") in err and message in err


class TestConfigPrecedence:
    def test_config_overrides_defaults_and_flags_override_config(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"path": str(data)},
            "teacher": {"hidden_dim": 6, "max_epochs": 9, "patience": 4},
            "run": {"seed": 5, "out": str(tmp_path / "from_config")},
        }))
        # config only: everything comes from the file
        assert run_cli("train-teacher", "--config", cfg_path) == 0
        doc = json.loads((tmp_path / "from_config" / "teacher.json").read_text())
        assert doc["config"]["hidden_dim"] == 6
        assert doc["config"]["seed"] == 5
        # defaults still fill whatever the config leaves unset
        assert doc["config"]["lr"] == 0.01

        # flags beat the config
        out2 = tmp_path / "from_flags"
        assert run_cli(
            "train-teacher", "--config", cfg_path, "--hidden", 7, "--out", out2,
            "--seed", 6,
        ) == 0
        doc2 = json.loads((out2 / "teacher.json").read_text())
        assert doc2["config"]["hidden_dim"] == 7
        assert doc2["config"]["seed"] == 6

    def test_reports_parse_as_json(self, separable_run):
        _, run = separable_run
        for name in ("teacher_report.json", "distill_report.json"):
            doc = json.loads((run / name).read_text())
            assert isinstance(doc, dict)

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("synth", "--config", bad, "--out", tmp_path / "x") == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert run_cli("synth", "--config", tmp_path / "none.json", "--out", tmp_path) == 2

    def test_lambda_sign_flag_reaches_checkpoint(self, tmp_path):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        assert run_cli(
            "train-teacher", "--data", data, "--out", run,
            "--hidden", 8, "--epochs", 8, "--patience", 4,
        ) == 0
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", run,
            "--students", 1, "--hidden", 8, "--epochs", 5, "--patience", 3,
            "--lambda-sign-inverted",
        ) == 0
        doc = json.loads((run / "cascade.json").read_text())
        assert doc["config"]["mixup"]["sign_inverted"] is True


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "ds"
    proc = subprocess.run(
        [sys.executable, "-m", "mlpcascade", "synth", "--nodes", "12",
         "--classes", "3", "--feat-dim", "4", "--p-in", "0.9", "--p-out", "0.05",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "N=12" in proc.stdout
    assert (out / "features.csv").is_file()
