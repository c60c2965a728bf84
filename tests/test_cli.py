import argparse
import base64
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.graphio as gio
import mlpcascade.inference as inf
from mlpcascade.cli import _SETTINGS, build_parser, main
from mlpcascade.teacher import TeacherConfig


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


# What synth writes: the four dataset files and the binary mirror of each CSV.
DATASET_FILES = [
    "edges.csv", "edges.csv.mirror", "features.csv", "features.csv.mirror",
    "labels.csv", "labels.csv.mirror", "splits.json",
]


def directory_state(path):
    """Name, size and mtime of every file in a directory."""
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in path.iterdir())


class TestSynth:
    def test_writes_four_files_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli(*dataset_args(out, nodes=30)) == 0
        assert sorted(p.name for p in out.iterdir()) == DATASET_FILES
        assert "N=30 C=3 d=8" in capsys.readouterr().out

    def test_rerun_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli(*dataset_args(a, nodes=30, seed=9)) == 0
        assert run_cli(*dataset_args(b, nodes=30, seed=9)) == 0
        for name in DATASET_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_heterophily_rejected_with_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--nodes", 30, "--classes", 3, "--p-in", "0.01",
            "--p-out", "0.02", "--out", tmp_path / "x",
        )
        assert code == 2
        assert "p_in > p_out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--classes", 0), "n_classes 0 must be >= 1"),
            (("--nodes", 0), "n_nodes 0 must be >= n_classes 3"),
            (("--nodes", -6), "n_nodes -6 must be >= n_classes 3"),
            (("--noise", "nan"), "feat_noise nan must be finite"),
            (("--noise", "inf"), "feat_noise inf must be finite"),
        ],
    )
    def test_degenerate_graph_exits_2_naming_the_field(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x"
        assert run_cli("synth", *flags, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    def test_graph_beyond_int32_indices_exits_2(self, tmp_path, monkeypatch, capsys):
        """A graph whose Â would not fit int32 index arrays is refused with
        both counts; the refusal is faked by adding 2^31 entries to the
        count, as no test can hold such a graph."""
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        width = gio.index_dtype
        monkeypatch.setattr(gio, "index_dtype", lambda n, m: width(n, m + 2**31))
        assert run_cli("train-teacher", "--data", data, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert "a graph of 30 nodes and" in err and "does not fit int32 index arrays" in err

    def test_edge_id_that_wraps_at_int32_exits_2_naming_line(self, tmp_path, capsys):
        """An id beyond int32 that would wrap into range (4294967301 is 5 at
        int32) is refused by its line, not narrowed."""
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        (data / "edges.csv.mirror").unlink()
        lines = (data / "edges.csv").read_text().splitlines(keepends=True)
        (data / "edges.csv").write_text("".join(lines) + "0,4294967301\n")
        assert run_cli("train-teacher", "--data", data, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert f"edges.csv: line {len(lines) + 1}: node id out of range [0, 30)" in err

    def test_class_id_gap_exits_2_naming_labels_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        lines = (data / "labels.csv").read_text().splitlines(keepends=True)
        lines[0] = "100000\n"
        (data / "labels.csv").write_text("".join(lines))
        assert run_cli("train-teacher", "--data", data, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert "labels.csv" in err and "class 3 has no node" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"labeled": [0], "test": [1]}', "exactly the keys"),
            ("[[0], [1], [2]]", "exactly the keys"),
            ('{"labeled": [0, 1], "valid', "not valid JSON"),
            ('{"labeled": [1.5], "validation": [], "test": [2]}', "not an integer node id"),
            ('{"labeled": [true], "validation": [], "test": [2]}', "not an integer node id"),
            ('{"labeled": [-1], "validation": [], "test": [2]}', "not an integer node id"),
            ('{"labeled": [0, 3, 0], "validation": [], "test": [2]}', "'labeled' repeats node id 0"),
        ],
    )
    def test_malformed_splits_exit_2_naming_file(self, tmp_path, capsys, text, message):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        (data / "splits.json").write_text(text)
        assert run_cli("train-teacher", "--data", data, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert "splits.json" in err and message in err

    def test_repeated_split_id_stops_every_command_at_load(self, separable_run, tmp_path, capsys):
        data, run = separable_run
        edited = tmp_path / "edited"
        shutil.copytree(data, edited)
        splits = json.loads((edited / "splits.json").read_text())
        splits["validation"].append(splits["validation"][0])
        (edited / "splits.json").write_text(json.dumps(splits))
        message = f"'validation' repeats node id {splits['validation'][0]}"
        commands = [
            ("train-teacher",),
            ("distill", "--teacher-dir", run),
            ("sweep", "--cascade", run / "cascade.json"),
        ]
        for command in commands:
            capsys.readouterr()
            assert run_cli(*command, "--data", edited, "--out", tmp_path / "out") == 2
            err = capsys.readouterr().err
            assert "splits.json" in err and message in err, command


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

    @pytest.mark.parametrize("differ", ["nodes", "classes"])
    def test_mismatched_teacher_exits_2_naming_both_files(self, tmp_path, capsys, differ):
        data = tmp_path / "data"
        other = tmp_path / "other"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(other, nodes=60, seed=2)) == 0
        if differ == "nodes":
            assert run_cli(*dataset_args(data, nodes=30)) == 0
            shape = "30 nodes of 3 classes"
        else:  # a copy of the teacher's dataset with one label id changed to 3
            shutil.copytree(other, data)
            labels = (data / "labels.csv").read_text().splitlines()
            labels[1] = "3"  # node 1, of class 0
            (data / "labels.csv").write_text("\n".join(labels) + "\n")
            shape = "60 nodes of 4 classes"
        assert run_cli(
            "train-teacher", "--data", other, "--out", run,
            "--hidden", 8, "--epochs", 8, "--patience", 4,
        ) == 0
        capsys.readouterr()
        code = run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", tmp_path / "out",
            "--students", 1, "--epochs", 5, "--patience", 3,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: teacher/dataset mismatch: {run / 'soft_labels.csv'} holds 60 nodes of "
            f"3 classes, {data / 'labels.csv'} {shape}\n"
        )
        assert not (tmp_path / "out").exists()

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
            g, gio.normalized_adjacency(g),
            tch.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=0),
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
        # the accuracies go to tradeoff.csv, the clock values to sweep_timing.json
        data, run = separable_run
        assert run_cli("sweep", "--data", data, "--out", run, "--reps", 3) == 0
        lines = (run / "tradeoff.csv").read_text().splitlines()
        assert lines[0] == "cascade,k,accuracy"
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "1"], ["1", "2"]]
        timing = json.loads((run / "sweep_timing.json").read_text())
        [cascade] = timing.pop("cascades")
        assert timing == {"reps": 3}
        assert cascade["path"] == str(run / "cascade.json")
        cum = cascade["cum_ms"]
        assert len(cum) == 2 and cum[1] > cum[0] > 0

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

    def test_width_mismatch_exits_2_naming_both_files(self, separable_run, tmp_path, capsys):
        # the second of two cascades is refused before any row is written
        data, run = separable_run
        wide = tmp_path / "wide"
        args = dataset_args(wide)
        args[args.index("--feat-dim") + 1] = 12
        assert run_cli(*args) == 0
        assert run_cli(
            "train-teacher", "--data", wide, "--out", wide, "--hidden", 8,
            "--epochs", 2, "--patience", 1,
        ) == 0
        assert run_cli(
            "distill", "--data", wide, "--out", wide, "--students", 1, "--hidden", 8,
            "--epochs", 2, "--patience", 1,
        ) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--data", data, "--out", out,
            "--cascade", run / "cascade.json", "--cascade", wide / "cascade.json",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: feature width mismatch: {wide / 'cascade.json'} expects d=12, "
            f"{data / 'features.csv'} has d=8\n"
        )
        assert not out.exists()

    def test_class_count_mismatch_exits_2_naming_both_files(self, separable_run, tmp_path, capsys):
        # a 3-class cascade on 5-class labels, and a 5-class one on 3-class
        # labels, are refused before tradeoff.csv is opened
        data, run = separable_run
        five = tmp_path / "five"
        assert run_cli(*dataset_args(five, classes=5)) == 0
        assert run_cli(
            "train-teacher", "--data", five, "--out", five, "--hidden", 8,
            "--epochs", 2, "--patience", 1,
        ) == 0
        assert run_cli(
            "distill", "--data", five, "--out", five, "--students", 1, "--hidden", 8,
            "--epochs", 2, "--patience", 1,
        ) == 0
        for labels, cascade, c_cascade, c_labels in (
            (five, run, 3, 5),
            (data, five, 5, 3),
        ):
            capsys.readouterr()
            out = tmp_path / f"out{c_cascade}"
            code = run_cli(
                "sweep", "--data", labels, "--out", out, "--cascade", cascade / "cascade.json",
            )
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: class count mismatch: {cascade / 'cascade.json'} predicts "
                f"C={c_cascade}, {labels / 'labels.csv'} has C={c_labels}\n"
            )
            assert not out.exists()

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
        assert [(int(r["cascade"]), int(r["k"])) for r in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        timing = json.loads((tmp_path / "sweep2" / "sweep_timing.json").read_text())
        assert [c["path"] for c in timing["cascades"]] == [
            str(run / "cascade.json"), str(second / "cascade.json")]
        assert [len(c["cum_ms"]) for c in timing["cascades"]] == [2, 2]


class TestDegenerateTrainingConfig:
    """Settings under which nothing trains exit 2 naming the field, and
    write no artifact."""

    CASES = [
        (("--epochs", 0, "--patience", -1), "max_epochs 0 must be >= 1"),
        (("--patience", -1), "patience -1 must be >= 0"),
        (("--hidden", 0), "hidden_dim 0 must be >= 1"),
        (("--lr", -1), "lr -1.0 must be finite and > 0"),
        (("--lr", "nan"), "lr nan must be finite and > 0"),
        (("--weight-decay", -0.1), "weight_decay -0.1 must be finite and >= 0"),
        (("--weight-decay", "inf"), "weight_decay inf must be finite and >= 0"),
    ]

    @pytest.mark.parametrize("flags, message", CASES)
    def test_train_teacher_exits_2(self, tmp_path, capsys, flags, message):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        out = tmp_path / "run"
        assert run_cli("train-teacher", "--data", data, "--out", out, *flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", CASES)
    def test_distill_exits_2(self, separable_run, tmp_path, capsys, flags, message):
        data, run = separable_run
        out = tmp_path / "distilled"
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", out, *flags
        ) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["train-teacher", "distill"])
    def test_dropout_help_states_range_and_step(self, capsys, command):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert "dropout rate in [0, 1 - 2^-17), taken as the nearest multiple of 1/65536" in text

    @pytest.mark.parametrize("command", ["train-teacher", "distill"])
    def test_dropout_that_keeps_nothing_exits_2(self, separable_run, tmp_path, capsys, command):
        data, run = separable_run
        capsys.readouterr()
        out = tmp_path / "refused"
        teacher_dir = ("--teacher-dir", run) if command == "distill" else ()
        assert run_cli(
            command, "--data", data, *teacher_dir, "--out", out, "--dropout", 0.999999
        ) == 2
        assert capsys.readouterr().err == (
            "error: dropout 0.999999 keeps nothing: masks resolve rates in steps of "
            "1/65536 and it rounds to 1 (it must be < 1 - 2^-17)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--beta", "nan"), "beta nan must be finite and >= 0"),
            (("--beta", "inf"), "beta inf must be finite and >= 0"),
            (("--gamma", "inf"), "gamma inf must be finite and >= 0"),
            (("--tau", "nan"), "tau nan must be finite"),
            (("--sigma", 2), "sigma 2.0 outside [0, 1]"),
            (("--lambda-init", 0.7), "lambda_init 0.7 outside [0, 0.5]"),
        ],
    )
    def test_distill_and_mixup_settings_exit_2(
        self, separable_run, tmp_path, capsys, flags, message
    ):
        data, run = separable_run
        out = tmp_path / "distilled"
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", out, *flags
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_diverging_distill_exits_1_naming_student_and_loss(separable_run, tmp_path, capsys):
    data, run = separable_run
    out = tmp_path / "distilled"
    assert run_cli(
        "distill", "--data", data, "--teacher-dir", run, "--out", out,
        "--students", 2, "--hidden", 8, "--epochs", 10, "--patience", 5, "--lr", 1e30,
    ) == 1
    # no numpy RuntimeWarning ahead of the one-line error
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("error: non-finite student 1: distillation loss")
    assert not out.exists()


def test_mistyped_checkpoint_metas_exit_2_naming_file_and_key(separable_run, tmp_path, capsys):
    data, run = separable_run
    teacher = run / "teacher.json"
    doc = json.loads(teacher.read_text())
    doc["train_meta"]["epochs"] = "six"
    teacher.write_text(json.dumps(doc))
    assert run_cli(
        "distill", "--data", data, "--teacher-dir", run, "--out", tmp_path / "r",
        "--students", 1, "--hidden", 8, "--epochs", 5, "--patience", 3,
    ) == 2
    assert capsys.readouterr().err == (
        f'error: {teacher} train_meta epochs must be an integer, got "six"\n'
    )
    casc = run / "cascade.json"
    doc = json.loads(casc.read_text())
    doc["students"][1]["meta"]["lambda_history"][2] = "x"
    casc.write_text(json.dumps(doc))
    out = tmp_path / "preds"
    assert run_cli(
        "infer", "--cascade", casc, "--features", data / "features.csv", "--out", out
    ) == 2
    assert capsys.readouterr().err == (
        f'error: {casc} student 2 meta lambda_history[2] must be a number, got "x"\n'
    )


class TestDatasetMirrors:
    """Every command reads a synthesized dataset's features from the binary
    mirror, and none writes into the dataset directory."""

    @staticmethod
    def pipeline(data, out):
        return [
            ("train-teacher", "--data", data, "--out", out, "--hidden", 8,
             "--epochs", 6, "--patience", 5),
            ("distill", "--data", data, "--teacher-dir", out, "--out", out,
             "--students", 2, "--hidden", 8, "--epochs", 4, "--patience", 3),
            ("sweep", "--data", data, "--out", out, "--reps", 1),
            ("infer", "--cascade", out / "cascade.json", "--features",
             data / "features.csv", "--out", out),
        ]

    def features_parses(self, data, out, parsed_csvs):
        counts = {}
        for argv in self.pipeline(data, out):
            parsed_csvs.clear()
            assert run_cli(*argv) == 0
            counts[argv[0]] = parsed_csvs.count("features.csv")
        return counts

    def test_features_parsed_only_without_the_mirror(self, tmp_path, parsed_csvs):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        mirrored = self.features_parses(data, tmp_path / "a", parsed_csvs)
        assert mirrored == {"train-teacher": 0, "distill": 0, "sweep": 0, "infer": 0}
        (data / "features.csv.mirror").unlink()
        parsed = self.features_parses(data, tmp_path / "b", parsed_csvs)
        assert parsed == {"train-teacher": 1, "distill": 1, "sweep": 1, "infer": 1}
        for name in ("teacher.json", "cascade.json", "predictions.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_commands_leave_the_dataset_directory_untouched(self, tmp_path):
        import mlpcascade.graphio as gio

        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        before = directory_state(data)
        gio.load_dataset(data)
        for argv in self.pipeline(data, tmp_path / "run"):
            assert run_cli(*argv) == 0
        assert directory_state(data) == before


def test_student_commands_never_read_the_edge_list(tmp_path, capsys, monkeypatch):
    """distill and sweep read only the node tables: with a malformed
    edges.csv and no edge mirror they still succeed with the same artifacts,
    while train-teacher still refuses the file naming its line."""
    data, broken, teacher_dir = tmp_path / "data", tmp_path / "broken", tmp_path / "teacher"
    assert run_cli(*dataset_args(data, nodes=60)) == 0
    assert run_cli("train-teacher", "--data", data, "--out", teacher_dir, "--hidden", 8,
                   "--epochs", 6, "--patience", 5) == 0
    shutil.copytree(data, broken)
    (broken / "edges.csv").write_text("0,1\nnot,an edge\n")
    (broken / "edges.csv.mirror").unlink()
    mirrors = []
    read_mirror = gio._read_mirror
    monkeypatch.setattr(gio, "_read_mirror", lambda path, dtype: (
        mirrors.append(path.name), read_mirror(path, dtype))[1])
    for ds in (data, broken):
        out = tmp_path / ("out-" + ds.name)
        assert run_cli("distill", "--data", ds, "--teacher-dir", teacher_dir, "--out", out,
                       "--students", 2, "--hidden", 8, "--epochs", 4, "--patience", 3) == 0
        assert run_cli("sweep", "--data", ds, "--out", out, "--reps", 1) == 0
    assert "edges.csv" not in mirrors and "features.csv" in mirrors
    a, b = tmp_path / "out-data", tmp_path / "out-broken"
    for name in ("cascade.json", "distill_report.json", "tradeoff.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    capsys.readouterr()
    assert run_cli("train-teacher", "--data", broken, "--out", tmp_path / "t2") == 2
    assert f"{broken / 'edges.csv'}: non-integer edge at line 2" in capsys.readouterr().err


class TestTeacherGraphPasses:
    """train-teacher builds Â once, from the edge list, and takes its report
    from the logits training computed: no second build, no gcn_forward."""

    def test_one_normalization_and_no_forward(self, tmp_path, monkeypatch):
        import mlpcascade.graphio as gio
        import mlpcascade.teacher as teacher

        calls = {"normalized_adjacency": 0, "normalize_adjacency": 0, "gcn_forward": 0}
        for module, name in (
            (gio, "normalized_adjacency"),
            (gio, "normalize_adjacency"),
            (teacher, "gcn_forward"),
        ):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        assert run_cli(
            "train-teacher", "--data", data, "--out", run,
            "--hidden", 8, "--epochs", 8, "--patience", 4,
        ) == 0
        assert calls == {"normalized_adjacency": 1, "normalize_adjacency": 0, "gcn_forward": 0}

    def test_no_edge_list_alive_during_the_epochs(self, tmp_path, monkeypatch):
        """The teacher reads the graph only through Â, so the loaded edge
        list is freed before the first epoch and none is alive after."""
        import weakref

        import mlpcascade.teacher as teacher

        edges = []
        load, fit = gio.load_dataset, teacher.fit

        def loading(*args, **kwargs):
            g = load(*args, **kwargs)
            edges.append(weakref.ref(g.edges))
            return g

        alive = []

        def fitting(params, cfg, step, validate):
            def checked(epoch):
                alive.append(edges[0]() is not None)
                return step(epoch)

            return fit(params, cfg, checked, validate)

        monkeypatch.setattr(gio, "load_dataset", loading)
        monkeypatch.setattr(teacher, "fit", fitting)
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=60)) == 0
        assert run_cli(
            "train-teacher", "--data", data, "--out", tmp_path / "run",
            "--hidden", 8, "--epochs", 6, "--patience", 5,
        ) == 0
        assert len(edges) == 1 and alive == [False] * 6

    def test_report_matches_fresh_forward(self, separable_run):
        import mlpcascade.graphio as gio
        import mlpcascade.teacher as teacher

        data, run = separable_run
        g = gio.load_dataset(data)
        art, _ = teacher.load_teacher(run / "teacher.json", run / "soft_labels.csv")
        logits = teacher.gcn_forward(gio.normalize_adjacency(g.adjacency), g.features, art.params)
        report = json.loads((run / "teacher_report.json").read_text())
        for split in ("labeled", "validation", "test"):
            want = inf.accuracy(logits, g.labels, getattr(g.splits, split))
            assert report["accuracy"][split] == want


class TestForwardCounts:
    """One full run yields every prefix ensemble, so a sweep needs R * K
    student forwards, with no per-k reruns; the distill report reads the
    logits training computed and needs none."""

    @pytest.fixture()
    def counter(self, monkeypatch):
        calls = []
        forward = inf.student_forward

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(inf, "student_forward", counted)
        return calls

    def test_distill_report_runs_no_student_forward(self, tmp_path, counter):
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
        assert len(counter) == 0

    def test_sweep_runs_reps_times_k(self, separable_run, counter):
        data, run = separable_run
        assert run_cli("sweep", "--data", data, "--out", run, "--reps", 3) == 0
        assert len(counter) == 3 * 2


class TestDistillReportFromTraining:
    """The distill report scores the logits training kept; they must be the
    probabilities and confidences a cap-K run of the saved cascade gives on
    the unlabeled rows, bit for bit."""

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("layers", [2, 3])
    def test_report_scores_equal_a_cap_k_run(self, tmp_path, monkeypatch, precision, layers):
        scored = []
        prefixes = inf.prefix_ensembles

        def keep(preds, confs):
            scored.append((preds, confs))
            return prefixes(preds, confs)

        monkeypatch.setattr(inf, "prefix_ensembles", keep)
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=60, p_in=0.3, p_out=0.05, noise=1.0)) == 0
        assert run_cli(
            "train-teacher", "--data", data, "--out", run, "--precision", precision,
            "--hidden", 8, "--epochs", 10, "--patience", 5,
        ) == 0
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", run,
            "--precision", precision, "--students", 3, "--layers", layers,
            "--hidden", 8, "--epochs", 6, "--patience", 3, "--lr", 0.01,
        ) == 0
        (preds, confs), = scored
        dtype = np.float32 if precision == "f32" else np.float64
        g = gio.load_dataset(data, dtype=dtype)
        casc = cas.load_cascade(run / "cascade.json")
        res = inf.run_anytime(
            casc, g.features, inf.InferencePolicy(max_students=3), g.splits.unlabeled
        )
        assert confs == res.confidences
        for got, ref in zip(preds, res.probs, strict=True):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# the directory the package under test was imported from, for child processes
PACKAGE_ROOT = str(Path(cas.__file__).resolve().parents[1])


def fresh_env(**env):
    """This process's environment without the BLAS thread variables, with
    the package under test first on PYTHONPATH, plus ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, base.get("PYTHONPATH"))))
    return {**base, "PYTHONPATH": path, **env}


def run_module(*args, cwd=None, **env):
    """``python -m mlpcascade *args`` in a fresh interpreter, under ``fresh_env(**env)``."""
    return subprocess.run([sys.executable, "-m", "mlpcascade", *map(str, args)],
                          env=fresh_env(**env), cwd=cwd, capture_output=True, text=True)


class TestBlasThreads:
    """BLAS runs one thread unless the environment says otherwise: the caps
    are set when the package is imported, before numpy loads, so a plain
    command line writes the bytes of a single-threaded run."""

    # the thread-count getter numpy's bundled OpenBLAS exports, by build
    GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    PROBE = (
        "import ctypes, glob, os, sys\n"
        "import mlpcascade, numpy\n"
        "libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, 'numpy.libs')\n"
        "for path in glob.glob(os.path.join(libs, '*openblas*')):\n"
        "    lib = ctypes.CDLL(path)\n"
        "    for name in sys.argv[1:]:\n"
        "        if hasattr(lib, name):\n"
        "            print(getattr(lib, name)())\n"
        "            sys.exit()\n"
        "print('none')\n"
    )

    def blas_threads(self, **env):
        """The thread count BLAS reads after ``import mlpcascade`` in a fresh
        interpreter under ``fresh_env(**env)``."""
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *self.GETTERS],
                              env=fresh_env(**env), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "none":
            pytest.skip("numpy's bundled OpenBLAS exports no thread-count getter")
        return int(proc.stdout)

    def test_import_caps_blas_at_one_thread(self):
        assert self.blas_threads() == 1

    def test_a_set_variable_is_kept(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("one core: OpenBLAS runs one thread whatever the variable says")
        assert self.blas_threads(OPENBLAS_NUM_THREADS="2") == 2

    def test_plain_run_writes_single_thread_bytes(self, tmp_path):
        data = tmp_path / "data"
        proc = run_module(
            "synth", "--nodes", 600, "--classes", 3, "--feat-dim", 256, "--p-in", 0.05,
            "--p-out", 0.005, "--noise", 1.5, "--seed", 0, "--out", data,
        )
        assert proc.returncode == 0, proc.stderr
        weights = []
        for name, env in (("plain", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            proc = run_module(
                "train-teacher", "--data", data, "--hidden", 64, "--epochs", 3,
                "--patience", 2, "--seed", 0, "--out", tmp_path / name, **env,
            )
            assert proc.returncode == 0, proc.stderr
            weights.append((tmp_path / name / "teacher.weights").read_bytes())
        assert weights[0] == weights[1]

    def test_threads_flag_is_an_unknown_argument(self, tmp_path):
        out = tmp_path / "ds"
        proc = run_module("synth", "--nodes", 12, "--classes", 3, "--feat-dim", 4,
                          "--threads", 1, "--out", out)
        assert proc.returncode == 2
        assert "unrecognized arguments: --threads 1" in proc.stderr
        assert not out.exists()


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
        assert meta["stopped_by"] == "threshold"

    def test_meta_and_printed_time_include_the_scoring(self, separable_run, capsys):
        data, run = separable_run
        capsys.readouterr()
        assert run_cli(
            "infer", "--cascade", run / "cascade.json",
            "--features", data / "features.csv", "--out", run,
        ) == 0
        meta = json.loads((run / "infer_meta.json").read_text())
        assert sorted(meta) == ["confidences", "executed", "stopped_by", "weights"]
        timing = json.loads((run / "infer_timing.json").read_text())
        assert sorted(timing) == ["per_student_ms", "scoring_ms", "total_ms"]
        assert len(timing["per_student_ms"]) == meta["executed"]
        assert timing["scoring_ms"] > 0
        assert timing["total_ms"] == sum(timing["per_student_ms"]) + timing["scoring_ms"]
        assert f" students in {timing['total_ms']:.2f} ms -> " in capsys.readouterr().out

    def test_disabled_threshold_max_students_runs_all(self, separable_run):
        data, run = separable_run
        assert run_cli(
            "infer", "--cascade", run / "cascade.json",
            "--features", data / "features.csv",
            "--conf-threshold", "none", "--max-students", 2, "--out", run,
        ) == 0
        meta = json.loads((run / "infer_meta.json").read_text())
        assert meta["executed"] == 2
        assert meta["stopped_by"] == "cap"

    @pytest.mark.parametrize("budget", ["nan", "inf", "-1", "-0.5"])
    def test_budget_not_finite_and_non_negative_exits_2(
        self, separable_run, tmp_path, capsys, budget
    ):
        data, run = separable_run
        out = tmp_path / "i"
        assert run_cli(
            "infer", "--cascade", run / "cascade.json",
            "--features", data / "features.csv",
            "--conf-threshold", "none", "--budget-ms", budget, "--out", out,
        ) == 2
        assert capsys.readouterr().err == f"error: --budget-ms {budget} must be finite and >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("budget, shown", [(-1, "-1"), (-0.5, "-0.5"),
                                               (float("inf"), "inf"), (float("nan"), "nan")])
    def test_config_budget_not_finite_and_non_negative_exits_2(
        self, separable_run, tmp_path, capsys, budget, shown
    ):
        data, run = separable_run
        out = tmp_path / "i"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"policy": {"budget_ms": budget}}))  # Infinity, NaN
        assert run_cli(
            "infer", "--cascade", run / "cascade.json", "--features", data / "features.csv",
            "--conf-threshold", "none", "--config", cfg_path, "--out", out,
        ) == 2
        assert capsys.readouterr().err == (
            f"error: config file {cfg_path}: policy.budget_ms {shown} must be finite and >= 0\n"
        )
        assert not out.exists()

    def test_rerun_identical_outputs(self, separable_run, tmp_path):
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
        for name in ("predictions.csv", "infer_meta.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_width_mismatch_exits_2_naming_both_files(self, separable_run, tmp_path, capsys):
        _, run = separable_run
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0,4.0\n")
        out = tmp_path / "out"
        code = run_cli(
            "infer", "--cascade", run / "cascade.json", "--features", bad, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: feature width mismatch: {run / 'cascade.json'} expects d=8, "
            f"{bad} has d=2\n"
        )
        assert not out.exists()

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


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["synth", "train-teacher", "distill", "sweep", "infer"])
def test_out_that_is_not_a_directory_exits_2(tmp_path, capsys, command, under):
    """An --out that is a file, or lies under one, is refused before the
    command reads an input: its inputs are missing, which would exit 1, yet
    it exits 2 with one error line naming the --out and writes nothing."""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub" if under else blocker
    missing = tmp_path / "missing"
    inputs = {
        "synth": [],
        "train-teacher": ["--data", missing],
        "distill": ["--data", missing, "--teacher-dir", missing],
        "sweep": ["--data", missing, "--cascade", missing / "cascade.json"],
        "infer": ["--cascade", missing / "cascade.json", "--features", missing / "f.csv"],
    }[command]
    before = directory_state(tmp_path)
    assert run_cli(command, *inputs, "--out", out) == 2
    which = f" is under {blocker}, which" if under else ""
    assert capsys.readouterr().err == f"error: output path {out}{which} is not a directory\n"
    assert directory_state(tmp_path) == before
    assert blocker.read_text() == "x"


class TestConfThreshold:
    """``policy.conf_threshold`` follows one rule as a flag and in the
    config file: a value in [0, 1] gates, any other number exits 2 with a
    message naming the flag or the file, and only ``none``/``off``/
    ``disabled`` on the flag or ``null`` in the file disables the gate."""

    @staticmethod
    def infer(run_dir, tmp_path, name, value, *flags):
        data, run = run_dir
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"policy": {"conf_threshold": value}}))
        source = ["--config", cfg_path] if name == "file" else ["--conf-threshold", value]
        out = tmp_path / name
        code = run_cli(
            "infer", "--cascade", run / "cascade.json", "--features", data / "features.csv",
            "--out", out, *source, *flags,
        )
        return code, out

    @pytest.mark.parametrize("value", [-1, -0.5, 1.5])
    def test_outside_unit_interval_exits_2_from_flag_and_file(
        self, separable_run, tmp_path, capsys, value
    ):
        for name, given in (
            ("flag", "--conf-threshold"),
            ("file", f"config file {tmp_path / 'file.json'}: policy.conf_threshold"),
        ):
            code, out = self.infer(separable_run, tmp_path, name, value)
            assert code == 2
            assert capsys.readouterr().err == f"error: {given} {value} outside [0, 1]\n", name
            assert not out.exists()

    @pytest.mark.parametrize("value", [0, -3])
    def test_max_students_below_one_exits_2_naming_flag_or_file(
        self, separable_run, tmp_path, capsys, value
    ):
        data, run = separable_run
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"policy": {"max_students": value}}))
        for source, given in (
            (["--max-students", value], "--max-students"),
            (["--config", cfg_path], f"config file {cfg_path}: policy.max_students"),
        ):
            out = tmp_path / "out"
            assert run_cli(
                "infer", "--cascade", run / "cascade.json", "--features", data / "features.csv",
                "--out", out, *source,
            ) == 2
            assert capsys.readouterr().err == f"error: {given} {value} must be >= 1\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "name, value",
        [("flag", "none"), ("flag", "off"), ("flag", "Disabled"), ("file", None)],
    )
    def test_disabling_values_leave_the_cap(self, separable_run, tmp_path, name, value):
        code, out = self.infer(separable_run, tmp_path, name, value, "--max-students", 2)
        assert code == 0
        meta = json.loads((out / "infer_meta.json").read_text())
        assert (meta["executed"], meta["stopped_by"]) == (2, "cap")

    def test_zero_gates_from_flag_and_file(self, separable_run, tmp_path):
        for name in ("flag", "file"):
            code, out = self.infer(separable_run, tmp_path, name, 0, "--max-students", 2)
            assert code == 0
            meta = json.loads((out / "infer_meta.json").read_text())
            assert (meta["executed"], meta["stopped_by"]) == (1, "threshold"), name


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


def _edit_weights(edit):
    """Case helper: edit the bytes of the checkpoint's weights file."""
    def apply(path):
        weights = path.with_suffix(".weights")
        raw = bytearray(weights.read_bytes())
        edit(raw)
        weights.write_bytes(raw)
    return apply


def _flip_last_byte(raw):
    raw[-1] ^= 0x40


def _to_earlier_format(encoding):
    """Case helper: the weight formats of earlier versions, each array's
    values in the manifest: base64 of the little-endian bytes, or decimal
    lists with no encoding key. The weights file is removed."""
    def apply(path):
        doc = json.loads(path.read_text())
        weights = path.with_suffix(".weights")
        flat = np.fromfile(weights, np.dtype(doc["dtype"]).newbyteorder("<"))
        weights.unlink()
        stacks = [s["layers"] for s in doc["students"]] if "students" in doc else [doc["layers"]]
        at = 0
        for layers in stacks:
            for layer in layers:
                for name in ("w", "b"):
                    n = int(np.prod(layer[name]["shape"]))
                    values, at = flat[at:at + n], at + n
                    layer[name]["data"] = (
                        base64.b64encode(values.tobytes()).decode("ascii") if encoding
                        else values.astype(float).tolist()
                    )
        if encoding:
            doc["array_encoding"] = "base64-le"
        else:
            doc.pop("array_encoding")
        path.write_text(json.dumps(doc))
    return apply


EARLIER_FORMAT = "checkpoints of earlier versions, with decimal or base64 arrays"


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
    "bias unlike its weight": (
        _edit_doc(lambda d: d["students"][0]["layers"][0]["b"].update(shape=[9])),
        "student 1 layer 1: weight (16, 8) and bias (9,) do not chain onto an input",
    ),
    "truncated weights file": (
        _edit_weights(lambda raw: raw.__delitem__(slice(-4, None))),
        "cascade.weights: holds 1300 bytes, the arrays of",
    ),
    "extended weights file": (
        _edit_weights(lambda raw: raw.extend(b"\0" * 4)),
        "cascade.weights: holds 1308 bytes, the arrays of",
    ),
    "edited weights": (
        _edit_weights(_flip_last_byte),
        "student 2: weights do not match their stored fingerprint",
    ),
    "decimal format": (_to_earlier_format(False), EARLIER_FORMAT),
    "base64 format": (_to_earlier_format(True), EARLIER_FORMAT),
    "mis-shaped last layer": (
        _edit_cascade(_widen_last_layer),
        "student 2: layer shapes [(16, 8), (8, 4)] differ",
    ),
    "first-layer width": (
        _edit_cascade(_uneven_hidden_width),
        "student 1: layer shapes [(16, 8), (8, 9), (9, 3)] are not",
    ),
    "sign_inverted a string": (
        _edit_doc(lambda d: d["config"]["mixup"].update(sign_inverted="no")),
        'config mixup sign_inverted must be a JSON bool, got "no"',
    ),
    "n_students a bool": (
        _edit_doc(lambda d: d["config"].update(n_students=True)),
        "config n_students must be an integer, got true",
    ),
    "manifest n_students a bool": (
        _edit_doc(lambda d: d.update(n_students=True)),
        "cascade.json n_students must be an integer, got true",
    ),
    "teacher_fingerprint a number": (
        _edit_doc(lambda d: d.update(teacher_fingerprint=7)),
        "cascade.json teacher_fingerprint must be a string, got 7",
    ),
    "final_lambda a string": (
        _edit_doc(lambda d: d["students"][0]["meta"].update(final_lambda="0.1")),
        'student 1 meta final_lambda must be a number, got "0.1"',
    ),
    "final_lambda unlike its history": (
        _edit_doc(lambda d: d["students"][0]["meta"].update(final_lambda=0.75)),
        "student 1 meta final_lambda 0.75 does not match",
    ),
    "init_fingerprint off the chain": (
        _edit_doc(lambda d: d["students"][1]["meta"].update(init_fingerprint="x")),
        'student 2 meta init_fingerprint "x" does not match',
    ),
    "config null, student 1's init forged": (
        _edit_doc(lambda d: (d.update(config=None),
                             d["students"][0]["meta"].update(init_fingerprint="x"))),
        "cascade.json config: expected a JSON object, got null",
    ),
    "config n_students unlike the students": (
        _edit_doc(lambda d: d["config"].update(n_students=7)),
        "config n_students 7 does not match 2, the count of stored students",
    ),
    "config hidden_dim unlike the students": (
        _edit_doc(lambda d: d["config"].update(hidden_dim=3)),
        "config hidden_dim 3 does not match 8, student 1's hidden width",
    ),
    "config n_layers unlike the students": (
        _edit_doc(lambda d: d["config"].update(n_layers=5)),
        "config n_layers 5 does not match 2, student 1's layer count",
    ),
    "first lambda off the chain": (
        _edit_doc(lambda d: d["students"][1]["meta"]["lambda_history"].__setitem__(0, 0.125)),
        "student 2 meta lambda_history[0] 0.125 does not match",
    ),
    "lambda above the clamp range": (
        _edit_doc(lambda d: d["students"][0]["meta"]["lambda_history"].__setitem__(1, 1.5)),
        "student 1 meta: lambda_history[1] 1.5 outside [0, 0.5]",
    ),
    "lambda NaN": (
        _edit_doc(lambda d: d["students"][1]["meta"]["lambda_history"].__setitem__(1, float("nan"))),
        "student 2 meta: lambda_history[1] nan outside [0, 0.5]",
    ),
    "teacher_fingerprint not a digest": (
        _edit_doc(lambda d: d.update(teacher_fingerprint="not-a-digest")),
        'teacher_fingerprint "not-a-digest" is not a sha256 digest of 64 lowercase hex digits',
    ),
    "teacher_fingerprint in uppercase": (
        _edit_doc(lambda d: d.update(teacher_fingerprint=d["teacher_fingerprint"].upper())),
        "is not a sha256 digest of 64 lowercase hex digits",
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
    "hidden_dim a fraction": (
        _edit_doc(lambda d: d["config"].update(hidden_dim=8.5)),
        "config hidden_dim must be an integer, got 8.5",
    ),
    "depth disagrees with config": (
        _edit_doc(lambda d: d["config"].update(depth=3)),
        "layer widths [8] do not match depth 3",
    ),
    "missing train_meta key": (
        _edit_doc(lambda d: d["train_meta"].pop("best_epoch")),
        "train_meta: missing keys ['best_epoch']",
    ),
    "train_meta seed a string": (
        _edit_doc(lambda d: d["train_meta"].update(seed="0")),
        'train_meta seed must be an integer, got "0"',
    ),
    "train_meta seed unlike the config": (
        _edit_doc(lambda d: d["train_meta"].update(seed=5)),
        "train_meta seed 5 does not match 0, the config seed",
    ),
    "edited weights": (
        _edit_weights(_flip_last_byte),
        "teacher weights do not match their stored fingerprint",
    ),
    "truncated weights file": (
        _edit_weights(lambda raw: raw.__delitem__(slice(-4, None))),
        "teacher.weights: holds",
    ),
    "decimal format": (_to_earlier_format(False), EARLIER_FORMAT),
    "base64 format": (_to_earlier_format(True), EARLIER_FORMAT),
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
        assert err.startswith("error: ") and err.count("\n") == 1

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
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["cascade", "teacher"])
    def test_missing_weights_file_exits_1_naming_it(self, separable_run, tmp_path, capsys, name):
        data, run = separable_run
        (run / f"{name}.weights").unlink()
        if name == "cascade":
            argv = ("infer", "--cascade", run / "cascade.json",
                    "--features", data / "features.csv", "--out", tmp_path / "out")
        else:
            argv = ("distill", "--data", data, "--teacher-dir", run, "--out", tmp_path / "out",
                    "--students", 1, "--hidden", 8, "--epochs", 5, "--patience", 3)
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: {run / (name + '.json')}: weights file {run / (name + '.weights')} "
            "is missing\n"
        )


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

    def test_bare_run_stores_the_dataclass_defaults(self, tmp_path):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        assert run_cli("train-teacher", "--data", data, "--out", run, "--seed", 4) == 0
        assert run_cli("distill", "--data", data, "--out", run, "--seed", 4) == 0
        teacher_doc = json.loads((run / "teacher.json").read_text())
        cascade_doc = json.loads((run / "cascade.json").read_text())
        assert teacher_doc["config"] == asdict(TeacherConfig(seed=4))
        assert cascade_doc["config"] == asdict(cas.CascadeConfig(seed=4))

    def test_config_values_and_flags_keep_their_types(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"path": str(data)},
            "teacher": {"hidden_dim": 6, "weight_decay": 0, "dropout": 0,
                        "max_epochs": 9, "patience": 4, "depth": 3},
            "cascade": {"n_students": 2, "hidden_dim": 5, "weight_decay": 0,
                        "max_epochs": 6, "patience": 2, "alpha": 1, "beta": 1,
                        "gamma": 0, "lambda_sign_inverted": True},
            "run": {"seed": 5},
        }))

        def stored(out, command, *flags):
            assert run_cli(command, "--config", cfg_path, "--out", out, *flags) == 0
            name = "teacher.json" if command == "train-teacher" else "cascade.json"
            return json.loads((out / name).read_text())["config"]

        def typed(doc):
            return {k: (typed(v) if isinstance(v, dict) else (v, type(v)))
                    for k, v in doc.items()}

        run = tmp_path / "from_config"
        teacher = stored(run, "train-teacher")
        expect = asdict(TeacherConfig(hidden_dim=6, weight_decay=0.0, dropout=0.0,
                                      max_epochs=9, patience=4, depth=3, seed=5))
        assert typed(teacher) == typed(expect)
        cascade = stored(run, "distill")
        expect = asdict(cas.CascadeConfig(
            n_students=2, hidden_dim=5, weight_decay=0.0, max_epochs=6, patience=2,
            distill=cas.DistillConfig(alpha=1.0, beta=1.0),
            mixup=cas.MixupConfig(gamma=0.0, sign_inverted=True), seed=5,
        ))
        assert typed(cascade) == typed(expect)

        run = tmp_path / "from_flags"
        teacher = stored(run, "train-teacher", "--hidden", 7, "--depth", 2, "--dropout", 0.25)
        assert (teacher["hidden_dim"], teacher["depth"], teacher["dropout"]) == (7, 2, 0.25)
        assert teacher["max_epochs"] == 9
        cascade = stored(run, "distill", "--students", 1, "--beta", 0.5, "--layers", 3)
        assert (cascade["n_students"], cascade["n_layers"]) == (1, 3)
        assert cascade["distill"] == {"alpha": 1.0, "beta": 0.5}
        assert cascade["mixup"]["sign_inverted"] is True

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


class TestConfigTypes:
    """A config-file value must be a JSON value of its setting's type: a
    bool for a bool, a non-bool integer for an int, a non-bool number for a
    float and a string for a path. Nothing is truncated or parsed from a
    string, and the command stops before it reads any file."""

    CASES = {
        "sign-string": ("distill", "cascade", "lambda_sign_inverted", "false", "a JSON bool"),
        "sign-int": ("distill", "cascade", "lambda_sign_inverted", 0, "a JSON bool"),
        "students-fraction": ("distill", "cascade", "n_students", 2.7, "an integer"),
        "students-bool": ("distill", "cascade", "n_students", True, "an integer"),
        "students-float": ("distill", "cascade", "n_students", 2.0, "an integer"),
        "alpha-bool": ("distill", "cascade", "alpha", True, "a number"),
        "alpha-null": ("distill", "cascade", "alpha", None, "a number"),
        "hidden-fraction": ("train-teacher", "teacher", "hidden_dim", 6.5, "an integer"),
        "lr-string": ("train-teacher", "teacher", "lr", "0.01", "a number"),
        "lr-beyond-float": ("train-teacher", "teacher", "lr", 10**400, "a number"),
        "dropout-bool": ("train-teacher", "teacher", "dropout", False, "a number"),
        "depth-string": ("train-teacher", "teacher", "depth", "3", "an integer"),
        "normalize-int": ("train-teacher", "dataset", "normalize_features", 1, "a JSON bool"),
        "normalize-string": ("distill", "dataset", "normalize_features", "no", "a JSON bool"),
        "seed-fraction": ("train-teacher", "run", "seed", 2.5, "an integer"),
        "seed-string": ("distill", "run", "seed", "3", "an integer"),
        "seed-bool": ("infer", "run", "seed", True, "an integer"),
        "out-number": ("train-teacher", "run", "out", 5, "a string"),
        "path-list": ("train-teacher", "dataset", "path", ["data"], "a string"),
        "max-students-fraction": ("infer", "policy", "max_students", 1.5, "an integer"),
        "budget-string": ("infer", "policy", "budget_ms", "5", "a number"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_naming_key_and_file(self, tmp_path, capsys, case):
        command, section, key, value, kind = self.CASES[case]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({section: {key: value}}))
        missing = tmp_path / "missing"
        inputs = {
            "train-teacher": ["--data", missing],
            "distill": ["--data", missing, "--teacher-dir", missing],
            "infer": ["--cascade", missing / "cascade.json", "--features", missing],
        }[command] + ["--out", tmp_path / "out"]
        flag = {"path": "--data", "out": "--out"}.get(key)
        if flag is not None:  # a flag would win over the value under test
            del inputs[inputs.index(flag):inputs.index(flag) + 2]
        code = run_cli(command, *inputs, "--config", cfg_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            f"error: config file {cfg_path}: {section}.{key} must be {kind}, "
            f"got {json.dumps(value)}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_false_string_no_longer_inverts_the_sign(self, separable_run, tmp_path, capsys):
        data, run = separable_run
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"cascade": {"lambda_sign_inverted": "false"}}))
        code = run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", tmp_path / "out",
            "--config", cfg_path, "--students", 1, "--epochs", 2, "--patience", 1,
        )
        assert code == 2
        assert "cascade.lambda_sign_inverted must be a JSON bool" in capsys.readouterr().err
        cfg_path.write_text(json.dumps({"cascade": {"lambda_sign_inverted": False}}))
        assert run_cli(
            "distill", "--data", data, "--teacher-dir", run, "--out", tmp_path / "out",
            "--config", cfg_path, "--students", 1, "--epochs", 2, "--patience", 1,
        ) == 0
        doc = json.loads((tmp_path / "out" / "cascade.json").read_text())
        assert doc["config"]["mixup"]["sign_inverted"] is False


class TestWholeConfigCheck:
    """The config file is checked whole when it is loaded: a section or key
    that is not a setting, a section that is not an object and a value that
    is not of its setting's type exit 2 naming the file and the key, also
    where the command does not read the value or a flag overrides it."""

    CASES = {
        "unknown key": (
            "train-teacher", {"teacher": {"hiden_dim": 8}}, [],
            "teacher.hiden_dim is not a setting (teacher keys: hidden_dim, lr,",
        ),
        "unknown section": (
            "distill", {"cascade": {"alpha": 0.5}, "teachr": {"hidden_dim": 8}}, [],
            "unknown section 'teachr' (sections: cascade, dataset, policy, run, teacher)",
        ),
        "section not an object": (
            "train-teacher", {"teacher": [8]}, [], "config section 'teacher' must be an object",
        ),
        "section the command does not read": (
            "infer", {"teacher": {"lr": "x"}}, [], 'teacher.lr must be a number, got "x"',
        ),
        "value a flag overrides": (
            "train-teacher", {"teacher": {"lr": "x"}}, ["--lr", 0.1],
            'teacher.lr must be a number, got "x"',
        ),
        "value outside its choices": (
            "synth", {"run": {"precision": "f16"}}, [], 'run.precision must be f32 or f64, got "f16"',
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_naming_file_and_key(self, tmp_path, capsys, case):
        command, doc, flags, message = self.CASES[case]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        missing = tmp_path / "missing"
        inputs = {
            "synth": [],
            "train-teacher": ["--data", missing],
            "distill": ["--data", missing, "--teacher-dir", missing],
            "infer": ["--cascade", missing / "cascade.json", "--features", missing],
        }[command]
        out = tmp_path / "out"
        code = run_cli(command, *inputs, *flags, "--out", out, "--config", cfg_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: config file {cfg_path}: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_null_is_none_in_policy(self, separable_run, tmp_path):
        data, run = separable_run
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"policy": {"conf_threshold": None, "max_students": 1}}))
        assert run_cli(
            "infer", "--cascade", run / "cascade.json", "--features", data / "features.csv",
            "--out", tmp_path / "out", "--config", cfg_path,
        ) == 0
        meta = json.loads((tmp_path / "out" / "infer_meta.json").read_text())
        assert (meta["executed"], meta["stopped_by"]) == (1, "cap")


class TestSettingsTable:
    """Each flag and config key is declared once: the commands keep their
    option strings, and every model and training setting reaches the stored
    config, by flag and by config file."""

    OPTIONS = {
        "synth": [
            "--classes", "--config", "--feat-dim", "--nodes", "--noise", "--out", "--p-in",
            "--p-out", "--precision", "--seed",
        ],
        "train-teacher": [
            "--config", "--data", "--depth", "--dropout", "--epochs", "--hidden", "--lr",
            "--normalize-features", "--out", "--patience", "--precision", "--seed",
            "--weight-decay",
        ],
        "distill": [
            "--alpha", "--beta", "--config", "--data", "--dropout", "--epochs", "--gamma",
            "--hidden", "--lambda-init", "--lambda-sign-inverted", "--layers", "--lr",
            "--normalize-features", "--out", "--patience", "--precision", "--seed", "--sigma",
            "--students", "--tau", "--teacher-dir", "--weight-decay",
        ],
        "sweep": [
            "--cascade", "--config", "--data", "--normalize-features", "--out", "--precision",
            "--reps", "--seed",
        ],
        "infer": [
            "--budget-ms", "--cascade", "--conf-threshold", "--config", "--features",
            "--max-students", "--out", "--precision", "--seed",
        ],
    }

    # (section, key): (flag, a value unlike the default, path in the stored config)
    SETTINGS = {
        ("teacher", "hidden_dim"): ("--hidden", 5, ("hidden_dim",)),
        ("teacher", "lr"): ("--lr", 0.02, ("lr",)),
        ("teacher", "weight_decay"): ("--weight-decay", 0.001, ("weight_decay",)),
        ("teacher", "dropout"): ("--dropout", 0.25, ("dropout",)),
        ("teacher", "max_epochs"): ("--epochs", 4, ("max_epochs",)),
        ("teacher", "patience"): ("--patience", 1, ("patience",)),
        ("teacher", "depth"): ("--depth", 3, ("depth",)),
        ("cascade", "n_students"): ("--students", 2, ("n_students",)),
        ("cascade", "hidden_dim"): ("--hidden", 6, ("hidden_dim",)),
        ("cascade", "n_layers"): ("--layers", 3, ("n_layers",)),
        ("cascade", "lr"): ("--lr", 0.003, ("lr",)),
        ("cascade", "weight_decay"): ("--weight-decay", 0.002, ("weight_decay",)),
        ("cascade", "dropout"): ("--dropout", 0.125, ("dropout",)),
        ("cascade", "max_epochs"): ("--epochs", 7, ("max_epochs",)),
        ("cascade", "patience"): ("--patience", 5, ("patience",)),
        ("cascade", "alpha"): ("--alpha", 0.3, ("distill", "alpha")),
        ("cascade", "beta"): ("--beta", 0.6, ("distill", "beta")),
        ("cascade", "gamma"): ("--gamma", 0.4, ("mixup", "gamma")),
        ("cascade", "tau"): ("--tau", 0.7, ("mixup", "tau")),
        ("cascade", "sigma"): ("--sigma", 0.35, ("mixup", "sigma")),
        ("cascade", "lambda_init"): ("--lambda-init", 0.2, ("mixup", "lambda_init")),
        ("cascade", "lambda_sign_inverted"): (
            "--lambda-sign-inverted", True, ("mixup", "sign_inverted"),
        ),
    }

    def test_commands_keep_their_option_strings(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {
            name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        assert options == self.OPTIONS

    def test_every_model_setting_is_covered(self):
        declared = {(s.section, s.key) for s in _SETTINGS if s.section in ("teacher", "cascade")}
        assert declared == set(self.SETTINGS)
        for section in ("teacher", "cascade"):
            # distinct values, so a value stored in the wrong field shows
            values = [json.dumps(v) for (sec, _), (_, v, _) in self.SETTINGS.items() if sec == section]
            assert len(set(values)) == len(values)

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_every_model_setting_reaches_the_stored_config(self, tmp_path, via):
        data = tmp_path / "data"
        assert run_cli(*dataset_args(data, nodes=30)) == 0
        expect = {"teacher": asdict(TeacherConfig()), "cascade": asdict(cas.CascadeConfig())}
        doc = {"teacher": {}, "cascade": {}}
        flags = {"teacher": [], "cascade": []}
        for (section, key), (flag, value, path) in self.SETTINGS.items():
            *parents, field = path
            stored = expect[section]
            for name in parents:
                stored = stored[name]
            assert stored[field] != value  # a value the default cannot pass for
            stored[field] = value
            doc[section][key] = value
            flags[section] += [flag] if value is True else [flag, value]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        if via == "config":
            flags = {"teacher": ["--config", cfg_path], "cascade": ["--config", cfg_path]}
        run = tmp_path / "run"
        assert run_cli("train-teacher", "--data", data, "--out", run, *flags["teacher"]) == 0
        assert run_cli("distill", "--data", data, "--out", run, *flags["cascade"]) == 0
        for section, name in (("teacher", "teacher.json"), ("cascade", "cascade.json")):
            stored = json.loads((run / name).read_text())["config"]
            assert json.dumps(stored, sort_keys=True) == json.dumps(expect[section], sort_keys=True)


def test_module_entry_point(tmp_path):
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


README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_steps():
    """The commands of the README Quickstart, each with the files its
    comment says it writes."""
    block = README.read_text().split("## Quickstart (CLI)\n", 1)[1]
    block = block.split("```bash\n", 1)[1].split("\n```", 1)[0]
    steps, comment = [], ""
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            comment += line
        elif line.strip():
            steps.append((line.split(), re.findall(r"[\w.]+\.(?:csv|json|weights)", comment)))
            comment = ""
    return steps


def test_readme_quickstart_runs_as_written(tmp_path):
    """Each Quickstart command, at shrunk sizes, exits 0 through the module
    entry point and writes the files its comment names under its --out."""
    shrink = {"--nodes": "90", "--hidden": "8"}
    fewer_epochs = ["--epochs", "5", "--patience", "3"]
    steps = quickstart_steps()
    assert [argv[:2] for argv, _ in steps] == [
        ["mlpcascade", name] for name in ("synth", "train-teacher", "distill", "sweep", "infer")
    ]
    for argv, files in steps:
        args = [shrink.get(prev, tok) for prev, tok in zip(argv, argv[1:])]
        if args[0] in ("train-teacher", "distill"):
            args += fewer_epochs
        proc = run_module(*args, cwd=tmp_path)
        assert proc.returncode == 0, (args, proc.stderr)
        assert files
        out = tmp_path / args[args.index("--out") + 1]
        for name in files:
            assert (out / name).is_file(), (args[0], name)
