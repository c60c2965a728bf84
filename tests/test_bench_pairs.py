"""The verdicts of scripts/bench_pairs.py: claims, regressions past a
metric's bound, and the failed-check share of each side."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)


def test_regression_is_a_median_worse_by_more_than_the_bound():
    assert not bp.regresses(1.0, 1.25, 0.25, lower=True)
    assert bp.regresses(1.0, 1.2501, 0.25, lower=True)
    assert not bp.regresses(1.0, 0.5, 0.25, lower=True)
    assert not bp.regresses(0.8, 0.69, 0.15, lower=False)
    assert bp.regresses(0.8, 0.67, 0.15, lower=False)
    assert not bp.regresses(0.8, 0.95, 0.15, lower=False)


def test_failed_share_sums_checks_and_counts_a_crash_as_a_failure():
    runs = [
        {"correct": True, "failed": 0, "attempted": 10},
        {"correct": False, "failed": 2, "attempted": 10},
        {"correct": False, "error": "boom", "metrics": {}},
    ]
    assert bp.failed_share(runs) == (3, 21, 3 / 21)


def test_specs_read_directions_and_end_to_end_bounds():
    better, bounds = bp.metric_specs(ROOT)
    assert better["train_teacher_s"] == "lower" and better["query_acc"] == "higher"
    assert bounds["train_teacher_s"] == 0.25 and bounds["peak_rss_mb"] == 0.2
    assert "teacher.dropout_mask_ms" in better and "teacher.dropout_mask_ms" not in bounds


def fake_checkouts(tmp_path):
    bench = {
        "end_to_end": [
            {"name": "train_s", "better": "lower", "bound": 0.25},
            {"name": "acc", "better": "higher", "bound": 0.15},
        ],
        "per_layer": [{"name": "mask_ms", "better": "lower"}],
    }
    dirs = []
    for name in ("parent", "change"):
        d = tmp_path / name
        d.mkdir(parents=True)
        (d / "BENCHMARK.json").write_text(json.dumps(bench))
        dirs.append(d)
    return dirs


def run_main(monkeypatch, capsys, tmp_path, values, failed, detail=None):
    """main() over two pairs whose runs report ``values[side]`` and
    ``failed[side]`` checks failed of 10, and ``detail(side, seed)`` as
    their detail line when given."""
    parent, change = fake_checkouts(tmp_path)

    def run_once(checkout, workload, seed, seconds, trace):
        side = checkout.name
        result = {"correct": failed[side] == 0, "attempted": 10, "failed": failed[side],
                  "metrics": {m: {"value": v} for m, v in values[side].items()},
                  "failed_checks": [f"check {n} of seed {seed}" for n in range(failed[side])]}
        if detail is not None:
            result["detail"] = detail(side, seed)
        return result

    monkeypatch.setattr(bp, "run_once", run_once)
    code = bp.main([str(parent), str(change), "--workload", "w", "--pairs", "2", "--seed0", "1"])
    return code, capsys.readouterr().out


def line_of(out, metric):
    return next(line for line in out.splitlines() if line.startswith(metric + " "))


def test_main_prints_regressions_and_failed_shares(monkeypatch, capsys, tmp_path):
    values = {"parent": {"train_s": 1.0, "acc": 0.8, "mask_ms": 5.0},
              "change": {"train_s": 0.7, "acc": 0.6, "mask_ms": 1.0}}
    code, out = run_main(monkeypatch, capsys, tmp_path, values, {"parent": 0, "change": 0})
    assert code == 1
    assert line_of(out, "train_s").endswith("yes    no (bound 0.25)")
    assert line_of(out, "acc").endswith("no     YES (bound 0.15)")
    assert line_of(out, "mask_ms").endswith("yes    ")
    assert "seed 1: parent correct=True failed=0, change correct=True failed=0" in out
    assert "parent: 0 of 20 checks failed (0.000%)" in out
    assert "change: 0 of 20 checks failed (0.000%)" in out


def test_main_fails_when_the_change_fails_more_checks(monkeypatch, capsys, tmp_path):
    values = {side: {"train_s": 1.0, "acc": 0.8, "mask_ms": 5.0} for side in ("parent", "change")}
    code, out = run_main(monkeypatch, capsys, tmp_path, values, {"parent": 0, "change": 1})
    assert code == 1
    assert "change: 2 of 20 checks failed (10.000%)" in out
    assert "failed share: the change's is above the parent's" in out
    failed_lines = [line for line in out.splitlines() if "failed check:" in line]
    assert failed_lines == [
        "seed 1: change failed check: check 0 of seed 1",
        "seed 2: change failed check: check 0 of seed 2",
    ]
    code, out = run_main(monkeypatch, capsys, tmp_path / "same", values, {"parent": 0, "change": 0})
    assert code == 0
    assert "failed share" not in out


def test_run_once_keeps_the_failed_check_lines(tmp_path):
    """The messages of a run's ``failed check:`` lines ride along with its
    result line."""
    (tmp_path / "perfbench").mkdir()
    result = {"correct": False, "attempted": 3, "failed": 2, "metrics": {}}
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print('env {}')\n"
        "print('failed check: query batch 3 differs from the full-graph run')\n"
        "print('metric x = 1 s')\n"
        "print('failed check: tradeoff.csv has 2 rows, want 3')\n"
        f"print(json.dumps({result!r}))\n"
    )
    got = bp.run_once(tmp_path, "w", 1, 0.1, 0)
    assert got == {**result, "failed_checks": [
        "query batch 3 differs from the full-graph run", "tradeoff.csv has 2 rows, want 3",
    ]}


def test_main_prints_the_raw_wall_times_of_the_detail_lines(monkeypatch, capsys, tmp_path):
    """Each side's median and quartiles of every wall time in ``WALL_TIMES``
    print under the metrics, without a regression verdict; a wall time that
    some run lacks is left out."""
    values = {side: {"train_s": 1.0, "acc": 0.8, "mask_ms": 5.0} for side in ("parent", "change")}

    def detail(side, seed):
        scale = 1.0 if side == "parent" else 0.5
        return {"queries": {"wall_mean_ms": scale * seed, "wall_tail_ms": 3.0 * seed},
                "loop": {"wall_anytime_full_mean_ms": scale * 10.0 * seed}}

    code, out = run_main(monkeypatch, capsys, tmp_path, values, {"parent": 0, "change": 0},
                         detail)
    assert code == 0
    assert line_of(out, "queries.wall_mean_ms").split() == [
        "queries.wall_mean_ms", "1.5", "[1.25,", "1.75]", "0.75", "[0.625,", "0.875]",
        "-50.0%", "2/2", "yes",
    ]
    assert line_of(out, "queries.wall_tail_ms").split()[-3:] == ["+0.0%", "0/2", "no"]
    assert line_of(out, "loop.wall_anytime_full_mean_ms").split()[1] == "15"
    assert "loop.wall_teacher_mean_ms" not in out


def test_run_once_keeps_the_detail_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    detail = {"queries": {"wall_mean_ms": 0.8}, "loop": {"reps": 3}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print('env {}')\n"
        f"print('detail ' + json.dumps({detail!r}))\n"
        f"print(json.dumps({result!r}))\n"
    )
    got = bp.run_once(tmp_path, "w", 1, 0.1, 0)
    assert got["detail"] == detail
    assert bp.wall_time(got, "queries.wall_mean_ms") == 0.8
    assert bp.wall_time(got, "queries.wall_tail_ms") is None
    assert bp.wall_time({"correct": False, "metrics": {}}, "loop.reps") is None


def test_main_prints_each_commands_raw_wall_median(monkeypatch, capsys, tmp_path):
    """Under the metrics, each command of ``wall_times_s`` gets a line of
    its per-run sample medians; a command some run lacks is left out."""
    values = {side: {"train_s": 1.0, "acc": 0.8, "mask_ms": 5.0} for side in ("parent", "change")}

    def detail(side, seed):
        scale = 1.0 if side == "parent" else 0.5
        times = {"sweep_s": [scale * seed, 9.0, scale * seed], "infer_s": [2.0, 2.0],
                 "setup_s": []}
        if side == "change" or seed == 1:
            times["distill_s"] = [1.0]
        return {"wall_times_s": times}

    code, out = run_main(monkeypatch, capsys, tmp_path, values, {"parent": 0, "change": 0},
                         detail)
    assert code == 0
    assert line_of(out, "wall_times_s.sweep_s").split() == [
        "wall_times_s.sweep_s", "1.5", "[1.25,", "1.75]", "0.75", "[0.625,", "0.875]",
        "-50.0%", "2/2", "yes",
    ]
    assert line_of(out, "wall_times_s.infer_s").split()[-3:] == ["+0.0%", "0/2", "no"]
    assert "wall_times_s.distill_s" not in out and "wall_times_s.setup_s" not in out


def test_command_walls_are_per_run_medians():
    run = {"detail": {"wall_times_s": {"sweep_s": [0.3, 0.1, 0.2], "infer_s": [0.4, 0.6]}}}
    assert bp.command_walls(run) == {"sweep_s": 0.2, "infer_s": 0.5}
    assert bp.command_walls({"correct": False, "metrics": {}}) == {}
