import dataclasses
import hashlib
import json
import re
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

import mlpcascade.graphio as gio
from mlpcascade.numkit import spmm


def write_toy_dataset(path, features, edges, labels, splits=None):
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "features.csv", "w") as f:
        for row in features:
            f.write(",".join(str(v) for v in row) + "\n")
    with open(path / "edges.csv", "w") as f:
        for s, d in edges:
            f.write(f"{s},{d}\n")
    with open(path / "labels.csv", "w") as f:
        for y in labels:
            f.write(f"{y}\n")
    if splits is not None:
        with open(path / "splits.json", "w") as f:
            json.dump(splits, f)


TOY_SPLITS = {"labeled": [0], "validation": [], "test": [1]}


class TestLoadDataset:
    def test_two_node_toy(self, tmp_path):
        write_toy_dataset(
            tmp_path, [[1.0, 0.0], [0.0, 1.0]], [(0, 1)], [0, 1], TOY_SPLITS
        )
        g = gio.load_dataset(tmp_path)
        assert g.n_nodes == 2 and g.n_classes == 2 and g.feat_dim == 2
        dense = g.adjacency.toarray()
        assert np.array_equal(dense, [[0, 1], [1, 0]])
        assert g.n_edges == 1

    def test_duplicate_and_reversed_edges_collapse(self, tmp_path):
        write_toy_dataset(
            tmp_path,
            [[1.0], [2.0], [3.0]],
            [(0, 1), (0, 1), (1, 0), (2, 2)],
            [0, 1, 0],
            {"labeled": [0], "validation": [1], "test": [2]},
        )
        g = gio.load_dataset(tmp_path)
        assert g.n_edges == 1  # self-loop stripped, duplicates merged
        assert g.adjacency.diagonal().sum() == 0

    def test_edge_id_that_wraps_at_int32_refused_by_line(self, tmp_path):
        """Parsed ids are range-checked at int64 before they are narrowed to
        int32, where 4294967301 would wrap to node 5."""
        write_toy_dataset(
            tmp_path, [[float(i)] for i in range(6)], [(0, 1), (0, 4294967301)],
            [0, 1, 0, 1, 0, 1], {"labeled": [0], "validation": [1], "test": [2]},
        )
        with pytest.raises(ValueError) as err:
            gio.load_dataset(tmp_path)
        assert str(err.value) == f"{tmp_path / 'edges.csv'}: line 2: node id out of range [0, 6)"

    def test_missing_file_named(self, tmp_path):
        write_toy_dataset(tmp_path, [[1.0]], [], [0], TOY_SPLITS)
        (tmp_path / "edges.csv").unlink()
        with pytest.raises(FileNotFoundError, match="edges.csv"):
            gio.load_dataset(tmp_path)

    def test_ragged_features_report_line(self, tmp_path):
        write_toy_dataset(tmp_path, [[1.0, 2.0]], [], [0], TOY_SPLITS)
        with open(tmp_path / "features.csv", "a") as f:
            f.write("3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            gio.load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "value, dtype",
        [("nan", np.float32), ("-inf", np.float64), ("1e39", np.float32)],
    )
    def test_nonfinite_feature_rejected_naming_line(self, tmp_path, value, dtype):
        # 1e39 is finite as float64 but overflows float32
        write_toy_dataset(tmp_path, [[1.0, 2.0], [3.0, 4.0]], [(0, 1)], [0, 1], TOY_SPLITS)
        (tmp_path / "features.csv").write_text(f"1.0,2.0\n3.0,{value}\n")
        with pytest.raises(ValueError, match=r"features\.csv: non-finite value at line 2"):
            gio.load_dataset(tmp_path, dtype=dtype)

    def test_hash_line_is_data_not_comment(self, tmp_path):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, 1], TOY_SPLITS)
        (tmp_path / "edges.csv").write_text("0,1\n# 1,0\n")
        with pytest.raises(ValueError, match=r"edges\.csv: non-integer edge at line 2"):
            gio.load_dataset(tmp_path)

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, 1], TOY_SPLITS)
        (tmp_path / "features.csv").write_text("1.0\n \t\n\n2.0\n")
        g = gio.load_dataset(tmp_path)
        assert np.array_equal(g.features, np.array([[1.0], [2.0]], dtype=np.float32))

    def test_negative_label_rejected(self, tmp_path):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, -1], TOY_SPLITS)
        with pytest.raises(ValueError, match="label"):
            gio.load_dataset(tmp_path)

    def test_label_beyond_int64_rejected_naming_line(self, tmp_path):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, 10**20], TOY_SPLITS)
        with pytest.raises(ValueError, match=r"labels\.csv: label at line 2 does not fit"):
            gio.load_dataset(tmp_path)

    @pytest.mark.parametrize("labels, missing", [([0, 100000, 0], 1), ([1, 2, 1], 0)])
    def test_class_id_gap_rejected_naming_missing_class(self, tmp_path, labels, missing):
        # a huge id must not size the one-hot (3 x 100001) before it is rejected
        write_toy_dataset(
            tmp_path, [[1.0], [2.0], [3.0]], [(0, 1)], labels,
            {"labeled": [0], "validation": [1], "test": [2]},
        )
        with pytest.raises(ValueError, match=rf"labels\.csv: .*class {missing} has no node"):
            gio.load_dataset(tmp_path)

    def test_edge_out_of_range(self, tmp_path):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 5)], [0, 1], TOY_SPLITS)
        with pytest.raises(ValueError, match="out of range"):
            gio.load_dataset(tmp_path)

    def test_overlapping_splits_rejected(self, tmp_path):
        write_toy_dataset(
            tmp_path,
            [[1.0], [2.0]],
            [(0, 1)],
            [0, 1],
            {"labeled": [0], "validation": [0], "test": [1]},
        )
        with pytest.raises(ValueError, match="disjoint"):
            gio.load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "splits, message",
        [
            ({"labeled": [0], "test": [1]}, "exactly the keys labeled, validation and test"),
            ({**TOY_SPLITS, "extra": []}, "exactly the keys"),
            ([[0], [], [1]], "got an array"),
            ({**TOY_SPLITS, "labeled": [1.5]}, "'labeled' holds 1.5"),
            ({**TOY_SPLITS, "labeled": [0.0]}, "'labeled' holds 0.0"),
            ({**TOY_SPLITS, "test": [True]}, "'test' holds True"),
            ({**TOY_SPLITS, "test": ["1"]}, "'test' holds '1'"),
            ({**TOY_SPLITS, "test": 1}, "'test' must be a list"),
            ({**TOY_SPLITS, "validation": [-1]}, "'validation' holds -1"),
            ({**TOY_SPLITS, "validation": [2]}, r"holds 2, not an integer node id in \[0, 2\)"),
            ({**TOY_SPLITS, "test": [2**70]}, "'test' holds 1180591620717411303424"),
            ({**TOY_SPLITS, "test": [0]}, "not pairwise disjoint"),
            ({**TOY_SPLITS, "test": [1, 1]}, "'test' repeats node id 1"),
        ],
    )
    def test_malformed_splits_named(self, tmp_path, splits, message):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, 1], splits)
        with pytest.raises(ValueError, match=message) as info:
            gio.load_dataset(tmp_path)
        assert str(tmp_path / "splits.json") in str(info.value)

    @pytest.mark.parametrize(
        "splits, kind",
        [(None, "null"), ([0, 1], "an array"), (2, "a number"), (0.5, "a number"),
         ("labeled", "a string"), (True, "a bool")],
    )
    def test_non_object_splits_named_by_json_kind(self, tmp_path, splits, kind):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, 1])
        (tmp_path / "splits.json").write_text(json.dumps(splits))  # null too
        with pytest.raises(ValueError) as info:
            gio.load_dataset(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / 'splits.json'}: must be an object with exactly the keys "
            f"labeled, validation and test; got {kind}"
        )

    @pytest.mark.parametrize("text", ['{"labeled": [0], "validation": [], "te', "", "\xff\xfe"])
    def test_unparsable_splits_named(self, tmp_path, text):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, 1])
        (tmp_path / "splits.json").write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match="splits.json: not valid JSON"):
            gio.load_dataset(tmp_path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_save_load_round_trips_bit_exact(self, tmp_path, dtype):
        g = gio.synth_sbm(60, 3, 8, 0.3, 0.02, 1.0, seed=11, dtype=dtype)
        first = tmp_path / "first"
        second = tmp_path / "second"
        gio.save_dataset(g, first)
        g1 = gio.load_dataset(first, dtype=dtype)
        gio.save_dataset(g1, second)
        g2 = gio.load_dataset(second, dtype=dtype)
        assert np.array_equal(g1.features, g2.features)
        assert np.array_equal(g1.labels, g2.labels)
        assert (g1.adjacency != g2.adjacency).nnz == 0
        for name in ("labeled", "validation", "test", "unlabeled"):
            assert np.array_equal(getattr(g1.splits, name), getattr(g2.splits, name))


MIRRORED = ("features.csv", "edges.csv", "labels.csv")


def load_outcome(path, **kwargs):
    """Every array of the loaded graph as bytes, or the error message."""
    try:
        g = gio.load_dataset(path, **kwargs)
    except ValueError as exc:
        return ("error", str(exc))
    adj = g.adjacency
    splits = [getattr(g.splits, n) for n in ("labeled", "validation", "test", "unlabeled")]
    arrays = [g.features, g.labels, adj.indptr, adj.indices, adj.data, *splits]
    return ("ok", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def drop_mirrors(path):
    for name in MIRRORED:
        (path / (name + ".mirror")).unlink(missing_ok=True)


class TestMirror:
    """save_dataset's binary mirrors: used only when they provably hold what
    parsing the CSV gives, so a load returns the same bytes, or raises the
    same message, with or without them."""

    @pytest.fixture()
    def saved(self, tmp_path):
        g = gio.synth_sbm(60, 3, 8, 0.3, 0.02, 1.0, seed=11)
        gio.save_dataset(g, tmp_path)
        return g, tmp_path

    def test_one_mirror_per_csv_with_a_sorted_header(self, saved):
        _, path = saved
        assert sorted(p.name for p in path.iterdir()) == sorted(
            [*MIRRORED, *(name + ".mirror" for name in MIRRORED), "splits.json"]
        )
        line, payload = (path / "features.csv.mirror").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        assert line == json.dumps(header, sort_keys=True).encode()
        assert header["csv_sha256"] == hashlib.sha256((path / "features.csv").read_bytes()).hexdigest()
        assert (header["dtype"], header["shape"], len(payload)) == ("float32", [60, 8], 60 * 8 * 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matching_mirrors_replace_every_parse(self, tmp_path, parsed_csvs, dtype):
        g = gio.synth_sbm(60, 3, 8, 0.3, 0.02, 1.0, seed=11, dtype=dtype)
        gio.save_dataset(g, tmp_path)
        got = load_outcome(tmp_path, dtype=dtype)
        assert parsed_csvs == []
        assert got[1][0][2] == g.features.tobytes()
        drop_mirrors(tmp_path)
        assert load_outcome(tmp_path, dtype=dtype) == got
        assert parsed_csvs == ["features.csv", "labels.csv", "edges.csv"]

    @staticmethod
    def damage(path, how):
        csv, mirror = path / "features.csv", path / "features.csv.mirror"
        data = bytearray(mirror.read_bytes())
        if how == "stale csv":
            text = bytearray(csv.read_bytes())
            at = next(i for i, c in enumerate(text) if chr(c) in "123456789")
            text[at] = ord("1") if text[at] != ord("1") else ord("2")
            csv.write_bytes(bytes(text))
            return
        if how == "payload byte":
            data[-1] ^= 1
        elif how == "truncated":
            del data[-4:]
        elif how == "extra byte":
            data.append(0)
        elif how == "bad header":
            data[: data.index(b"\n")] = b"{not json"
        elif how == "header not an object":
            data[: data.index(b"\n")] = b"[60, 8]"
        elif how == "no header line":
            data = data[: data.index(b"\n")]
        elif how == "float in shape":
            data = data.replace(b'"shape": [60, 8]', b'"shape": [60.0, 8]')
        elif how == "transposed shape":  # same byte count
            data = data.replace(b'"shape": [60, 8]', b'"shape": [8, 60]')
        mirror.write_bytes(bytes(data))

    @pytest.mark.parametrize(
        "how",
        ["stale csv", "payload byte", "truncated", "extra byte", "bad header",
         "header not an object", "no header line", "float in shape", "transposed shape"],
    )
    def test_damaged_mirror_falls_back_to_the_csv(self, saved, parsed_csvs, how):
        g, path = saved
        self.damage(path, how)
        assert gio._read_mirror(path / "features.csv", np.float32) is None
        got = load_outcome(path)
        assert parsed_csvs == ["features.csv"]
        if how != "stale csv":
            assert got[1][0][2] == g.features.tobytes()
        drop_mirrors(path)
        assert load_outcome(path) == got

    def test_other_dtype_parses_the_csv(self, saved, parsed_csvs):
        _, path = saved
        assert gio._read_mirror(path / "features.csv", np.float64) is None
        got = load_outcome(path, dtype=np.float64)
        assert parsed_csvs == ["features.csv"]  # the int32 edge and int64 label mirrors still match
        drop_mirrors(path)
        assert load_outcome(path, dtype=np.float64) == got

    def test_mirrored_inf_still_named_by_line(self, tmp_path):
        g = gio.synth_sbm(60, 3, 8, 0.3, 0.02, 1.0, seed=11)
        g.features[6, 2] = np.inf
        gio.save_dataset(g, tmp_path)
        assert np.isinf(gio._read_mirror(tmp_path / "features.csv", np.float32)[6, 2])
        with pytest.raises(ValueError, match=r"features\.csv: non-finite value at line 7$"):
            gio.load_dataset(tmp_path)

    def test_mirrored_edge_out_of_range_still_named_by_line(self, saved, parsed_csvs):
        # hand-drop the last node: the edge mirror still matches edges.csv,
        # but its ids no longer fit, so the CSV path names the line
        _, path = saved
        for name in ("features.csv", "labels.csv"):
            lines = (path / name).read_text().splitlines(keepends=True)
            (path / name).write_text("".join(lines[:-1]))
        # the splits are read before the edges: drop the node there too
        splits = json.loads((path / "splits.json").read_text())
        (path / "splits.json").write_text(
            json.dumps({name: [i for i in ids if i != 59] for name, ids in splits.items()})
        )
        assert gio._read_mirror(path / "edges.csv", np.int32).max() == 59
        got = load_outcome(path)
        assert got[0] == "error" and "edges.csv: line" in got[1]
        assert got[1].endswith("node id out of range [0, 59)")
        assert parsed_csvs == ["features.csv", "labels.csv", "edges.csv"]
        drop_mirrors(path)
        assert load_outcome(path) == got

    def test_mirrored_labels_of_another_node_count_refused(self, saved):
        _, path = saved
        lines = (path / "features.csv").read_text().splitlines(keepends=True)
        (path / "features.csv").write_text("".join(lines[:-1]))
        got = load_outcome(path)
        # the node count is features.csv's row count, so both files are named
        assert got == (
            "error",
            f"{path / 'labels.csv'}: 60 labels for the 59 nodes of {path / 'features.csv'}",
        )
        drop_mirrors(path)
        assert load_outcome(path) == got

    def test_empty_edge_list_mirrored(self, saved, parsed_csvs):
        g, path = saved
        empty = gio.Graph(
            features=g.features,
            labels=g.labels,
            splits=g.splits,
            edges=np.empty((0, 2), dtype=np.int64),
        )
        gio.save_dataset(empty, path)
        assert (path / "edges.csv").read_bytes() == b""
        assert gio._read_mirror(path / "edges.csv", np.int32).shape == (0, 2)
        got = load_outcome(path)
        assert parsed_csvs == [] and got[0] == "ok"
        drop_mirrors(path)
        assert load_outcome(path) == got

    def test_int64_edge_mirror_of_an_older_save_parses_the_csv(self, saved, parsed_csvs):
        """Edge mirrors are int32 now. An int64 one, as older saves wrote it,
        misses on its dtype, and the CSV parses to the same int32 list."""
        g, path = saved
        csv = path / "edges.csv"

        def mirror_dtype():
            return json.loads((path / "edges.csv.mirror").read_bytes().split(b"\n", 1)[0])["dtype"]

        assert mirror_dtype() == "int32"
        gio._write_mirror(csv, hashlib.sha256(csv.read_bytes()).hexdigest(), g.edges.astype(np.int64))
        assert mirror_dtype() == "int64"
        loaded = gio.load_dataset(path)
        assert parsed_csvs == ["edges.csv"]
        assert loaded.edges.dtype == np.int32 and loaded.edges.tobytes() == g.edges.tobytes()

    def test_empty_feature_table_still_refused(self, tmp_path):
        none = np.empty(0, dtype=np.int64)
        g = gio.Graph(
            features=np.empty((0, 4), dtype=np.float32),
            labels=np.empty((0, 2), dtype=np.float32),
            splits=gio.Splits(none, none, none, none),
            edges=np.empty((0, 2), dtype=np.int64),
        )
        gio.save_dataset(g, tmp_path)
        assert gio._read_mirror(tmp_path / "features.csv", np.float32).shape == (0, 4)
        with pytest.raises(ValueError, match=r"features\.csv: no feature rows$"):
            gio.load_dataset(tmp_path)

    def test_same_graph_saves_identical_bytes(self, saved, tmp_path):
        g, path = saved
        again = tmp_path / "again"
        gio.save_dataset(g, again)
        for name in MIRRORED:
            for file in (name, name + ".mirror"):
                assert (path / file).read_bytes() == (again / file).read_bytes()


def test_splits_json_bytes_match_json_dump(tmp_path):
    g = gio.synth_sbm(300, 3, 8, 0.05, 0.005, 1.0, seed=2)
    gio.save_dataset(g, tmp_path)
    with open(tmp_path / "ref.json", "w") as f:
        json.dump(
            {name: getattr(g.splits, name).tolist() for name in ("labeled", "validation", "test")},
            f,
            sort_keys=True,
        )
        f.write("\n")
    assert (tmp_path / "splits.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def read_splits_reference(path, n_nodes):
    """The element-by-element splits reader that ``_read_splits`` replaced,
    frozen: every accepted file and every message must stay its own."""
    with open(path) as f:
        raw = json.load(f)
    sets = {}
    for name in ("labeled", "validation", "test"):
        ids = raw[name]
        if not isinstance(ids, list):
            raise ValueError(f"{path}: {name!r} must be a list of node ids")
        for v in ids:
            if type(v) is not int or not 0 <= v < n_nodes:
                raise ValueError(
                    f"{path}: {name!r} holds {v!r}, not an integer node id in [0, {n_nodes})"
                )
        ids = np.sort(np.asarray(ids, dtype=np.int64))
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise ValueError(f"{path}: {name!r} repeats node id {int(repeated[0])}")
        sets[name] = ids
    lab, val, tst = (set(raw[name]) for name in ("labeled", "validation", "test"))
    if lab & val or lab & tst or val & tst:
        raise ValueError(f"{path}: split index sets are not pairwise disjoint")
    return gio.Splits(
        labeled=sets["labeled"],
        validation=sets["validation"],
        test=sets["test"],
        unlabeled=np.setdiff1d(np.arange(n_nodes), sets["labeled"]),
    )


def splits_outcome(read, path, n_nodes):
    try:
        s = read(path, n_nodes)
    except ValueError as exc:
        return ("error", str(exc))
    arrays = (s.labeled, s.validation, s.test, s.unlabeled)
    return ("ok", [(a.dtype.str, a.tobytes()) for a in arrays])


class TestReadSplits:
    """``_read_splits`` checks whole arrays and walks a list only to name its
    first bad value: the outcome is the frozen element reader's."""

    N = 40
    GOOD = {"labeled": [3, 0, 7], "validation": list(range(10, 20)), "test": [39, 21, 22]}

    def outcome_pair(self, tmp_path, splits):
        path = tmp_path / "splits.json"
        path.write_text(json.dumps(splits))
        got = splits_outcome(gio._read_splits, path, self.N)
        assert got == splits_outcome(read_splits_reference, path, self.N)
        return got

    def test_accepted_file(self, tmp_path):
        got = self.outcome_pair(tmp_path, self.GOOD)
        assert got[0] == "ok"

    @pytest.mark.parametrize(
        "name, ids, shown",
        [
            ("labeled", [3, 0, True, 7], "'labeled' holds True"),
            ("labeled", [3, False], "'labeled' holds False"),
            ("validation", [10, 11, 12.0], "'validation' holds 12.0"),
            ("validation", [10, 11.5, -1], "'validation' holds 11.5"),
            ("test", [39, 40], "'test' holds 40"),
            ("test", [21, -1, 99], "'test' holds -1"),
            ("test", [21, 2**63], "'test' holds 9223372036854775808"),
            ("test", [21, -(2**70)], "'test' holds -1180591620717411303424"),
            ("labeled", [3, 0, "3"], "'labeled' holds '3'"),
            ("labeled", [3, 0, None], "'labeled' holds None"),
            ("labeled", [3, [0]], r"'labeled' holds \[0\]"),
            ("test", [21, 22, 21], "'test' repeats node id 21"),
            ("test", [21, 3], "split index sets are not pairwise disjoint"),
            ("validation", [39], "split index sets are not pairwise disjoint"),
        ],
    )
    def test_refusals_name_the_first_bad_value(self, tmp_path, name, ids, shown):
        got = self.outcome_pair(tmp_path, {**self.GOOD, name: ids})
        assert got[0] == "error"
        assert got[1].startswith(f"{tmp_path / 'splits.json'}: ")
        assert re.search(shown, got[1])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.integers(-3, 43),
                    st.integers(-(2**70), 2**70),
                    st.booleans(),
                    st.floats(-2.0, 42.0),
                ),
                max_size=12,
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_agrees_with_the_element_reader(self, tmp_path_factory, lists):
        splits = dict(zip(("labeled", "validation", "test"), lists))
        self.outcome_pair(tmp_path_factory.mktemp("splits"), splits)


class TestLoadNodes:
    """``load_nodes`` reads the node tables only; ``load_dataset`` reads
    them through it and then the edge list."""

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_tables_as_load_dataset(self, tmp_path, dtype, normalize):
        gio.save_dataset(gio.synth_sbm(60, 3, 8, 0.3, 0.02, 1.0, seed=11, dtype=dtype), tmp_path)
        nodes = gio.load_nodes(tmp_path, dtype, normalize_features=normalize)
        g = gio.load_dataset(tmp_path, dtype, normalize_features=normalize)
        assert isinstance(nodes, gio.NodeTables) and not hasattr(nodes, "edges")
        assert isinstance(g, gio.NodeTables)
        sizes = (g.n_nodes, g.feat_dim, g.n_classes)
        assert (nodes.n_nodes, nodes.feat_dim, nodes.n_classes) == sizes
        for a, b in [(nodes.features, g.features), (nodes.labels, g.labels)] + [
            (getattr(nodes.splits, n), getattr(g.splits, n))
            for n in ("labeled", "validation", "test", "unlabeled")
        ]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_edge_list_neither_opened_nor_required(self, tmp_path, parsed_csvs):
        gio.save_dataset(gio.synth_sbm(60, 3, 8, 0.3, 0.02, 1.0, seed=11), tmp_path)
        (tmp_path / "edges.csv").write_text("not,an,edge\n")
        (tmp_path / "edges.csv.mirror").unlink()
        assert gio.load_nodes(tmp_path).n_nodes == 60
        (tmp_path / "edges.csv").unlink()
        assert gio.load_nodes(tmp_path).n_nodes == 60
        assert parsed_csvs == []
        with pytest.raises(FileNotFoundError, match="edges.csv"):
            gio.load_dataset(tmp_path)

    def test_missing_node_table_named(self, tmp_path):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, 1], TOY_SPLITS)
        (tmp_path / "labels.csv").unlink()
        with pytest.raises(FileNotFoundError, match="labels.csv"):
            gio.load_nodes(tmp_path)

    def test_load_dataset_names_bad_splits_before_bad_edges(self, tmp_path):
        write_toy_dataset(
            tmp_path, [[1.0], [2.0]], [(0, 5)], [0, 1], {**TOY_SPLITS, "test": [1, 1]}
        )
        with pytest.raises(ValueError, match=r"splits\.json: 'test' repeats node id 1"):
            gio.load_dataset(tmp_path)


class TestUndirectedPairs:
    @staticmethod
    def oracle(edges):
        edges = edges[edges[:, 0] != edges[:, 1]]
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        return np.unique(np.column_stack([lo, hi]), axis=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unique_rows_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 300)), 2))
        edges = np.concatenate([edges, edges[::-1, ::-1]])  # reversed duplicates
        got = gio._undirected_pairs(edges, n)
        assert got.dtype == np.int64
        assert np.array_equal(got, self.oracle(edges))

    @pytest.mark.parametrize(
        "edges", [np.empty((0, 2), dtype=np.int64), np.array([[3, 3], [0, 0], [3, 3]])]
    )
    def test_empty_and_all_self_loops(self, edges):
        got = gio._undirected_pairs(edges, 4)
        assert got.shape == (0, 2)
        assert np.array_equal(got, self.oracle(edges))


def coo_adjacency(pairs, n_nodes, dtype):
    """The COO construction of the adjacency from canonical pairs that
    ``_adjacency_from_pairs`` replaced: the reference it must match."""
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.ones(src.size, dtype=dtype)
    adj = sparse.csr_array(sparse.coo_array((data, (src, dst)), shape=(n_nodes, n_nodes)))
    adj.sort_indices()
    return adj


@st.composite
def edge_lists(draw):
    """(edges, n_nodes): any pairs of node ids, repeats, reversed repeats
    and self-loops included, on graphs that may have isolated nodes or no
    edge at all."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(0, 150))
    edges = draw(hnp.arrays(np.int64, (m, 2), elements=st.integers(0, n - 1)))
    if draw(st.booleans()):
        edges = np.concatenate([edges, edges[::-1, ::-1]])
    return edges, n


class TestCanonicalPairs:
    """Canonical edge lists, as save_dataset writes them, skip the sort, and
    the adjacency is built from the pairs' CSR order: both must give what
    the sort and the COO construction give."""

    @given(edge_lists(), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=150, deadline=None)
    def test_adjacency_matches_coo_reference(self, case, dtype):
        edges, n = case
        pairs = gio._undirected_pairs(edges, n)
        assert np.array_equal(pairs, TestUndirectedPairs.oracle(edges))
        again = gio._undirected_pairs(pairs, n)
        assert again.dtype == np.int64 and np.array_equal(again, pairs)
        got = gio._adjacency_from_pairs(pairs, n, dtype)
        ref = coo_adjacency(pairs, n, dtype)
        assert got.shape == ref.shape and got.has_sorted_indices
        # the same values; the index arrays are int32 where the COO
        # construction from int64 pairs keeps int64
        assert got.indptr.dtype == got.indices.dtype == np.int32
        assert got.data.dtype == ref.data.dtype
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    @given(edge_lists(), st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_check_matches_the_whole_list_check(self, case, block, data):
        """The canonical check taken ``block`` rows at a time, the last key
        carried across blocks, accepts what the whole key array does."""
        edges, n = case
        pairs = TestUndirectedPairs.oracle(edges)
        inputs = [edges, pairs]
        if pairs.shape[0] > 1:
            at = data.draw(st.integers(0, pairs.shape[0] - 2))
            inputs.append(np.insert(pairs, at, pairs[at], axis=0))  # a repeat
            inputs.append(pairs[np.r_[:at, at + 1, at, at + 2:pairs.shape[0]]])  # a swap
        with unittest.mock.patch.object(gio, "_CANONICAL_BLOCK", block):
            for e in inputs:
                i, j = e[:, 0], e[:, 1]
                key = i * n + j
                whole = bool(np.all(i < j) and np.all(key[1:] > key[:-1]))
                assert gio._is_canonical(i, j, n) == whole

    def test_canonical_input_skips_the_sort(self):
        pairs = np.array([[0, 2], [0, 3], [1, 2], [2, 5]], dtype=np.int64)
        assert gio._undirected_pairs(pairs, 6) is pairs

    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 2], [0, 2]],  # repeat
            [[0, 2], [2, 0]],  # reversed repeat
            [[1, 2], [0, 3]],  # out of order
            [[0, 2], [3, 3]],  # self-loop
            [[2, 0], [2, 3]],  # i > j
        ],
    )
    def test_non_canonical_input_takes_the_sort(self, edges):
        edges = np.array(edges, dtype=np.int64)
        got = gio._undirected_pairs(edges, 4)
        assert got is not edges
        assert np.array_equal(got, TestUndirectedPairs.oracle(edges))

    @pytest.mark.parametrize("n_nodes", [1, 7])
    def test_empty_graph(self, n_nodes):
        pairs = gio._undirected_pairs(np.empty((0, 2), dtype=np.int64), n_nodes)
        got = gio._adjacency_from_pairs(pairs, n_nodes, np.float32)
        ref = coo_adjacency(pairs, n_nodes, np.float32)
        assert got.nnz == 0 and np.array_equal(got.indptr, ref.indptr)
        assert got.indptr.dtype == ref.indptr.dtype


def graph_of(edges, n_nodes, dtype=np.float32):
    """A hand-built Graph on ``n_nodes`` nodes with the edge list ``edges``."""
    none = np.empty(0, dtype=np.int64)
    return gio.Graph(
        features=np.zeros((n_nodes, 2), dtype=dtype),
        labels=np.ones((n_nodes, 1), dtype=dtype),
        splits=gio.Splits(none, none, none, none),
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
    )


class TestEdgeListGraph:
    """A Graph stores its canonical edge list; the adjacency and Â are
    derived from it. ``normalized_adjacency`` must give the bits of
    ``normalize_adjacency`` of the derived adjacency and of the reference,
    and, since entry (i, j) is ``d_i^-1/2 · d_j^-1/2`` rounded once, an Â
    whose transpose has its index arrays and data bytes."""

    @staticmethod
    def assert_same_a_hat(g):
        got = gio.normalized_adjacency(g)
        adjacency = g.adjacency
        want = gio.normalize_adjacency(adjacency)
        assert isinstance(got, sparse.csr_array) and got.shape == want.shape
        for m in (got, adjacency, want):
            assert m.indptr.dtype == m.indices.dtype == np.int32
        for other in (want, reference_normalize_adjacency(adjacency), sparse.csr_array(got.T)):
            for name in ("indptr", "indices"):
                assert np.array_equal(getattr(got, name), getattr(other, name)), name
            assert got.data.dtype == other.data.dtype == g.features.dtype
            assert got.data.tobytes() == other.data.tobytes()
        return got

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape",
        [(400, 4, 16, 0.05, 0.002), (350, 7, 48, 0.05, 0.002), (600, 10, 16, 0.2, 0.01)],
    )
    def test_synth_sbm_graphs(self, shape, dtype):
        self.assert_same_a_hat(gio.synth_sbm(*shape, 1.5, seed=3, dtype=dtype))

    @given(edge_lists(), st.sampled_from([np.float32, np.float64]))
    @example((np.empty((0, 2), dtype=np.int64), 1), np.float32)
    @example((np.empty((0, 2), dtype=np.int64), 6), np.float64)
    @example((np.array([[2, 5], [5, 2], [0, 2]]), 9), np.float32)
    @settings(max_examples=150, deadline=None)
    def test_any_edge_list(self, case, dtype):
        edges, n = case
        self.assert_same_a_hat(graph_of(edges, n, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_isolated_nodes(self, dtype):
        g = graph_of([[1, 2], [2, 5], [1, 5], [5, 8]], 10, dtype)
        a_hat = self.assert_same_a_hat(g).toarray()
        for node in (0, 3, 4, 6, 7, 9):
            assert a_hat[node, node] == 1.0 and np.count_nonzero(a_hat[node]) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 5])
    def test_no_edges(self, n, dtype):
        a_hat = self.assert_same_a_hat(graph_of([], n, dtype))
        assert np.array_equal(a_hat.toarray(), np.eye(n, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dataset_loaded_through_its_mirrors(self, tmp_path, parsed_csvs, dtype):
        g = gio.synth_sbm(300, 3, 8, 0.05, 0.005, 1.0, seed=2, dtype=dtype)
        gio.save_dataset(g, tmp_path)
        loaded = gio.load_dataset(tmp_path, dtype=dtype)
        assert parsed_csvs == []
        assert loaded.edges.dtype == np.int32 and np.array_equal(loaded.edges, g.edges)
        self.assert_same_a_hat(loaded)

    @pytest.mark.parametrize("form", ["canonical", "reversed", "repeated"])
    def test_keys_of_large_ids_do_not_wrap(self, form):
        """The keys ``i * n + j`` pass 2^31 from 46341 nodes, so they are
        formed at int64 whatever the list's dtype: pairs among the top ids
        of a 70 000-node graph, and among the ids whose keys cross 2^31,
        canonicalize to the unique-rows oracle."""
        n = 70_000
        rng = np.random.default_rng(7)
        ids = np.concatenate([np.arange(30_660, 30_700), np.arange(n - 40, n)])
        edges = rng.choice(ids, size=(300, 2))
        pairs = TestUndirectedPairs.oracle(edges)
        given = {
            "canonical": pairs,
            "reversed": pairs[::-1, ::-1],
            "repeated": np.concatenate([pairs, edges, pairs[::-1]]),
        }[form]
        g = graph_of(given, n)
        assert g.edges.dtype == np.int32
        assert np.array_equal(g.edges, pairs)

    def test_adjacency_derived_from_the_edge_list(self):
        g = graph_of([[0, 2], [1, 2]], 4, np.float64)
        assert g.n_edges == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.edges = np.array([[2, 0]])
        a = g.adjacency
        assert a.dtype == np.float64 and a.has_sorted_indices
        assert np.array_equal(
            a.toarray(), [[0, 0, 1, 0], [0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]]
        )

    @pytest.mark.parametrize(
        "edges",
        [
            [[2, 5], [0, 3], [1, 4]],  # unsorted
            [[0, 3], [0, 3], [2, 5], [0, 3]],  # duplicated
            [[3, 0], [5, 2], [0, 3]],  # reversed
            [[4, 4], [0, 3], [1, 1]],  # self-loops
            [[5, 2], [4, 4], [3, 0], [2, 5], [1, 4], [0, 3], [0, 0]],  # all at once
        ],
    )
    def test_hand_built_edges_canonicalized_as_load_dataset_does(self, tmp_path, edges):
        write_toy_dataset(
            tmp_path, [[float(i)] for i in range(6)], edges, [0, 1, 0, 1, 0, 1],
            {"labeled": [0], "validation": [1], "test": [2]},
        )
        loaded = gio.load_dataset(tmp_path)
        g = graph_of(edges, 6)
        assert g.edges.dtype == loaded.edges.dtype == np.int32
        assert np.array_equal(g.edges, loaded.edges)
        assert np.array_equal(g.edges, TestUndirectedPairs.oracle(np.array(edges)))

    @pytest.mark.parametrize(
        "edges, message",
        [
            (np.array([0, 1]), r"edges must be an \(M, 2\) array of node ids"),
            (np.array([[0.0, 1.0]]), r"edges must be an \(M, 2\) array of node ids"),
            (np.array([[0, 1, 2]]), r"edges must be an \(M, 2\) array of node ids"),
            (np.array([[0, 4]]), r"edge node id out of range \[0, 4\)"),
            (np.array([[-1, 2]]), r"edge node id out of range \[0, 4\)"),
        ],
    )
    def test_bad_edge_lists_refused(self, edges, message):
        with pytest.raises(ValueError, match=message):
            gio.Graph(
                features=np.zeros((4, 2)),
                labels=np.ones((4, 1)),
                splits=graph_of([], 4).splits,
                edges=edges,
            )

    def test_edge_list_only_by_keyword(self):
        """A positional edge list raises instead of landing in ``labels``."""
        g = graph_of([(0, 1)], 4)
        with pytest.raises(TypeError):
            gio.Graph(g.features, g.edges, g.labels, g.splits)


class TestIndexWidth:
    """Every adjacency and Â holds int32 index arrays; a graph whose arrays
    would not fit is refused by its counts, before anything is built."""

    LIMIT = 2**31 - 1

    def test_largest_counts_fit(self):
        assert gio.index_dtype(self.LIMIT, self.LIMIT) == np.int32
        assert gio.index_dtype(0, 0) == np.int32

    @pytest.mark.parametrize("n_nodes, n_entries", [(LIMIT + 1, 5), (5, LIMIT + 1), (2**40, 2**41)])
    def test_larger_counts_refused_by_their_sizes(self, n_nodes, n_entries):
        with pytest.raises(ValueError) as err:
            gio.index_dtype(n_nodes, n_entries)
        assert str(err.value) == (
            f"a graph of {n_nodes} nodes and {n_entries} adjacency entries does not "
            f"fit int32 index arrays (at most {self.LIMIT} of each)"
        )

    def test_graph_beyond_int32_node_ids_refused(self, tmp_path):
        """A Graph holds int32 node ids: a node count beyond int32 is refused
        before a list is narrowed, where 4294967301 would wrap to node 5.
        The node tables are zero-stride views, as no test can hold them."""
        n = 2**32 + 6
        none = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match=f"a graph of {n} nodes and 2 adjacency entries"):
            gio.Graph(
                features=np.broadcast_to(np.float32(0), (n, 1)),
                labels=np.broadcast_to(np.float32(1), (n, 1)),
                splits=gio.Splits(none, none, none, none),
                edges=np.array([[0, 4294967301]]),
            )
        (tmp_path / "edges.csv").write_text("0,4294967301\n")
        with pytest.raises(ValueError, match=f"a graph of {n} nodes and 0 adjacency entries"):
            gio._read_edges(tmp_path / "edges.csv", n)

    @pytest.mark.parametrize("build", ["normalized_adjacency", "adjacency", "normalize_adjacency"])
    def test_each_builder_asks_for_the_width_before_building(self, monkeypatch, build):
        """Each builder names its node count and entry count: ``n + 2m``
        for Â, ``2m`` for the adjacency."""
        g = graph_of([[0, 1], [1, 2], [2, 3], [0, 3], [1, 3]], 6)
        a = g.adjacency
        asked = []

        def refuse(n_nodes, n_entries):
            asked.append((n_nodes, n_entries))
            raise ValueError("refused")

        monkeypatch.setattr(gio, "index_dtype", refuse)
        with pytest.raises(ValueError, match="refused"):
            if build == "normalized_adjacency":
                gio.normalized_adjacency(g)
            elif build == "adjacency":
                g.adjacency
            else:
                gio.normalize_adjacency(a)
        assert asked == [(6, 10 if build == "adjacency" else 16)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cols", [1, 4, 64])
    def test_int32_products_match_an_int64_copy(self, dtype, cols):
        """scipy runs one kernel per index width; the int32 Â gives the same
        bytes as an int64 copy for the full product, a row slice ``Â[R]``,
        its product and its transpose's product."""
        g = gio.synth_sbm(600, 5, 8, 0.1, 0.01, 1.0, seed=4, dtype=dtype)
        a32 = gio.normalized_adjacency(g)
        a64 = sparse.csr_array(
            (a32.data, a32.indices.astype(np.int64), a32.indptr.astype(np.int64)), shape=a32.shape
        )
        assert a32.indices.dtype == np.int32 and a64.indices.dtype == np.int64
        rng = np.random.default_rng(cols)
        d = rng.standard_normal((600, cols)).astype(dtype)
        assert spmm(a32, d).tobytes() == spmm(a64, d).tobytes()
        rows = np.unique(rng.integers(0, 600, 120))
        r32, r64 = a32[rows], a64[rows]
        assert r32.indices.dtype == np.int32
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(r32, name), getattr(r64, name)), name
        assert r32.data.tobytes() == r64.data.tobytes()
        assert spmm(r32, d).tobytes() == spmm(r64, d).tobytes()
        grad = rng.standard_normal((rows.size, cols)).astype(dtype)
        assert spmm(r32.T, grad).tobytes() == spmm(r64.T, grad).tobytes()


class TestWriteCsv:
    @pytest.mark.parametrize(
        "table, fmt",
        [
            (np.random.default_rng(0).standard_normal((50, 3)).astype(np.float32), "%.9g"),
            (np.random.default_rng(1).standard_normal((4, 5000)), "%.17g"),
            (np.random.default_rng(2).integers(0, 10**6, size=(20000, 2)), "%d"),
            (np.arange(7)[:, None], "%d"),
            (np.empty((0, 2), dtype=np.int64), "%d"),
        ],
    )
    def test_bytes_match_savetxt(self, tmp_path, table, fmt):
        gio._write_csv(tmp_path / "new.csv", table, fmt)
        np.savetxt(tmp_path / "ref.csv", table, fmt=fmt, delimiter=",")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 3, 40000])
    def test_per_column_formats_and_header_match_savetxt(self, tmp_path, n):
        rng = np.random.default_rng(n)
        table = np.column_stack([np.arange(n), rng.integers(0, 7, n), rng.random(n)])
        fmt = ("%d", "%d", "%.9g")
        gio._write_csv(tmp_path / "new.csv", table, fmt, header="a,b,c")
        np.savetxt(tmp_path / "ref.csv", table, fmt=fmt, delimiter=",", header="a,b,c", comments="")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def reference_normalize_adjacency(a):
    """The COO-round-trip normalization that ``normalize_adjacency`` must
    reproduce bit for bit: symmetry by subtraction, then two broadcast
    multiplies."""
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if np.any(a.diagonal() != 0):
        raise ValueError("adjacency must have a zero diagonal before normalization")
    diff = (a - a.T).tocoo()
    if diff.nnz and np.any(diff.data != 0):
        raise ValueError("adjacency must be symmetric")
    a_tilde = sparse.csr_array(a + sparse.eye_array(n, dtype=a.dtype, format="csr"))
    degrees = np.asarray(a_tilde.sum(axis=1)).ravel()
    inv_sqrt = (1.0 / np.sqrt(degrees)).astype(a.dtype)
    normalized = a_tilde.multiply(inv_sqrt[:, None]).tocsr().multiply(inv_sqrt[None, :])
    out = sparse.csr_array(normalized)
    out.sort_indices()
    return out


def random_symmetric(rng, n, density, dtype):
    """A random symmetric 0/1 adjacency with zero diagonal."""
    w = np.triu(rng.random((n, n)) < density, k=1)
    return sparse.csr_array((w | w.T).astype(dtype))


def unsorted_with_duplicates(dense, rng):
    """CSR holding ``dense`` with each row's entries shuffled and every
    nonzero split into two stored duplicates, v = h + (v - h) exactly."""
    rows, cols = np.nonzero(dense)
    vals = dense[rows, cols]
    half = vals / 2  # exact in binary floating point for these magnitudes
    rows = np.concatenate([rows, rows])
    cols = np.concatenate([cols, cols])
    data = np.concatenate([half, vals - half])
    order = np.lexsort((rng.random(rows.size), rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dense.shape[0]))])
    return sparse.csr_array((data[order], cols[order], indptr), shape=dense.shape)


class TestNormalizeAdjacencyBits:
    """Same data bytes and dtype as the reference, and the same index
    values, held in int32 whatever the width of the input's and so of the
    reference's index arrays."""

    @staticmethod
    def assert_same(a):
        got = gio.normalize_adjacency(a)
        want = reference_normalize_adjacency(a)
        assert isinstance(got, sparse.csr_array)
        for name in ("indptr", "indices"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == np.int32 and np.array_equal(g, w), name
        assert got.data.dtype == want.data.dtype
        assert got.data.tobytes() == want.data.tobytes()
        assert got.has_sorted_indices
        return got

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape",
        [(400, 4, 16, 0.05, 0.002), (350, 7, 48, 0.05, 0.002), (600, 10, 16, 0.2, 0.01)],
    )
    def test_synth_sbm_graphs(self, shape, dtype):
        g = gio.synth_sbm(*shape, 1.5, seed=3, dtype=dtype)
        self.assert_same(g.adjacency)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed, dtype):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        self.assert_same(random_symmetric(rng, n, rng.uniform(0.01, 0.5), dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_isolated_nodes(self, dtype):
        a = random_symmetric(np.random.default_rng(7), 50, 0.2, dtype).toarray()
        a[[0, 17, 49], :] = 0
        a[:, [0, 17, 49]] = 0
        out = self.assert_same(sparse.csr_array(a)).toarray()
        assert out[17, 17] == 1.0 and np.count_nonzero(out[17]) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 5])
    def test_no_edges(self, n, dtype):
        out = self.assert_same(sparse.csr_array((n, n), dtype=dtype))
        assert np.array_equal(out.toarray(), np.eye(n, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(3))
    def test_unsorted_indices_and_duplicates(self, seed, dtype):
        """Each stored 1 is split into two stored halves, which sum to 1;
        the caller's arrays are left as they were."""
        rng = np.random.default_rng(seed)
        dense = random_symmetric(rng, 40, 0.3, dtype).toarray()
        a = unsorted_with_duplicates(dense, rng)
        assert not a.has_canonical_format
        before = [x.copy() for x in (a.indptr, a.indices, a.data)]
        self.assert_same(a)
        for was, now in zip(before, (a.indptr, a.indices, a.data)):
            assert was.tobytes() == now.tobytes()
        assert not a.has_canonical_format

    def test_one_sided_explicit_zero_accepted(self):
        # (0, 2) is stored as an explicit zero, (2, 0) is not stored at all
        a = sparse.csr_array(
            (np.array([1.0, 0.0, 1.0]), np.array([1, 2, 0]), np.array([0, 2, 3, 3])),
            shape=(3, 3),
        )
        out = self.assert_same(a)
        assert out.nnz == 5 and a.nnz == 3  # the zero is no edge, and still stored

    @pytest.mark.parametrize(
        "dense, message",
        [
            ([[0.0, 1.0], [0.0, 0.0]], "adjacency must be symmetric"),
            ([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "adjacency must be symmetric"),
            ([[1.0, 0.0], [0.0, 0.0]], "adjacency must have a zero diagonal before normalization"),
            ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], "adjacency must be square, got (2, 3)"),
        ],
    )
    def test_messages_unchanged(self, dense, message):
        a = sparse.csr_array(np.array(dense))
        for fn in (gio.normalize_adjacency, reference_normalize_adjacency):
            with pytest.raises(ValueError) as err:
                fn(a)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "value, shown",
        [(-1.0, "-1.0"), (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (2.0, "2.0"),
         (0.5, "0.5")],
    )
    def test_value_other_than_0_or_1_refused(self, value, shown):
        a = sparse.csr_array(np.array([[0.0, value], [value, 0.0]]))
        with pytest.raises(ValueError) as err:
            gio.normalize_adjacency(a)
        assert str(err.value) == f"adjacency values must be 0 or 1, found {shown}"

    def test_duplicates_summing_past_1_refused(self):
        """Two stored 1s at one place are the value 2."""
        a = sparse.csr_array(
            (np.ones(4), np.array([1, 1, 0, 0]), np.array([0, 2, 4])), shape=(2, 2)
        )
        with pytest.raises(ValueError) as err:
            gio.normalize_adjacency(a)
        assert str(err.value) == "adjacency values must be 0 or 1, found 2.0"

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.bool_, np.longdouble])
    def test_dtype_other_than_float32_or_float64_refused(self, dtype):
        """An integer Â would round every entry to 0 or 1; neither entry
        point builds one."""
        message = (
            f"normalized adjacency dtype must be float32 or float64, got {np.dtype(dtype)}"
        )
        a = sparse.csr_array(np.array([[0, 1], [1, 0]], dtype=dtype))
        with pytest.raises(ValueError) as err:
            gio.normalize_adjacency(a)
        assert str(err.value) == message
        g = graph_of([[0, 1]], 3, dtype)
        with pytest.raises(ValueError) as err:
            gio.normalized_adjacency(g)
        assert str(err.value) == message


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        a = sparse.csr_array((1, 1))
        out = gio.normalize_adjacency(a)
        assert np.allclose(out.toarray(), [[1.0]])

    def test_two_nodes_one_edge(self):
        a = sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = gio.normalize_adjacency(a).toarray()
        assert np.allclose(out, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_path_graph_center_entry(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 1
        dense[1, 2] = dense[2, 1] = 1
        out = gio.normalize_adjacency(sparse.csr_array(dense)).toarray()
        assert abs(out[1, 1] - 1.0 / 3.0) < 1e-12
        assert np.allclose(out, out.T, atol=1e-12)
        assert abs(out[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-12

    def test_asymmetric_rejected(self):
        dense = np.zeros((2, 2))
        dense[0, 1] = 1
        with pytest.raises(ValueError, match="symmetric"):
            gio.normalize_adjacency(sparse.csr_array(dense))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            gio.normalize_adjacency(sparse.csr_array(np.eye(2)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        dense = (rng.random((n, n)) < 0.15).astype(np.float64)
        dense = np.triu(dense, k=1)
        dense = dense + dense.T
        out = gio.normalize_adjacency(sparse.csr_array(dense)).toarray()
        a_tilde = dense + np.eye(n)
        inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
        expected = inv_sqrt[:, None] * a_tilde * inv_sqrt[None, :]
        assert np.max(np.abs(out - expected)) < 1e-12
        assert np.max(np.abs(out - out.T)) < 1e-12
        # row sums: positive, bounded by sqrt of max self-loop degree
        sums = out.sum(axis=1)
        assert np.all(sums > 0)
        assert np.all(sums <= np.sqrt(a_tilde.sum(axis=1).max()) + 1e-12)


def make_splits(g, n_per_class, n_val, n_test, seed):
    """The stratified splits of a graph's own labels."""
    return gio._splits_from_labels(np.argmax(g.labels, axis=1), n_per_class, n_val, n_test, seed)


class TestMakeSplits:
    def test_one_per_class(self):
        g = gio.synth_sbm(20, 2, 4, 0.5, 0.1, 0.5, seed=0)
        splits = make_splits(g, n_per_class=1, n_val=4, n_test=4, seed=3)
        assert splits.labeled.size == 2

    def test_same_seed_identical(self):
        g = gio.synth_sbm(30, 3, 4, 0.5, 0.1, 0.5, seed=0)
        a = make_splits(g, 2, 5, 5, seed=9)
        b = make_splits(g, 2, 5, 5, seed=9)
        assert np.array_equal(a.labeled, b.labeled)
        assert np.array_equal(a.validation, b.validation)
        assert np.array_equal(a.test, b.test)

    def test_disjointness_over_seed_sweep(self):
        g = gio.synth_sbm(40, 2, 4, 0.5, 0.1, 0.5, seed=0)
        for seed in range(100):
            s = make_splits(g, 3, 8, 8, seed=seed)
            assert not set(s.labeled) & set(s.validation)
            assert not set(s.labeled) & set(s.test)
            assert not set(s.validation) & set(s.test)
            assert set(s.test) <= set(s.unlabeled)
            assert not set(s.labeled) & set(s.unlabeled)

    def test_insufficient_class_named(self):
        g = gio.synth_sbm(20, 2, 4, 0.5, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError, match="class 0"):
            make_splits(g, n_per_class=11, n_val=2, n_test=2, seed=0)

    def test_planetoid_defaults_give_20_per_class(self, tmp_path):
        g = gio.synth_sbm(3000, 2, 4, 0.01, 0.001, 0.5, seed=0)
        gio.save_dataset(g, tmp_path)
        (tmp_path / "splits.json").unlink()
        loaded = gio.load_dataset(tmp_path)
        assert loaded.splits.labeled.size == 2 * gio.DEFAULT_N_PER_CLASS
        assert loaded.splits.validation.size == gio.DEFAULT_N_VAL
        assert loaded.splits.test.size == gio.DEFAULT_N_TEST


def reference_sbm_edges(n_nodes, n_classes, p_in, p_out, seed):
    """``synth_sbm``'s edges as it drew them before it emitted canonical
    keys: each block pair's ``(src, dst)`` chunk in draw order, stacked,
    then canonicalized by ``_undirected_pairs``. Returns the edges and the
    generator after the draw."""
    rng = np.random.default_rng(seed)
    block = n_nodes // n_classes
    chunks = []
    for a in range(n_classes):
        base = a * block
        t = gio._bernoulli_indices(rng, block * (block - 1) // 2, p_in)
        if t.size:
            i, j = gio._triangle_unrank(t)
            chunks.append(np.column_stack([base + j, base + i]))
        for b in range(a + 1, n_classes):
            t = gio._bernoulli_indices(rng, block * block, p_out)
            if t.size:
                chunks.append(np.column_stack([base + t // block, b * block + t % block]))
    edges = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    return gio._undirected_pairs(edges, n_nodes), rng


class TestSynthSBM:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "n_nodes, n_classes, p_in, p_out",
        [
            (3, 3, 0.5, 0.0),  # blocks of one node and no cross edges: no edge
            (30, 1, 0.3, 0.0),  # one class
            (12, 3, 1.0, 0.0),  # p_in = 1: cliques
            (400, 2, 1.0, 0.3),
            (90, 3, 0.3, 0.05),
            (600, 5, 0.05, 0.0),  # p_out = 0
            (200, 4, 0.1, 0.01),
            (2000, 4, 0.02, 0.001),
        ],
    )
    def test_edges_equal_the_chunked_draw_made_canonical(
        self, n_nodes, n_classes, p_in, p_out, seed
    ):
        g = gio.synth_sbm(n_nodes, n_classes, 6, p_in, p_out, 0.0, seed=seed)
        edges, rng = reference_sbm_edges(n_nodes, n_classes, p_in, p_out, seed)
        assert g.edges.dtype == np.int32 and g.edges.flags.c_contiguous
        assert g.edges.shape == edges.shape
        assert np.array_equal(g.edges, edges)
        # the generator was left where the chunked draw left it: without
        # noise the features are the class means it draws next
        basis, _ = np.linalg.qr(rng.standard_normal((6, n_classes)))
        means = (gio.MEAN_SEPARATION * basis.T).astype(g.features.dtype)
        assert np.array_equal(g.features, means[np.argmax(g.labels, axis=1)])

    def test_pure_homophily_gives_cliques(self):
        g = gio.synth_sbm(12, 3, 4, 1.0, 0.0, 0.5, seed=2)
        dense = g.adjacency.toarray()
        block = np.ones((4, 4)) - np.eye(4)
        expected = np.kron(np.eye(3), block)
        assert np.array_equal(dense, expected)

    def test_zero_noise_gives_identical_rows_per_class(self):
        g = gio.synth_sbm(12, 3, 6, 0.8, 0.1, 0.0, seed=2)
        ids = np.argmax(g.labels, axis=1)
        for c in range(3):
            rows = g.features[ids == c]
            assert np.all(rows == rows[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block_values", [1, 7, 100, 1 << 16])
    def test_row_blocks_match_one_full_draw(self, monkeypatch, dtype, block_values):
        """Features drawn in row blocks of any size are the bits of one
        block holding every row (one full-size draw), and leave the
        generator where it was for the splits."""
        args = (90, 3, 40, 0.3, 0.05, 1.5)
        monkeypatch.setattr(gio, "_SYNTH_BLOCK_VALUES", 90 * 40)
        ref = gio.synth_sbm(*args, seed=8, dtype=dtype)
        monkeypatch.setattr(gio, "_SYNTH_BLOCK_VALUES", block_values)
        got = gio.synth_sbm(*args, seed=8, dtype=dtype)
        assert got.features.dtype == ref.features.dtype == dtype
        assert np.array_equal(got.features, ref.features)
        for name in ("labeled", "validation", "test"):
            assert np.array_equal(getattr(got.splits, name), getattr(ref.splits, name))

    def test_homophily_required(self):
        with pytest.raises(ValueError, match="p_in > p_out"):
            gio.synth_sbm(12, 3, 4, 0.01, 0.02, 0.5, seed=2)

    @pytest.mark.parametrize(
        "n_nodes, n_classes, feat_noise, message",
        [
            (12, 0, 0.5, "n_classes 0 must be >= 1"),
            (12, -2, 0.5, "n_classes -2 must be >= 1"),
            (0, 3, 0.5, "n_nodes 0 must be >= n_classes 3"),
            (-6, 3, 0.5, "n_nodes -6 must be >= n_classes 3"),
            (2, 3, 0.5, "n_nodes 2 must be >= n_classes 3"),
            (12, 3, float("nan"), "feat_noise nan must be finite"),
            (12, 3, float("inf"), "feat_noise inf must be finite"),
            (12, 3, float("-inf"), "feat_noise -inf must be finite"),
        ],
    )
    def test_degenerate_sizes_and_noise_rejected(self, n_nodes, n_classes, feat_noise, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gio.synth_sbm(n_nodes, n_classes, 4, 0.5, 0.1, feat_noise, seed=2)

    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="divisible"):
            gio.synth_sbm(10, 3, 4, 0.5, 0.1, 0.5, seed=2)

    def test_same_seed_reproducible(self):
        a = gio.synth_sbm(60, 3, 8, 0.3, 0.05, 1.0, seed=4)
        b = gio.synth_sbm(60, 3, 8, 0.3, 0.05, 1.0, seed=4)
        assert np.array_equal(a.features, b.features)
        assert (a.adjacency != b.adjacency).nnz == 0
        assert np.array_equal(a.splits.labeled, b.splits.labeled)

    def test_adjacency_symmetric_zero_diagonal(self):
        g = gio.synth_sbm(90, 3, 8, 0.3, 0.05, 1.0, seed=6)
        assert (g.adjacency != g.adjacency.T).nnz == 0
        assert g.adjacency.diagonal().sum() == 0

    def test_edge_rate_tracks_probabilities(self):
        g = gio.synth_sbm(300, 3, 8, 0.2, 0.02, 1.0, seed=8)
        ids = np.argmax(g.labels, axis=1)
        dense = g.adjacency.toarray()
        within = dense[ids[:, None] == ids[None, :]].mean()
        across = dense[ids[:, None] != ids[None, :]].mean()
        assert abs(within - 0.2) < 0.02
        assert abs(across - 0.02) < 0.005


class TestTriangleUnrank:
    def test_bijective_on_small_triangle(self):
        n = 40
        t = np.arange(n * (n - 1) // 2, dtype=np.int64)
        i, j = gio._triangle_unrank(t)
        assert np.all(j < i)
        back = i * (i - 1) // 2 + j
        assert np.array_equal(back, t)
        pairs = set(zip(i.tolist(), j.tolist()))
        assert len(pairs) == t.size


class TestBernoulliIndices:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        assert gio._bernoulli_indices(rng, 10, 0.0).size == 0
        assert np.array_equal(gio._bernoulli_indices(rng, 5, 1.0), np.arange(5))

    def test_rate_and_bounds(self):
        rng = np.random.default_rng(1)
        idx = gio._bernoulli_indices(rng, 200_000, 0.05)
        assert idx.size and idx.min() >= 0 and idx.max() < 200_000
        assert np.all(np.diff(idx) > 0)
        assert abs(idx.size / 200_000 - 0.05) < 0.005
