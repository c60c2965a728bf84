import json

import numpy as np
import pytest
from scipy import sparse

import mlpcascade.graphio as gio


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
            ([[0], [], [1]], "got a JSON list"),
            ({**TOY_SPLITS, "labeled": [1.5]}, "'labeled' holds 1.5"),
            ({**TOY_SPLITS, "labeled": [0.0]}, "'labeled' holds 0.0"),
            ({**TOY_SPLITS, "test": [True]}, "'test' holds True"),
            ({**TOY_SPLITS, "test": ["1"]}, "'test' holds '1'"),
            ({**TOY_SPLITS, "test": 1}, "'test' must be a list"),
            ({**TOY_SPLITS, "validation": [-1]}, "'validation' holds -1"),
            ({**TOY_SPLITS, "validation": [2]}, r"holds 2, not an integer node id in \[0, 2\)"),
            ({**TOY_SPLITS, "test": [2**70]}, "'test' holds 1180591620717411303424"),
            ({**TOY_SPLITS, "test": [0]}, "not pairwise disjoint"),
        ],
    )
    def test_malformed_splits_named(self, tmp_path, splits, message):
        write_toy_dataset(tmp_path, [[1.0], [2.0]], [(0, 1)], [0, 1], splits)
        with pytest.raises(ValueError, match=message) as info:
            gio.load_dataset(tmp_path)
        assert str(tmp_path / "splits.json") in str(info.value)

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


class TestMakeSplits:
    def test_one_per_class(self):
        g = gio.synth_sbm(20, 2, 4, 0.5, 0.1, 0.5, seed=0)
        splits = gio.make_splits(g, n_per_class=1, n_val=4, n_test=4, seed=3)
        assert splits.labeled.size == 2

    def test_same_seed_identical(self):
        g = gio.synth_sbm(30, 3, 4, 0.5, 0.1, 0.5, seed=0)
        a = gio.make_splits(g, 2, 5, 5, seed=9)
        b = gio.make_splits(g, 2, 5, 5, seed=9)
        assert np.array_equal(a.labeled, b.labeled)
        assert np.array_equal(a.validation, b.validation)
        assert np.array_equal(a.test, b.test)

    def test_disjointness_over_seed_sweep(self):
        g = gio.synth_sbm(40, 2, 4, 0.5, 0.1, 0.5, seed=0)
        for seed in range(100):
            s = gio.make_splits(g, 3, 8, 8, seed=seed)
            assert not set(s.labeled) & set(s.validation)
            assert not set(s.labeled) & set(s.test)
            assert not set(s.validation) & set(s.test)
            assert set(s.test) <= set(s.unlabeled)
            assert not set(s.labeled) & set(s.unlabeled)

    def test_insufficient_class_named(self):
        g = gio.synth_sbm(20, 2, 4, 0.5, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError, match="class 0"):
            gio.make_splits(g, n_per_class=11, n_val=2, n_test=2, seed=0)

    def test_planetoid_defaults_give_20_per_class(self, tmp_path):
        g = gio.synth_sbm(3000, 2, 4, 0.01, 0.001, 0.5, seed=0)
        gio.save_dataset(g, tmp_path)
        (tmp_path / "splits.json").unlink()
        loaded = gio.load_dataset(tmp_path)
        assert loaded.splits.labeled.size == 2 * gio.DEFAULT_N_PER_CLASS
        assert loaded.splits.validation.size == gio.DEFAULT_N_VAL
        assert loaded.splits.test.size == gio.DEFAULT_N_TEST


class TestSynthSBM:
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

    def test_homophily_required(self):
        with pytest.raises(ValueError, match="p_in > p_out"):
            gio.synth_sbm(12, 3, 4, 0.01, 0.02, 0.5, seed=2)

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
