import json

import numpy as np
import pytest
from scipy import sparse

import mlpcascade.graphio as gio
import mlpcascade.inference as inf
import mlpcascade.teacher as t
from mlpcascade.numkit import finite_diff_check, relu, softmax_rows
from mlpcascade.optim import TrainingDivergedError


def random_teacher(rng, d, h, c, depth=2, dtype=np.float64):
    return t.init_teacher(d, h, c, depth, rng, dtype)


def random_norm_adj(rng, n, density=0.3):
    dense = (rng.random((n, n)) < density).astype(np.float64)
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    return gio.normalize_adjacency(sparse.csr_array(dense))


class TestGcnForward:
    def test_isolated_node_zero_weights_gives_bias(self):
        adj = gio.normalize_adjacency(sparse.csr_array((1, 1), dtype=np.float64))
        params = t.TeacherParams(
            [
                (np.zeros((3, 4)), np.zeros(4)),
                (np.zeros((4, 2)), np.array([0.3, -0.7])),
            ]
        )
        logits = t.gcn_forward(adj, np.ones((1, 3)), params)
        assert np.allclose(logits, [[0.3, -0.7]])

    def test_identity_adjacency_reduces_to_mlp(self):
        rng = np.random.default_rng(0)
        n, d, h, c = 6, 5, 4, 3
        adj = gio.normalize_adjacency(sparse.csr_array((n, n), dtype=np.float64))
        params = random_teacher(rng, d, h, c)
        x = rng.standard_normal((n, d))
        logits = t.gcn_forward(adj, x, params)
        (w1, b1), (w2, b2) = params.layers
        mlp = relu(x @ w1 + b1) @ w2 + b2
        assert np.allclose(logits, mlp, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, d, h, c = 5, 4, 3, 2
        adj = random_norm_adj(rng, n)
        params = random_teacher(rng, d, h, c)
        x = rng.standard_normal((n, d))
        logits = t.gcn_forward(adj, x, params)
        a = adj.toarray()
        (w1, b1), (w2, b2) = params.layers
        oracle = a @ relu(a @ x @ w1 + b1) @ w2 + b2
        assert np.max(np.abs(logits - oracle)) < 1e-10

    def test_depth_three_supported(self):
        rng = np.random.default_rng(1)
        n, d, h, c = 5, 4, 3, 2
        adj = random_norm_adj(rng, n)
        params = random_teacher(rng, d, h, c, depth=3)
        x = rng.standard_normal((n, d))
        logits = t.gcn_forward(adj, x, params)
        a = adj.toarray()
        (w1, b1), (wm, bm), (w2, b2) = params.layers
        oracle = a @ relu(a @ relu(a @ x @ w1 + b1) @ wm + bm) @ w2 + b2
        assert np.max(np.abs(logits - oracle)) < 1e-10

    def test_shape_mismatch(self):
        adj = gio.normalize_adjacency(sparse.csr_array((2, 2), dtype=np.float64))
        params = random_teacher(np.random.default_rng(0), 3, 4, 2)
        with pytest.raises(ValueError, match="feature width"):
            t.gcn_forward(adj, np.zeros((2, 5)), params)

    def test_dropout_changes_training_forward_only(self):
        rng = np.random.default_rng(2)
        adj = random_norm_adj(rng, 6)
        params = random_teacher(rng, 4, 3, 2)
        x = rng.standard_normal((6, 4))
        eval_logits = t.gcn_forward(adj, x, params)
        train_logits = t.gcn_forward(
            adj, x, params, training=True, dropout=0.5, rng=np.random.default_rng(0)
        )
        assert not np.allclose(eval_logits, train_logits)
        assert np.allclose(eval_logits, t.gcn_forward(adj, x, params), atol=0)


class TestGcnGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_composed_cross_entropy_passes_fd_check(self, seed):
        rng = np.random.default_rng(seed)
        n, d, h, c = 8, 5, 4, 3
        adj = random_norm_adj(rng, n)
        x = rng.standard_normal((n, d))
        labels = np.eye(c)[rng.integers(0, c, n)]
        mask = np.sort(rng.choice(n, size=4, replace=False))
        base = random_teacher(rng, d, h, c)

        def loss(p):
            params = t.TeacherParams(
                [(p[f"w{i}"], p[f"b{i}"]) for i in (1, 2)]
            )
            return t.teacher_ce_gradpair(adj, x, params, labels, mask)

        params = base.param_dict()
        assert finite_diff_check(loss, params) < 1e-4


class TestTrainTeacher:
    def test_separable_graph_reaches_perfect_accuracy(self, tiny_graph):
        cfg = t.TeacherConfig(
            hidden_dim=16, lr=0.01, weight_decay=5e-4, dropout=0.0,
            max_epochs=50, patience=49, seed=0,
        )
        art = t.train_teacher(tiny_graph, cfg)
        nadj = gio.normalize_adjacency(tiny_graph.adjacency)
        logits = t.gcn_forward(nadj, tiny_graph.features, art.params)
        assert inf.accuracy(logits, tiny_graph.labels, tiny_graph.splits.test) == 1.0
        assert art.train_meta.epochs <= 50

    def test_same_seed_bit_exact_soft_labels(self, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, dropout=0.5, max_epochs=15, patience=10, seed=3)
        a = t.train_teacher(tiny_graph, cfg)
        b = t.train_teacher(tiny_graph, cfg)
        assert np.array_equal(a.soft_labels, b.soft_labels)
        assert a.params.fingerprint() == b.params.fingerprint()

    def test_soft_label_rows_are_distributions(self, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=1)
        art = t.train_teacher(tiny_graph, cfg)
        assert np.all(art.soft_labels >= 0)
        assert np.max(np.abs(art.soft_labels.sum(axis=1) - 1.0)) < 1e-5

    def test_synth_benchmark_accuracy(self):
        # pinned run: homophilous 120-node graph, 2-layer teacher
        g = gio.synth_sbm(120, 3, 16, 0.2, 0.02, 1.0, seed=3)
        cfg = t.TeacherConfig(
            hidden_dim=32, lr=0.01, weight_decay=5e-4, dropout=0.5,
            max_epochs=200, patience=50, seed=0,
        )
        art = t.train_teacher(g, cfg)
        nadj = gio.normalize_adjacency(g.adjacency)
        logits = t.gcn_forward(nadj, g.features, art.params)
        assert inf.accuracy(logits, g.labels, g.splits.test) >= 0.90

    def test_loss_trend_over_20_epoch_windows(self):
        # dropout off: the recorded loss is the exact objective, not a
        # stochastic estimate, so windows must not increase
        g = gio.synth_sbm(120, 3, 16, 0.2, 0.02, 1.0, seed=7)
        holds = 0
        runs = 20
        for seed in range(runs):
            cfg = t.TeacherConfig(
                hidden_dim=16, lr=0.01, weight_decay=5e-4, dropout=0.0,
                max_epochs=80, patience=79, seed=seed,
            )
            art = t.train_teacher(g, cfg)
            losses = np.array(art.train_meta.losses)
            holds += bool(np.all(losses[20:] <= losses[:-20]))
        assert holds / runs >= 0.95

    def test_patience_must_be_smaller_than_epochs(self):
        with pytest.raises(ValueError, match="patience"):
            t.TeacherConfig(max_epochs=10, patience=10)

    def test_empty_split_rejected(self, tiny_graph):
        import dataclasses

        bad = dataclasses.replace(
            tiny_graph,
            splits=dataclasses.replace(tiny_graph.splits, validation=np.array([], dtype=np.int64)),
        )
        with pytest.raises(ValueError, match="validation"):
            t.train_teacher(bad, t.TeacherConfig(max_epochs=5, patience=2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, lr=1e12, dropout=0.0, max_epochs=30, patience=29, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            t.train_teacher(tiny_graph, cfg)
        assert err.value.epoch >= 1


class TestSoftLabelIO:
    def test_round_trip(self, tmp_path, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=2)
        art = t.train_teacher(tiny_graph, cfg)
        path = tmp_path / "soft.csv"
        t.export_soft_labels(art, path)
        back = t.import_soft_labels(path, dtype=np.float32)
        assert np.max(np.abs(back.sum(axis=1) - 1.0)) < 1e-6
        assert np.max(np.abs(back.astype(np.float64) - art.soft_labels.astype(np.float64))) <= 5e-10

    def test_two_by_two_file_shape(self, tmp_path):
        art = t.TeacherArtifact(
            params=t.TeacherParams([(np.zeros((1, 2)), np.zeros(2))]),
            soft_labels=np.array([[0.25, 0.75], [0.5, 0.5]]),
            train_meta=t.TrainMeta(1, 1, 0.0, 0),
        )
        path = tmp_path / "soft.csv"
        t.export_soft_labels(art, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_reexport_is_identical(self, tmp_path, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=2)
        art = t.train_teacher(tiny_graph, cfg)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        t.export_soft_labels(art, p1)
        art2 = t.TeacherArtifact(art.params, t.import_soft_labels(p1), art.train_meta)
        t.export_soft_labels(art2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unnormalized_rows_rejected(self, tmp_path):
        path = tmp_path / "soft.csv"
        path.write_text("0.9,0.4\n0.5,0.5\n")
        with pytest.raises(ValueError, match="row 0"):
            t.import_soft_labels(path)


class TestCheckpointIO:
    def test_round_trip(self, tmp_path, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=4)
        art = t.train_teacher(tiny_graph, cfg)
        ckpt = tmp_path / "teacher.json"
        soft = tmp_path / "soft.csv"
        t.save_teacher(art, cfg, ckpt)
        t.export_soft_labels(art, soft)
        loaded, loaded_cfg = t.load_teacher(ckpt, soft)
        assert loaded_cfg == cfg
        for (w1, b1), (w2, b2) in zip(art.params.layers, loaded.params.layers):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        assert loaded.train_meta.best_epoch == art.train_meta.best_epoch
        doc = json.loads(ckpt.read_text())
        assert doc["array_encoding"] == "base64-le"
        assert doc["fingerprint"] == art.params.fingerprint()
        assert all(isinstance(a["data"], str) for layer in doc["layers"] for a in layer.values())

    def test_wrong_kind_rejected(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text('{"kind": "other"}')
        with pytest.raises(ValueError, match="not a teacher checkpoint"):
            t.load_teacher(bad, tmp_path / "soft.csv")
