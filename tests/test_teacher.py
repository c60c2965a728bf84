import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

import mlpcascade.graphio as gio
import mlpcascade.inference as inf
import mlpcascade.teacher as t
from mlpcascade.numkit import (
    dropout_in_place,
    finite_diff_check,
    masked_cross_entropy,
    softmax_rows,
    spmm,
)
from mlpcascade.optim import TrainingDivergedError, TrainRecord
from mlpcascade.params import LayerStack, backward, forward_cache
from test_fit_reference import masked_cross_entropy as ref_cross_entropy
from test_fit_reference import ref_teacher_backward, ref_teacher_forward
from test_graphio import graph_of


def relu(x):
    return np.maximum(x, 0)


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
        params = LayerStack(
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

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("d, h", [(4, 3), (3, 4), (4, 4)])
    def test_both_orders_match_dense_oracle(self, d, h, depth, seed):
        # d > h projects first, d <= h aggregates first: the same function
        rng = np.random.default_rng(seed)
        n, c = 6, 2
        adj = random_norm_adj(rng, n)
        params = random_teacher(rng, d, h, c, depth=depth)
        x = rng.standard_normal((n, d))
        assert t._aggregates_first(params) == (d <= h)
        a = adj.toarray()
        oracle = x
        for w, b in params.layers[:-1]:
            oracle = relu(a @ oracle @ w + b)
        w, b = params.layers[-1]
        oracle = a @ oracle @ w + b
        assert np.max(np.abs(t.gcn_forward(adj, x, params) - oracle)) < 1e-10

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
        labels = np.eye(2)[rng.integers(0, 2, 6)]
        rows = np.arange(6)
        eval_logits = t.gcn_forward(adj, x, params)
        plain = t.teacher_ce_gradpair(adj, x, params, labels, rows)
        dropped = t.teacher_ce_gradpair(
            adj, x, params, labels, rows, dropout=0.5, rng=np.random.default_rng(0)
        )
        # without dropout the objective is the eval forward's cross entropy
        assert plain.value == masked_cross_entropy(eval_logits, labels, rows).value
        assert dropped.value != plain.value
        assert np.array_equal(eval_logits, t.gcn_forward(adj, x, params))


# An 8-node path 0-1-...-6 and the isolated node 7. With the labeled rows
# 0, 3 and 7, no labeled row has a labeled neighbour, and row 7 has none.
PATH_AND_ISOLATED = gio.normalized_adjacency(
    graph_of([[i, i + 1] for i in range(6)], 8, np.float64)
)


def teacher_fd_error(seed, depth=2, dropout=0.0, d=5, h=4, adj=None, mask=None):
    """Worst relative error of the finite-difference check of the training
    objective. Biases get small random values: with zero biases, dead
    hidden rows sit exactly on a ReLU kink, where central differences are
    not the gradient. With dropout, each call draws the same masks from a
    fresh rng. With ``d <= h`` the first layer aggregates first. The graph
    ``adj`` and the labeled rows ``mask`` are random unless given."""
    rng = np.random.default_rng(seed)
    n, c = 8, 3
    if adj is None:
        adj = random_norm_adj(rng, n)
    x = rng.standard_normal((n, d))
    labels = np.eye(c)[rng.integers(0, c, n)]
    if mask is None:
        mask = np.sort(rng.choice(n, size=4, replace=False))
    base = random_teacher(rng, d, h, c, depth=depth)
    for _, b in base.layers:
        b[:] = 0.1 * rng.standard_normal(b.shape)

    def loss(p):
        params = LayerStack([(p[f"w{i}"], p[f"b{i}"]) for i in range(1, depth + 1)])
        return t.teacher_ce_gradpair(
            adj, x, params, labels, mask, dropout, np.random.default_rng(seed)
        )

    return finite_diff_check(loss, base.param_dict())


class TestGcnGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_composed_cross_entropy_passes_fd_check(self, seed):
        assert teacher_fd_error(seed) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("depth, dropout", [(2, 0.5), (3, 0.0), (3, 0.5)])
    def test_training_objective_passes_fd_check(self, depth, dropout, seed):
        assert teacher_fd_error(seed, depth, dropout) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("depth, dropout", [(2, 0.0), (2, 0.5), (3, 0.0), (3, 0.5)])
    @pytest.mark.parametrize("d, h", [(3, 4), (4, 4)])
    def test_aggregate_first_objective_passes_fd_check(self, d, h, depth, dropout, seed):
        assert teacher_fd_error(seed, depth, dropout, d, h) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("depth, dropout", [(2, 0.0), (3, 0.5)])
    @pytest.mark.parametrize("d, h", [(5, 4), (4, 4)])
    @pytest.mark.parametrize(
        "mask",
        [
            [0, 3, 7],  # no labeled row has a labeled neighbour; row 7 is isolated
            [7],  # only the isolated row
            [3, 0, 3, 7, 3],  # a repeated row counts once per mention
        ],
    )
    def test_rows_without_labeled_neighbours_pass_fd_check(self, mask, d, h, depth, dropout,
                                                           seed):
        error = teacher_fd_error(seed, depth, dropout, d, h, PATH_AND_ISOLATED, np.array(mask))
        assert error < 1e-4


def teacher_case(feat, depth, dtype):
    """A 150-node graph, its Â and an initialized teacher of hidden width 8:
    with 12 features the first layer projects first, with 8 it aggregates
    first."""
    g = gio.synth_sbm(150, 3, feat, 0.15, 0.05, 3.0, seed=2, dtype=dtype)
    params = t.init_teacher(feat, 8, 3, depth, np.random.default_rng(5), dtype)
    for _, b in params.layers:
        b[:] = 0.1 * np.random.default_rng(6).standard_normal(b.shape)
    return g, gio.normalized_adjacency(g), params


class TestLabeledRowsOnly:
    """The training forward aggregates the last layer over the labeled rows
    only; the objective keeps the bits of aggregating every row."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("feat", [12, 8])
    def test_one_call_matches_frozen_reference(self, feat, depth, dropout, dtype):
        g, adj, params = teacher_case(feat, depth, dtype)
        assert t._aggregates_first(params) == (feat == 8)
        mask = np.random.default_rng(1).permutation(g.n_nodes)[:20]  # distinct, unsorted
        got = t.teacher_ce_gradpair(
            adj, g.features, params, g.labels, mask, dropout, np.random.default_rng(7)
        )
        logits, caches = ref_teacher_forward(
            adj, g.features, params, True, dropout, np.random.default_rng(7)
        )
        value, dlogits = ref_cross_entropy(logits, g.labels, mask)
        want = ref_teacher_backward(adj, params, caches, dlogits)
        assert got.value == value
        assert sorted(got.grads) == sorted(want)
        for name, grad in want.items():
            assert got.grads[name].dtype == grad.dtype, name
            assert got.grads[name].tobytes() == grad.tobytes(), name

    @pytest.mark.parametrize("feat", [12, 8])
    def test_repeated_row_keeps_the_value(self, feat):
        g, adj, params = teacher_case(feat, 2, np.float64)
        mask = np.array([4, 90, 4, 17, 4])
        got = t.teacher_ce_gradpair(adj, g.features, params, g.labels, mask)
        logits, _ = ref_teacher_forward(adj, g.features, params, True, 0.0, None)
        assert got.value == masked_cross_entropy(logits, g.labels, mask).value

    @pytest.mark.parametrize(
        "mask, message",
        [
            (np.arange(150) % 2 == 0, "mask index set must hold integers, got dtype bool"),
            (np.array([0.0, 3.0]), "mask index set must hold integers, got dtype float64"),
            (np.array([3, -1]), "mask index -1 out of range for 150 rows"),
            (np.array([3, 150]), "mask index 150 out of range for 150 rows"),
            (np.array([], dtype=np.int64), "empty mask index set"),
        ],
    )
    def test_mask_checked_before_it_indexes_a_hat(self, mask, message):
        g, adj, params = teacher_case(12, 2, np.float32)
        with pytest.raises(ValueError) as err:
            t.teacher_ce_gradpair(adj, g.features, params, g.labels, mask)
        assert str(err.value) == f"teacher_ce_gradpair: {message}"


def record_spmm(monkeypatch):
    """Patch ``teacher.spmm`` to record its sparse operands; returns the
    list they are appended to, in call order."""
    operands = []
    original = t.spmm

    def recorded(s, d):
        operands.append(s)
        return original(s, d)

    monkeypatch.setattr(t, "spmm", recorded)
    return operands


def links_graph(links: np.ndarray, dtype):
    """The graph whose edges are the pairs i < j with ``links[i, j]``."""
    return graph_of(np.argwhere(np.triu(links, 1)), links.shape[0], dtype)


class TestColumnView:
    """The teacher multiplies by Â through its CSC view ``Â.T``, scipy's
    column kernel. For the Â of a 0/1 graph, symmetric bit for bit with
    sorted rows, that must be the row kernel's product on Â, bit for bit."""

    @pytest.mark.parametrize("width", [1, 4, 7, 64, 130])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=25, deadline=None)
    @given(
        links=st.integers(1, 40).flatmap(lambda n: hnp.arrays(np.bool_, (n, n))),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(links=np.zeros((1, 1), dtype=bool), seed=0)  # n = 1
    @example(links=np.zeros((7, 7), dtype=bool), seed=1)  # edgeless
    @example(links=np.eye(9, k=1, dtype=bool) | np.eye(9, k=3, dtype=bool), seed=2)
    # a 6-clique and three isolated nodes
    @example(links=np.triu(np.ones((9, 9), dtype=bool), 1) & (np.arange(9) < 6), seed=3)
    def test_view_product_has_the_row_kernel_bits(self, links, seed, dtype, width):
        g = links_graph(links, dtype)
        m = np.random.default_rng(seed).standard_normal((g.n_nodes, width)).astype(dtype)
        for adj in (gio.normalized_adjacency(g), gio.normalize_adjacency(g.adjacency)):
            view = adj.T
            assert view.format == "csc" and np.shares_memory(view.data, adj.data)
            got, want = spmm(view, m), spmm(adj, m)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestFullGraphRoute:
    """Every product with Â over all N rows goes through ``teacher.spmm``,
    where perfbench times it, and takes the view ``norm_adj.T`` of the
    current call: a CSC matrix over Â's own arrays, one per call. The row
    aggregations take the row slices ``Â[R]`` and their transposes."""

    @staticmethod
    def check_views(operands, adj) -> int:
        """Check the N x N operands; returns how many distinct ones there are."""
        n = adj.shape[0]
        full = [s for s in operands if s.shape == (n, n)]
        for s in full:
            assert s.format == "csc"
            assert np.shares_memory(s.data, adj.data)
            assert np.shares_memory(s.indices, adj.indices)
            assert np.shares_memory(s.indptr, adj.indptr)
        for s in operands:
            if s.shape != (n, n):
                assert not np.shares_memory(s.data, adj.data)
        return len({id(s) for s in full})

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("feat", [12, 8])  # project first, aggregate first
    def test_gcn_forward(self, monkeypatch, feat, depth):
        g, adj, params = teacher_case(feat, depth, np.float32)
        operands = record_spmm(monkeypatch)
        t.gcn_forward(adj, g.features, params)
        assert len(operands) == depth
        assert all(s.shape == adj.shape for s in operands)
        assert self.check_views(operands, adj) == 1

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("feat, dropout", [(16, 0.5), (8, 0.0)])
    def test_train_teacher(self, monkeypatch, feat, dropout, depth):
        # the two settings of tests/test_call_sites.py: project first with
        # dropout, aggregate first without
        g = gio.synth_sbm(150, 3, feat, 0.15, 0.05, 3.0, seed=2)
        adj = gio.normalized_adjacency(g)
        operands = record_spmm(monkeypatch)
        # one list for train_teacher's own products, one per training step
        groups = [operands]
        step = t.teacher_ce_gradpair

        def grouped(*args, **kwargs):
            groups.append([])
            start = len(operands)
            try:
                return step(*args, **kwargs)
            finally:
                groups[-1].extend(operands[start:])
                del operands[start:]

        monkeypatch.setattr(t, "teacher_ce_gradpair", grouped)
        epochs = 5
        cfg = t.TeacherConfig(
            hidden_dim=8, dropout=dropout, max_epochs=epochs, patience=epochs - 1,
            depth=depth, seed=3,
        )
        assert t.train_teacher(g, adj, cfg).train_meta.epochs == epochs
        calls = sum(len(group) for group in groups)
        if dropout:
            assert calls == epochs * 3 * depth + 1
        else:
            assert calls == 1 + epochs * (3 * depth - 3) + 1
        assert len(groups) == epochs + 1
        assert all(self.check_views(group, adj) <= 1 for group in groups)


class TestBoundaryChecks:
    """Errors raised before any product, naming the function."""

    @staticmethod
    def non_square(g):
        adj = gio.normalized_adjacency(g)
        n = g.n_nodes
        return sparse.csr_array((adj.data, adj.indices, adj.indptr), shape=(n, n + 1))

    def test_gcn_forward_refuses_a_non_square_adjacency(self, monkeypatch, small_graph64):
        params = random_teacher(np.random.default_rng(0), 8, 4, 3)
        operands = record_spmm(monkeypatch)
        message = r"^gcn_forward: adjacency must be square, got \(60, 61\)$"
        with pytest.raises(ValueError, match=message):
            t.gcn_forward(self.non_square(small_graph64), small_graph64.features, params)
        assert operands == []

    def test_gradpair_refuses_a_non_square_adjacency(self, monkeypatch, small_graph64):
        g = small_graph64
        params = random_teacher(np.random.default_rng(0), 8, 4, 3)
        operands = record_spmm(monkeypatch)
        message = r"^teacher_ce_gradpair: adjacency must be square, got \(60, 61\)$"
        with pytest.raises(ValueError, match=message):
            t.teacher_ce_gradpair(
                self.non_square(g), g.features, params, g.labels, g.splits.labeled
            )
        assert operands == []

    def test_gradpair_refuses_dropout_without_rng(self, monkeypatch, small_graph64):
        g = small_graph64
        params = random_teacher(np.random.default_rng(0), 8, 4, 3)
        operands = record_spmm(monkeypatch)
        message = r"^teacher_ce_gradpair: dropout 0\.5 needs an rng, got None$"
        with pytest.raises(ValueError, match=message):
            t.teacher_ce_gradpair(
                gio.normalized_adjacency(g), g.features, params, g.labels,
                g.splits.labeled, dropout=0.5, rng=None,
            )
        assert operands == []
        # before the mask, which here holds no rows
        with pytest.raises(ValueError, match=message):
            t.teacher_ce_gradpair(
                gio.normalized_adjacency(g), g.features, params, g.labels,
                [], dropout=0.5, rng=None,
            )


class TestStepMemory:
    """A training step keeps no dropout mask, only each hidden layer's keep
    scale, and drops each hidden activation in place, so no masked copy sits
    beside it. The backward frees each layer's cache once its weight
    gradient is taken."""

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("graph", [True, False])  # a teacher, or a student's plain stack
    def test_backward_frees_the_inputs_of_later_layers(self, graph, depth, dropout):
        g, adj, params = teacher_case(8, depth, np.float64)
        rng = np.random.default_rng(3)
        drop = (lambda a: dropout_in_place(rng, a, dropout)) if dropout else None
        aggregates = t._aggregates(adj.T, params) if graph else None
        x_in = t._first_input(adj.T, g.features, params) if graph else g.features
        logits, caches = forward_cache(params, x_in, drop, aggregates)
        # each later layer's input is the activation below it, dropped in
        # place; a cache holds the keep scale, not a mask
        assert all(later[0] is below[1] for below, later in zip(caches, caches[1:]))
        scales = [cache[2] for cache in caches]
        assert scales == [np.float64(1 / (1 - dropout)) if dropout else None] * (depth - 1) + [None]
        inputs = [weakref.ref(cache[0]) for cache in caches[1:]]
        assert all(ref() is not None for ref in inputs)
        backward(params, caches, np.ones_like(logits) / logits.size, aggregates)
        assert caches == []
        assert [ref() for ref in inputs] == [None] * (depth - 1)
        with pytest.raises(ValueError, match=f"^0 caches for {depth} layers"):
            backward(params, caches, np.ones_like(logits), aggregates)

    def test_step_peak_holds_only_the_arrays_it_needs(self):
        """The traced peak of one step with dropout, on an Â built outside
        the trace. Its largest moment is the backward's ReLU gate: the first
        layer's input ``Â (mask0 * x)`` (N x d), its ReLU output after
        dropout and the fresh gradient below the last layer (N x h each),
        that gradient's gate (N x h bools) and the last layer's scattered
        gradient ``Â[R]^T d`` (N x C). The margin, 256 KiB, covers the arrays
        of the R labeled rows and the row slice ``Â[R]``. A float mask kept
        for the backward, or a masked copy of ``r1`` beside it, would add
        N x h values, 1 MB here."""
        n, c, d, h = 4000, 4, 64, 64
        g = gio.synth_sbm(n, c, d, 0.01, 0.001, 1.0, seed=0)
        adj = gio.normalized_adjacency(g)
        params = t.init_teacher(d, h, c, 2, np.random.default_rng(0), np.float32)
        assert t._aggregates_first(params)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            t.teacher_ce_gradpair(adj, g.features, params, g.labels, g.splits.labeled, 0.5, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = g.features.itemsize
        held = itemsize * (n * d + 2 * n * h + n * c) + n * h
        assert held <= peak <= held + 256 * 1024, (peak, held)


class TestTrainTeacher:
    def test_separable_graph_reaches_perfect_accuracy(self, tiny_graph):
        cfg = t.TeacherConfig(
            hidden_dim=16, lr=0.01, weight_decay=5e-4, dropout=0.0,
            max_epochs=50, patience=49, seed=0,
        )
        art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        nadj = gio.normalize_adjacency(tiny_graph.adjacency)
        logits = t.gcn_forward(nadj, tiny_graph.features, art.params)
        assert inf.accuracy(logits, tiny_graph.labels, tiny_graph.splits.test) == 1.0
        assert art.train_meta.epochs <= 50

    def test_same_seed_bit_exact_soft_labels(self, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, dropout=0.5, max_epochs=15, patience=10, seed=3)
        a = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        b = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        assert np.array_equal(a.soft_labels, b.soft_labels)
        assert a.params.fingerprint() == b.params.fingerprint()

    def test_soft_label_rows_are_distributions(self, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=1)
        art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        assert np.all(art.soft_labels >= 0)
        assert np.max(np.abs(art.soft_labels.sum(axis=1) - 1.0)) < 1e-5

    def test_synth_benchmark_accuracy(self):
        # pinned run: homophilous 120-node graph, 2-layer teacher
        g = gio.synth_sbm(120, 3, 16, 0.2, 0.02, 1.0, seed=3)
        cfg = t.TeacherConfig(
            hidden_dim=32, lr=0.01, weight_decay=5e-4, dropout=0.5,
            max_epochs=200, patience=50, seed=0,
        )
        art = t.train_teacher(g, gio.normalized_adjacency(g), cfg)
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
            art = t.train_teacher(g, gio.normalized_adjacency(g), cfg)
            losses = np.array(art.train_meta.losses)
            holds += bool(np.all(losses[20:] <= losses[:-20]))
        assert holds / runs >= 0.95

    def test_patience_must_be_smaller_than_epochs(self):
        with pytest.raises(ValueError, match="patience"):
            t.TeacherConfig(max_epochs=10, patience=10)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("max_epochs", {"max_epochs": 0, "patience": -1}),
            ("max_epochs", {"max_epochs": -3, "patience": -5}),
            ("patience", {"patience": -1}),
            ("hidden_dim", {"hidden_dim": 0}),
            ("hidden_dim", {"hidden_dim": -4}),
            ("lr", {"lr": 0.0}),
            ("lr", {"lr": -1.0}),
            ("lr", {"lr": float("nan")}),
            ("lr", {"lr": float("inf")}),
            ("weight_decay", {"weight_decay": -1e-4}),
            ("weight_decay", {"weight_decay": float("nan")}),
            ("weight_decay", {"weight_decay": float("inf")}),
            ("dropout", {"dropout": 1.0}),
            ("dropout", {"dropout": float("nan")}),
            ("dropout", {"dropout": 0.999999}),
        ],
    )
    def test_degenerate_config_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} "):
            t.TeacherConfig(**kwargs)

    def test_smallest_valid_config(self, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=1, lr=1e-6, weight_decay=0.0, max_epochs=1, patience=0)
        art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        assert art.train_meta.epochs == 1 and art.train_meta.best_epoch == 1

    def test_empty_split_rejected(self, tiny_graph):
        import dataclasses

        bad = dataclasses.replace(
            tiny_graph,
            splits=dataclasses.replace(tiny_graph.splits, validation=np.array([], dtype=np.int64)),
        )
        with pytest.raises(ValueError, match="validation"):
            t.train_teacher(bad, gio.normalized_adjacency(bad), t.TeacherConfig(max_epochs=5, patience=2))

    def test_divergence_reports_epoch(self, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, lr=1e12, dropout=0.0, max_epochs=30, patience=29, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        assert err.value.epoch >= 1


class TestSingleGraphPass:
    """Soft labels and logits come from the best epoch's kept last-layer
    projection and the validation-row aggregation; both must be the same
    bits as a fresh eval forward of the best parameters."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_soft_labels_equal_fresh_forward(self, depth, dropout, dtype):
        g = gio.synth_sbm(150, 3, 12, 0.15, 0.03, 2.0, seed=4, dtype=dtype)
        cfg = t.TeacherConfig(
            hidden_dim=8, dropout=dropout, depth=depth, max_epochs=12, patience=11, seed=5
        )
        art = t.train_teacher(g, gio.normalized_adjacency(g), cfg)
        logits = t.gcn_forward(gio.normalize_adjacency(g.adjacency), g.features, art.params)
        assert art.logits.dtype == dtype and art.soft_labels.dtype == dtype
        assert np.array_equal(art.logits, logits)
        assert np.array_equal(art.soft_labels, softmax_rows(logits))
        val = g.splits.validation
        assert art.train_meta.best_val_acc == inf.accuracy(logits, g.labels, val)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_best_epoch_before_the_last(self, dtype):
        g = gio.synth_sbm(150, 3, 12, 0.15, 0.05, 3.0, seed=2, dtype=dtype)
        cfg = t.TeacherConfig(hidden_dim=8, dropout=0.5, max_epochs=200, patience=5, seed=1)
        art = t.train_teacher(g, gio.normalized_adjacency(g), cfg)
        meta = art.train_meta
        assert meta.best_epoch == meta.epochs - cfg.patience
        # the kept parameters are the best epoch's, not the last epoch's
        again = t.train_teacher(g, gio.normalized_adjacency(g), dataclasses.replace(
            cfg, max_epochs=meta.best_epoch, patience=meta.best_epoch - 1))
        assert again.params.fingerprint() == art.params.fingerprint()
        logits = t.gcn_forward(gio.normalize_adjacency(g.adjacency), g.features, art.params)
        assert np.array_equal(art.logits, logits)
        assert np.array_equal(art.soft_labels, softmax_rows(logits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("feat, hidden", [(12, 8), (8, 8), (8, 16)])
    def test_logits_equal_fresh_forward_in_both_orders(self, feat, hidden, dropout, dtype):
        g = gio.synth_sbm(150, 3, feat, 0.15, 0.03, 2.0, seed=4, dtype=dtype)
        cfg = t.TeacherConfig(
            hidden_dim=hidden, dropout=dropout, max_epochs=12, patience=11, seed=5
        )
        art = t.train_teacher(g, gio.normalized_adjacency(g), cfg)
        assert t._aggregates_first(art.params) == (feat <= hidden)
        logits = t.gcn_forward(gio.normalize_adjacency(g.adjacency), g.features, art.params)
        assert np.array_equal(art.logits, logits)
        assert np.array_equal(art.soft_labels, softmax_rows(logits))

    @pytest.mark.parametrize("feat, hidden, wide_per_epoch, wide_once", [
        (12, 8, 3, 0),  # project first: forward, backward and eval aggregate h columns
        (8, 8, 1, 1),  # aggregate first: the forward's A(mask * X), and A X once per run
        (8, 16, 1, 1),
    ])
    def test_wide_aggregations_per_epoch(self, monkeypatch, feat, hidden, wide_per_epoch,
                                         wide_once):
        g = gio.synth_sbm(150, 3, feat, 0.15, 0.03, 2.0, seed=4)
        widths = []
        spmm = t.spmm

        def counted(s, d):
            widths.append(d.shape[1])
            return spmm(s, d)

        monkeypatch.setattr(t, "spmm", counted)
        epochs = 6
        cfg = t.TeacherConfig(hidden_dim=hidden, max_epochs=epochs, patience=epochs - 1)
        t.train_teacher(g, gio.normalized_adjacency(g), cfg)
        wide = sum(w > g.n_classes for w in widths)
        assert wide == wide_per_epoch * epochs + wide_once

    def test_loaded_teacher_has_no_logits(self, tmp_path, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=5, patience=2, seed=0)
        art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        t.save_teacher(art, cfg, tmp_path / "teacher.json")
        t.export_soft_labels(art, tmp_path / "soft.csv")
        loaded, _ = t.load_teacher(tmp_path / "teacher.json", tmp_path / "soft.csv")
        assert loaded.logits is None
        assert "logits" not in json.loads((tmp_path / "teacher.json").read_text())


class TestSoftLabelIO:
    def test_round_trip(self, tmp_path, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=2)
        art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        path = tmp_path / "soft.csv"
        t.export_soft_labels(art, path)
        back = t.import_soft_labels(path, dtype=np.float32)
        assert np.max(np.abs(back.sum(axis=1) - 1.0)) < 1e-6
        assert np.max(np.abs(back.astype(np.float64) - art.soft_labels.astype(np.float64))) <= 5e-10

    def test_two_by_two_file_shape(self, tmp_path):
        art = t.TeacherArtifact(
            params=LayerStack([(np.zeros((1, 2)), np.zeros(2))]),
            soft_labels=np.array([[0.25, 0.75], [0.5, 0.5]]),
            train_meta=TrainRecord(1, 1, 0.0),
        )
        path = tmp_path / "soft.csv"
        t.export_soft_labels(art, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_reexport_is_identical(self, tmp_path, tiny_graph):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=10, patience=5, seed=2)
        art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
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
        art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
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
        # the manifest holds the shapes and the fingerprint, the weights
        # file every array's raw little-endian bytes in that order
        doc = json.loads(ckpt.read_text())
        assert doc["array_encoding"] == "raw-le"
        assert doc["fingerprint"] == art.params.fingerprint()
        assert doc["layers"] == [
            {"w": {"shape": list(w.shape)}, "b": {"shape": list(b.shape)}}
            for w, b in art.params.layers
        ]
        assert (tmp_path / "teacher.weights").read_bytes() == b"".join(
            a.astype("<f4").tobytes() for pair in art.params.layers for a in pair
        )

    @pytest.mark.parametrize(
        "field, value",
        [("max_epochs", 0), ("patience", -1), ("hidden_dim", 0), ("lr", -1.0),
         ("weight_decay", -0.5), ("dropout", 0.999999)],
    )
    def test_stored_degenerate_config_refused(self, tmp_path, tiny_graph, field, value):
        cfg = t.TeacherConfig(hidden_dim=8, max_epochs=5, patience=2, seed=4)
        art = t.train_teacher(tiny_graph, gio.normalized_adjacency(tiny_graph), cfg)
        ckpt = tmp_path / "teacher.json"
        t.save_teacher(art, cfg, ckpt)
        t.export_soft_labels(art, tmp_path / "soft.csv")
        doc = json.loads(ckpt.read_text())
        doc["config"][field] = value
        if field == "max_epochs":
            doc["config"]["patience"] = -1
        ckpt.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"teacher.json config: {field} "):
            t.load_teacher(ckpt, tmp_path / "soft.csv")

    def test_wrong_kind_rejected(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text('{"kind": "other"}')
        with pytest.raises(ValueError, match="not a teacher checkpoint"):
            t.load_teacher(bad, tmp_path / "soft.csv")
