import dataclasses
import json

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.graphio as gio
import mlpcascade.teacher as t
from mlpcascade.inference import InferencePolicy
from mlpcascade.numkit import (
    GradPair,
    dropout_in_place,
    finite_diff_check,
    log_and_softmax_rows,
    masked_cross_entropy,
    soft_targets,
    softmax_rows,
)
from mlpcascade.optim import TrainingDivergedError
from mlpcascade.params import LayerStack, backward, dropper, forward_cache

POW_4_08 = 3.0314331330207962  # 4**0.8, frozen from 40-digit evaluation


def random_student(rng, d, hidden, c, n_layers=2, dtype=np.float64):
    return cas.init_student(d, hidden, c, n_layers, rng, dtype)


def make_soft_labels(rng, n, c):
    return softmax_rows(rng.standard_normal((n, c)))


class TestStudentForward:
    def test_zero_weights_zero_biases(self):
        p = LayerStack(
            [(np.zeros((6, 3)), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2))]
        )
        h, logits = cas.student_forward(p, np.hstack([np.ones((4, 3)), np.zeros((4, 3))]))
        assert np.all(h == 0) and np.all(logits == 0)

    def test_zero_weights_bias_propagates(self):
        p = LayerStack(
            [(np.zeros((6, 3)), np.array([1.0, -2.0, 0.5])), (np.zeros((3, 2)), np.array([0.1, 0.2]))]
        )
        h, logits = cas.student_forward(p, np.hstack([np.ones((4, 3)), np.zeros((4, 3))]))
        assert np.allclose(h, np.maximum(np.array([1.0, -2.0, 0.5]), 0))
        assert np.allclose(logits, [0.1, 0.2])

    def test_zero_hidden_state_contributes_nothing(self):
        # with h_prev = 0, changing the weight rows that multiply it cannot
        # change the output
        rng = np.random.default_rng(0)
        p = random_student(rng, 4, 3, 2)
        x = rng.standard_normal((5, 4))
        inputs = np.hstack([x, np.zeros((5, 3))])
        _, logits_a = cas.student_forward(p, inputs)
        q = p.copy()
        q.layers[0][0][4:, :] = rng.standard_normal((3, 3))
        _, logits_b = cas.student_forward(q, inputs)
        assert np.array_equal(logits_a, logits_b)

    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_matches_straight_line_oracle(self, n_layers):
        rng = np.random.default_rng(1)
        n, d, hidden, c = 6, 4, 3, 2
        p = random_student(rng, d, hidden, c, n_layers)
        x = rng.standard_normal((n, d))
        h_prev = rng.standard_normal((n, hidden))
        a = np.concatenate([x, h_prev], axis=1)
        h, logits = cas.student_forward(p, a)

        for w, b in p.layers[:-1]:
            a = np.maximum(a @ w + b, 0)
        w, b = p.layers[-1]
        oracle_logits = a @ w + b
        assert np.max(np.abs(logits - oracle_logits)) < 1e-10
        assert np.max(np.abs(h - a)) < 1e-10

    def test_width_mismatch_rejected(self):
        p = random_student(np.random.default_rng(0), 4, 3, 2)
        with pytest.raises(ValueError, match="input width 6 != student input dim 7"):
            cas.student_forward(p, np.zeros((5, 6)))

    def test_does_not_modify_inputs(self):
        rng = np.random.default_rng(2)
        p = random_student(rng, 4, 3, 2)
        inputs = rng.standard_normal((5, 7))
        before = inputs.copy()
        cas.student_forward(p, inputs)
        assert np.array_equal(inputs, before)


class TestWarmStart:
    def test_copy_is_bit_identical(self):
        p = random_student(np.random.default_rng(2), 4, 3, 2)
        q = p.copy()
        assert q.fingerprint() == p.fingerprint()
        for (w1, b1), (w2, b2) in zip(p.layers, q.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_mutating_copy_leaves_original_alone(self):
        p = random_student(np.random.default_rng(3), 4, 3, 2)
        before = p.fingerprint()
        q = p.copy()
        q.layers[0][0][:] = 0.0
        q.layers[1][1][:] = 9.9
        assert p.fingerprint() == before


class TestPkdLoss:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.n, self.c = 8, 3
        self.logits = rng.standard_normal((self.n, self.c))
        self.targets = soft_targets(make_soft_labels(rng, self.n, self.c))
        self.y = np.eye(self.c)[rng.integers(0, self.c, self.n)].astype(float)
        self.labeled = np.array([0, 2, 5])

    def test_k1_multiplier_is_one(self):
        for beta in (0.0, 0.8, 2.0):
            cfg = cas.CascadeConfig(alpha=0.5, beta=beta)
            got = cas.distill_loss(self.logits, self.targets, self.y, self.labeled, 1, cfg)
            base = cas.distill_loss(self.logits, self.targets, self.y, self.labeled, 1,
                                cas.CascadeConfig(alpha=0.5, beta=0.0))
            assert got.value == pytest.approx(base.value, rel=1e-15)

    def test_alpha_one_is_pure_cross_entropy(self):
        cfg = cas.CascadeConfig(alpha=1.0, beta=0.8)
        got = cas.distill_loss(self.logits, self.targets, self.y, self.labeled, 2, cfg)
        ce = masked_cross_entropy(self.logits, self.y, self.labeled)
        mult = 2.0**0.8
        assert got.value == mult * ce.value
        assert np.array_equal(got.grads["logits"], mult * ce.grads["logits"])

    def test_alpha_zero_is_pure_distillation(self):
        from mlpcascade.numkit import kl_divergence

        cfg = cas.CascadeConfig(alpha=0.0, beta=0.8)
        got = cas.distill_loss(self.logits, self.targets, self.y, self.labeled, 3, cfg)
        kd = kl_divergence(self.targets, self.logits)
        mult = 3.0**0.8
        assert got.value == pytest.approx(mult * kd.value, rel=1e-15)

    def test_k4_beta08_multiplier(self):
        cfg_base = cas.CascadeConfig(alpha=0.5, beta=0.0)
        cfg = cas.CascadeConfig(alpha=0.5, beta=0.8)
        base = cas.distill_loss(self.logits, self.targets, self.y, self.labeled, 4, cfg_base)
        got = cas.distill_loss(self.logits, self.targets, self.y, self.labeled, 4, cfg)
        assert got.value == pytest.approx(POW_4_08 * base.value, rel=1e-12)

    def test_multiplier_strictly_increasing_in_k(self):
        cfg = cas.CascadeConfig(alpha=0.5, beta=0.8)
        values = [
            cas.distill_loss(self.logits, self.targets, self.y, self.labeled, k, cfg).value
            for k in range(1, 6)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        flat_cfg = cas.CascadeConfig(alpha=0.5, beta=0.0)
        flat = [
            cas.distill_loss(self.logits, self.targets, self.y, self.labeled, k, flat_cfg).value
            for k in range(1, 6)
        ]
        assert all(v == flat[0] for v in flat)

    def test_empty_labeled_with_positive_alpha_rejected(self):
        cfg = cas.CascadeConfig(alpha=0.5, beta=0.8)
        with pytest.raises(ValueError, match="empty mask"):
            cas.distill_loss(self.logits, self.targets, self.y, [], 1, cfg)
        # alpha = 0 never touches the labeled set
        cas.distill_loss(self.logits, self.targets, self.y, [], 1,
                     cas.CascadeConfig(alpha=0.0, beta=0.8))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            cas.distill_loss(self.logits, self.targets, self.y, self.labeled, 0,
                         cas.CascadeConfig())


class TestMixupPairs:
    def test_two_nodes(self):
        pairs = cas.sample_mixup_pairs([4, 9], seed=0)
        assert pairs.shape == (2, 2)
        assert set(pairs[:, 0]) == {4, 9}
        assert set(pairs[:, 1]) == {4, 9}

    def test_same_seed_identical(self):
        labeled = np.arange(10) * 3
        a = cas.sample_mixup_pairs(labeled, seed=42)
        b = cas.sample_mixup_pairs(labeled, seed=42)
        assert np.array_equal(a, b)

    def test_second_components_form_permutation(self):
        labeled = np.arange(140)
        pairs = cas.sample_mixup_pairs(labeled, seed=7)
        assert pairs.shape == (140, 2)
        assert np.array_equal(pairs[:, 0], labeled)
        assert np.array_equal(np.sort(pairs[:, 1]), labeled)

    def test_repeated_labeled_node_rejected(self):
        # the training objective scatters the mixed rows' gradient back by
        # row index, which needs each pair column to name distinct rows
        with pytest.raises(ValueError, match="distinct"):
            cas.sample_mixup_pairs(np.array([3, 5, 3]), seed=0)

    def test_too_few_labeled_rejected(self):
        with pytest.raises(ValueError, match=">= 2 labeled"):
            cas.sample_mixup_pairs([3], seed=0)


class TestMixupExamples:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.standard_normal((6, 4))
        self.h = rng.standard_normal((6, 3))
        self.inputs = np.hstack([self.x, self.h])
        self.y = np.eye(3)[rng.integers(0, 3, 6)].astype(float)

    def test_lambda_zero_reproduces_sample_j(self):
        pairs = np.array([[0, 4]])
        mixed_x, mixed_y = cas.mixup_examples(self.inputs, self.y, pairs, 0.0)
        expected = np.concatenate([self.x[4], self.h[4]])
        assert np.array_equal(mixed_x[0], expected)
        assert np.array_equal(mixed_y[0], self.y[4])

    def test_self_pair_is_identity_at_half(self):
        pairs = np.array([[2, 2]])
        mixed_x, mixed_y = cas.mixup_examples(self.inputs, self.y, pairs, 0.5)
        expected = np.concatenate([self.x[2], self.h[2]])
        assert np.allclose(mixed_x[0], expected, atol=1e-12)
        assert np.allclose(mixed_y[0], self.y[2], atol=1e-12)

    def test_quarter_interpolation_hand_value(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])  # no hidden part in this harness
        y = np.eye(2)
        pairs = np.array([[0, 1]])
        mixed_x, mixed_y = cas.mixup_examples(x, y, pairs, 0.25)
        assert np.allclose(mixed_x[0], [0.25, 0.75], atol=1e-15)
        assert np.allclose(mixed_y[0], [0.25, 0.75], atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.25, 0.5])
    def test_mixed_label_rows_sum_to_one(self, lam):
        pairs = cas.sample_mixup_pairs(np.arange(6), seed=1)
        _, mixed_y = cas.mixup_examples(self.inputs, self.y, pairs, lam)
        assert np.max(np.abs(mixed_y.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("lam", [-0.01, 0.51, 1.0])
    def test_lambda_bounds_enforced(self, lam):
        pairs = np.array([[0, 1]])
        with pytest.raises(ValueError, match="lambda"):
            cas.mixup_examples(self.inputs, self.y, pairs, lam)


class TestPmaLoss:
    def test_confident_correct_student(self):
        # single layer pair driving huge correct logits
        p = LayerStack(
            [(np.eye(2) * 50.0, np.zeros(2)), (np.eye(2) * 50.0, np.zeros(2))]
        )
        mixed = np.array([[1.0, 0.0]])  # first-layer projection of the mixed row
        mixed_labels = np.array([[1.0, 0.0]])
        assert cas.mixup_loss(p, mixed, mixed_labels, 1).value < 1e-9

    def test_uniform_student_onehot_labels(self):
        p = LayerStack(
            [(np.zeros((4, 3)), np.zeros(3)), (np.zeros((3, 3)), np.zeros(3))]
        )
        mixed = np.ones((2, 3))  # first-layer projections, 3 wide
        mixed_labels = np.eye(3)[:2].astype(float)
        got = cas.mixup_loss(p, mixed, mixed_labels, 2).value
        assert abs(got - np.log(3.0)) < 1e-12

    def test_soft_labels_against_uniform_student(self):
        p = LayerStack(
            [(np.zeros((2, 2)), np.zeros(2)), (np.zeros((2, 2)), np.zeros(2))]
        )
        got = cas.mixup_loss(p, np.ones((1, 2)), np.array([[0.5, 0.5]]), 1).value
        assert abs(got - np.log(2.0)) < 1e-12

    def test_zero_labeled_count_rejected(self):
        p = random_student(np.random.default_rng(0), 2, 2, 2)
        with pytest.raises(ValueError, match="labeled_count"):
            cas.mixup_loss(p, np.ones((1, 4)), np.array([[1.0, 0.0]]), 0)

    def test_drop_draws_after_the_training_pass(self):
        """``total_loss_gradpair`` hands its training pass's ``drop`` on,
        so the mixup pass's masks are the next draws of the one rng: the
        training forward replayed on a fresh rng of the same seed, then
        ``mixup_loss`` with that ``drop``, gives the objective's mixup
        bits, and a ``drop`` that skipped the training draws does not."""
        rng = np.random.default_rng(3)
        n, d, hidden, c = 12, 5, 4, 3
        inputs = rng.standard_normal((n, d + hidden))
        targets = soft_targets(make_soft_labels(rng, n, c))
        y = np.eye(c)[rng.integers(0, c, n)]
        labeled = np.arange(0, n, 2)
        pairs = cas.sample_mixup_pairs(labeled, seed=1)
        p = random_student(rng, d, hidden, c)
        cfg = cas.CascadeConfig(alpha=0.5, beta=0.8)
        _, mix, _ = cas.total_loss_gradpair(
            p, inputs, targets, y, labeled, 2, cfg, pairs, 0.3, np.random.default_rng(7)
        )
        projection = inputs @ p.layers[0][0]
        mixed, mixed_labels = cas.mixup_examples(projection, y, pairs, 0.3)
        drop = dropper(cfg.dropout, np.random.default_rng(7), "replay")
        forward_cache(p, inputs, drop, projection=projection)
        assert cas.mixup_loss(p, mixed, mixed_labels, labeled.size, drop).value == mix
        skipped = dropper(cfg.dropout, np.random.default_rng(7), "replay")
        assert cas.mixup_loss(p, mixed, mixed_labels, labeled.size, skipped).value != mix


class TestMixupState:
    """``CascadeConfig.update_lambda``: the moving average, then the clamped
    drift."""

    def test_first_observation_initializes(self):
        lam, ema = cas.CascadeConfig(gamma=0.9, tau=0.1).update_lambda(0.1, None, 0.4)
        assert ema == 0.4
        # the drift runs in the first epoch too: 0.1 + 0.9*(0.4 - 0.1)
        assert lam == pytest.approx(0.37, abs=1e-15)

    def test_constant_loss_is_fixed_point(self):
        cfg = cas.CascadeConfig()
        lam, ema = cfg.update_lambda(0.1, None, 0.7)
        for _ in range(10):
            lam, ema = cfg.update_lambda(lam, ema, 0.7)
        assert ema == pytest.approx(0.7, abs=1e-15)

    def test_ema_arithmetic(self):
        _, ema = cas.CascadeConfig(sigma=0.1).update_lambda(0.1, 0.4, 0.2)
        assert ema == pytest.approx(0.22, abs=1e-15)

    def test_lambda_stable_at_reference_loss(self):
        lam, _ = cas.CascadeConfig(tau=0.1, gamma=0.9).update_lambda(0.3, 0.1, 0.1)
        assert lam == pytest.approx(0.3, abs=1e-15)

    def test_lambda_upper_clamp(self):
        # 0.45 + 0.9*(0.3 - 0.1) = 0.63 -> clamped
        lam, _ = cas.CascadeConfig(tau=0.1, gamma=0.9).update_lambda(0.45, 0.3, 0.3)
        assert lam == 0.5

    def test_lambda_lower_clamp(self):
        lam, _ = cas.CascadeConfig(tau=0.1, gamma=1.0).update_lambda(0.05, 0.0, 0.0)
        assert lam == 0.0

    def test_negative_gamma_reverses_the_drift(self):
        cfg = cas.CascadeConfig(tau=0.1, gamma=-0.5)
        # drift = -0.5*(0.3-0.1) = -0.1
        lam, _ = cfg.update_lambda(0.2, 0.3, 0.3)
        assert lam == pytest.approx(0.1, abs=1e-15)

    def test_invalid_loss_rejected(self):
        cfg = cas.CascadeConfig()
        with pytest.raises(ValueError, match="finite"):
            cfg.update_lambda(0.1, None, float("nan"))
        with pytest.raises(ValueError, match=">= 0"):
            cfg.update_lambda(0.1, 0.2, -0.5)

    def test_bounds_validated_on_construction(self):
        with pytest.raises(ValueError, match="lambda"):
            cas.CascadeConfig(lambda_init=0.6)


class TestLossAndMixupFields:
    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -0.5])
    def test_beta_must_be_finite_and_non_negative(self, beta):
        with pytest.raises(ValueError, match=f"^beta {beta} must be finite and >= 0$"):
            cas.CascadeConfig(beta=beta)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("gamma", float("inf"), "must be finite"),
            ("gamma", float("-inf"), "must be finite"),
            ("gamma", float("nan"), "must be finite"),
            ("tau", float("nan"), "must be finite"),
            ("tau", float("-inf"), "must be finite"),
            ("sigma", float("nan"), "outside [0, 1]"),
            ("sigma", 1.5, "outside [0, 1]"),
            ("lambda_init", float("nan"), "outside [0, 0.5]"),
            ("lambda_init", 0.6, "outside [0, 0.5]"),
            ("lambda_init", -0.1, "outside [0, 0.5]"),
        ],
    )
    def test_mixup_field_rejected(self, field, value, message):
        with pytest.raises(ValueError) as err:
            cas.CascadeConfig(**{field: value})
        assert str(err.value) == f"{field} {value} {message}"

    def test_boundary_values_accepted(self):
        cas.CascadeConfig(gamma=0.0, tau=-3.0, sigma=0.0, lambda_init=0.0)
        cas.CascadeConfig(gamma=-0.9, sigma=1.0, lambda_init=0.5)
        cas.CascadeConfig(alpha=0.0, beta=0.0)


FROZEN_CONFIGS = [
    t.TeacherConfig(), cas.CascadeConfig(),
    InferencePolicy(max_students=1),
]


@pytest.mark.parametrize(
    "config, name",
    [
        pytest.param(c, f.name, id=f"{type(c).__name__}-{f.name}")
        for c in FROZEN_CONFIGS
        for f in dataclasses.fields(c)
    ],
)
def test_assigning_a_config_field_raises(config, name):
    # a config is checked once, when built, so no field may change after
    before = dataclasses.asdict(config)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, None)
    assert dataclasses.asdict(config) == before


@pytest.mark.parametrize(
    "config, changes, message",
    [
        (t.TeacherConfig(), {"depth": 4}, "teacher depth must be 2 or 3, got 4"),
        (cas.CascadeConfig(), {"n_students": 0}, "n_students 0 must be >= 1"),
        (cas.CascadeConfig(), {"max_epochs": 0, "patience": -1}, "max_epochs 0 must be >= 1"),
        (cas.CascadeConfig(), {"tau": float("nan")}, "tau nan must be finite"),
        (InferencePolicy(max_students=1), {"max_students": 0}, "max_students 0 must be >= 1"),
    ],
)
def test_replace_checks_the_variant(config, changes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(config, **changes)


def small_training_setup(seed=0, dtype=np.float64, n=24, d=5, hidden=4, c=3):
    import mlpcascade.graphio as gio

    g = gio.synth_sbm(n, c, d, 0.6, 0.05, 0.8, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    return g, soft_targets(make_soft_labels(rng, n, c).astype(dtype))


class TestTrainStudent:
    def test_single_epoch_takes_single_step(self):
        g, targets = small_training_setup()
        cfg = cas.CascadeConfig(
            n_students=1, hidden_dim=4, n_layers=2, max_epochs=1, patience=0,
            dropout=0.0, seed=0,
        )
        init = cas.init_student(g.feat_dim, 4, g.n_classes, 2, np.random.default_rng(0), np.float64)
        inputs = np.hstack([g.features, np.zeros((g.n_nodes, 4))])  # [x | h0]
        params, h_k, ema, meta = cas.train_student(
            1, g, targets, inputs, init, cfg, cfg.lambda_init, None
        )
        assert meta.epochs == 1
        assert len(meta.losses) == 1
        assert params.fingerprint() != init.fingerprint()

    def test_patience_zero_bound(self):
        with pytest.raises(ValueError, match="patience"):
            cas.CascadeConfig(max_epochs=1, patience=1)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("max_epochs", {"max_epochs": 0, "patience": -1}),
            ("patience", {"patience": -1}),
            ("hidden_dim", {"hidden_dim": 0}),
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
            cas.CascadeConfig(**kwargs)

    def test_lambda_history_within_bounds(self):
        g, targets = small_training_setup(seed=3)
        cfg = cas.CascadeConfig(
            n_students=2, hidden_dim=4, n_layers=2, max_epochs=12, patience=11,
            dropout=0.2, seed=1,
        )
        init = cas.init_student(g.feat_dim, 4, g.n_classes, 2, np.random.default_rng(1), np.float64)
        h = np.zeros((g.n_nodes, 4))
        lam, ema = cfg.lambda_init, None
        for k in (1, 2):
            params, h, ema, meta = cas.train_student(
                k, g, targets, np.hstack([g.features, h]), init, cfg, lam, ema
            )
            lam = meta.final_lambda
            assert all(0.0 <= lam <= 0.5 for lam in meta.lambda_history)
            init = params.copy()

    def test_duplicated_ce_trajectory_matches_reference(self):
        """alpha=1 with lambda frozen at 0 and no dropout reduces every epoch
        to (k^beta + 1) times the supervised CE gradient; a from-scratch
        reference loop (own forward, backward, and optimizer) must produce
        the same parameter trajectory."""
        g, targets = small_training_setup(seed=6)
        k = 2
        beta = 0.8
        epochs = 5
        cfg = cas.CascadeConfig(
            n_students=1, hidden_dim=4, n_layers=2, lr=0.01, weight_decay=0.004,
            dropout=0.0, max_epochs=epochs, patience=epochs - 1,
            alpha=1.0, beta=beta, gamma=0.0, lambda_init=0.0,
            seed=9,
        )
        rng = np.random.default_rng(9)
        init = cas.init_student(g.feat_dim, 4, g.n_classes, 2, rng, np.float64)
        inputs = np.hstack([g.features, np.zeros((g.n_nodes, 4))])  # [x | h0]
        params, _, _, meta = cas.train_student(
            1, g, targets, inputs, init, cfg, cfg.lambda_init, None
        )
        # disable early stopping interference: patience epochs-1 never fires
        assert meta.epochs == epochs

        # reference: plain supervised training with the duplicated objective
        w1 = init.layers[0][0].copy()
        b1 = init.layers[0][1].copy()
        w2 = init.layers[1][0].copy()
        b2 = init.layers[1][1].copy()
        labeled = g.splits.labeled
        scale = 1.0**beta + 1.0  # k=1 inside train_student
        mom = {n: 0.0 for n in ("w1", "b1", "w2", "b2")}
        vel = {n: 0.0 for n in ("w1", "b1", "w2", "b2")}
        ref_losses = []
        ref_snapshots = []
        for step in range(1, epochs + 1):
            z1 = inputs @ w1 + b1
            a1 = np.maximum(z1, 0.0)
            logits = a1 @ w2 + b2
            probs = softmax_rows(logits[labeled])
            onehot = g.labels[labeled]
            per_row = -np.log(probs[np.arange(labeled.size), np.argmax(onehot, axis=1)])
            ref_losses.append(scale * float(per_row.mean()))
            dlog = np.zeros_like(logits)
            dlog[labeled] = scale * (probs - onehot) / labeled.size
            grads = {
                "w2": a1.T @ dlog,
                "b2": dlog.sum(axis=0),
            }
            da1 = dlog @ w2.T
            dz1 = da1 * (z1 > 0)
            grads["w1"] = inputs.T @ dz1
            grads["b1"] = dz1.sum(axis=0)
            # AdamW reference (beta1=0.9, beta2=0.999 written as the
            # algorithm's 1-beta expressions)
            tensors = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
            for name, p in tensors.items():
                gr = grads[name]
                mom[name] = 0.9 * mom[name] + (1.0 - 0.9) * gr
                vel[name] = 0.999 * vel[name] + (1.0 - 0.999) * gr * gr
                m_hat = mom[name] / (1 - 0.9**step)
                v_hat = vel[name] / (1 - 0.999**step)
                p -= 0.01 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.004 * p)
            ref_snapshots.append((w1.copy(), b1.copy(), w2.copy(), b2.copy()))

        # mixup pairs are a permutation of the labeled set, so with lambda=0
        # the mixed batch is the labeled batch reordered: same loss and
        # gradient sums every epoch
        assert np.allclose(meta.losses, ref_losses, rtol=1e-10, atol=1e-12)
        # train_student hands back the best-validation checkpoint, so compare
        # against the reference snapshot from that same epoch
        rw1, rb1, rw2, rb2 = ref_snapshots[meta.best_epoch - 1]
        assert np.allclose(params.layers[0][0], rw1, atol=1e-10)
        assert np.allclose(params.layers[0][1], rb1, atol=1e-10)
        assert np.allclose(params.layers[1][0], rw2, atol=1e-10)
        assert np.allclose(params.layers[1][1], rb2, atol=1e-10)

    def test_separable_dataset_reaches_perfect_validation(self, tiny_graph):
        rng = np.random.default_rng(0)
        targets = soft_targets(
            make_soft_labels(rng, tiny_graph.n_nodes, tiny_graph.n_classes).astype(np.float32)
        )
        cfg = cas.CascadeConfig(
            n_students=1, hidden_dim=16, n_layers=2, lr=0.01, dropout=0.0,
            max_epochs=60, patience=59, alpha=1.0, beta=0.8, seed=2,
        )
        init = cas.init_student(
            tiny_graph.feat_dim, 16, tiny_graph.n_classes, 2, np.random.default_rng(2), np.float32
        )
        h0 = np.zeros((tiny_graph.n_nodes, 16), dtype=np.float32)
        _, _, _, meta = cas.train_student(
            1, tiny_graph, targets, np.hstack([tiny_graph.features, h0]), init, cfg,
            cfg.lambda_init, None,
        )
        assert meta.best_val_acc == 1.0
        assert meta.best_epoch < cfg.max_epochs


def student_fd_error(seed, n_layers=2, dropout=0.0):
    """Worst relative error of the finite-difference check of the training
    objective (distillation + mixup). Biases get small random values: with
    zero biases, dead hidden rows sit exactly on a ReLU kink, where central
    differences are not the gradient. With dropout, each call draws the same
    masks from a fresh rng."""
    rng = np.random.default_rng(seed)
    n, d, hidden, c = 20, 7, 4, 3
    x = rng.standard_normal((n, d))
    h_prev = rng.standard_normal((n, hidden))
    teacher_probs = make_soft_labels(rng, n, c)
    y = np.eye(c)[rng.integers(0, c, n)].astype(float)
    labeled = np.sort(rng.choice(n, size=6, replace=False))
    pairs = cas.sample_mixup_pairs(labeled, seed=seed)
    base = random_student(rng, d, hidden, c, n_layers)
    for _, b in base.layers:
        b[:] = 0.1 * rng.standard_normal(b.shape)
    inputs = np.hstack([x, h_prev])
    targets = soft_targets(teacher_probs)  # what train_cascade passes

    def loss(p):
        params = LayerStack([(p[f"w{i}"], p[f"b{i}"]) for i in range(1, n_layers + 1)])
        distill, mix, grads = cas.total_loss_gradpair(
            params, inputs, targets, y, labeled, k=2,
            cfg=cas.CascadeConfig(alpha=0.5, beta=0.8, dropout=dropout),
            pairs=pairs, lam=0.3, rng=np.random.default_rng(seed),
        )
        return GradPair(distill + mix, grads)

    params = base.param_dict()
    assert set(params) == {f"{kind}{i}" for i in range(1, n_layers + 1) for kind in "wb"}
    return finite_diff_check(loss, params)


def test_student_step_peak_holds_only_the_arrays_it_needs():
    """The traced peak of one training step with dropout, from the inputs
    and their first-layer projection held outside the trace, as
    ``train_student`` holds them. Its largest moment is the distillation
    backward's ReLU gate: the hidden activation after dropout and the fresh
    gradient below the last layer (N x h each), that gradient's gate (N x h
    bools), the logits and their gradient (N x C each). The margin, 256
    KiB, covers the arrays of the labeled and mixed rows. A float mask kept
    for the backward and a masked copy of the activation beside it would
    add 2 N x h values, 2 MB here."""
    import tracemalloc

    n, c, d, h = 4000, 4, 64, 64
    g = gio.synth_sbm(n, c, d, 0.01, 0.001, 1.0, seed=0)
    rng = np.random.default_rng(0)
    p = cas.init_student(d, h, c, 2, rng, np.float32)
    inputs = np.hstack([g.features, rng.standard_normal((n, h)).astype(np.float32)])
    targets = soft_targets(make_soft_labels(rng, n, c).astype(np.float32))
    pairs = cas.sample_mixup_pairs(g.splits.labeled, seed=1)
    projection = inputs @ p.layers[0][0]
    tracemalloc.start()
    try:
        cas.total_loss_gradpair(
            p, inputs, targets, g.labels, g.splits.labeled, 2, cas.CascadeConfig(), pairs,
            0.3, np.random.default_rng(2), projection,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = inputs.itemsize * (2 * n * h + 2 * n * c) + n * h
    assert held <= peak <= held + 256 * 1024, (peak, held)


def blended_input_objective(p, inputs, targets, y, labeled, k, cfg, pairs, lam, dropout, seed):
    """The training objective with the mixed examples built as blended input
    rows ``lam * [x | h]_i + (1 - lam) * [x | h]_j`` and run through the
    whole student: the form that ``total_loss_gradpair`` computes through
    the first layer's linearity. Masks are drawn in the same order, and
    each hidden activation is dropped in place, as training drops it."""
    rng = np.random.default_rng(seed)
    drop = (lambda a: dropout_in_place(rng, a, dropout)) if dropout else None
    logits, caches = forward_cache(p, inputs, drop)
    distill = cas.distill_loss(logits, targets, y, labeled, k, cfg)
    grads = backward(p, caches, distill.grads["logits"])
    i, j = pairs[:, 0], pairs[:, 1]
    mixed = lam * inputs[i] + (1.0 - lam) * inputs[j]
    mixed_y = lam * y[i] + (1.0 - lam) * y[j]
    mix_logits, mix_caches = forward_cache(p, mixed, drop)
    mix_logp, mix_probs = log_and_softmax_rows(mix_logits)
    mix = float(-(mixed_y * mix_logp).sum() / labeled.size)
    mix_grads = backward(p, mix_caches, (mix_probs - mixed_y) / labeled.size)
    return distill.value, mix, {name: grads[name] + mix_grads[name] for name in grads}


class TestFullLossGradients:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_mixup_by_linearity_matches_blended_inputs(self, n_layers, dropout, lam):
        """Blending the first layer's projections is blending the inputs:
        values and every gradient agree with the blended-input form to
        1e-12 relative, in float64."""
        rng = np.random.default_rng(11)
        n, d, hidden, c = 40, 9, 6, 3
        inputs = rng.standard_normal((n, d + hidden))
        targets = soft_targets(make_soft_labels(rng, n, c))
        y = np.eye(c)[rng.integers(0, c, n)]
        labeled = np.sort(rng.choice(n, size=12, replace=False))
        pairs = cas.sample_mixup_pairs(labeled, seed=5)
        p = random_student(rng, d, hidden, c, n_layers)
        for _, b in p.layers:
            b[:] = 0.1 * rng.standard_normal(b.shape)
        cfg = cas.CascadeConfig(alpha=0.5, beta=0.8, dropout=dropout)
        distill, mix, grads = cas.total_loss_gradpair(
            p, inputs, targets, y, labeled, 2, cfg, pairs, lam, np.random.default_rng(6)
        )
        ref_distill, ref_mix, ref_grads = blended_input_objective(
            p, inputs, targets, y, labeled, 2, cfg, pairs, lam, dropout, 6
        )
        assert abs(distill - ref_distill) <= 1e-12 * abs(ref_distill)
        assert abs(mix - ref_mix) <= 1e-12 * abs(ref_mix)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            scale = np.max(np.abs(ref))
            assert scale > 0.0, name
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * scale, name


    @pytest.mark.parametrize("seed", range(5))
    def test_total_loss_passes_fd_check(self, seed):
        assert student_fd_error(seed) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_layers, dropout", [(2, 0.5), (3, 0.0), (3, 0.5)])
    def test_training_objective_passes_fd_check(self, n_layers, dropout, seed):
        assert student_fd_error(seed, n_layers, dropout) < 1e-4

    def test_total_loss_is_distillation_plus_mixup(self):
        rng = np.random.default_rng(3)
        n, d, hidden, c = 12, 5, 4, 3
        inputs = rng.standard_normal((n, d + hidden))
        targets = soft_targets(make_soft_labels(rng, n, c))
        y = np.eye(c)[rng.integers(0, c, n)].astype(float)
        labeled = np.arange(0, n, 2)
        pairs = cas.sample_mixup_pairs(labeled, seed=1)
        p = random_student(rng, d, hidden, c)
        cfg = cas.CascadeConfig(alpha=0.5, beta=0.8, dropout=0.0)
        distill, mix, _ = cas.total_loss_gradpair(
            p, inputs, targets, y, labeled, 2, cfg, pairs, 0.3
        )
        _, logits = cas.student_forward(p, inputs)
        assert distill == cas.distill_loss(logits, targets, y, labeled, 2, cfg).value
        # the mixed examples enter as blends of the first layer's projections
        mixed, mixed_labels = cas.mixup_examples(inputs @ p.layers[0][0], y, pairs, 0.3)
        assert mix == cas.mixup_loss(p, mixed, mixed_labels, labeled.size).value

    def test_dropout_without_rng_rejected(self):
        rng = np.random.default_rng(3)
        n, d, hidden, c = 12, 5, 4, 3
        inputs = rng.standard_normal((n, d + hidden))
        targets = soft_targets(make_soft_labels(rng, n, c))
        y = np.eye(c)[rng.integers(0, c, n)].astype(float)
        labeled = np.arange(0, n, 2)
        pairs = cas.sample_mixup_pairs(labeled, seed=1)
        p = random_student(rng, d, hidden, c)
        cfg = cas.CascadeConfig(alpha=0.5, beta=0.8)
        message = r"^total_loss_gradpair: dropout 0\.5 needs an rng, got None$"
        with pytest.raises(ValueError, match=message):
            cas.total_loss_gradpair(p, inputs, targets, y, labeled, 2, cfg, pairs, 0.3)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_layers, dropout", [(2, 0.0), (2, 0.5), (3, 0.5)])
    def test_shared_projection_gives_the_same_bits(self, n_layers, dropout, dtype):
        """The training pass given the first layer's projection, as
        ``train_student`` passes the one its validation made, equals the
        pass that computes it, and leaves the projection as it was."""
        rng = np.random.default_rng(8)
        n, d, hidden, c = 30, 9, 5, 3
        inputs = rng.standard_normal((n, d + hidden)).astype(dtype)
        targets = soft_targets(make_soft_labels(rng, n, c).astype(dtype))
        y = np.eye(c, dtype=dtype)[rng.integers(0, c, n)]
        labeled = np.arange(0, n, 3)
        pairs = cas.sample_mixup_pairs(labeled, seed=2)
        p = random_student(rng, d, hidden, c, n_layers, dtype)
        cfg = cas.CascadeConfig(alpha=0.5, beta=0.8, dropout=dropout)
        projection = inputs @ p.layers[0][0]
        before = projection.copy()
        own = cas.total_loss_gradpair(
            p, inputs, targets, y, labeled, 2, cfg, pairs, 0.3, np.random.default_rng(4)
        )
        shared = cas.total_loss_gradpair(
            p, inputs, targets, y, labeled, 2, cfg, pairs, 0.3, np.random.default_rng(4),
            projection,
        )
        assert own[:2] == shared[:2]
        assert own[2].keys() == shared[2].keys()
        for name, grad in own[2].items():
            assert grad.dtype == shared[2][name].dtype
            assert np.array_equal(grad, shared[2][name]), name
        assert np.array_equal(projection, before)


class TestTrainCascade:
    def make_teacher_artifact(self, g, seed=0):
        cfg = t.TeacherConfig(hidden_dim=8, dropout=0.3, max_epochs=30, patience=29, seed=seed)
        return t.train_teacher(g, gio.normalized_adjacency(g), cfg)

    def test_k1_matches_single_student(self, tiny_graph):
        art = self.make_teacher_artifact(tiny_graph)
        cfg = cas.CascadeConfig(
            n_students=1, hidden_dim=8, n_layers=2, max_epochs=10, patience=9, seed=4
        )
        c1 = cas.train_cascade(tiny_graph, art, cfg)
        assert c1.n_students == 1

        init = cas.init_student(
            tiny_graph.feat_dim, 8, tiny_graph.n_classes, 2,
            np.random.default_rng([4, 0]), np.float32,
        )
        h0 = np.zeros((tiny_graph.n_nodes, 8), dtype=np.float32)
        params, _, _, _ = cas.train_student(
            1, tiny_graph, soft_targets(art.soft_labels), np.hstack([tiny_graph.features, h0]),
            init, cfg, cfg.lambda_init, None,
        )
        assert c1.students[0].fingerprint() == params.fingerprint()

    def test_students_read_one_input_array(self, tiny_graph, monkeypatch):
        """train_cascade hands every student the same [x | h] array: the
        features, then the hidden state of the student before (zeros for
        the first), which it writes into the right-hand columns."""
        art = self.make_teacher_artifact(tiny_graph)
        seen = []
        train = cas.train_student

        def recording(k, nodes, targets, inputs, *rest):
            seen.append((inputs, inputs.copy()))
            return train(k, nodes, targets, inputs, *rest)

        monkeypatch.setattr(cas, "train_student", recording)
        cfg = cas.CascadeConfig(
            n_students=3, hidden_dim=8, n_layers=2, max_epochs=4, patience=3, seed=5
        )
        casc = cas.train_cascade(tiny_graph, art, cfg)
        d = tiny_graph.feat_dim
        assert all(inputs is seen[0][0] for inputs, _ in seen)
        h = np.zeros((tiny_graph.n_nodes, 8), np.float32)
        for (_, rows), student in zip(seen, casc.students):
            assert np.array_equal(rows[:, :d], tiny_graph.features)
            assert rows[:, d:].tobytes() == h.tobytes()
            h, _ = cas.student_forward(student, rows)

    def test_same_seed_bit_identical(self, tiny_graph):
        art = self.make_teacher_artifact(tiny_graph)
        cfg = cas.CascadeConfig(
            n_students=3, hidden_dim=8, n_layers=2, max_epochs=8, patience=7, seed=11
        )
        a = cas.train_cascade(tiny_graph, art, cfg)
        b = cas.train_cascade(tiny_graph, art, cfg)
        assert a.fingerprint() == b.fingerprint()

    def test_warm_start_audit(self, tiny_graph):
        art = self.make_teacher_artifact(tiny_graph)
        cfg = cas.CascadeConfig(
            n_students=3, hidden_dim=8, n_layers=2, max_epochs=6, patience=5, seed=1
        )
        c3 = cas.train_cascade(tiny_graph, art, cfg)
        for k in (1, 2):
            assert c3.metas[k].init_fingerprint == c3.students[k - 1].fingerprint()

    def test_students_shape_identical(self, tiny_graph):
        art = self.make_teacher_artifact(tiny_graph)
        cfg = cas.CascadeConfig(
            n_students=3, hidden_dim=8, n_layers=2, max_epochs=6, patience=5, seed=2
        )
        c3 = cas.train_cascade(tiny_graph, art, cfg)
        shapes = {s.shape_vector() for s in c3.students}
        assert len(shapes) == 1

    def test_empty_validation_split_rejected(self, tiny_graph):
        art = self.make_teacher_artifact(tiny_graph)
        bad = dataclasses.replace(
            tiny_graph,
            splits=dataclasses.replace(tiny_graph.splits, validation=np.array([], dtype=np.int64)),
        )
        cfg = cas.CascadeConfig(n_students=1, hidden_dim=8, max_epochs=5, patience=2)
        with pytest.raises(ValueError, match="validation"):
            cas.train_cascade(bad, art, cfg)

    def test_divergence_names_student_and_component(self, tiny_graph):
        art = self.make_teacher_artifact(tiny_graph)
        cfg = cas.CascadeConfig(
            n_students=2, hidden_dim=8, lr=1e30, max_epochs=10, patience=9, seed=0
        )
        with pytest.raises(TrainingDivergedError) as err:
            cas.train_cascade(tiny_graph, art, cfg)
        exc, cause = err.value, err.value.__cause__
        assert exc.component == "student 1: distillation"
        assert cause.component == "distillation" and cause.epoch == exc.epoch
        assert not np.isfinite(exc.value)
        assert repr(exc.value) == repr(cause.value)

    def test_divergence_keeps_the_loss_value(self, tiny_graph, monkeypatch):
        art = self.make_teacher_artifact(tiny_graph)

        def diverge(*args):
            raise TrainingDivergedError(3, "mixup", float("-inf"))

        monkeypatch.setattr(cas, "train_student", diverge)
        cfg = cas.CascadeConfig(n_students=2, hidden_dim=8, max_epochs=5, patience=2)
        with pytest.raises(TrainingDivergedError) as err:
            cas.train_cascade(tiny_graph, art, cfg)
        assert err.value.value == float("-inf")
        assert str(err.value) == "non-finite student 1: mixup loss (-inf) at epoch 3"

    def test_mismatched_soft_labels_rejected(self, tiny_graph):
        art = self.make_teacher_artifact(tiny_graph)
        bad = dataclasses.replace(art, soft_labels=art.soft_labels[:, :2])
        cfg = cas.CascadeConfig(n_students=1, hidden_dim=8, max_epochs=5, patience=4)
        with pytest.raises(ValueError, match="soft labels"):
            cas.train_cascade(tiny_graph, bad, cfg)

    @pytest.mark.parametrize(
        "field, value",
        [("max_epochs", 0), ("patience", -1), ("hidden_dim", 0), ("lr", -1.0),
         ("dropout", 0.999999)],
    )
    def test_stored_degenerate_config_refused(self, tiny_graph, tmp_path, field, value):
        art = self.make_teacher_artifact(tiny_graph)
        cfg = cas.CascadeConfig(n_students=1, hidden_dim=8, max_epochs=3, patience=2, seed=8)
        path = tmp_path / "cascade.json"
        cas.save_cascade(cas.train_cascade(tiny_graph, art, cfg), path)
        doc = json.loads(path.read_text())
        doc["config"][field] = value
        if field == "max_epochs":
            doc["config"]["patience"] = -1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"cascade.json config: {field} "):
            cas.load_cascade(path)

    @pytest.mark.parametrize(
        "field, value",
        [("gamma", float("-inf")), ("gamma", float("inf")), ("tau", float("nan")),
         ("sigma", 1.5), ("lambda_init", 0.75)],
    )
    def test_stored_out_of_range_mixup_config_refused(self, tiny_graph, tmp_path, field, value):
        art = self.make_teacher_artifact(tiny_graph)
        cfg = cas.CascadeConfig(n_students=1, hidden_dim=8, max_epochs=3, patience=2, seed=8)
        path = tmp_path / "cascade.json"
        cas.save_cascade(cas.train_cascade(tiny_graph, art, cfg), path)
        doc = json.loads(path.read_text())
        doc["config"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"cascade.json config: {field} "):
            cas.load_cascade(path)

    def test_checkpoint_round_trip(self, tiny_graph, tmp_path):
        art = self.make_teacher_artifact(tiny_graph)
        cfg = cas.CascadeConfig(
            n_students=2, hidden_dim=8, n_layers=2, max_epochs=6, patience=5, seed=8
        )
        c2 = cas.train_cascade(tiny_graph, art, cfg)
        path = tmp_path / "cascade.json"
        cas.save_cascade(c2, path)
        loaded = cas.load_cascade(path)
        assert loaded.fingerprint() == c2.fingerprint()
        assert loaded.teacher_fingerprint == c2.teacher_fingerprint
        assert loaded.config == cfg
        assert [m.final_lambda for m in loaded.metas] == [m.final_lambda for m in c2.metas]
        # the manifest holds each student's shapes and fingerprint, the
        # weights file every array's raw little-endian bytes in that order
        doc = json.loads(path.read_text())
        assert doc["array_encoding"] == "raw-le"
        assert [e["fingerprint"] for e in doc["students"]] == [
            s.fingerprint() for s in c2.students
        ]
        assert [e["layers"] for e in doc["students"]] == [
            [{"w": {"shape": list(w.shape)}, "b": {"shape": list(b.shape)}} for w, b in s.layers]
            for s in c2.students
        ]
        assert (tmp_path / "cascade.weights").read_bytes() == b"".join(
            a.astype("<f4").tobytes() for s in c2.students for pair in s.layers for a in pair
        )
