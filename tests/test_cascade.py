import dataclasses
import json

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.teacher as t
from mlpcascade.numkit import (
    finite_diff_check,
    masked_cross_entropy,
    relu,
    softmax_rows,
)

POW_4_08 = 3.0314331330207962  # 4**0.8, frozen from 40-digit evaluation


def random_student(rng, d, hidden, c, n_layers=2, dtype=np.float64):
    return cas.init_student(d, hidden, c, n_layers, rng, dtype)


def make_soft_labels(rng, n, c):
    return softmax_rows(rng.standard_normal((n, c)))


class TestStudentForward:
    def test_zero_weights_zero_biases(self):
        p = cas.StudentParams(
            [(np.zeros((6, 3)), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2))]
        )
        h, logits = cas.student_forward(p, np.ones((4, 3)), np.zeros((4, 3)))
        assert np.all(h == 0) and np.all(logits == 0)

    def test_zero_weights_bias_propagates(self):
        p = cas.StudentParams(
            [(np.zeros((6, 3)), np.array([1.0, -2.0, 0.5])), (np.zeros((3, 2)), np.array([0.1, 0.2]))]
        )
        h, logits = cas.student_forward(p, np.ones((4, 3)), np.zeros((4, 3)))
        assert np.allclose(h, relu(np.array([1.0, -2.0, 0.5])))
        assert np.allclose(logits, [0.1, 0.2])

    def test_zero_hidden_state_contributes_nothing(self):
        # with h_prev = 0, changing the weight rows that multiply it cannot
        # change the output
        rng = np.random.default_rng(0)
        p = random_student(rng, 4, 3, 2)
        x = rng.standard_normal((5, 4))
        h0 = np.zeros((5, 3))
        _, logits_a = cas.student_forward(p, x, h0)
        q = p.copy()
        q.layers[0][0][4:, :] = rng.standard_normal((3, 3))
        _, logits_b = cas.student_forward(q, x, h0)
        assert np.array_equal(logits_a, logits_b)

    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_matches_straight_line_oracle(self, n_layers):
        rng = np.random.default_rng(1)
        n, d, hidden, c = 6, 4, 3, 2
        p = random_student(rng, d, hidden, c, n_layers)
        x = rng.standard_normal((n, d))
        h_prev = rng.standard_normal((n, hidden))
        h, logits = cas.student_forward(p, x, h_prev)

        a = np.concatenate([x, h_prev], axis=1)
        for w, b in p.layers[:-1]:
            a = relu(a @ w + b)
        w, b = p.layers[-1]
        oracle_logits = a @ w + b
        assert np.max(np.abs(logits - oracle_logits)) < 1e-10
        assert np.max(np.abs(h - a)) < 1e-10

    def test_row_mismatch_rejected(self):
        p = random_student(np.random.default_rng(0), 4, 3, 2)
        with pytest.raises(ValueError, match="rows"):
            cas.student_forward(p, np.zeros((5, 4)), np.zeros((4, 3)))


class TestWarmStart:
    def test_copy_is_bit_identical(self):
        p = random_student(np.random.default_rng(2), 4, 3, 2)
        q = cas.warm_start(p)
        assert q.fingerprint() == p.fingerprint()
        for (w1, b1), (w2, b2) in zip(p.layers, q.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_mutating_copy_leaves_original_alone(self):
        p = random_student(np.random.default_rng(3), 4, 3, 2)
        before = p.fingerprint()
        q = cas.warm_start(p)
        q.layers[0][0][:] = 0.0
        q.layers[1][1][:] = 9.9
        assert p.fingerprint() == before


class TestPkdLoss:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.n, self.c = 8, 3
        self.logits = rng.standard_normal((self.n, self.c))
        self.teacher_probs = make_soft_labels(rng, self.n, self.c)
        self.y = np.eye(self.c)[rng.integers(0, self.c, self.n)].astype(float)
        self.labeled = np.array([0, 2, 5])
        self.all_nodes = np.arange(self.n)

    def test_k1_multiplier_is_one(self):
        for beta in (0.0, 0.8, 2.0):
            cfg = cas.DistillConfig(alpha=0.5, beta=beta)
            got = cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, 1, cfg)
            base = cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, 1,
                                cas.DistillConfig(alpha=0.5, beta=0.0))
            assert got.value == pytest.approx(base.value, rel=1e-15)

    def test_alpha_one_is_pure_cross_entropy(self):
        cfg = cas.DistillConfig(alpha=1.0, beta=0.8)
        got = cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, 2, cfg)
        ce = masked_cross_entropy(self.logits, self.y, self.labeled)
        mult = 2.0**0.8
        assert got.value == mult * ce.value
        assert np.array_equal(got.grads["logits"], mult * ce.grads["logits"])

    def test_alpha_zero_is_pure_distillation(self):
        from mlpcascade.numkit import kl_divergence

        cfg = cas.DistillConfig(alpha=0.0, beta=0.8)
        got = cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, 3, cfg)
        kd = kl_divergence(self.teacher_probs, self.logits, self.all_nodes)
        mult = 3.0**0.8
        assert got.value == pytest.approx(mult * kd.value, rel=1e-15)

    def test_k4_beta08_multiplier(self):
        cfg_base = cas.DistillConfig(alpha=0.5, beta=0.0)
        cfg = cas.DistillConfig(alpha=0.5, beta=0.8)
        base = cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, 4, cfg_base)
        got = cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, 4, cfg)
        assert got.value == pytest.approx(POW_4_08 * base.value, rel=1e-12)

    def test_multiplier_strictly_increasing_in_k(self):
        cfg = cas.DistillConfig(alpha=0.5, beta=0.8)
        values = [
            cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, k, cfg).value
            for k in range(1, 6)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        flat_cfg = cas.DistillConfig(alpha=0.5, beta=0.0)
        flat = [
            cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, k, flat_cfg).value
            for k in range(1, 6)
        ]
        assert all(v == flat[0] for v in flat)

    def test_empty_labeled_with_positive_alpha_rejected(self):
        cfg = cas.DistillConfig(alpha=0.5, beta=0.8)
        with pytest.raises(ValueError, match="empty mask"):
            cas.distill_loss(self.logits, self.teacher_probs, self.y, [], self.all_nodes, 1, cfg)
        # alpha = 0 never touches the labeled set
        cas.distill_loss(self.logits, self.teacher_probs, self.y, [], self.all_nodes, 1,
                     cas.DistillConfig(alpha=0.0, beta=0.8))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            cas.distill_loss(self.logits, self.teacher_probs, self.y, self.labeled, self.all_nodes, 0,
                         cas.DistillConfig())


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

    def test_too_few_labeled_rejected(self):
        with pytest.raises(ValueError, match=">= 2 labeled"):
            cas.sample_mixup_pairs([3], seed=0)


class TestMixupExamples:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.standard_normal((6, 4))
        self.h = rng.standard_normal((6, 3))
        self.y = np.eye(3)[rng.integers(0, 3, 6)].astype(float)

    def test_lambda_zero_reproduces_sample_j(self):
        pairs = np.array([[0, 4]])
        mixed_x, mixed_y = cas.mixup_examples(self.x, self.h, self.y, pairs, 0.0)
        expected = np.concatenate([self.x[4], self.h[4]])
        assert np.array_equal(mixed_x[0], expected)
        assert np.array_equal(mixed_y[0], self.y[4])

    def test_self_pair_is_identity_at_half(self):
        pairs = np.array([[2, 2]])
        mixed_x, mixed_y = cas.mixup_examples(self.x, self.h, self.y, pairs, 0.5)
        expected = np.concatenate([self.x[2], self.h[2]])
        assert np.allclose(mixed_x[0], expected, atol=1e-12)
        assert np.allclose(mixed_y[0], self.y[2], atol=1e-12)

    def test_quarter_interpolation_hand_value(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        h = np.zeros((2, 0))  # no hidden part in this harness
        y = np.eye(2)
        pairs = np.array([[0, 1]])
        mixed_x, mixed_y = cas.mixup_examples(x, h, y, pairs, 0.25)
        assert np.allclose(mixed_x[0], [0.25, 0.75], atol=1e-15)
        assert np.allclose(mixed_y[0], [0.25, 0.75], atol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.25, 0.5])
    def test_mixed_label_rows_sum_to_one(self, lam):
        pairs = cas.sample_mixup_pairs(np.arange(6), seed=1)
        _, mixed_y = cas.mixup_examples(self.x, self.h, self.y, pairs, lam)
        assert np.max(np.abs(mixed_y.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("lam", [-0.01, 0.51, 1.0])
    def test_lambda_bounds_enforced(self, lam):
        pairs = np.array([[0, 1]])
        with pytest.raises(ValueError, match="lambda"):
            cas.mixup_examples(self.x, self.h, self.y, pairs, lam)


class TestPmaLoss:
    def test_confident_correct_student(self):
        # single layer pair driving huge correct logits
        p = cas.StudentParams(
            [(np.eye(2) * 50.0, np.zeros(2)), (np.eye(2) * 50.0, np.zeros(2))]
        )
        mixed_inputs = np.array([[1.0, 0.0]])
        mixed_labels = np.array([[1.0, 0.0]])
        assert cas.mixup_loss(p, mixed_inputs, mixed_labels, 1).value < 1e-9

    def test_uniform_student_onehot_labels(self):
        p = cas.StudentParams(
            [(np.zeros((4, 3)), np.zeros(3)), (np.zeros((3, 3)), np.zeros(3))]
        )
        mixed_inputs = np.ones((2, 4))
        mixed_labels = np.eye(3)[:2].astype(float)
        got = cas.mixup_loss(p, mixed_inputs, mixed_labels, 2).value
        assert abs(got - np.log(3.0)) < 1e-12

    def test_soft_labels_against_uniform_student(self):
        p = cas.StudentParams(
            [(np.zeros((2, 2)), np.zeros(2)), (np.zeros((2, 2)), np.zeros(2))]
        )
        got = cas.mixup_loss(p, np.ones((1, 2)), np.array([[0.5, 0.5]]), 1).value
        assert abs(got - np.log(2.0)) < 1e-12

    def test_zero_labeled_count_rejected(self):
        p = random_student(np.random.default_rng(0), 2, 2, 2)
        with pytest.raises(ValueError, match="labeled_count"):
            cas.mixup_loss(p, np.ones((1, 4)), np.array([[1.0, 0.0]]), 0)


class TestMixupState:
    def test_first_observation_initializes(self):
        state = cas.MixupState(lam=0.1)
        state = cas.update_ema(state, 0.4)
        assert state.initialized and state.ema_loss == 0.4

    def test_constant_loss_is_fixed_point(self):
        state = cas.update_ema(cas.MixupState(lam=0.1), 0.7)
        for _ in range(10):
            state = cas.update_ema(state, 0.7)
        assert state.ema_loss == pytest.approx(0.7, abs=1e-15)

    def test_ema_arithmetic(self):
        state = cas.MixupState(lam=0.1, ema_loss=0.4, sigma=0.1, initialized=True)
        state = cas.update_ema(state, 0.2)
        assert state.ema_loss == pytest.approx(0.22, abs=1e-15)

    def test_lambda_stable_at_reference_loss(self):
        state = cas.MixupState(lam=0.3, ema_loss=0.1, tau=0.1, gamma=0.9, initialized=True)
        assert cas.update_lambda(state).lam == pytest.approx(0.3, abs=1e-15)

    def test_lambda_upper_clamp(self):
        state = cas.MixupState(lam=0.45, ema_loss=0.3, tau=0.1, gamma=0.9, initialized=True)
        # 0.45 + 0.9*(0.3 - 0.1) = 0.63 -> clamped
        assert cas.update_lambda(state).lam == 0.5

    def test_lambda_lower_clamp(self):
        state = cas.MixupState(lam=0.05, ema_loss=0.0, tau=0.1, gamma=1.0, initialized=True)
        assert cas.update_lambda(state).lam == 0.0

    def test_inverted_sign_flag(self):
        state = cas.MixupState(
            lam=0.2, ema_loss=0.3, tau=0.1, gamma=0.5, initialized=True, sign_inverted=True
        )
        # drift = -0.5*(0.3-0.1) = -0.1
        assert cas.update_lambda(state).lam == pytest.approx(0.1, abs=1e-15)

    def test_uninitialized_lambda_update_rejected(self):
        with pytest.raises(ValueError, match="EMA"):
            cas.update_lambda(cas.MixupState(lam=0.1))

    def test_invalid_loss_rejected(self):
        state = cas.MixupState(lam=0.1)
        with pytest.raises(ValueError, match="finite"):
            cas.update_ema(state, float("nan"))
        with pytest.raises(ValueError, match=">= 0"):
            cas.update_ema(state, -0.5)

    def test_bounds_validated_on_construction(self):
        with pytest.raises(ValueError, match="lambda"):
            cas.MixupState(lam=0.6)


def small_training_setup(seed=0, dtype=np.float64, n=24, d=5, hidden=4, c=3):
    import mlpcascade.graphio as gio

    g = gio.synth_sbm(n, c, d, 0.6, 0.05, 0.8, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    teacher_probs = make_soft_labels(rng, n, c).astype(dtype)
    return g, teacher_probs


class TestTrainStudent:
    def test_single_epoch_takes_single_step(self):
        g, teacher_probs = small_training_setup()
        cfg = cas.CascadeConfig(
            n_students=1, hidden_dim=4, n_layers=2, max_epochs=1, patience=0,
            dropout=0.0, seed=0,
        )
        init = cas.init_student(g.feat_dim, 4, g.n_classes, 2, np.random.default_rng(0), np.float64)
        h0 = np.zeros((g.n_nodes, 4))
        params, h_k, state, meta = cas.train_student(
            1, g, teacher_probs, h0, init, cfg, cfg.mixup.initial_state()
        )
        assert meta.epochs == 1
        assert len(meta.losses) == 1
        assert params.fingerprint() != init.fingerprint()

    def test_patience_zero_bound(self):
        with pytest.raises(ValueError, match="patience"):
            cas.CascadeConfig(max_epochs=1, patience=1)

    def test_lambda_history_within_bounds(self):
        g, teacher_probs = small_training_setup(seed=3)
        cfg = cas.CascadeConfig(
            n_students=2, hidden_dim=4, n_layers=2, max_epochs=12, patience=11,
            dropout=0.2, seed=1,
        )
        init = cas.init_student(g.feat_dim, 4, g.n_classes, 2, np.random.default_rng(1), np.float64)
        h0 = np.zeros((g.n_nodes, 4))
        state = cfg.mixup.initial_state()
        for k in (1, 2):
            params, h0, state, meta = cas.train_student(k, g, teacher_probs, h0, init, cfg, state)
            assert all(0.0 <= lam <= 0.5 for lam in meta.lambda_history)
            init = cas.warm_start(params)

    def test_duplicated_ce_trajectory_matches_reference(self):
        """alpha=1 with lambda frozen at 0 and no dropout reduces every epoch
        to (k^beta + 1) times the supervised CE gradient; a from-scratch
        reference loop (own forward, backward, and optimizer) must produce
        the same parameter trajectory."""
        g, teacher_probs = small_training_setup(seed=6)
        k = 2
        beta = 0.8
        epochs = 5
        cfg = cas.CascadeConfig(
            n_students=1, hidden_dim=4, n_layers=2, lr=0.01, weight_decay=0.004,
            dropout=0.0, max_epochs=epochs, patience=epochs - 1,
            distill=cas.DistillConfig(alpha=1.0, beta=beta),
            mixup=cas.MixupConfig(gamma=0.0, lambda_init=0.0),
            seed=9,
        )
        rng = np.random.default_rng(9)
        init = cas.init_student(g.feat_dim, 4, g.n_classes, 2, rng, np.float64)
        h0 = np.zeros((g.n_nodes, 4), dtype=np.float64)
        params, _, _, meta = cas.train_student(
            1, g, teacher_probs, h0, init, cfg, cfg.mixup.initial_state()
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
        inputs = np.concatenate([g.features, h0], axis=1)
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
        teacher_probs = make_soft_labels(rng, tiny_graph.n_nodes, tiny_graph.n_classes).astype(np.float32)
        cfg = cas.CascadeConfig(
            n_students=1, hidden_dim=16, n_layers=2, lr=0.01, dropout=0.0,
            max_epochs=60, patience=59, distill=cas.DistillConfig(alpha=1.0, beta=0.8), seed=2,
        )
        init = cas.init_student(
            tiny_graph.feat_dim, 16, tiny_graph.n_classes, 2, np.random.default_rng(2), np.float32
        )
        h0 = np.zeros((tiny_graph.n_nodes, 16), dtype=np.float32)
        _, _, _, meta = cas.train_student(
            1, tiny_graph, teacher_probs, h0, init, cfg, cfg.mixup.initial_state()
        )
        assert meta.best_val_acc == 1.0
        assert meta.best_epoch < cfg.max_epochs


class TestFullLossGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_total_loss_passes_fd_check(self, seed):
        rng = np.random.default_rng(seed)
        n, d, hidden, c = 20, 7, 4, 3
        x = rng.standard_normal((n, d))
        h_prev = rng.standard_normal((n, hidden))
        teacher_probs = make_soft_labels(rng, n, c)
        y = np.eye(c)[rng.integers(0, c, n)].astype(float)
        labeled = np.sort(rng.choice(n, size=6, replace=False))
        pairs = cas.sample_mixup_pairs(labeled, seed=seed)
        base = random_student(rng, d, hidden, c)
        names = [f"{kind}{i}" for i in (1, 2) for kind in ("w", "b")]

        def loss(p):
            params = cas.StudentParams(
                [(p["w1"], p["b1"]), (p["w2"], p["b2"])]
            )
            return cas.total_loss_gradpair(
                params, x, h_prev, teacher_probs, y, labeled, k=2,
                distill_cfg=cas.DistillConfig(alpha=0.5, beta=0.8),
                pairs=pairs, lam=0.3,
            )

        params = base.param_dict()
        assert set(params) == set(names)
        assert finite_diff_check(loss, params) < 1e-4


class TestTrainCascade:
    def make_teacher_artifact(self, g, seed=0):
        cfg = t.TeacherConfig(hidden_dim=8, dropout=0.3, max_epochs=30, patience=29, seed=seed)
        return t.train_teacher(g, cfg)

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
            1, tiny_graph, art.soft_labels, h0, init, cfg, cfg.mixup.initial_state()
        )
        assert c1.students[0].fingerprint() == params.fingerprint()

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

    def test_mismatched_soft_labels_rejected(self, tiny_graph):
        art = self.make_teacher_artifact(tiny_graph)
        bad = dataclasses.replace(art, soft_labels=art.soft_labels[:, :2])
        cfg = cas.CascadeConfig(n_students=1, hidden_dim=8, max_epochs=5, patience=4)
        with pytest.raises(ValueError, match="soft labels"):
            cas.train_cascade(tiny_graph, bad, cfg)

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
        # weights are stored as base64 raw bytes, each student with its fingerprint
        doc = json.loads(path.read_text())
        assert doc["array_encoding"] == "base64-le"
        assert [e["fingerprint"] for e in doc["students"]] == [
            s.fingerprint() for s in c2.students
        ]
        assert all(
            isinstance(a["data"], str)
            for e in doc["students"] for layer in e["layers"] for a in layer.values()
        )
