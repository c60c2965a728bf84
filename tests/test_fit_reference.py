"""Reference copies of the teacher and student trainers as they were before
both ran ``optim.fit`` over the gradient-checked objectives.

Each reference below writes its own epoch loop, forward and backward pass,
as the two trainers did separately. The package's trainers must reproduce
them bit for bit: parameters, soft labels, hidden states, losses, lambda
histories, best epochs and fingerprints.
"""

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.graphio as gio
import mlpcascade.teacher as t
from mlpcascade.numkit import (
    dropout_mask,
    glorot_uniform,
    log_softmax_rows,
    masked_cross_entropy,
    relu,
    softmax_rows,
    spmm,
)
from mlpcascade.optim import AdamW
from mlpcascade.params import LayerStack

DTYPES = [np.float32, np.float64]


def ref_init(dims, rng, dtype):
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = glorot_uniform(rng, fan_in, fan_out, dtype)
        b = np.zeros(fan_out, dtype=dtype)
        layers.append((w, b))
    return LayerStack(layers)


# ---------------------------------------------------------------------------
# teacher
# ---------------------------------------------------------------------------


def ref_teacher_forward(norm_adj, x, p, training, dropout, rng):
    a = x
    caches = []
    last = p.n_layers - 1
    for li, (w, b) in enumerate(p.layers):
        if training and dropout > 0.0:
            mask = dropout_mask(rng, a.shape, dropout, a.dtype)
            a_in = a * mask
        else:
            mask = None
            a_in = a
        z = spmm(norm_adj, a_in @ w) + b
        caches.append((a_in, mask, z))
        a = relu(z) if li < last else z
    return a, caches


def ref_teacher_backward(norm_adj, p, caches, dlogits):
    grads = {}
    d_z = dlogits
    for li in reversed(range(p.n_layers)):
        a_in, mask, _ = caches[li]
        w, _b = p.layers[li]
        dz_agg = spmm(norm_adj, d_z)
        grads[f"w{li + 1}"] = a_in.T @ dz_agg
        grads[f"b{li + 1}"] = d_z.sum(axis=0)
        if li > 0:
            da = dz_agg @ w.T
            if mask is not None:
                da = da * mask
            z_prev = caches[li - 1][2]
            d_z = da * (z_prev > 0)
    return grads


def ref_eval_projection(norm_adj, x, p):
    a = x
    for w, b in p.layers[:-1]:
        a = relu(spmm(norm_adj, a @ w) + b)
    return a @ p.layers[-1][0]


def ref_train_teacher(g, cfg):
    rng = np.random.default_rng(cfg.seed)
    dims = [g.feat_dim] + [cfg.hidden_dim] * (cfg.depth - 1) + [g.n_classes]
    params = ref_init(dims, rng, g.features.dtype)
    norm_adj = gio.normalize_adjacency(g.adjacency)
    adj_val = norm_adj[g.splits.validation]
    val_truth = np.argmax(g.labels[g.splits.validation], axis=1)
    opt = AdamW(params.param_dict(), lr=cfg.lr, weight_decay=cfg.weight_decay)

    best_acc = -1.0
    since_best = 0
    losses = []
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        logits, caches = ref_teacher_forward(
            norm_adj, g.features, params, True, cfg.dropout, rng
        )
        ce = masked_cross_entropy(logits, g.labels, g.splits.labeled)
        grads = ref_teacher_backward(norm_adj, params, caches, ce.grads["logits"])
        opt.step(grads)
        losses.append(ce.value)

        hw = ref_eval_projection(norm_adj, g.features, params)
        val_logits = spmm(adj_val, hw) + params.layers[-1][1]
        val_acc = float(np.mean(np.argmax(val_logits, axis=1) == val_truth))
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = params.copy()
            best_hw = hw
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    logits = spmm(norm_adj, best_hw) + best_params.layers[-1][1]
    meta = t.TrainMeta(epochs_run, best_epoch, best_acc, cfg.seed, losses)
    return t.TeacherArtifact(best_params, softmax_rows(logits), meta, logits)


def assert_same_stack(a, b):
    assert a.fingerprint() == b.fingerprint()
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers, strict=True):
        assert wa.dtype == wb.dtype and np.array_equal(wa, wb)
        assert ba.dtype == bb.dtype and np.array_equal(ba, bb)


def assert_same_teacher(got, ref):
    assert_same_stack(got.params, ref.params)
    assert np.array_equal(got.soft_labels, ref.soft_labels)
    assert np.array_equal(got.logits, ref.logits)
    assert got.soft_label_fingerprint() == ref.soft_label_fingerprint()
    assert got.train_meta == ref.train_meta


def teacher_graph(dtype):
    return gio.synth_sbm(150, 3, 12, 0.15, 0.05, 3.0, seed=2, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("depth", [2, 3])
def test_teacher_matches_reference(depth, dropout, dtype):
    g = teacher_graph(dtype)
    cfg = t.TeacherConfig(
        hidden_dim=8, dropout=dropout, depth=depth, max_epochs=15, patience=14, seed=5
    )
    assert_same_teacher(t.train_teacher(g, cfg), ref_train_teacher(g, cfg))


@pytest.mark.parametrize("dtype", DTYPES)
def test_teacher_early_stop_matches_reference(dtype):
    g = teacher_graph(dtype)
    cfg = t.TeacherConfig(hidden_dim=8, dropout=0.5, max_epochs=200, patience=5, seed=1)
    got = t.train_teacher(g, cfg)
    assert got.train_meta.epochs < cfg.max_epochs
    assert_same_teacher(got, ref_train_teacher(g, cfg))


# ---------------------------------------------------------------------------
# students
# ---------------------------------------------------------------------------


def ref_student_forward(p, inputs, training, dropout, rng):
    a = inputs
    caches = []
    h = None
    n_hidden = p.n_layers - 1
    for li in range(n_hidden):
        w, b = p.layers[li]
        z = a @ w + b
        r = relu(z)
        if li == n_hidden - 1:
            h = r
        if training and dropout > 0.0:
            mask = dropout_mask(rng, r.shape, dropout, r.dtype)
            nxt = r * mask
        else:
            mask = None
            nxt = r
        caches.append((a, z, mask))
        a = nxt
    w, b = p.layers[-1]
    logits = a @ w + b
    caches.append((a, None, None))
    return h, logits, caches


def ref_student_backward(p, caches, dlogits):
    grads = {}
    n = p.n_layers
    a_last = caches[-1][0]
    grads[f"w{n}"] = a_last.T @ dlogits
    grads[f"b{n}"] = dlogits.sum(axis=0)
    da = dlogits @ p.layers[-1][0].T
    for li in reversed(range(n - 1)):
        a_prev, z, mask = caches[li]
        if mask is not None:
            da = da * mask
        dz = da * (z > 0)
        grads[f"w{li + 1}"] = a_prev.T @ dz
        grads[f"b{li + 1}"] = dz.sum(axis=0)
        if li > 0:
            da = dz @ p.layers[li][0].T
    return grads


def ref_mixup_examples(x, h_prev, y, pairs, lam):
    i = pairs[:, 0]
    j = pairs[:, 1]
    cat_i = np.concatenate([x[i], h_prev[i]], axis=1)
    cat_j = np.concatenate([x[j], h_prev[j]], axis=1)
    return lam * cat_i + (1.0 - lam) * cat_j, lam * y[i] + (1.0 - lam) * y[j]


def ref_mixup_loss(p, mixed_inputs, mixed_labels, labeled_count, dropout, rng):
    _, logits, caches = ref_student_forward(p, mixed_inputs, True, dropout, rng)
    logp = log_softmax_rows(logits)
    value = float(-(mixed_labels * logp).sum() / labeled_count)
    dlogits = (softmax_rows(logits) - mixed_labels) / labeled_count
    return value, ref_student_backward(p, caches, dlogits)


def ref_train_student(k, g, teacher_probs, h_prev, init, cfg, state):
    labeled = g.splits.labeled
    all_nodes = np.arange(g.n_nodes)
    rng = np.random.default_rng([cfg.seed, k])
    params = init.copy()
    init_fp = init.fingerprint()
    inputs = np.concatenate([g.features, h_prev], axis=1)
    val_idx = g.splits.validation
    inputs_val = inputs[val_idx]
    y_val = np.argmax(g.labels[val_idx], axis=1)
    opt = AdamW(params.param_dict(), lr=cfg.lr, weight_decay=cfg.weight_decay)

    best_acc = -1.0
    best_params = params.copy()
    best_epoch = 0
    since_best = 0
    losses = []
    lambda_history = [state.lam]
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        _, logits, caches = ref_student_forward(params, inputs, True, cfg.dropout, rng)
        distill = cas.distill_loss(
            logits, teacher_probs, g.labels, labeled, all_nodes, k, cfg.distill
        )
        grads = ref_student_backward(params, caches, distill.grads["logits"])

        pairs = cas.sample_mixup_pairs(labeled, np.random.SeedSequence([cfg.seed, k, epoch]))
        mixed_inputs, mixed_labels = ref_mixup_examples(
            g.features, h_prev, g.labels, pairs, state.lam
        )
        mix_value, mix_grads = ref_mixup_loss(
            params, mixed_inputs, mixed_labels, labeled.size, cfg.dropout, rng
        )

        opt.step({name: grads[name] + mix_grads[name] for name in grads})
        state = cas.update_lambda(cas.update_ema(state, mix_value))
        losses.append(distill.value + mix_value)
        lambda_history.append(state.lam)

        _, val_logits = cas.student_forward(params, inputs_val)
        val_acc = float(np.mean(np.argmax(val_logits, axis=1) == y_val))
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = params.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    h_k, _ = cas.student_forward(best_params, inputs)
    meta = cas.StudentTrainMeta(
        epochs=epochs_run,
        best_epoch=best_epoch,
        best_val_acc=best_acc,
        final_lambda=state.lam,
        init_fingerprint=init_fp,
        lambda_history=lambda_history,
        losses=losses,
    )
    return best_params, h_k, state, meta


def run_chain(train, g, teacher_probs, cfg):
    """Students 1..K as ``train_cascade`` chains them, with ``train`` as the
    per-student trainer."""
    dims = [g.feat_dim + cfg.hidden_dim] + [cfg.hidden_dim] * (cfg.n_layers - 1)
    init = ref_init(dims + [g.n_classes], np.random.default_rng([cfg.seed, 0]),
                    g.features.dtype)
    h = np.zeros((g.n_nodes, cfg.hidden_dim), dtype=g.features.dtype)
    state = cfg.mixup.initial_state()
    out = []
    for k in range(1, cfg.n_students + 1):
        params, h, state, meta = train(k, g, teacher_probs, h, init, cfg, state)
        out.append((params, h, state, meta))
        init = params.copy()
    return out


def cascade_setup(dtype):
    g = gio.synth_sbm(150, 3, 10, 0.15, 0.04, 2.5, seed=6, dtype=dtype)
    rng = np.random.default_rng(7)
    teacher_probs = softmax_rows(rng.standard_normal((g.n_nodes, g.n_classes))).astype(dtype)
    art = t.TeacherArtifact(LayerStack([]), teacher_probs, t.TrainMeta(1, 1, 0.0, 0))
    return g, art


def assert_same_cascade(g, art, cfg):
    got = run_chain(cas.train_student, g, art.soft_labels, cfg)
    ref = run_chain(ref_train_student, g, art.soft_labels, cfg)
    for (p1, h1, s1, m1), (p2, h2, s2, m2) in zip(got, ref, strict=True):
        assert_same_stack(p1, p2)
        assert h1.dtype == h2.dtype and np.array_equal(h1, h2)
        assert s1 == s2
        assert m1 == m2
    casc = cas.train_cascade(g, art, cfg)
    ref_stacks = [p for p, _, _, _ in ref]
    assert casc.fingerprint() == cas.Cascade(ref_stacks, [], "").fingerprint()
    assert casc.metas == [m for _, _, _, m in ref]
    return casc


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("n_layers", [2, 3])
def test_cascade_matches_reference(n_layers, dropout, dtype):
    g, art = cascade_setup(dtype)
    cfg = cas.CascadeConfig(
        n_students=2, hidden_dim=8, n_layers=n_layers, dropout=dropout, lr=0.01,
        max_epochs=12, patience=11, seed=3,
    )
    assert_same_cascade(g, art, cfg)


@pytest.mark.parametrize("dtype", DTYPES)
def test_cascade_early_stop_matches_reference(dtype):
    g, art = cascade_setup(dtype)
    cfg = cas.CascadeConfig(
        n_students=2, hidden_dim=8, dropout=0.5, lr=0.01, max_epochs=200, patience=4,
        seed=2,
    )
    casc = assert_same_cascade(g, art, cfg)
    assert all(m.epochs < cfg.max_epochs for m in casc.metas)
