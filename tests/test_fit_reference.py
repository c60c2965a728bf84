"""Reference copies of the teacher and student trainers as they were before
both ran ``optim.fit`` over the gradient-checked objectives.

Each reference below writes its own epoch loop, forward and backward pass,
as the two trainers did separately, with out-of-place numpy operations
throughout. The kernels they call (dropout masks, softmaxes, the losses, the
mixup-rate rule and AdamW) are frozen copies too, so a rewrite of the
package's kernels is never checked against itself. The student reference
forms its mixed examples from the first layer's projections, which equal
the projections of the blended inputs, and scatters their gradient back
onto the rows of each pair. The package's trainers must reproduce them bit
for bit: parameters, soft labels, hidden states, eval logits, losses,
lambda histories, best epochs and fingerprints.
"""

import numpy as np
import pytest

import mlpcascade.cascade as cas
import mlpcascade.graphio as gio
import mlpcascade.optim as optim
import mlpcascade.teacher as t
from mlpcascade.numkit import glorot_uniform, soft_targets, spmm
from mlpcascade.params import LayerStack

DTYPES = [np.float32, np.float64]


# ---------------------------------------------------------------------------
# frozen kernels
# ---------------------------------------------------------------------------


def relu(x):
    return np.maximum(x, 0)


def dropout_mask(rng, shape, rate, dtype):
    n = int(np.prod(shape))
    t = round(rate * 65536)
    words = rng.bit_generator.random_raw((n + 3) // 4)
    values = np.stack([(words >> np.uint64(s)) & np.uint64(0xFFFF) for s in (0, 16, 32, 48)], 1)
    keep = values.ravel()[:n].reshape(shape) >= t
    return keep.astype(dtype) * np.asarray(65536 / (65536 - t), dtype=dtype)


def _shifted(logits):
    if logits.dtype.kind != "f":
        logits = logits.astype(np.float64)
    return logits - logits.max(axis=1, keepdims=True)


def log_softmax_rows(logits):
    z = _shifted(logits)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def softmax_rows(logits):
    e = _shifted(logits)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def masked_cross_entropy(logits, onehot, mask):
    idx = np.asarray(mask, dtype=np.intp).ravel()
    sub_logits = logits[idx]
    logp = log_softmax_rows(sub_logits)
    sub_onehot = onehot[idx]
    value = float(-(sub_onehot * logp).sum() / idx.size)
    grad = np.zeros_like(logits)
    grad[idx] = (softmax_rows(sub_logits) - sub_onehot) / idx.size
    return value, grad


def kl_divergence(teacher_probs, student_logits, idx):
    t = teacher_probs[idx]
    logp = log_softmax_rows(student_logits[idx])
    t_log_t = np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
    value = float((t_log_t - t * logp).sum() / idx.size)
    grad = np.zeros_like(student_logits)
    grad[idx] = (softmax_rows(student_logits[idx]) - t) / idx.size
    return value, grad


def distill_loss(logits, teacher_probs, y, labeled, all_nodes, k, cfg):
    mult = float(k) ** cfg.beta
    value = 0.0
    grad = np.zeros_like(logits)
    if cfg.alpha > 0.0:
        ce_value, ce_grad = masked_cross_entropy(logits, y, labeled)
        value += cfg.alpha * ce_value
        grad += cfg.alpha * ce_grad
    if cfg.alpha < 1.0:
        kd_value, kd_grad = kl_divergence(teacher_probs, logits, all_nodes)
        value += (1.0 - cfg.alpha) * kd_value
        grad += (1.0 - cfg.alpha) * kd_grad
    return mult * value, mult * grad


def update_mixup(cfg, lam, ema, loss):
    """The progressive mixup rule: moving average, then clamped drift."""
    ema = loss if ema is None else cfg.sigma * ema + (1.0 - cfg.sigma) * loss
    drift = cfg.gamma * (ema - cfg.tau)
    if cfg.sign_inverted:
        drift = -drift
    return min(max(lam + drift, 0.0), 0.5), ema


class AdamW:
    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p
            p -= self.lr * update


def ref_init(dims, rng, dtype):
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = glorot_uniform(rng, fan_in, fan_out, dtype)
        b = np.zeros(fan_out, dtype=dtype)
        layers.append((w, b))
    return LayerStack(layers)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_adamw_matches_reference(weight_decay, dtype):
    rng = np.random.default_rng(3)
    shapes = {"w1": (30, 7), "b1": (7,), "w2": (7, 3)}
    start = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    got = {k: v.copy() for k, v in start.items()}
    ref = {k: v.copy() for k, v in start.items()}
    opt = optim.AdamW(got, lr=0.01, weight_decay=weight_decay)
    ref_opt = AdamW(ref, lr=0.01, weight_decay=weight_decay)
    for _ in range(25):
        grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        grads["b1"][0] = 0.0  # a zero gradient keeps its sign through the moments
        opt.step({k: g.copy() for k, g in grads.items()})
        ref_opt.step(grads)
        for k in shapes:
            assert got[k].dtype == dtype
            assert np.array_equal(got[k].view(np.uint8), ref[k].view(np.uint8))


# ---------------------------------------------------------------------------
# teacher
# ---------------------------------------------------------------------------


def ref_aggregates_first(p):
    """The first layer aggregates its input, then projects it, when the
    input is no wider than the layer's output."""
    fan_in, fan_out = p.layers[0][0].shape
    return fan_in <= fan_out


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
        if li == 0 and ref_aggregates_first(p):
            a_in = spmm(norm_adj, a_in)
            z = a_in @ w + b
        else:
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
        if li == 0 and ref_aggregates_first(p):
            dz_agg = d_z  # the cached input is aggregated already
        else:
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
    for li, (w, b) in enumerate(p.layers[:-1]):
        if li == 0 and ref_aggregates_first(p):
            a = relu(spmm(norm_adj, a) @ w + b)
        else:
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
        ce_value, ce_grad = masked_cross_entropy(logits, g.labels, g.splits.labeled)
        grads = ref_teacher_backward(norm_adj, params, caches, ce_grad)
        opt.step(grads)
        losses.append(ce_value)

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
    meta = optim.TrainRecord(epochs_run, best_epoch, best_acc, losses)
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
    """12 features against hidden width 8: the first layer projects first."""
    return gio.synth_sbm(150, 3, 12, 0.15, 0.05, 3.0, seed=2, dtype=dtype)


def narrow_teacher_graph(dtype):
    """8 features against hidden width 8 or 16: the first layer aggregates
    first."""
    return gio.synth_sbm(150, 3, 8, 0.15, 0.05, 3.0, seed=2, dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("depth", [2, 3])
def test_teacher_matches_reference(depth, dropout, dtype):
    g = teacher_graph(dtype)
    cfg = t.TeacherConfig(
        hidden_dim=8, dropout=dropout, depth=depth, max_epochs=15, patience=14, seed=5
    )
    got = t.train_teacher(g, cfg)
    assert not ref_aggregates_first(got.params)
    assert_same_teacher(got, ref_train_teacher(g, cfg))


@pytest.mark.parametrize("dtype", DTYPES)
def test_teacher_early_stop_matches_reference(dtype):
    g = teacher_graph(dtype)
    cfg = t.TeacherConfig(hidden_dim=8, dropout=0.5, max_epochs=200, patience=5, seed=1)
    got = t.train_teacher(g, cfg)
    assert got.train_meta.epochs < cfg.max_epochs
    assert_same_teacher(got, ref_train_teacher(g, cfg))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("hidden", [8, 16])
def test_aggregate_first_teacher_matches_reference(hidden, depth, dropout, dtype):
    g = narrow_teacher_graph(dtype)
    cfg = t.TeacherConfig(
        hidden_dim=hidden, dropout=dropout, depth=depth, max_epochs=15, patience=14, seed=5
    )
    got = t.train_teacher(g, cfg)
    assert ref_aggregates_first(got.params)
    assert_same_teacher(got, ref_train_teacher(g, cfg))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("hidden", [8, 16])
def test_aggregate_first_teacher_early_stop_matches_reference(hidden, dtype):
    g = narrow_teacher_graph(dtype)
    cfg = t.TeacherConfig(hidden_dim=hidden, dropout=0.5, max_epochs=200, patience=5, seed=1)
    got = t.train_teacher(g, cfg)
    assert got.train_meta.epochs < cfg.max_epochs
    assert_same_teacher(got, ref_train_teacher(g, cfg))


# ---------------------------------------------------------------------------
# students
# ---------------------------------------------------------------------------


def ref_student_forward(p, inputs, training, dropout, rng, projection=None):
    """``projection``, when given, stands for the first layer's ``inputs @ w1``."""
    a = inputs
    caches = []
    h = None
    n_hidden = p.n_layers - 1
    for li in range(n_hidden):
        w, b = p.layers[li]
        z = (projection if li == 0 and projection is not None else a @ w) + b
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
    """Gradients of layers 2..n, and of the first layer's pre-activation."""
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
        if li == 0:
            return grads, dz
        grads[f"w{li + 1}"] = a_prev.T @ dz
        grads[f"b{li + 1}"] = dz.sum(axis=0)
        da = dz @ p.layers[li][0].T


def ref_mixup_examples(projection, y, pairs, lam):
    """Blends of the first layer's projections: the first layer is affine
    and the blend's weights sum to 1, so these are the projections of the
    blended inputs."""
    i = pairs[:, 0]
    j = pairs[:, 1]
    return (lam * projection[i] + (1.0 - lam) * projection[j],
            lam * y[i] + (1.0 - lam) * y[j])


def ref_mixup_loss(p, mixed, mixed_labels, labeled_count, dropout, rng):
    _, logits, caches = ref_student_forward(p, None, True, dropout, rng, projection=mixed)
    logp = log_softmax_rows(logits)
    value = float(-(mixed_labels * logp).sum() / labeled_count)
    dlogits = (softmax_rows(logits) - mixed_labels) / labeled_count
    return (value, *ref_student_backward(p, caches, dlogits))


def ref_train_student(k, g, teacher_probs, h_prev, init, cfg, lam, ema):
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
    lambda_history = [lam]
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        _, logits, caches = ref_student_forward(params, inputs, True, cfg.dropout, rng)
        distill_value, distill_grad = distill_loss(
            logits, teacher_probs, g.labels, labeled, all_nodes, k, cfg.distill
        )
        grads, dz1 = ref_student_backward(params, caches, distill_grad)

        pairs = cas.sample_mixup_pairs(labeled, np.random.SeedSequence([cfg.seed, k, epoch]))
        mixed, mixed_labels = ref_mixup_examples(
            inputs @ params.layers[0][0], g.labels, pairs, lam
        )
        mix_value, mix_grads, dz_mixed = ref_mixup_loss(
            params, mixed, mixed_labels, labeled.size, cfg.dropout, rng
        )
        # the mixed rows' gradient flows back to their pairs' rows i and j
        # (each a permutation of the labeled set), and one product over
        # every row gives the first layer's gradient of both losses
        i, j = pairs[:, 0], pairs[:, 1]
        dz1[i] = dz1[i] + lam * dz_mixed
        dz1[j] = dz1[j] + (1.0 - lam) * dz_mixed
        step = {name: grads[name] + mix_grads[name] for name in grads}
        step["w1"] = inputs.T @ dz1
        step["b1"] = dz1.sum(axis=0)
        opt.step(step)
        lam, ema = update_mixup(cfg.mixup, lam, ema, mix_value)
        losses.append(distill_value + mix_value)
        lambda_history.append(lam)

        _, val_logits, _ = ref_student_forward(params, inputs_val, False, 0.0, None)
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

    h_k, logits, _ = ref_student_forward(best_params, inputs, False, 0.0, None)
    meta = cas.StudentTrainMeta(
        epochs=epochs_run,
        best_epoch=best_epoch,
        best_val_acc=best_acc,
        losses=losses,
        init_fingerprint=init_fp,
        lambda_history=lambda_history,
        logits=logits,
    )
    return best_params, h_k, ema, meta


def run_chain(train, g, teacher_probs, cfg):
    """Students 1..K as ``train_cascade`` chains them, with ``train`` as the
    per-student trainer: (params, hidden state, lambda, its moving average,
    meta) of each, lambda being the meta's ``final_lambda``."""
    dims = [g.feat_dim + cfg.hidden_dim] + [cfg.hidden_dim] * (cfg.n_layers - 1)
    init = ref_init(dims + [g.n_classes], np.random.default_rng([cfg.seed, 0]),
                    g.features.dtype)
    h = np.zeros((g.n_nodes, cfg.hidden_dim), dtype=g.features.dtype)
    lam, ema = cfg.mixup.lambda_init, None
    out = []
    for k in range(1, cfg.n_students + 1):
        params, h, ema, meta = train(k, g, teacher_probs, h, init, cfg, lam, ema)
        lam = meta.final_lambda
        out.append((params, h, lam, ema, meta))
        init = params.copy()
    return out


def cascade_setup(dtype):
    g = gio.synth_sbm(150, 3, 10, 0.15, 0.04, 2.5, seed=6, dtype=dtype)
    rng = np.random.default_rng(7)
    teacher_probs = softmax_rows(rng.standard_normal((g.n_nodes, g.n_classes))).astype(dtype)
    art = t.TeacherArtifact(LayerStack([]), teacher_probs, optim.TrainRecord(1, 1, 0.0))
    return g, art


def assert_same_meta(got, ref):
    assert got == ref  # every field but the logits
    assert got.logits.dtype == ref.logits.dtype and np.array_equal(got.logits, ref.logits)


def assert_same_cascade(g, art, cfg):
    """The package's student trainer given the ``SoftTargets`` of the soft
    labels, as ``train_cascade`` passes them, and the whole
    ``train_cascade``, against the reference chain given the raw soft
    labels."""
    got = run_chain(cas.train_student, g, soft_targets(art.soft_labels), cfg)
    ref = run_chain(ref_train_student, g, art.soft_labels, cfg)
    for (p1, h1, lam1, ema1, m1), (p2, h2, lam2, ema2, m2) in zip(got, ref, strict=True):
        assert_same_stack(p1, p2)
        assert h1.dtype == h2.dtype and np.array_equal(h1, h2)
        assert lam1 == lam2 and ema1 == ema2
        assert_same_meta(m1, m2)
    casc = cas.train_cascade(g, art, cfg)
    ref_stacks = [p for p, *_ in ref]
    assert casc.fingerprint() == cas.Cascade(ref_stacks, [], "").fingerprint()
    for m1, (*_, m2) in zip(casc.metas, ref, strict=True):
        assert_same_meta(m1, m2)
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


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "mixup",
    [
        cas.MixupConfig(gamma=0.05, tau=0.95),  # climbs from 0.1, short of 0.5
        cas.MixupConfig(gamma=0.3, tau=0.9, sign_inverted=True),  # 0, then climbs
    ],
    ids=["rising", "inverted"],
)
def test_cascade_with_moving_lambda_matches_reference(mixup, dtype):
    # lambda leaves its bounds here, so the rule's values are compared, not
    # only its clamps
    g, art = cascade_setup(dtype)
    cfg = cas.CascadeConfig(
        n_students=2, hidden_dim=8, dropout=0.5, lr=0.01, max_epochs=12, patience=11,
        mixup=mixup, seed=4,
    )
    casc = assert_same_cascade(g, art, cfg)
    inside = [lam for m in casc.metas for lam in m.lambda_history[1:] if 0.0 < lam < 0.5]
    assert len(inside) >= 8
