"""Progressive training of warm-started MLP students.

The cascade trains K students in sequence. Student k consumes the raw node
features concatenated with the previous student's hidden representations
(zeros for k=1), starts from a copy of student k-1's weights, and minimizes

    total_k = k^beta * (alpha * CE_labeled + (1-alpha) * KL_all_nodes)
              + mixup cross entropy over interpolated labeled pairs

The mixup interpolation coefficient adapts over time: an exponential moving
average of the mixup loss drives it up or down (clamped to [0, 0.5]), so the
synthetic examples get harder as training settles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .graphio import Graph
from .numkit import (
    GradPair,
    dropout_mask,
    fingerprint,
    glorot_uniform,
    kl_divergence,
    log_softmax_rows,
    masked_cross_entropy,
    relu,
    softmax_rows,
)
from .optim import AdamW, TrainingDivergedError
from .teacher import (
    TeacherArtifact,
    _dataclass_from_json,
    _layers_from_json,
    _layers_to_json,
    _json_object,
    _read_manifest,
    _write_manifest,
)


@dataclass
class StudentParams:
    """Per-layer (weight, bias) pairs of one MLP student.

    Every student in a cascade is shape-identical: the first layer takes
    d + d' inputs (raw features plus the previous hidden state, zero-padded
    for the first student), interior layers are d' wide, and the final layer
    maps d' to the class count.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    @property
    def feat_dim(self) -> int:
        """Width of the raw-feature part of the input."""
        return self.input_dim - self.hidden_dim

    def shape_vector(self) -> tuple:
        return tuple((w.shape, b.shape) for w, b in self.layers)

    def param_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(self.layers, start=1):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out

    def copy(self) -> "StudentParams":
        return StudentParams([(w.copy(), b.copy()) for w, b in self.layers])

    def fingerprint(self) -> str:
        return fingerprint(*(a for pair in self.layers for a in pair))


@dataclass
class DistillConfig:
    """Distillation loss weights: alpha blends CE against KL, beta grows the
    whole term as k^beta for later students."""

    alpha: float = 0.5
    beta: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        if self.beta < 0.0:
            raise ValueError(f"beta {self.beta} must be >= 0")


@dataclass(frozen=True)
class MixupState:
    """Adaptive mixing-rate state threaded through the whole cascade.

    ``lam`` is the interpolation coefficient in [0, 0.5]; ``ema_loss`` tracks
    the mixup loss. With ``sign_inverted`` the drift direction flips (lam
    grows when the loss is *below* tau instead of above it).
    """

    lam: float
    ema_loss: float = 0.0
    gamma: float = 0.9
    tau: float = 0.1
    sigma: float = 0.1
    initialized: bool = False
    sign_inverted: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lam <= 0.5:
            raise ValueError(f"lambda {self.lam} outside [0, 0.5]")
        if self.gamma < 0.0:
            # gamma = 0 freezes the mixing rate, a useful ablation switch
            raise ValueError(f"gamma {self.gamma} must be >= 0")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma {self.sigma} outside [0, 1]")


@dataclass
class MixupConfig:
    gamma: float = 0.9
    tau: float = 0.1
    sigma: float = 0.1
    lambda_init: float = 0.1
    sign_inverted: bool = False

    def initial_state(self) -> MixupState:
        return MixupState(
            lam=self.lambda_init,
            gamma=self.gamma,
            tau=self.tau,
            sigma=self.sigma,
            sign_inverted=self.sign_inverted,
        )


@dataclass
class CascadeConfig:
    n_students: int = 10
    hidden_dim: int = 128
    n_layers: int = 2
    lr: float = 0.001
    weight_decay: float = 5e-4
    dropout: float = 0.5
    max_epochs: int = 200
    patience: int = 50
    distill: DistillConfig = field(default_factory=DistillConfig)
    mixup: MixupConfig = field(default_factory=MixupConfig)
    seed: int = 0

    def __post_init__(self):
        if self.n_students < 1:
            raise ValueError(f"n_students {self.n_students} must be >= 1")
        if self.n_layers < 2:
            raise ValueError(f"n_layers {self.n_layers} must be >= 2")
        if self.patience >= self.max_epochs:
            raise ValueError(
                f"patience {self.patience} must be < max_epochs {self.max_epochs}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout {self.dropout} outside [0, 1)")


@dataclass
class StudentTrainMeta:
    epochs: int
    best_epoch: int
    best_val_acc: float
    final_lambda: float
    init_fingerprint: str
    lambda_history: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)


@dataclass
class Cascade:
    """An ordered list of trained, shape-identical students."""

    students: list[StudentParams]
    metas: list[StudentTrainMeta]
    teacher_fingerprint: str
    config: Optional[CascadeConfig] = None

    @property
    def n_students(self) -> int:
        return len(self.students)

    def fingerprint(self) -> str:
        return fingerprint(
            *(a for s in self.students for pair in s.layers for a in pair)
        )


def init_student(
    feat_dim: int,
    hidden_dim: int,
    n_classes: int,
    n_layers: int,
    rng: np.random.Generator,
    dtype,
) -> StudentParams:
    dims = [feat_dim + hidden_dim] + [hidden_dim] * (n_layers - 1) + [n_classes]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        layers.append(
            (glorot_uniform(rng, fan_in, fan_out, dtype), np.zeros(fan_out, dtype=dtype))
        )
    return StudentParams(layers)


def warm_start(prev: StudentParams) -> StudentParams:
    """Deep copy of a trained student, used to initialize the next one.

    The copy shares nothing with `prev`; training it never mutates `prev`.
    """
    return prev.copy()


def _forward_cache(
    p: StudentParams,
    inputs: np.ndarray,
    training: bool,
    dropout: float,
    rng: np.random.Generator | None,
):
    """MLP forward on pre-concatenated inputs, caching activations for
    backprop. Returns (h, logits, caches) where h is the post-activation
    output of the last hidden layer (pre-dropout)."""
    if inputs.shape[1] != p.input_dim:
        raise ValueError(
            f"input width {inputs.shape[1]} != student input dim {p.input_dim}"
        )
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


def _backward(p: StudentParams, caches, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    grads: dict[str, np.ndarray] = {}
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


def student_forward(
    p: StudentParams,
    x: np.ndarray,
    h_prev: np.ndarray,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One student's forward pass on [x | h_prev].

    Returns (h, logits): h is the post-activation output of the last hidden
    layer and feeds the next student; logits come from the final affine
    layer. h_prev may be all zeros (first student).
    """
    if x.shape[0] != h_prev.shape[0]:
        raise ValueError(f"x rows {x.shape[0]} != h_prev rows {h_prev.shape[0]}")
    if training and dropout > 0.0 and rng is None:
        raise ValueError("training-mode dropout needs an rng")
    inputs = np.concatenate([x, h_prev], axis=1)
    h, logits, _ = _forward_cache(p, inputs, training, dropout, rng)
    return h, logits


def distill_loss(
    logits: np.ndarray,
    teacher_probs: np.ndarray,
    y: np.ndarray,
    labeled,
    all_nodes,
    k: int,
    cfg: DistillConfig,
) -> GradPair:
    """Distillation loss for student k, with gradients w.r.t. the logits:

        k^beta * (alpha * CE(logits, y | labeled) + (1-alpha) * KL(teacher_probs || logits | all))

    Each weighted term is computed only when its weight is nonzero, so
    alpha=1 needs no teacher-side validation and alpha=0 allows an empty
    labeled set.
    """
    if k < 1:
        raise ValueError(f"student index k must be >= 1, got {k}")
    mult = float(k) ** cfg.beta
    value = 0.0
    grad = np.zeros_like(logits)
    if cfg.alpha > 0.0:
        ce = masked_cross_entropy(logits, y, labeled)
        value += cfg.alpha * ce.value
        grad += cfg.alpha * ce.grads["logits"]
    if cfg.alpha < 1.0:
        kd = kl_divergence(teacher_probs, logits, all_nodes)
        value += (1.0 - cfg.alpha) * kd.value
        grad += (1.0 - cfg.alpha) * kd.grads["logits"]
    return GradPair(mult * value, {"logits": mult * grad})


def sample_mixup_pairs(labeled, seed) -> np.ndarray:
    """Pair every labeled node with its image under a seeded uniform
    permutation of the labeled set. Returns an (n, 2) index array."""
    labeled = np.asarray(labeled, dtype=np.int64).ravel()
    if labeled.size < 2:
        raise ValueError(f"mixup needs >= 2 labeled nodes, got {labeled.size}")
    rng = np.random.default_rng(seed)
    return np.column_stack([labeled, rng.permutation(labeled)])


def mixup_examples(
    x: np.ndarray,
    h_prev: np.ndarray,
    y: np.ndarray,
    pairs: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate concatenated inputs and labels along each (i, j) pair:

        row    = lam * [x_i | h_i] + (1 - lam) * [x_j | h_j]
        label  = lam * y_i + (1 - lam) * y_j

    lam=0 reproduces sample j exactly; lam=0.5 is the hardest blend.
    """
    if not 0.0 <= lam <= 0.5:
        raise ValueError(f"lambda {lam} outside [0, 0.5]")
    i = pairs[:, 0]
    j = pairs[:, 1]
    cat_i = np.concatenate([x[i], h_prev[i]], axis=1)
    cat_j = np.concatenate([x[j], h_prev[j]], axis=1)
    mixed_inputs = lam * cat_i + (1.0 - lam) * cat_j
    mixed_labels = lam * y[i] + (1.0 - lam) * y[j]
    return mixed_inputs, mixed_labels


def mixup_loss(
    p: StudentParams,
    mixed_inputs: np.ndarray,
    mixed_labels: np.ndarray,
    labeled_count: int,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> GradPair:
    """Soft-label cross entropy of the student on mixed examples, averaged
    with the labeled-set size as denominator; gradients w.r.t. all student
    parameters (forward runs in training mode)."""
    if labeled_count == 0:
        raise ValueError("mixup_loss: labeled_count must be positive")
    _, logits, caches = _forward_cache(p, mixed_inputs, True, dropout, rng)
    logp = log_softmax_rows(logits)
    value = float(-(mixed_labels * logp).sum() / labeled_count)
    dlogits = (softmax_rows(logits) - mixed_labels) / labeled_count
    return GradPair(value, _backward(p, caches, dlogits))


def update_ema(state: MixupState, current_loss: float) -> MixupState:
    """Fold the epoch's mixup loss into the moving average; the first
    observation initializes the average outright."""
    if not np.isfinite(current_loss) or current_loss < 0.0:
        raise ValueError(f"mixup loss must be finite and >= 0, got {current_loss}")
    if not state.initialized:
        return replace(state, ema_loss=float(current_loss), initialized=True)
    new = state.sigma * state.ema_loss + (1.0 - state.sigma) * float(current_loss)
    return replace(state, ema_loss=new)


def update_lambda(state: MixupState) -> MixupState:
    """lam <- clamp(lam + gamma * (ema - tau), 0, 0.5), drift flipped when
    sign_inverted is set."""
    if not state.initialized:
        raise ValueError("update_lambda before the EMA saw any loss")
    drift = state.gamma * (state.ema_loss - state.tau)
    if state.sign_inverted:
        drift = -drift
    lam = min(max(state.lam + drift, 0.0), 0.5)
    return replace(state, lam=lam)


def total_loss_gradpair(
    p: StudentParams,
    x: np.ndarray,
    h_prev: np.ndarray,
    teacher_probs: np.ndarray,
    y: np.ndarray,
    labeled,
    k: int,
    distill_cfg: DistillConfig,
    pairs: np.ndarray,
    lam: float,
) -> GradPair:
    """Full per-epoch objective (distillation + mixup, dropout off) with
    gradients w.r.t. all student parameters.

    A pure function of the parameters once pairs and lam are fixed, which is
    exactly what the finite-difference checker needs.
    """
    inputs = np.concatenate([x, h_prev], axis=1)
    _, logits, caches = _forward_cache(p, inputs, False, 0.0, None)
    distill = distill_loss(
        logits, teacher_probs, y, labeled, np.arange(x.shape[0]), k, distill_cfg
    )
    grads = _backward(p, caches, distill.grads["logits"])
    mixed_inputs, mixed_labels = mixup_examples(x, h_prev, y, pairs, lam)
    mix = mixup_loss(p, mixed_inputs, mixed_labels, len(np.asarray(labeled).ravel()))
    total = {name: grads[name] + mix.grads[name] for name in grads}
    return GradPair(distill.value + mix.value, total)


def train_student(
    k: int,
    g: Graph,
    teacher_probs: np.ndarray,
    h_prev: np.ndarray,
    init: StudentParams,
    cfg: CascadeConfig,
    state: MixupState,
) -> tuple[StudentParams, np.ndarray, MixupState, StudentTrainMeta]:
    """Train one student per the inner loop of the cascade algorithm.

    Each epoch: training-mode forward -> distillation loss -> mixup loss on
    freshly resampled pairs -> one AdamW step -> EMA and lambda updates.
    Early stopping tracks validation accuracy with patience; the best
    checkpoint is restored and the hidden state handed to the next student is
    recomputed from it in eval mode.
    """
    labeled = g.splits.labeled
    all_nodes = np.arange(g.n_nodes)
    rng = np.random.default_rng([cfg.seed, k])
    params = init.copy()
    init_fp = init.fingerprint()
    inputs = np.concatenate([g.features, h_prev], axis=1)
    val_idx = g.splits.validation
    x_val, h_val = g.features[val_idx], h_prev[val_idx]
    y_val = np.argmax(g.labels[val_idx], axis=1)
    opt = AdamW(params.param_dict(), lr=cfg.lr, weight_decay=cfg.weight_decay)

    best_acc = -1.0
    best_params = params.copy()
    best_epoch = 0
    since_best = 0
    losses: list[float] = []
    lambda_history = [state.lam]
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        _, logits, caches = _forward_cache(params, inputs, True, cfg.dropout, rng)
        distill = distill_loss(
            logits, teacher_probs, g.labels, labeled, all_nodes, k, cfg.distill
        )
        if not np.isfinite(distill.value):
            raise TrainingDivergedError(epoch, "distillation", distill.value)
        grads = _backward(params, caches, distill.grads["logits"])

        pairs = sample_mixup_pairs(labeled, np.random.SeedSequence([cfg.seed, k, epoch]))
        mixed_inputs, mixed_labels = mixup_examples(
            g.features, h_prev, g.labels, pairs, state.lam
        )
        mix = mixup_loss(
            params, mixed_inputs, mixed_labels, labeled.size, cfg.dropout, rng
        )
        if not np.isfinite(mix.value):
            raise TrainingDivergedError(epoch, "mixup", mix.value)

        opt.step({name: grads[name] + mix.grads[name] for name in grads})
        state = update_lambda(update_ema(state, mix.value))
        losses.append(distill.value + mix.value)
        lambda_history.append(state.lam)

        _, val_logits = student_forward(params, x_val, h_val)
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

    h_k, _ = student_forward(best_params, g.features, h_prev)
    meta = StudentTrainMeta(
        epochs=epochs_run,
        best_epoch=best_epoch,
        best_val_acc=best_acc,
        final_lambda=state.lam,
        init_fingerprint=init_fp,
        lambda_history=lambda_history,
        losses=losses,
    )
    return best_params, h_k, state, meta


def train_cascade(g: Graph, teacher: TeacherArtifact, cfg: CascadeConfig) -> Cascade:
    """Train the full cascade: student 1 from seeded random init, every later
    student warm-started from its predecessor, hidden states and the mixup
    state threaded along the chain. The soft labels are cast to the graph's
    dtype after their fingerprint is recorded, so the cascade names the
    teacher it was distilled from at any precision."""
    teacher_fp = teacher.soft_label_fingerprint()
    teacher_probs = teacher.soft_labels.astype(g.features.dtype, copy=False)
    if teacher_probs.shape != (g.n_nodes, g.n_classes):
        raise ValueError(
            f"teacher soft labels {teacher_probs.shape} do not match graph "
            f"({g.n_nodes}, {g.n_classes})"
        )
    rng = np.random.default_rng([cfg.seed, 0])
    init = init_student(
        g.feat_dim, cfg.hidden_dim, g.n_classes, cfg.n_layers, rng, g.features.dtype
    )
    h_prev = np.zeros((g.n_nodes, cfg.hidden_dim), dtype=g.features.dtype)
    state = cfg.mixup.initial_state()

    students: list[StudentParams] = []
    metas: list[StudentTrainMeta] = []
    for k in range(1, cfg.n_students + 1):
        try:
            params, h_prev, state, meta = train_student(
                k, g, teacher_probs, h_prev, init, cfg, state
            )
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                exc.epoch, f"student {k}: {exc.component}", float("nan")
            ) from exc
        students.append(params)
        metas.append(meta)
        init = warm_start(params)
    return Cascade(
        students=students,
        metas=metas,
        teacher_fingerprint=teacher_fp,
        config=cfg,
    )


_META_KEYS = (
    "epochs",
    "best_epoch",
    "best_val_acc",
    "final_lambda",
    "init_fingerprint",
    "lambda_history",
)


def _config_from_json(doc, where: str) -> CascadeConfig:
    doc = _json_object(doc, [f.name for f in fields(CascadeConfig)], where)
    distill = _dataclass_from_json(DistillConfig, doc["distill"], f"{where} distill")
    mixup = _dataclass_from_json(MixupConfig, doc["mixup"], f"{where} mixup")
    return _dataclass_from_json(
        CascadeConfig, {**doc, "distill": distill, "mixup": mixup}, where
    )


def save_cascade(c: Cascade, path) -> None:
    """Checkpoint: JSON manifest (K, dtype, config, per-student meta) with
    each student's base64 little-endian weight arrays and fingerprint."""
    _write_manifest(path, {
        "kind": "cascade-checkpoint",
        "n_students": c.n_students,
        "dtype": str(c.students[0].layers[0][0].dtype),
        "teacher_fingerprint": c.teacher_fingerprint,
        "config": asdict(c.config) if c.config is not None else None,
        "students": [
            {
                "meta": {k: getattr(m, k) for k in _META_KEYS},
                "fingerprint": s.fingerprint(),
                "layers": _layers_to_json(s.layers),
            }
            for s, m in zip(c.students, c.metas)
        ],
    })


def _check_student_shapes(s: StudentParams, first: StudentParams | None, where: str) -> None:
    """Every student is [feat_dim + hidden_dim, hidden_dim, ..., classes]
    wide, feat_dim >= 1, with the layer shapes of the first student."""
    widths = [w.shape[1] for w, _ in s.layers[:-1]]
    if s.n_layers < 2 or widths != [s.hidden_dim] * len(widths) or s.feat_dim < 1:
        raise ValueError(
            f"{where}: layer shapes {[w.shape for w, _ in s.layers]} are not "
            "(feat_dim + hidden_dim, hidden_dim), ..., (hidden_dim, classes)"
        )
    if first is not None and s.shape_vector() != first.shape_vector():
        raise ValueError(
            f"{where}: layer shapes {[w.shape for w, _ in s.layers]} differ from "
            f"student 1's {[w.shape for w, _ in first.layers]}"
        )


def load_cascade(path) -> Cascade:
    """Load and check a cascade checkpoint: K must match the stored
    students, every student the fingerprint stored with it and the layer
    shapes of the others."""
    doc, dtype = _read_manifest(
        path,
        "cascade-checkpoint",
        ("n_students", "teacher_fingerprint", "config", "students"),
        "distill",
    )
    entries = doc["students"]
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: students must be a non-empty list")
    if doc["n_students"] != len(entries):
        raise ValueError(
            f"{path}: n_students is {doc['n_students']!r} but {len(entries)} "
            "students are stored"
        )
    cfg = None if doc["config"] is None else _config_from_json(doc["config"], f"{path} config")
    students: list[StudentParams] = []
    metas: list[StudentTrainMeta] = []
    for k, entry in enumerate(entries, start=1):
        where = f"{path} student {k}"
        entry = _json_object(entry, ("fingerprint", "layers", "meta"), where)
        student = StudentParams(_layers_from_json(entry["layers"], dtype, where))
        if student.fingerprint() != entry["fingerprint"]:
            raise ValueError(f"{where}: weights do not match their stored fingerprint")
        _check_student_shapes(student, students[0] if students else None, where)
        students.append(student)
        metas.append(StudentTrainMeta(**_json_object(entry["meta"], _META_KEYS, f"{where} meta")))
    return Cascade(
        students=students,
        metas=metas,
        teacher_fingerprint=doc["teacher_fingerprint"],
        config=cfg,
    )
