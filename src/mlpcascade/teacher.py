"""Graph-convolution teacher: training, soft-label export, checkpoints.

The teacher is a standard 2-layer graph convolution (an optional third layer
is configurable): each layer projects node activations and aggregates them
with the symmetrically normalized adjacency. Gradients are hand-derived;
training runs the shared ``optim.fit`` loop (AdamW with early stopping on
validation accuracy) and exports soft labels from the best epoch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import graphio
from .graphio import Graph
from .numkit import (
    SparseMatrix,
    accuracy,
    dropout_mask,
    fingerprint,
    masked_cross_entropy,
    relu,
    softmax_rows,
    spmm,
)
from .optim import TrainingDivergedError, check_training_config, fit
from .params import (
    LayerStack,
    dataclass_from_json,
    init_layers,
    json_object,
    layers_from_json,
    layers_to_json,
    read_manifest,
    write_manifest,
)


@dataclass
class TrainMeta:
    """Bookkeeping recorded during a training run."""

    epochs: int
    best_epoch: int
    best_val_acc: float
    seed: int
    losses: list[float] = field(default_factory=list)


@dataclass
class TeacherArtifact:
    """Trained teacher parameters plus the exported soft-label matrix.

    Soft labels are stored as probabilities (each row sums to 1); both the
    distillation KL term and the confidence machinery consume distributions.
    ``logits`` are the eval-mode logits the soft labels were computed from;
    a trained artifact carries them, a loaded one does not (they are not
    checkpointed).
    """

    params: LayerStack
    soft_labels: np.ndarray  # N x C probabilities
    train_meta: TrainMeta
    logits: np.ndarray | None = field(default=None, repr=False)  # N x C

    def soft_label_fingerprint(self) -> str:
        return fingerprint(self.soft_labels)


@dataclass
class TeacherConfig:
    hidden_dim: int = 64
    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.5
    max_epochs: int = 200
    patience: int = 50
    depth: int = 2
    seed: int = 0

    def __post_init__(self):
        check_training_config(self)
        if self.depth not in (2, 3):
            raise ValueError(f"teacher depth must be 2 or 3, got {self.depth}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout {self.dropout} outside [0, 1)")


def init_teacher(
    feat_dim: int,
    hidden_dim: int,
    n_classes: int,
    depth: int,
    rng: np.random.Generator,
    dtype,
) -> LayerStack:
    return init_layers([feat_dim] + [hidden_dim] * (depth - 1) + [n_classes], rng, dtype)


def _forward_cache(
    norm_adj: SparseMatrix,
    x: np.ndarray,
    p: LayerStack,
    dropout: float,
    rng: np.random.Generator | None,
):
    """Forward pass keeping per-layer caches for manual backprop.

    With ``dropout > 0`` (training), dropout is applied to each layer's
    input, i.e. to the raw features and to every hidden activation.
    """
    a = x
    caches = []
    last = p.n_layers - 1
    for li, (w, b) in enumerate(p.layers):
        if dropout > 0.0:
            mask = dropout_mask(rng, a.shape, dropout, a.dtype)
            a_in = a * mask
        else:
            mask = None
            a_in = a
        z = spmm(norm_adj, a_in @ w) + b
        caches.append((a_in, mask, z))
        a = relu(z) if li < last else z
    return a, caches


def _eval_projection(norm_adj: SparseMatrix, x: np.ndarray, p: LayerStack) -> np.ndarray:
    """Eval-mode hidden layers over every row, then the last layer's
    projection ``H @ W_last``, left unaggregated: the logits of any set of
    rows R are ``spmm(norm_adj[R], hw) + b_last``, the same bits as the
    full-graph logits' rows R, since a row slice keeps each row's entry
    order."""
    a = x
    for w, b in p.layers[:-1]:
        a = relu(spmm(norm_adj, a @ w) + b)
    return a @ p.layers[-1][0]


def gcn_forward(norm_adj: SparseMatrix, x: np.ndarray, p: LayerStack) -> np.ndarray:
    """Eval-mode teacher logits: A_hat . relu(A_hat . x . w1 + b1) . w2 + b2,
    the same operations as the validation forward of ``train_teacher``."""
    if x.shape[0] != norm_adj.shape[0]:
        raise ValueError(
            f"features rows {x.shape[0]} != adjacency size {norm_adj.shape[0]}"
        )
    if x.shape[1] != p.layers[0][0].shape[0]:
        raise ValueError(
            f"feature width {x.shape[1]} != first-layer fan-in {p.layers[0][0].shape[0]}"
        )
    return spmm(norm_adj, _eval_projection(norm_adj, x, p)) + p.layers[-1][1]


def _backward(
    norm_adj: SparseMatrix,
    p: LayerStack,
    caches,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Backprop dlogits through the graph-conv layers (adjacency is symmetric,
    so aggregation transposes to itself)."""
    grads: dict[str, np.ndarray] = {}
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


def teacher_ce_gradpair(
    norm_adj: SparseMatrix,
    x: np.ndarray,
    p: LayerStack,
    labels: np.ndarray,
    mask,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Cross entropy of the forward (dropout masks drawn from ``rng`` when
    ``dropout > 0``) plus gradients w.r.t. all teacher parameters: the
    training objective, and the gradient-check entry point."""
    logits, caches = _forward_cache(norm_adj, x, p, dropout, rng)
    ce = masked_cross_entropy(logits, labels, mask)
    ce.grads = _backward(norm_adj, p, caches, ce.grads["logits"])
    return ce


def train_teacher(g: Graph, cfg: TeacherConfig) -> TeacherArtifact:
    """Train the teacher with cross entropy on the labeled split.

    ``optim.fit`` runs the epochs with early stopping on validation
    accuracy and hands back the best epoch's parameters; soft labels are
    computed from them in eval mode.

    The adjacency is normalized once. Each epoch's eval forward runs the
    hidden layers on every row but aggregates the last layer over the
    validation rows only. The best epoch's unaggregated last layer is kept,
    so the soft labels cost one aggregation, not a fresh forward; they and
    the returned ``logits`` are the same bits as ``gcn_forward`` of the best
    parameters.
    """
    check_training_config(cfg)  # before cfg sizes any array
    if g.splits.labeled.size == 0 or g.splits.validation.size == 0:
        raise ValueError("training needs non-empty labeled and validation splits")
    rng = np.random.default_rng(cfg.seed)
    params = init_teacher(
        g.feat_dim, cfg.hidden_dim, g.n_classes, cfg.depth, rng, g.features.dtype
    )
    norm_adj = graphio.normalize_adjacency(g.adjacency)
    adj_val = norm_adj[g.splits.validation]
    val_truth = np.argmax(g.labels[g.splits.validation], axis=1)

    def step(epoch: int):
        ce = teacher_ce_gradpair(
            norm_adj, g.features, params, g.labels, g.splits.labeled, cfg.dropout, rng
        )
        if not np.isfinite(ce.value):
            raise TrainingDivergedError(epoch, "cross-entropy", ce.value)
        return ce.value, ce.grads

    def validate():
        hw = _eval_projection(norm_adj, g.features, params)
        return accuracy(spmm(adj_val, hw) + params.layers[-1][1], val_truth), hw

    run = fit(params, cfg, step, validate)
    logits = spmm(norm_adj, run.kept) + run.params.layers[-1][1]
    meta = TrainMeta(
        epochs=run.epochs,
        best_epoch=run.best_epoch,
        best_val_acc=run.best_val_acc,
        seed=cfg.seed,
        losses=run.losses,
    )
    return TeacherArtifact(
        params=run.params, soft_labels=softmax_rows(logits), train_meta=meta, logits=logits
    )


def export_soft_labels(t: TeacherArtifact, path) -> None:
    """Write the soft-label matrix as CSV with 9 significant digits at
    float32 and 17 at float64, so the round trip is bit-exact."""
    digits = 9 if t.soft_labels.dtype == np.float32 else 17
    graphio._write_csv(path, t.soft_labels, f"%.{digits}g")


def import_soft_labels(path, dtype=np.float32) -> np.ndarray:
    probs = graphio._read_features(Path(path), dtype)
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-5):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"{path}: row {bad} is not a probability distribution")
    return probs


_TRAIN_META_KEYS = ("epochs", "best_epoch", "best_val_acc", "seed")


def save_teacher(t: TeacherArtifact, cfg: TeacherConfig, path) -> None:
    """Checkpoint: JSON manifest (hyperparameters, training record, dtype)
    with base64 little-endian weight arrays, the fingerprint of the weights
    and the soft-label fingerprint that ``load_teacher`` checks the
    soft-label file against."""
    write_manifest(path, {
        "kind": "teacher-checkpoint",
        "dtype": str(t.params.layers[0][0].dtype),
        "config": asdict(cfg),
        "train_meta": {k: getattr(t.train_meta, k) for k in _TRAIN_META_KEYS},
        "soft_label_fingerprint": t.soft_label_fingerprint(),
        "fingerprint": t.params.fingerprint(),
        "layers": layers_to_json(t.params),
    })


def load_teacher(path, soft_labels_path) -> tuple[TeacherArtifact, TeacherConfig]:
    """Load and check a teacher checkpoint and its soft labels: the weights
    must match their fingerprint and the configured depth and width, the
    soft labels theirs."""
    doc, dtype = read_manifest(
        path,
        "teacher-checkpoint",
        ("config", "train_meta", "soft_label_fingerprint", "fingerprint", "layers"),
        "train-teacher",
    )
    cfg = dataclass_from_json(TeacherConfig, doc["config"], f"{path} config")
    meta = TrainMeta(**json_object(doc["train_meta"], _TRAIN_META_KEYS, f"{path} train_meta"))
    params = layers_from_json(doc["layers"], dtype, str(path))
    if params.fingerprint() != doc["fingerprint"]:
        raise ValueError(f"{path}: teacher weights do not match their stored fingerprint")
    widths = [w.shape[1] for w, _ in params.layers[:-1]]
    if params.n_layers != cfg.depth or widths != [cfg.hidden_dim] * (cfg.depth - 1):
        raise ValueError(
            f"{path}: layer widths {widths} do not match depth {cfg.depth} and "
            f"hidden_dim {cfg.hidden_dim} of its config"
        )
    soft = import_soft_labels(soft_labels_path, dtype)
    if fingerprint(soft) != doc["soft_label_fingerprint"]:
        raise ValueError(
            f"{soft_labels_path}: soft labels do not match the "
            f"soft_label_fingerprint in {path}"
        )
    return TeacherArtifact(params, soft, meta), cfg
