"""Graph-convolution teacher: training, soft-label export, checkpoints.

The teacher is a standard 2-layer graph convolution (an optional third layer
is configurable): each layer projects node activations and aggregates them
with the symmetrically normalized adjacency. Gradients are hand-derived;
training uses AdamW with early stopping on validation accuracy, restoring the
best checkpoint before soft labels are exported.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import graphio
from .graphio import Graph
from .numkit import (
    SparseMatrix,
    dropout_mask,
    fingerprint,
    glorot_uniform,
    masked_cross_entropy,
    relu,
    softmax_rows,
    spmm,
)
from .optim import AdamW, TrainingDivergedError


@dataclass
class TeacherParams:
    """Per-layer (weight, bias) pairs of the graph-convolution teacher."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def hidden_dim(self) -> int:
        return self.layers[0][0].shape[1]

    # Named accessors for the canonical 2-layer teacher.
    @property
    def w1(self) -> np.ndarray:
        return self.layers[0][0]

    @property
    def b1(self) -> np.ndarray:
        return self.layers[0][1]

    @property
    def w2(self) -> np.ndarray:
        return self.layers[-1][0]

    @property
    def b2(self) -> np.ndarray:
        return self.layers[-1][1]

    def param_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, (w, b) in enumerate(self.layers, start=1):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out

    def copy(self) -> "TeacherParams":
        return TeacherParams([(w.copy(), b.copy()) for w, b in self.layers])

    def fingerprint(self) -> str:
        return fingerprint(*(a for pair in self.layers for a in pair))


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
    """

    params: TeacherParams
    soft_labels: np.ndarray  # N x C probabilities
    train_meta: TrainMeta

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
        if self.patience >= self.max_epochs:
            raise ValueError(
                f"patience {self.patience} must be < max_epochs {self.max_epochs}"
            )
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
) -> TeacherParams:
    dims = [feat_dim] + [hidden_dim] * (depth - 1) + [n_classes]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = glorot_uniform(rng, fan_in, fan_out, dtype)
        b = np.zeros(fan_out, dtype=dtype)
        layers.append((w, b))
    return TeacherParams(layers)


def _forward_cache(
    norm_adj: SparseMatrix,
    x: np.ndarray,
    p: TeacherParams,
    training: bool,
    dropout: float,
    rng: np.random.Generator | None,
):
    """Forward pass keeping per-layer caches for manual backprop.

    Dropout (training only) is applied to each layer's input, i.e. to the raw
    features and to every hidden activation.
    """
    a = x
    caches = []
    last = p.depth - 1
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


def gcn_forward(
    norm_adj: SparseMatrix,
    x: np.ndarray,
    p: TeacherParams,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Teacher logits: A_hat . relu(A_hat . x . w1 + b1) . w2 + b2.

    In training mode, dropout masks the input features and every hidden
    activation; eval mode is deterministic.
    """
    if x.shape[0] != norm_adj.shape[0]:
        raise ValueError(
            f"features rows {x.shape[0]} != adjacency size {norm_adj.shape[0]}"
        )
    if x.shape[1] != p.layers[0][0].shape[0]:
        raise ValueError(
            f"feature width {x.shape[1]} != first-layer fan-in {p.layers[0][0].shape[0]}"
        )
    if training and dropout > 0.0 and rng is None:
        raise ValueError("training-mode dropout needs an rng")
    logits, _ = _forward_cache(norm_adj, x, p, training, dropout, rng)
    return logits


def _backward(
    norm_adj: SparseMatrix,
    p: TeacherParams,
    caches,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Backprop dlogits through the graph-conv layers (adjacency is symmetric,
    so aggregation transposes to itself)."""
    grads: dict[str, np.ndarray] = {}
    d_z = dlogits
    for li in reversed(range(p.depth)):
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
    p: TeacherParams,
    labels: np.ndarray,
    mask,
):
    """Cross entropy of the eval-mode forward plus gradients w.r.t. all
    teacher parameters (the gradient-check entry point)."""
    logits, caches = _forward_cache(norm_adj, x, p, training=False, dropout=0.0, rng=None)
    ce = masked_cross_entropy(logits, labels, mask)
    grads = _backward(norm_adj, p, caches, ce.grads["logits"])
    ce.grads = grads
    return ce


def _split_accuracy(logits: np.ndarray, labels: np.ndarray, idx: np.ndarray) -> float:
    pred = np.argmax(logits[idx], axis=1)
    truth = np.argmax(labels[idx], axis=1)
    return float(np.mean(pred == truth))


def train_teacher(g: Graph, cfg: TeacherConfig) -> TeacherArtifact:
    """Train the teacher with cross entropy on the labeled split.

    Early stopping: training halts after `patience` epochs without a new best
    validation accuracy (ties keep the earlier epoch), and the best checkpoint
    is restored before soft labels are computed in eval mode.
    """
    if g.splits.labeled.size == 0 or g.splits.validation.size == 0:
        raise ValueError("training needs non-empty labeled and validation splits")
    rng = np.random.default_rng(cfg.seed)
    params = init_teacher(
        g.feat_dim, cfg.hidden_dim, g.n_classes, cfg.depth, rng, g.features.dtype
    )
    norm_adj = graphio.normalize_adjacency(g.adjacency)
    opt = AdamW(params.param_dict(), lr=cfg.lr, weight_decay=cfg.weight_decay)

    best_acc = -1.0
    best_params = params.copy()
    best_epoch = 0
    since_best = 0
    losses: list[float] = []
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        logits, caches = _forward_cache(
            norm_adj, g.features, params, training=True, dropout=cfg.dropout, rng=rng
        )
        ce = masked_cross_entropy(logits, g.labels, g.splits.labeled)
        if not np.isfinite(ce.value):
            raise TrainingDivergedError(epoch, "cross-entropy", ce.value)
        grads = _backward(norm_adj, params, caches, ce.grads["logits"])
        opt.step(grads)
        losses.append(ce.value)

        val_logits = gcn_forward(norm_adj, g.features, params)
        val_acc = _split_accuracy(val_logits, g.labels, g.splits.validation)
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = params.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    soft = softmax_rows(gcn_forward(norm_adj, g.features, best_params))
    meta = TrainMeta(
        epochs=epochs_run,
        best_epoch=best_epoch,
        best_val_acc=best_acc,
        seed=cfg.seed,
        losses=losses,
    )
    return TeacherArtifact(params=best_params, soft_labels=soft, train_meta=meta)


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


# Checkpoint weights are stored as base64 of their little-endian raw bytes.
# The manifest names the encoding, so the decimal arrays of earlier versions
# are refused instead of being read by a second parser.
ARRAY_ENCODING = "base64-le"
CHECKPOINT_DTYPES = ("float32", "float64")
_TRAIN_META_KEYS = ("epochs", "best_epoch", "best_val_acc", "seed")


def _json_object(obj, keys, where: str) -> dict:
    """``obj`` when it is a JSON object with exactly the keys ``keys``; a
    ValueError naming ``where`` (file and place in it) otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    missing = sorted(set(keys) - set(obj))
    unknown = sorted(set(obj) - set(keys))
    if missing or unknown:
        raise ValueError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    return obj


def _dataclass_from_json(cls, obj, where: str):
    """``cls(**obj)`` for a JSON object holding exactly the fields of ``cls``."""
    obj = _json_object(obj, [f.name for f in fields(cls)], where)
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _array_to_json(a: np.ndarray) -> dict:
    raw = a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes()
    return {"shape": list(a.shape), "data": base64.b64encode(raw).decode("ascii")}


def _array_from_json(obj, dtype: np.dtype, where: str) -> np.ndarray:
    """Decode one stored array. The byte count must fit the shape and the
    text must be the canonical encoding of the bytes, so an edited character
    is refused even where it would decode to the same bytes."""
    obj = _json_object(obj, ("data", "shape"), where)
    shape, text = obj["shape"], obj["data"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{where}: shape {shape!r} is not a list of sizes")
    if not isinstance(text, str):
        raise ValueError(f"{where}: data is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{where}: data is not base64 ({exc})") from None
    need = math.prod(shape) * dtype.itemsize
    if len(raw) != need:
        raise ValueError(
            f"{where}: data holds {len(raw)} bytes, shape {shape} of {dtype} needs {need}"
        )
    if base64.b64encode(raw).decode("ascii") != text:
        raise ValueError(f"{where}: data is not canonical base64")
    return np.frombuffer(raw, dtype.newbyteorder("<")).astype(dtype).reshape(shape)


def _layers_to_json(layers) -> list:
    return [{"w": _array_to_json(w), "b": _array_to_json(b)} for w, b in layers]


def _layers_from_json(obj, dtype: np.dtype, where: str) -> list:
    """Decode a stored layer stack; each layer's weight must chain onto the
    previous layer's output and carry a bias of its own output width."""
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: layers must be a non-empty list")
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    for i, layer in enumerate(obj, start=1):
        at = f"{where} layer {i}"
        layer = _json_object(layer, ("b", "w"), at)
        w = _array_from_json(layer["w"], dtype, f"{at} w")
        b = _array_from_json(layer["b"], dtype, f"{at} b")
        if (
            w.ndim != 2
            or b.shape != (w.shape[1],)
            or (layers and w.shape[0] != layers[-1][0].shape[1])
        ):
            raise ValueError(
                f"{at}: weight {w.shape} and bias {b.shape} do not chain onto "
                f"{'the layer before' if layers else 'an input'}"
            )
        layers.append((w, b))
    return layers


def _write_manifest(path, doc: dict) -> None:
    """Write a checkpoint manifest: sorted keys and no timestamps, so equal
    checkpoints are equal bytes."""
    doc = {**doc, "array_encoding": ARRAY_ENCODING}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _read_manifest(path, kind: str, keys, command: str) -> tuple[dict, np.dtype]:
    """Read a manifest written by ``_write_manifest`` and check its kind,
    array encoding, keys and dtype before any field is used. ``command`` is
    the CLI command that writes this kind of checkpoint."""
    try:
        doc = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON checkpoint ({exc})") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind.replace('-', ' ')}")
    if doc.get("array_encoding") != ARRAY_ENCODING:
        raise ValueError(
            f"{path}: weights are not stored as {ARRAY_ENCODING}; checkpoints "
            f"in the decimal format of earlier versions are not read, run "
            f"`mlpcascade {command}` again to rewrite it"
        )
    _json_object(doc, ("kind", "array_encoding", "dtype", *keys), str(path))
    if doc["dtype"] not in CHECKPOINT_DTYPES:
        raise ValueError(f"{path}: dtype {doc['dtype']!r} is not one of {CHECKPOINT_DTYPES}")
    return doc, np.dtype(doc["dtype"])


def save_teacher(t: TeacherArtifact, cfg: TeacherConfig, path) -> None:
    """Checkpoint: JSON manifest (hyperparameters, training record, dtype)
    with base64 little-endian weight arrays, the fingerprint of the weights
    and the soft-label fingerprint that ``load_teacher`` checks the
    soft-label file against."""
    _write_manifest(path, {
        "kind": "teacher-checkpoint",
        "dtype": str(t.params.layers[0][0].dtype),
        "config": asdict(cfg),
        "train_meta": {k: getattr(t.train_meta, k) for k in _TRAIN_META_KEYS},
        "soft_label_fingerprint": t.soft_label_fingerprint(),
        "fingerprint": t.params.fingerprint(),
        "layers": _layers_to_json(t.params.layers),
    })


def load_teacher(path, soft_labels_path) -> tuple[TeacherArtifact, TeacherConfig]:
    """Load and check a teacher checkpoint and its soft labels: the weights
    must match their fingerprint and the configured depth and width, the
    soft labels theirs."""
    doc, dtype = _read_manifest(
        path,
        "teacher-checkpoint",
        ("config", "train_meta", "soft_label_fingerprint", "fingerprint", "layers"),
        "train-teacher",
    )
    cfg = _dataclass_from_json(TeacherConfig, doc["config"], f"{path} config")
    meta = TrainMeta(**_json_object(doc["train_meta"], _TRAIN_META_KEYS, f"{path} train_meta"))
    params = TeacherParams(_layers_from_json(doc["layers"], dtype, str(path)))
    if params.fingerprint() != doc["fingerprint"]:
        raise ValueError(f"{path}: teacher weights do not match their stored fingerprint")
    widths = [w.shape[1] for w, _ in params.layers[:-1]]
    if params.depth != cfg.depth or widths != [cfg.hidden_dim] * (cfg.depth - 1):
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
