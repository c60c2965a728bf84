"""Graph-convolution teacher: training, soft-label export, checkpoints.

The teacher is a standard 2-layer graph convolution (an optional third layer
is configurable): each layer projects node activations and aggregates them
with the symmetrically normalized adjacency. When the features are no wider
than the hidden layer, the first layer aggregates them before projecting,
which is the same product in another order. Gradients are hand-derived;
training runs the shared ``optim.fit`` loop (AdamW with early stopping on
validation accuracy) and exports soft labels from the best epoch.

Every product with Â over all N rows takes ``norm_adj.T``, the CSC view of
Â's own three arrays (no copy), built once per call of ``gcn_forward``,
``teacher_ce_gradpair`` and ``train_teacher``. On a graph of high degree
scipy's column kernel runs these products faster than its row kernel on
the same arrays (README, "Operation order"). It adds each output row's
terms in ascending column order, where the row kernel adds them in stored
order; so the view gives the bits of ``spmm(norm_adj, m)`` whenever Â's
entries are symmetric bit for bit and each row's columns are sorted, as in
every Â that ``graphio`` builds (entries ``d_i^-1/2 · d_j^-1/2``). The row
aggregations ``Â[R]`` keep the row kernel.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import graphio
from .graphio import NodeTables
from .numkit import (
    SparseMatrix,
    accuracy,
    apply_dropout,
    check_index,
    dropout_mask,  # noqa: F401 (unused here: perfbench wraps teacher.dropout_mask)
    fingerprint,
    masked_cross_entropy,
    softmax_rows,
    spmm,
)
from .optim import TrainingDivergedError, TrainRecord, check_training_config, fit
from .params import (
    Aggregation,
    LayerStack,
    backward,
    check_copy,
    dataclass_from_json,
    dropper,
    eval_hidden,
    forward_cache,
    init_layers,
    json_object,
    layers_to_json,
    read_layer_stacks,
    read_manifest,
    write_checkpoint,
)


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
    train_meta: TrainRecord
    logits: np.ndarray | None = field(default=None, repr=False)  # N x C

    def soft_label_fingerprint(self) -> str:
        return fingerprint(self.soft_labels)


@dataclass(frozen=True)
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
        """Raise ValueError naming the first field under which no teacher
        trains."""
        check_training_config(self)
        if self.depth not in (2, 3):
            raise ValueError(f"teacher depth must be 2 or 3, got {self.depth}")


def init_teacher(
    feat_dim: int,
    hidden_dim: int,
    n_classes: int,
    depth: int,
    rng: np.random.Generator,
    dtype,
) -> LayerStack:
    return init_layers([feat_dim] + [hidden_dim] * (depth - 1) + [n_classes], rng, dtype)


def _aggregates_first(p: LayerStack) -> bool:
    """Whether the first layer aggregates its input before projecting it.
    ``Â(XW) = (ÂX)W``, so the order is free; aggregating first moves ``d``
    columns instead of ``h``, and lets training aggregate the fixed eval
    features once. It is taken when the features are no wider than the
    first layer's output (``d <= hidden_dim``): with wider features, an eval
    forward, which cannot keep ``ÂX``, would aggregate ``d`` columns where
    ``h`` do."""
    return p.input_dim <= p.hidden_dim


def _check_square(norm_adj: SparseMatrix, where: str) -> None:
    """ValueError naming ``where`` unless Â is square: through its view
    ``norm_adj.T`` a non-square Â would give products of the wrong height."""
    if norm_adj.shape[0] != norm_adj.shape[1]:
        raise ValueError(f"{where}: adjacency must be square, got {norm_adj.shape}")


def _aggregates(adj_t: SparseMatrix, p: LayerStack) -> list:
    """Each layer's aggregation after its projection, by ``adj_t``, the
    column view ``norm_adj.T`` of the symmetric Â (see the module
    docstring), so each is also its own transpose, and none for a first
    layer whose input is aggregated already (``_aggregates_first``)."""

    def aggregate(m):
        return spmm(adj_t, m)

    full = Aggregation(aggregate, aggregate)
    return [None if _aggregates_first(p) else full] + [full] * (p.n_layers - 1)


def _rows_aggregation(adj_rows: SparseMatrix) -> Aggregation:
    """Aggregation by the rows ``Â[R]`` of Â, and its transpose ``Â[R]^T``,
    which scatters a gradient of the rows R back onto every row."""
    return Aggregation(lambda m: spmm(adj_rows, m), lambda d: spmm(adj_rows.T, d))


def _first_input(adj_t: SparseMatrix, x: np.ndarray, p: LayerStack) -> np.ndarray:
    """The first layer's input: ``Â x`` when it aggregates first, else ``x``;
    ``adj_t`` is the view ``norm_adj.T``."""
    return spmm(adj_t, x) if _aggregates_first(p) else x


def _eval_projection(adj_t: SparseMatrix, x_in: np.ndarray, p: LayerStack) -> np.ndarray:
    """Eval-mode hidden layers over every row from the first layer's input
    ``x_in`` (``_first_input``), then the last layer's projection
    ``H @ W_last``, left unaggregated: the logits of any set of rows R are
    ``spmm(norm_adj[R], hw) + b_last``, the same bits as the full-graph
    logits' rows R, since a row slice keeps each row's entry order and the
    view ``adj_t`` adds a row's terms in that order too."""
    return eval_hidden(p, x_in, _aggregates(adj_t, p)) @ p.layers[-1][0]


def gcn_forward(norm_adj: SparseMatrix, x: np.ndarray, p: LayerStack) -> np.ndarray:
    """Eval-mode teacher logits: A_hat . relu(A_hat . x . w1 + b1) . w2 + b2,
    the same operations as the validation forward of ``train_teacher``; the
    first product is taken as (A_hat . x) . w1 when ``_aggregates_first``.
    Every product takes one view ``norm_adj.T`` (see the module docstring)."""
    _check_square(norm_adj, "gcn_forward")
    if x.shape[0] != norm_adj.shape[0]:
        raise ValueError(
            f"features rows {x.shape[0]} != adjacency size {norm_adj.shape[0]}"
        )
    if x.shape[1] != p.layers[0][0].shape[0]:
        raise ValueError(
            f"feature width {x.shape[1]} != first-layer fan-in {p.layers[0][0].shape[0]}"
        )
    adj_t = norm_adj.T
    hw = _eval_projection(adj_t, _first_input(adj_t, x, p), p)
    return spmm(adj_t, hw) + p.layers[-1][1]


def teacher_ce_gradpair(
    norm_adj: SparseMatrix,
    x: np.ndarray,
    p: LayerStack,
    labels: np.ndarray,
    mask,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    x_in: np.ndarray | None = None,
):
    """Cross entropy of the forward plus gradients w.r.t. all teacher
    parameters: the training objective, and the gradient-check entry point.
    With ``dropout > 0`` masks are drawn from ``rng`` for the raw features
    first (``apply_dropout``: ``x`` is left as it is), then for every hidden
    activation in layer order (``dropout_in_place``: no mask is kept). A
    first layer that aggregates first takes ``Â (mask * x)``. Without
    dropout it takes ``x_in``, the first layer's input of ``x``
    (``_first_input``), when the caller holds it, so a run aggregates its
    fixed features once. The products over every row take one view
    ``norm_adj.T`` (see the module docstring). ValueError naming the
    function when Â is not square, or when ``dropout > 0`` has no ``rng``.

    The cross entropy reads only the rows in ``mask``, so the last layer
    aggregates only those rows, ``Â[R]`` with R the distinct mask rows in
    ascending order, and its backward applies ``Â[R]^T``. When Â's entries
    are symmetric bit for bit, as those of a 0/1 graph are
    (``d_i^-1/2 · d_j^-1/2``), value and gradients are the same bits as
    aggregating every row with Â as its own transpose: each row of
    ``Â[R]`` keeps its entry order, the gradient rows off R are +0 (which
    leaves a sum unchanged), and ``Â[R]^T`` adds each row's terms in
    ascending order as Â's rows do. A repeated mask row counts once per
    mention in both."""
    _check_square(norm_adj, "teacher_ce_gradpair")
    drop = dropper(dropout, rng, "teacher_ce_gradpair")
    idx = check_index(mask, norm_adj.shape[0], "teacher_ce_gradpair", "mask")
    rows, at = np.unique(idx, return_inverse=True)
    adj_t = norm_adj.T
    if drop is not None:
        # no gradient flows to x: its mask is applied as it is drawn
        x_in = _first_input(adj_t, apply_dropout(rng, x, dropout), p)
    elif x_in is None:
        x_in = _first_input(adj_t, x, p)
    aggregates = _aggregates(adj_t, p)[:-1] + [_rows_aggregation(norm_adj[rows])]
    logits, caches = forward_cache(p, x_in, drop, aggregates)  # rows R only
    ce = masked_cross_entropy(logits, labels[rows], at)
    ce.grads = backward(p, caches, ce.grads["logits"], aggregates)
    return ce


def train_teacher(
    nodes: NodeTables, norm_adj: SparseMatrix, cfg: TeacherConfig
) -> TeacherArtifact:
    """Train the teacher with cross entropy on the labeled split.

    ``optim.fit`` runs the epochs with early stopping on validation
    accuracy and hands back the best epoch's parameters; soft labels are
    computed from them in eval mode.

    The teacher reads the graph only through ``norm_adj``, its Â
    (``graphio.normalized_adjacency`` of the graph whose node tables
    ``nodes`` holds), so a caller can let the edge list go before training.
    The features' aggregation ``Â X`` is built once when the first layer
    aggregates first (``_aggregates_first``); the eval forwards and,
    without dropout, the training forwards start from it. Each epoch's
    training forward aggregates the last layer over the labeled rows only
    (``teacher_ce_gradpair``), and its eval forward runs the hidden layers
    on every row but aggregates the last layer over the validation rows
    only. The best epoch's unaggregated last layer is kept,
    so the soft labels cost one aggregation, not a fresh forward; they and
    the returned ``logits`` are the same bits as ``gcn_forward`` of the best
    parameters. The products over every row outside the training steps
    take one view ``norm_adj.T`` (see the module docstring).
    """
    if nodes.splits.labeled.size == 0 or nodes.splits.validation.size == 0:
        raise ValueError("training needs non-empty labeled and validation splits")
    if norm_adj.shape != (nodes.n_nodes, nodes.n_nodes):
        raise ValueError(
            f"adjacency {norm_adj.shape} does not match the {nodes.n_nodes} nodes"
        )
    rng = np.random.default_rng(cfg.seed)
    params = init_teacher(
        nodes.feat_dim, cfg.hidden_dim, nodes.n_classes, cfg.depth, rng, nodes.features.dtype
    )
    adj_t = norm_adj.T
    x_in = _first_input(adj_t, nodes.features, params)
    adj_val = norm_adj[nodes.splits.validation]
    y_val = nodes.labels[nodes.splits.validation]

    def step(epoch: int):
        ce = teacher_ce_gradpair(
            norm_adj, nodes.features, params, nodes.labels, nodes.splits.labeled,
            cfg.dropout, rng, x_in,
        )
        if not np.isfinite(ce.value):
            raise TrainingDivergedError(epoch, "cross-entropy", ce.value)
        return ce.value, ce.grads

    def validate():
        hw = _eval_projection(adj_t, x_in, params)
        return accuracy(spmm(adj_val, hw) + params.layers[-1][1], y_val), hw

    params, hw, record = fit(params, cfg, step, validate)
    logits = spmm(adj_t, hw) + params.layers[-1][1]
    return TeacherArtifact(params, softmax_rows(logits), record, logits)


def export_soft_labels(t: TeacherArtifact, path) -> None:
    """Write the soft-label matrix as CSV in ``graphio.round_trip_format``,
    so the round trip is bit-exact."""
    graphio._write_csv(path, t.soft_labels, graphio.round_trip_format(t.soft_labels.dtype))


def import_soft_labels(path, dtype=np.float32) -> np.ndarray:
    probs = graphio.read_features(path, dtype)
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-5):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"{path}: row {bad} is not a probability distribution")
    return probs


def save_teacher(t: TeacherArtifact, cfg: TeacherConfig, path) -> None:
    """Checkpoint: JSON manifest (hyperparameters, training record with a
    copy of the config's seed, dtype, the weight shapes), the fingerprint of
    the weights and the soft-label fingerprint that ``load_teacher`` checks
    the soft-label file against; the weights go to the raw little-endian
    file beside it (``params.weights_path``)."""
    write_checkpoint(path, {
        "kind": "teacher-checkpoint",
        "dtype": str(t.params.layers[0][0].dtype),
        "config": asdict(cfg),
        "train_meta": {
            **{k: getattr(t.train_meta, k) for k in TrainRecord.STORED}, "seed": cfg.seed
        },
        "soft_label_fingerprint": t.soft_label_fingerprint(),
        "fingerprint": t.params.fingerprint(),
        "layers": layers_to_json(t.params),
    }, [t.params])


def load_teacher(path, soft_labels_path) -> tuple[TeacherArtifact, TeacherConfig]:
    """Load and check a teacher checkpoint, its weights file and its soft
    labels: the training record's seed must equal the config's, the weights
    must match their fingerprint and the configured depth and width, the
    soft labels theirs."""
    doc, dtype = read_manifest(
        path,
        "teacher-checkpoint",
        ("config", "train_meta", "soft_label_fingerprint", "fingerprint", "layers"),
        "train-teacher",
    )
    cfg = dataclass_from_json(TeacherConfig, doc["config"], f"{path} config")
    where = f"{path} train_meta"
    meta = json_object(doc["train_meta"], (*TrainRecord.STORED, "seed"), where)
    check_copy(f"{where} seed", meta.pop("seed"), cfg.seed, "the config seed")
    record = dataclass_from_json(TrainRecord, meta, where, TrainRecord.STORED)
    (params,) = read_layer_stacks(path, dtype, [(doc["layers"], str(path))])
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
    return TeacherArtifact(params, soft, record), cfg
