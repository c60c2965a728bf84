"""Progressive training of warm-started MLP students.

The cascade trains K students in sequence. Student k consumes the raw node
features concatenated with the previous student's hidden representations
(zeros for k=1), starts from a copy of student k-1's weights, and minimizes

    total_k = k^beta * (alpha * CE_labeled + (1-alpha) * KL_all_nodes)
              + mixup cross entropy over interpolated labeled pairs

Each student has its own AdamW, and an AdamW step is unchanged by a
constant scale of the whole gradient, up to its eps. So k^beta does not
give later students a larger weight: what it does is weight the mixup
term against the distillation term by 1/k^beta, shrinking its share of
student k's gradient.

The mixup interpolation coefficient lambda moves by one rule,
``CascadeConfig.update_lambda``: an exponential moving average of the
mixup loss drives it up or down, clamped to [0, 0.5]. lambda and the
average are two floats threaded from epoch to epoch and from student to
student. With the
defaults the average stays above ``tau`` = 0.1, since a pair of two
classes scores a soft-label CE of at least its blended label's entropy
(ln 2 at lambda = 0.5). So lambda goes from ``lambda_init`` = 0.1 to 0.5
after student 1's first epoch and stays there: every later epoch mixes
the hardest blend.

An epoch runs the rows through the wide (d + h) x h first layer twice.
First, validation projects every row, ``[x | h_prev] @ w1``, and the next
epoch's training forward starts from that projection. Second, the
backward forms one product ``[x | h_prev].T @ dZ1``. The first layer is
affine and a blend's weights sum to 1, so the mixed examples' projections
are blends of the projection's rows. Their gradient is scattered back onto
the distillation's ``dZ1``, and the blended inputs are never built.

The config is one frozen dataclass, checked once when built;
``dataclasses.replace(cfg, field=value)`` derives a variant and checks it
again.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .graphio import NodeTables
from .numkit import (
    GradPair,
    SoftTargets,
    accuracy,
    dropout_mask,  # noqa: F401 (unused here: perfbench wraps cascade.dropout_mask)
    fingerprint,
    kl_divergence,
    log_and_softmax_rows,
    masked_cross_entropy,
    soft_targets,
)
from .optim import TrainingDivergedError, TrainRecord, check_training_config, fit
from .params import (
    LayerStack,
    backward_to_first,
    check_copy,
    dataclass_from_json,
    dropper,
    eval_hidden,
    forward_cache,
    init_layers,
    json_object,
    json_value,
    layers_to_json,
    read_layer_stacks,
    read_manifest,
    rewritten_by,
    write_checkpoint,
)
from .teacher import TeacherArtifact


@dataclass(frozen=True)
class CascadeConfig:
    """A cascade's settings: the students' shape and training, PKD's loss
    weights and PMA's mixing-rate rule.

    ``alpha`` blends CE against KL, and student k's distillation term is
    multiplied by k^``beta``. The mixup term is not, and each student's
    AdamW step is unchanged by a constant scale of its gradient (up to
    eps), so beta's effect is to shrink the mixup term's share of student
    k's gradient, not to weight later students more.

    The mixing rate lambda starts at ``lambda_init`` and follows a moving
    average of the mixup loss (``update_lambda``). With the defaults lambda
    sits at its 0.5 clamp from student 1's second epoch on (see the module
    docstring). ``gamma`` = 0 freezes the rate, a useful ablation switch,
    and a negative ``gamma`` reverses the drift.
    """

    n_students: int = 10
    hidden_dim: int = 128
    n_layers: int = 2
    lr: float = 0.001
    weight_decay: float = 5e-4
    dropout: float = 0.5
    max_epochs: int = 200
    patience: int = 50
    alpha: float = 0.5
    beta: float = 0.8
    gamma: float = 0.9
    tau: float = 0.1
    sigma: float = 0.1
    lambda_init: float = 0.1
    seed: int = 0

    def __post_init__(self):
        """Raise ValueError naming the first field under which no cascade
        trains."""
        if self.n_students < 1:
            raise ValueError(f"n_students {self.n_students} must be >= 1")
        if self.n_layers < 2:
            raise ValueError(f"n_layers {self.n_layers} must be >= 2")
        check_training_config(self)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta {self.beta} must be finite and >= 0")
        # a non-finite rate or reference point would drive lambda to a bound
        # or to NaN only once training runs
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma {self.gamma} must be finite")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau {self.tau} must be finite")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma {self.sigma} outside [0, 1]")
        if not 0.0 <= self.lambda_init <= 0.5:
            raise ValueError(f"lambda_init {self.lambda_init} outside [0, 0.5]")

    def update_lambda(self, lam: float, ema: float | None, loss: float) -> tuple[float, float]:
        """One epoch of the mixup rule: the new (lam, ema) after a mixup loss.

        The loss folds into the moving average, ``ema = sigma * ema +
        (1 - sigma) * loss``; the first loss (``ema`` None) sets it outright.
        Then ``lam = clamp(lam + drift, 0, 0.5)`` with ``drift = gamma *
        (ema - tau)``.
        """
        if not math.isfinite(loss) or loss < 0.0:
            raise ValueError(f"mixup loss must be finite and >= 0, got {loss}")
        loss = float(loss)
        ema = loss if ema is None else self.sigma * ema + (1.0 - self.sigma) * loss
        drift = self.gamma * (ema - self.tau)
        return min(max(lam + drift, 0.0), 0.5), ema


@dataclass(kw_only=True)
class StudentTrainMeta(TrainRecord):
    """A student's ``fit`` record, the fingerprint of the weights it started
    from, and the mixing rate before its first epoch and after each."""

    STORED = (*TrainRecord.STORED, "init_fingerprint", "lambda_history")

    init_fingerprint: str
    lambda_history: list[float]
    # eval-mode logits of the kept parameters on every row, from the same
    # forward that gives the next student's hidden input; like ``losses``,
    # not checkpointed
    logits: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        """Refuse an empty history, and a rate outside the clamp range
        [0, 0.5] of ``CascadeConfig.update_lambda`` or not finite."""
        if not self.lambda_history:
            raise ValueError("lambda_history must not be empty")
        for i, lam in enumerate(self.lambda_history):
            if not 0.0 <= lam <= 0.5:
                raise ValueError(f"lambda_history[{i}] {lam} outside [0, 0.5]")

    @property
    def final_lambda(self) -> float:
        """The mixing rate after the last epoch, handed to the next student."""
        return self.lambda_history[-1]


@dataclass
class Cascade:
    """An ordered list of trained, shape-identical students.

    Every student's first layer takes d + d' inputs (raw features plus the
    previous student's hidden state, zero-padded for the first student),
    interior layers are d' wide, and the final layer maps d' to the class
    count.
    """

    students: list[LayerStack]
    metas: list[StudentTrainMeta]
    teacher_fingerprint: str
    config: Optional[CascadeConfig] = None

    @property
    def n_students(self) -> int:
        return len(self.students)

    @property
    def feat_dim(self) -> int:
        """Width d of the raw-feature part of each student's input."""
        return self.students[0].input_dim - self.students[0].hidden_dim

    @property
    def n_classes(self) -> int:
        """Class count C: the width of each student's output layer."""
        return self.students[0].layers[-1][0].shape[1]

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
) -> LayerStack:
    dims = [feat_dim + hidden_dim] + [hidden_dim] * (n_layers - 1) + [n_classes]
    return init_layers(dims, rng, dtype)


def student_forward(p: LayerStack, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One student's eval-mode forward pass on assembled rows [x | h_prev].

    Returns (h, logits): h is the post-activation output of the last hidden
    layer and feeds the next student; logits come from the final affine
    layer. h_prev may be all zeros (first student).
    """
    if inputs.shape[1] != p.input_dim:
        raise ValueError(
            f"input width {inputs.shape[1]} != student input dim {p.input_dim}"
        )
    return _forward_from_projection(p, inputs @ p.layers[0][0])


def _forward_from_projection(p: LayerStack, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode (h, logits) of rows whose first-layer projection ``x @ w1``
    is ``z``, worked in place on ``z``: the bits of ``student_forward`` on
    the rows themselves."""
    z += p.layers[0][1]
    np.maximum(z, 0, out=z)
    h = eval_hidden(LayerStack(p.layers[1:]), z)
    w, b = p.layers[-1]
    logits = h @ w
    logits += b
    return h, logits


def distill_loss(
    logits: np.ndarray,
    targets: SoftTargets | None,
    y: np.ndarray,
    labeled,
    k: int,
    cfg: CascadeConfig,
) -> GradPair:
    """Distillation loss for student k, with gradients w.r.t. the logits:

        k^beta * (alpha * CE(logits, y | labeled) + (1-alpha) * KL(teacher || logits))

    The KL scores every row against ``targets``, the ``SoftTargets`` of the
    teacher's soft labels. Each weighted term is computed only when its
    weight is nonzero, so alpha=1 needs no targets (None) and alpha=0
    allows an empty labeled set.
    """
    if k < 1:
        raise ValueError(f"student index k must be >= 1, got {k}")
    mult = float(k) ** cfg.beta
    value = 0.0
    grad = np.zeros_like(logits)
    if cfg.alpha > 0.0:
        ce = masked_cross_entropy(logits, y, labeled)
        value += cfg.alpha * ce.value
        ce_grad = ce.grads["logits"]
        ce_grad *= cfg.alpha
        grad += ce_grad
    if cfg.alpha < 1.0:
        kd = kl_divergence(targets, logits)
        value += (1.0 - cfg.alpha) * kd.value
        kd_grad = kd.grads["logits"]
        kd_grad *= 1.0 - cfg.alpha
        grad += kd_grad
    grad *= mult
    return GradPair(mult * value, {"logits": grad})


def sample_mixup_pairs(labeled, seed) -> np.ndarray:
    """Pair every labeled node with its image under a seeded uniform
    permutation of the labeled set. Returns an (n, 2) index array; each
    column names distinct nodes."""
    labeled = np.asarray(labeled, dtype=np.int64).ravel()
    if labeled.size < 2:
        raise ValueError(f"mixup needs >= 2 labeled nodes, got {labeled.size}")
    if np.unique(labeled).size != labeled.size:
        raise ValueError("mixup needs distinct labeled nodes, got a repeated one")
    rng = np.random.default_rng(seed)
    return np.column_stack([labeled, rng.permutation(labeled)])


def mixup_examples(
    rows: np.ndarray,
    y: np.ndarray,
    pairs: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate rows and labels along each (i, j) pair:

        row    = lam * rows_i + (1 - lam) * rows_j
        label  = lam * y_i + (1 - lam) * y_j

    lam=0 reproduces sample j exactly; lam=0.5 is the hardest blend. The
    training objective blends the rows' first-layer projections
    ``[x | h_prev] @ w1``: the layer is affine and the weights sum to 1, so
    that is the projection of the blended inputs, which are never built.
    """
    if not 0.0 <= lam <= 0.5:
        raise ValueError(f"lambda {lam} outside [0, 0.5]")
    i = pairs[:, 0]
    j = pairs[:, 1]
    return _blend(rows, i, j, lam), _blend(y, i, j, lam)


def _blend(a: np.ndarray, i: np.ndarray, j: np.ndarray, lam: float) -> np.ndarray:
    """``lam * a[i] + (1 - lam) * a[j]``, in place on the two gathers."""
    out = a[i]
    out *= lam
    other = a[j]
    other *= 1.0 - lam
    out += other
    return out


def mixup_loss(
    p: LayerStack,
    mixed: np.ndarray,
    mixed_labels: np.ndarray,
    labeled_count: int,
    drop: Callable[[np.ndarray], np.floating] | None = None,
) -> GradPair:
    """Soft-label cross entropy of the student on mixed examples, averaged
    with the labeled-set size as denominator. The examples enter as their
    first-layer projections ``mixed`` (``x @ w1``, before the bias), from
    ``mixup_examples``. Gradients w.r.t. the parameters of layers 2..L and,
    as ``"mixed"``, w.r.t. ``mixed``, which ``total_loss_gradpair`` carries
    back to ``w1`` and ``b1``. ``drop`` is the dropout of ``forward_cache``
    (None for none); ``total_loss_gradpair`` passes its training pass's, so
    the mixup masks are the next draws of the same rng."""
    if labeled_count == 0:
        raise ValueError("mixup_loss: labeled_count must be positive")
    logits, caches = forward_cache(p, None, drop, projection=mixed)
    logp, probs = log_and_softmax_rows(logits)
    value = float(-(mixed_labels * logp).sum() / labeled_count)
    dlogits = (probs - mixed_labels) / labeled_count
    grads, d_mixed = backward_to_first(p, caches, dlogits)
    grads["mixed"] = d_mixed
    return GradPair(value, grads)


def total_loss_gradpair(
    p: LayerStack,
    inputs: np.ndarray,
    targets: SoftTargets | None,
    y: np.ndarray,
    labeled,
    k: int,
    cfg: CascadeConfig,
    pairs: np.ndarray,
    lam: float,
    rng: np.random.Generator | None = None,
    projection: np.ndarray | None = None,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Full per-epoch objective of student k on assembled rows [x | h_prev]:
    the distillation loss over all rows, the mixup loss over the mixed
    ``pairs``, and the gradients of their sum w.r.t. all student parameters.
    ``targets`` and ``cfg``'s loss weights are as for ``distill_loss``;
    ``train_cascade`` derives the targets once per cascade.

    Both losses start from the first layer's projection ``inputs @ w1``:
    ``projection`` when the caller holds it (``train_student`` passes the
    one its last validation made), else computed here, to the same bits.
    The mixed examples are blends of its rows (``mixup_examples``), which
    equal the projections of blended inputs. Their gradient is scattered
    back onto rows i and j of the training pass's first-layer gradient, so
    one product ``inputs.T @ d_z1`` gives ``w1``'s gradient for both losses.
    Each column of ``pairs`` must name distinct rows, as those of
    ``sample_mixup_pairs`` do.

    With ``cfg.dropout > 0`` the training forward draws its masks from
    ``rng`` first, then the mixup forward, through one ``params.dropper``;
    ValueError naming the function when there is no ``rng``. A pure
    function of the parameters once pairs, lam and the rng's seed are
    fixed, which is exactly what the finite-difference checker needs.
    """
    labeled = np.asarray(labeled)
    if projection is None:
        projection = inputs @ p.layers[0][0]
    drop = dropper(cfg.dropout, rng, "total_loss_gradpair")
    logits, caches = forward_cache(p, inputs, drop, projection=projection)
    distill = distill_loss(logits, targets, y, labeled, k, cfg)
    grads, d_first = backward_to_first(p, caches, distill.grads["logits"])
    mixed, mixed_labels = mixup_examples(projection, y, pairs, lam)
    mix = mixup_loss(p, mixed, mixed_labels, labeled.size, drop)
    d_mixed = mix.grads.pop("mixed")
    d_first[pairs[:, 0]] += lam * d_mixed  # each column names distinct rows
    d_first[pairs[:, 1]] += (1.0 - lam) * d_mixed
    total = {name: grads[name] + mix.grads[name] for name in grads}
    total["w1"] = inputs.T @ d_first
    total["b1"] = d_first.sum(axis=0)
    return distill.value, mix.value, total


def train_student(
    k: int,
    nodes: NodeTables,
    targets: SoftTargets | None,
    inputs: np.ndarray,
    init: LayerStack,
    cfg: CascadeConfig,
    lam: float,
    ema: float | None,
) -> tuple[LayerStack, np.ndarray, float, StudentTrainMeta]:
    """Train one student per the inner loop of the cascade algorithm.

    ``inputs`` are the rows ``[x | h_prev]``: the node features, then the
    previous student's hidden state (zeros for the first). They are read,
    not written; ``train_cascade`` keeps one such array for the whole chain.

    ``lam`` and ``ema`` are the mixing rate and the moving average of the
    mixup loss as the previous student left them (``cfg.lambda_init``
    and None for the first). The kept parameters, the hidden state, the
    final moving average and the meta are returned; the final rate is the
    meta's ``final_lambda``. Each epoch: freshly resampled mixup pairs ->
    ``total_loss_gradpair`` (training-mode forward, distillation loss,
    mixup loss, both at ``cfg.dropout`` with masks from one rng seeded
    ``[cfg.seed, k]``) -> one AdamW step -> ``CascadeConfig.update_lambda``.
    ``optim.fit`` tracks validation accuracy with patience and hands back
    the best epoch's parameters.

    Validation projects every row through the first layer, ``inputs @ w1``,
    and finishes only the validation rows in eval mode. The parameters do
    not change before the next epoch and a student's input is never masked,
    so that epoch's training forward starts from the same projection.
    ``fit`` keeps the best epoch's projection; the hidden state handed to
    the next student and the logits kept in the meta are finished from it,
    the same bits as a fresh eval forward of the kept parameters.
    """
    if nodes.splits.validation.size == 0:
        raise ValueError("training needs a non-empty validation split")
    if inputs.shape != (nodes.n_nodes, init.input_dim):
        raise ValueError(
            f"inputs {inputs.shape} are not the {nodes.n_nodes} rows of student "
            f"input width {init.input_dim}"
        )
    labeled = nodes.splits.labeled
    rng = np.random.default_rng([cfg.seed, k])
    params = init.copy()
    y_val = nodes.labels[nodes.splits.validation]
    lambda_history = [lam]
    projection = None  # inputs @ w1 of the current parameters, from validate

    def step(epoch: int):
        nonlocal lam, ema
        pairs = sample_mixup_pairs(labeled, np.random.SeedSequence([cfg.seed, k, epoch]))
        distill, mix, grads = total_loss_gradpair(
            params, inputs, targets, nodes.labels, labeled, k, cfg, pairs, lam, rng, projection
        )
        if not np.isfinite(distill):
            raise TrainingDivergedError(epoch, "distillation", distill)
        if not np.isfinite(mix):
            raise TrainingDivergedError(epoch, "mixup", mix)
        lam, ema = cfg.update_lambda(lam, ema, mix)
        lambda_history.append(lam)
        return distill + mix, grads

    def validate():
        nonlocal projection
        projection = inputs @ params.layers[0][0]
        _, val_logits = _forward_from_projection(params, projection[nodes.splits.validation])
        return accuracy(val_logits, y_val), projection

    params, projection, record = fit(params, cfg, step, validate)
    h_k, logits = _forward_from_projection(params, projection)
    meta = StudentTrainMeta(
        **vars(record), init_fingerprint=init.fingerprint(), lambda_history=lambda_history,
        logits=logits,
    )
    return params, h_k, ema, meta


def train_cascade(
    nodes: NodeTables, teacher: TeacherArtifact, cfg: CascadeConfig
) -> Cascade:
    """Train the full cascade: student 1 from seeded random init, every later
    student warm-started from its predecessor, hidden states, the mixing
    rate and its moving average threaded along the chain. The students read
    only the node tables, so ``nodes`` is a ``NodeTables`` or a ``Graph``
    (a ``NodeTables`` plus its edge list). Every student reads one
    ``[x | h]`` array: the features are written into it once, and each
    student's hidden state goes into its right-hand columns for the next, as
    ``inference.run_anytime`` does.
    The soft labels are cast to the features' dtype after their fingerprint
    is recorded, so the cascade names the teacher it was distilled from at
    any precision. Unless alpha = 1 (no KL), they are checked and their
    ``t ln t`` terms derived here, once for every epoch of every student."""
    teacher_fp = teacher.soft_label_fingerprint()
    teacher_probs = teacher.soft_labels.astype(nodes.features.dtype, copy=False)
    if teacher_probs.shape != (nodes.n_nodes, nodes.n_classes):
        raise ValueError(
            f"teacher soft labels {teacher_probs.shape} do not match graph "
            f"({nodes.n_nodes}, {nodes.n_classes})"
        )
    targets = soft_targets(teacher_probs) if cfg.alpha < 1.0 else None
    rng = np.random.default_rng([cfg.seed, 0])
    # student 1 starts from a seeded init, every later one from its predecessor
    params = init_student(
        nodes.feat_dim, cfg.hidden_dim, nodes.n_classes, cfg.n_layers, rng, nodes.features.dtype
    )
    inputs = np.zeros((nodes.n_nodes, params.input_dim), dtype=nodes.features.dtype)
    inputs[:, : nodes.feat_dim] = nodes.features
    lam, ema = cfg.lambda_init, None

    students: list[LayerStack] = []
    metas: list[StudentTrainMeta] = []
    for k in range(1, cfg.n_students + 1):
        try:
            # the hidden state goes straight into the columns it feeds
            params, inputs[:, nodes.feat_dim :], ema, meta = train_student(
                k, nodes, targets, inputs, params, cfg, lam, ema
            )
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                exc.epoch, f"student {k}: {exc.component}", exc.value
            ) from exc
        students.append(params)
        metas.append(meta)
        lam = meta.final_lambda
    return Cascade(students, metas, teacher_fp, cfg)


def save_cascade(c: Cascade, path) -> None:
    """Checkpoint: JSON manifest (dtype, config, per-student meta, weight
    shapes and fingerprint), each value stored once: K is the config's
    ``n_students`` and the length of the student list, and each student's
    final mixing rate the last entry of its ``lambda_history``. The
    students' weights go, in order, to the raw little-endian file beside it
    (``params.weights_path``). A cascade without a config is refused:
    ``load_cascade`` checks student 1's init against the config's seed."""
    if c.config is None:
        raise ValueError("save_cascade: the cascade has no config to store")
    write_checkpoint(path, {
        "kind": "cascade-checkpoint",
        "dtype": str(c.students[0].layers[0][0].dtype),
        "teacher_fingerprint": c.teacher_fingerprint,
        "config": asdict(c.config),
        "students": [
            {
                "meta": {k: getattr(m, k) for k in StudentTrainMeta.STORED},
                "fingerprint": s.fingerprint(),
                "layers": layers_to_json(s),
            }
            for s, m in zip(c.students, c.metas)
        ],
    }, c.students)


def _check_student_shapes(s: LayerStack, first: LayerStack | None, where: str) -> None:
    """Every student is [feat_dim + hidden_dim, hidden_dim, ..., classes]
    wide, feat_dim >= 1, with the layer shapes of the first student."""
    widths = [w.shape[1] for w, _ in s.layers[:-1]]
    if s.n_layers < 2 or widths != [s.hidden_dim] * len(widths) or s.input_dim <= s.hidden_dim:
        raise ValueError(
            f"{where}: layer shapes {[w.shape for w, _ in s.layers]} are not "
            "(feat_dim + hidden_dim, hidden_dim), ..., (hidden_dim, classes)"
        )
    if first is not None and s.shape_vector() != first.shape_vector():
        raise ValueError(
            f"{where}: layer shapes {[w.shape for w, _ in s.layers]} differ from "
            f"student 1's {[w.shape for w, _ in first.layers]}"
        )


@rewritten_by("distill")
def load_cascade(path) -> Cascade:
    """Load and check a cascade checkpoint and its weights file: the
    teacher fingerprint a sha256 digest (64 lowercase hex digits), every
    mixing rate in [0, 0.5] (``StudentTrainMeta``), every student the
    fingerprint stored with it and the layer shapes of the others. Each
    student after the first must start where the one before ended: from
    its stored fingerprint and its ``final_lambda``. The stored config,
    which a checkpoint must hold (``null`` is refused), must give the
    students' count, hidden width and layer count, and student 1 must start
    from the init that config draws: its stored ``init_fingerprint`` must
    be the fingerprint of ``init_student`` drawn from ``default_rng([seed,
    0])`` at the stored shapes and dtype, as ``train_cascade`` draws it. A
    manifest laid out otherwise than this version writes it, such as one
    of an earlier version, is refused (``params.rewritten_by``)."""
    doc, dtype = read_manifest(
        path, "cascade-checkpoint", ("teacher_fingerprint", "config", "students")
    )
    teacher_fp = json_value(doc["teacher_fingerprint"], str, f"{path} teacher_fingerprint")
    if not re.fullmatch("[0-9a-f]{64}", teacher_fp):
        raise ValueError(
            f"{path} teacher_fingerprint {json.dumps(teacher_fp)} is not a sha256 "
            f"digest of 64 lowercase hex digits"
        )
    entries = doc["students"]
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: students must be a non-empty list")
    cfg = dataclass_from_json(CascadeConfig, doc["config"], f"{path} config")
    wheres = [f"{path} student {k}" for k in range(1, len(entries) + 1)]
    entries = [json_object(e, ("fingerprint", "layers", "meta"), w) for e, w in zip(entries, wheres)]
    stored = read_layer_stacks(path, dtype, [(e["layers"], w) for e, w in zip(entries, wheres)])
    students: list[LayerStack] = []
    metas: list[StudentTrainMeta] = []
    for k, (entry, where, student) in enumerate(zip(entries, wheres, stored), start=1):
        if student.fingerprint() != entry["fingerprint"]:
            raise ValueError(f"{where}: weights do not match their stored fingerprint")
        _check_student_shapes(student, students[0] if students else None, where)
        meta = dataclass_from_json(
            StudentTrainMeta, entry["meta"], f"{where} meta", StudentTrainMeta.STORED
        )
        if metas:
            prev = f"student {k - 1}'s"
            check_copy(f"{where} meta init_fingerprint", meta.init_fingerprint,
                       entries[k - 2]["fingerprint"], f"{prev} stored fingerprint")
            check_copy(f"{where} meta lambda_history[0]", meta.lambda_history[0],
                       metas[-1].final_lambda, f"{prev} final_lambda")
        students.append(student)
        metas.append(meta)
    first = students[0]
    for name, value, source in (
        ("n_students", len(students), "the count of stored students"),
        ("hidden_dim", first.hidden_dim, "student 1's hidden width"),
        ("n_layers", first.n_layers, "student 1's layer count"),
    ):
        check_copy(f"{path} config {name}", getattr(cfg, name), value, source)
    init = init_student(
        first.input_dim - first.hidden_dim, cfg.hidden_dim, first.layers[-1][0].shape[1],
        cfg.n_layers, np.random.default_rng([cfg.seed, 0]), dtype,
    )
    check_copy(f"{path} student 1 meta init_fingerprint", metas[0].init_fingerprint,
               init.fingerprint(), "the fingerprint of the config seed's init")
    return Cascade(students, metas, teacher_fp, cfg)
