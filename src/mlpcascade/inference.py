"""Confidence-gated anytime inference over a trained cascade.

Students execute in order, threading hidden states. After each student the
batch-mean confidence (average max softmax probability over the evaluation
rows) is checked against the stopping rules; the final prediction is a
confidence-weighted ensemble of exactly the executed students. Ensembling
accumulates in float64 so the output rows are probability distributions to
tight tolerance regardless of the cascade's working precision.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import numkit
from .cascade import Cascade, student_forward
from .graphio import _write_csv
from .numkit import row_max, softmax_rows


@dataclass
class InferencePolicy:
    """Stopping rules for anytime inference; at least one must be active.

    ``conf_threshold`` stops at the first student whose batch confidence
    reaches it; ``max_students`` caps the executed count; ``wall_clock_budget``
    (seconds) is checked between students -- a started student always
    completes, so one student is the minimum unit of work.
    """

    conf_threshold: Optional[float] = None
    max_students: Optional[int] = None
    wall_clock_budget: Optional[float] = None

    def __post_init__(self):
        if (
            self.conf_threshold is None
            and self.max_students is None
            and self.wall_clock_budget is None
        ):
            raise ValueError("policy needs at least one active stopping rule")
        if self.conf_threshold is not None and not 0.0 <= self.conf_threshold <= 1.0:
            raise ValueError(f"conf_threshold {self.conf_threshold} outside [0, 1]")
        if self.max_students is not None and self.max_students < 1:
            raise ValueError(f"max_students {self.max_students} must be >= 1")
        if self.wall_clock_budget is not None and self.wall_clock_budget < 0:
            raise ValueError(f"wall_clock_budget {self.wall_clock_budget} must be >= 0")

    def fired(self, conf: float, executed: int, spent: float) -> Optional[str]:
        """The first rule, in the order threshold, cap, budget, that stops a
        run after ``executed`` students, the last with batch confidence
        ``conf``, have taken ``spent`` seconds; None if none does."""
        if self.conf_threshold is not None and conf >= self.conf_threshold:
            return "threshold"
        if self.max_students is not None and executed >= self.max_students:
            return "cap"
        if self.wall_clock_budget is not None and spent >= self.wall_clock_budget:
            return "budget"
        return None


@dataclass
class InferenceResult:
    prediction: np.ndarray  # M x C probabilities (float64)
    executed: int
    confidences: list[float]
    weights: list[float]
    elapsed: list[float]  # per-student seconds
    probs: list[np.ndarray]  # per-student N x C probabilities, execution order
    stopped_by: str  # "threshold", "cap", "budget", or "exhausted" if none fired


def confidence(logits: np.ndarray, eval_idx) -> float:
    """Batch confidence: mean over the evaluation rows of the row's maximum
    softmax probability. Lies in [1/C, 1], with 1/C only for exactly uniform
    rows.

    Computed in float64 as mean(1 / sum_j exp(z_j - max z)): the largest
    entry of a max-shifted softmax row is exp(0) / s = 1 / s exactly, so no
    second softmax is needed.

    An empty index set or an index outside [0, rows) raises ValueError."""
    idx = np.asarray(eval_idx, dtype=np.intp).ravel()
    _check_index(idx, logits.shape[0], "confidence: evaluation")
    return _confidence(logits, idx)


def _confidence(logits: np.ndarray, idx: np.ndarray) -> float:
    """``confidence`` over an index array already checked against the rows
    of ``logits``; ``run_anytime`` checks its index set once per call."""
    z = logits[idx].astype(np.float64)
    z -= row_max(z)
    np.exp(z, out=z)
    return float(np.mean(1.0 / z.sum(axis=1)))


def ensemble(preds: list[np.ndarray], confs: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Confidence-weighted combination P = sum_j w_j * preds_j with
    w = softmax(confidences). Every preds entry must be row-normalized."""
    if len(preds) == 0:
        raise ValueError("ensemble: no predictions")
    if len(preds) != len(confs):
        raise ValueError(
            f"ensemble: {len(preds)} predictions vs {len(confs)} confidences"
        )
    weights = softmax_rows(np.asarray(confs, dtype=np.float64)[None, :]).ravel()
    combined = np.zeros(preds[0].shape, dtype=np.float64)
    term = np.empty_like(combined)
    for w, p in zip(weights, preds):
        # cast into the one float64 work array, then scale in place: no
        # temporaries, and for float32 predictions faster than a multiply
        # that casts through numpy's ufunc buffers
        term[...] = p
        term *= w
        combined += term
    return combined, weights


def prefix_ensembles(
    preds: list[np.ndarray], confs: list[float]
) -> Iterator[np.ndarray]:
    """Yield ``ensemble(preds[:k], confs[:k])[0]`` for k = 1..len(preds),
    one prefix at a time. Each prefix is recombined from scratch, so it is
    bit-identical to a run capped at k students."""
    for k in range(1, len(preds) + 1):
        yield ensemble(preds[:k], confs[:k])[0]


def _check_index(idx: np.ndarray, n_rows: int, what: str) -> None:
    """Reject an empty index set and any index outside [0, n_rows): numpy
    would wrap a negative index onto another row."""
    if idx.size == 0:
        raise ValueError(f"{what} index set is empty")
    lo, hi = idx.min(), idx.max()
    if lo < 0 or hi >= n_rows:
        bad = lo if lo < 0 else hi
        raise ValueError(f"{what} index {bad} out of range for {n_rows} rows")


def run_anytime(
    c: Cascade,
    x: np.ndarray,
    policy: InferencePolicy,
    eval_idx,
) -> InferenceResult:
    """Execute students 1..k until a stopping rule fires, then ensemble.

    ``x`` holds raw features only (width d); hidden states start at zero and
    thread through the executed students. Each student reads one [x | h]
    buffer allocated per call: x is written once, and each student's hidden
    output goes into the right-hand columns for the next. Its dtype is that
    of x combined with the weights. The cascade itself is never mutated.
    """
    if not c.students:
        raise ValueError("run_anytime: empty cascade")
    first = c.students[0]
    d = c.feat_dim
    if x.shape[1] != d:
        raise ValueError(f"feature width mismatch: expected {d}, got {x.shape[1]}")
    idx = np.asarray(eval_idx, dtype=np.intp).ravel()
    _check_index(idx, x.shape[0], "run_anytime: evaluation")

    dtype = np.result_type(x.dtype, first.layers[0][0].dtype)
    inputs = np.zeros((x.shape[0], first.input_dim), dtype=dtype)
    inputs[:, :d] = x
    h = None
    preds: list[np.ndarray] = []
    confs: list[float] = []
    elapsed: list[float] = []
    for params in c.students:
        t0 = time.perf_counter()
        if h is not None:
            inputs[:, d:] = h
        h, logits = student_forward(params, inputs)
        preds.append(softmax_rows(logits))
        confs.append(_confidence(logits, idx))
        elapsed.append(time.perf_counter() - t0)
        stopped_by = policy.fired(confs[-1], len(preds), sum(elapsed))
        if stopped_by is not None:
            break
    prediction, weights = ensemble(preds, confs)
    return InferenceResult(
        prediction=prediction,
        executed=len(preds),
        confidences=confs,
        weights=[float(w) for w in weights],
        elapsed=elapsed,
        probs=preds,
        stopped_by=stopped_by or "exhausted",
    )


def accuracy(pred: np.ndarray, y: np.ndarray, idx) -> float:
    """Fraction of `idx` rows where argmax(pred) == argmax(y); argmax ties
    break to the lowest class index."""
    idx = np.asarray(idx, dtype=np.intp).ravel()
    _check_index(idx, min(pred.shape[0], y.shape[0]), "accuracy: evaluation")
    return numkit.accuracy(pred[idx], np.argmax(y[idx], axis=1))


def write_prediction_csv(path, result: InferenceResult) -> None:
    """Per-node predictions: `node,pred_class,confidence_weighted_max`, the
    last with 9 significant digits."""
    pred = result.prediction
    table = np.column_stack(
        [np.arange(pred.shape[0]), np.argmax(pred, axis=1), row_max(pred)]
    )
    _write_csv(
        path, table, ("%d", "%d", "%.9g"), header="node,pred_class,confidence_weighted_max"
    )


def write_result_json(path, result: InferenceResult) -> None:
    """Run metadata: executed count, the stopping rule that fired,
    confidences, weights, per-student ms."""
    doc = {
        "executed": result.executed,
        "stopped_by": result.stopped_by,
        "confidences": result.confidences,
        "weights": result.weights,
        "per_student_ms": [1000.0 * t for t in result.elapsed],
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")
