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

from .cascade import Cascade, student_forward
from .numkit import softmax_rows


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


@dataclass
class InferenceResult:
    prediction: np.ndarray  # M x C probabilities (float64)
    executed: int
    confidences: list[float]
    weights: list[float]
    elapsed: list[float]  # per-student seconds
    probs: list[np.ndarray]  # per-student N x C probabilities, execution order


def confidence(logits: np.ndarray, eval_idx) -> float:
    """Batch confidence: mean over the evaluation rows of the row's maximum
    softmax probability. Lies in [1/C, 1], with 1/C only for exactly uniform
    rows."""
    idx = np.asarray(eval_idx, dtype=np.intp).ravel()
    if idx.size == 0:
        raise ValueError("confidence: empty evaluation index set")
    probs = softmax_rows(logits[idx].astype(np.float64))
    return float(probs.max(axis=1).mean())


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
    for w, p in zip(weights, preds):
        combined += w * p.astype(np.float64)
    return combined, weights


def prefix_ensembles(
    preds: list[np.ndarray], confs: list[float]
) -> Iterator[np.ndarray]:
    """Yield ``ensemble(preds[:k], confs[:k])[0]`` for k = 1..len(preds),
    one prefix at a time. Each prefix is recombined from scratch, so it is
    bit-identical to a run capped at k students."""
    for k in range(1, len(preds) + 1):
        yield ensemble(preds[:k], confs[:k])[0]


def run_anytime(
    c: Cascade,
    x: np.ndarray,
    policy: InferencePolicy,
    eval_idx,
) -> InferenceResult:
    """Execute students 1..k until a stopping rule fires, then ensemble.

    ``x`` holds raw features only (width d); hidden states start at zero and
    thread through the executed students. The cascade itself is never
    mutated.
    """
    if not c.students:
        raise ValueError("run_anytime: empty cascade")
    d = c.students[0].feat_dim
    if x.shape[1] != d:
        raise ValueError(f"feature width mismatch: expected {d}, got {x.shape[1]}")
    idx = np.asarray(eval_idx, dtype=np.intp).ravel()
    if idx.size == 0:
        raise ValueError("run_anytime: empty evaluation index set")
    if idx.max() >= x.shape[0]:
        raise ValueError(
            f"evaluation index {idx.max()} out of range for {x.shape[0]} rows"
        )

    h = np.zeros((x.shape[0], c.students[0].hidden_dim), dtype=x.dtype)
    preds: list[np.ndarray] = []
    confs: list[float] = []
    elapsed: list[float] = []
    executed = 0
    for k, params in enumerate(c.students, start=1):
        t0 = time.perf_counter()
        h, logits = student_forward(params, x, h)
        preds.append(softmax_rows(logits))
        confs.append(confidence(logits, idx))
        elapsed.append(time.perf_counter() - t0)
        executed = k
        if policy.conf_threshold is not None and confs[-1] >= policy.conf_threshold:
            break
        if policy.max_students is not None and k >= policy.max_students:
            break
        if (
            policy.wall_clock_budget is not None
            and sum(elapsed) >= policy.wall_clock_budget
        ):
            break
    prediction, weights = ensemble(preds, confs)
    return InferenceResult(
        prediction=prediction,
        executed=executed,
        confidences=confs,
        weights=[float(w) for w in weights],
        elapsed=elapsed,
        probs=preds,
    )


def accuracy(pred: np.ndarray, y: np.ndarray, idx) -> float:
    """Fraction of `idx` rows where argmax(pred) == argmax(y); argmax ties
    break to the lowest class index."""
    idx = np.asarray(idx, dtype=np.intp).ravel()
    if idx.size == 0:
        raise ValueError("accuracy: empty index set")
    return float(
        np.mean(np.argmax(pred[idx], axis=1) == np.argmax(y[idx], axis=1))
    )


def write_prediction_csv(path, result: InferenceResult) -> None:
    """Per-node predictions: `node,pred_class,confidence_weighted_max`."""
    pred_class = np.argmax(result.prediction, axis=1)
    max_prob = result.prediction.max(axis=1)
    with open(path, "w") as f:
        f.write("node,pred_class,confidence_weighted_max\n")
        for i in range(result.prediction.shape[0]):
            f.write(f"{i},{pred_class[i]},{format(float(max_prob[i]), '.9g')}\n")


def write_result_json(path, result: InferenceResult) -> None:
    """Run metadata: executed count, confidences, weights, per-student ms."""
    doc = {
        "executed": result.executed,
        "confidences": result.confidences,
        "weights": result.weights,
        "per_student_ms": [1000.0 * t for t in result.elapsed],
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")
