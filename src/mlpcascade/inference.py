"""Confidence-gated anytime inference over a trained cascade.

Students execute in order, threading hidden states. After each student the
stopping rules are checked; the final prediction is a confidence-weighted
ensemble of exactly the executed students, each weighted by its batch-mean
confidence (average max softmax probability over the evaluation rows).
Only the threshold rule reads a confidence, so only a run with one scores
each student in the loop; any other run scores all of its students after
the loop, in a few batched calls. Ensembling accumulates in float64 so the
output rows are probability distributions to tight tolerance regardless of
the cascade's working precision.

Scoring is class-major, for any class count of float32 or float64 logits:
each student's logits are copied once, transposed, into a C x K x N stack,
and every class max and class sum of the confidences and of the one
softmax after the loop is a single numpy reduction over the leading axis,
across the rows of every student scored at once, where a row-major array
costs a reduction per row or a call per class. The softmax and the class
sum are numkit's (``softmax_classes``, ``class_sum``), the ones the
training losses and the teacher's soft labels run on. Logits of any other
dtype or rank are refused.

``ensemble`` keeps its loop over students. One vectorized float64 pass
over the whole stack gives the same bits, and it is faster on a query of
ten 128 x 4 float32 students (10.3 against 17.2 us) but slower on ten
20000 x 4 ones (0.74 against 0.46 ms), on a 2-vCPU AVX-512 Xeon.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cascade import Cascade, student_forward
from .graphio import _write_csv
from .numkit import accuracy  # noqa: F401 (re-exported: the package's one accuracy)
from .numkit import check_index, check_logits, class_sum, softmax_classes
from .params import write_json

# float64 values of the evaluation rows' logits that one confidence call
# after the loop scores: the students of a 128-row query in one call, each
# full-graph student alone, since a larger block's float64 temporaries
# leave the cache
SCORE_BLOCK = 1 << 17

# the range of each stopping rule's value, as a test and the refusal's
# wording (a NaN budget would never fire: every student would run)
POLICY_RANGES = {
    "conf_threshold": (lambda v: 0.0 <= v <= 1.0, "outside [0, 1]"),
    "max_students": (lambda v: v >= 1, "must be >= 1"),
    "wall_clock_budget": (lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0"),
}


@dataclass(frozen=True)
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
        if all(getattr(self, name) is None for name in POLICY_RANGES):
            raise ValueError("policy needs at least one active stopping rule")
        for name, (ok, refusal) in POLICY_RANGES.items():
            value = getattr(self, name)
            if value is not None and not ok(value):
                raise ValueError(f"{name} {value} {refusal}")

    def fired(
        self, conf: Optional[float], executed: int, spent: float
    ) -> Optional[str]:
        """The first rule, in the order threshold, cap, budget, that stops a
        run after ``executed`` students, the last with batch confidence
        ``conf``, have taken ``spent`` seconds; None if none does. Only the
        threshold rule reads ``conf``: without one, ``run_anytime`` scores
        no student in the loop and passes None."""
        if self.conf_threshold is not None and conf >= self.conf_threshold:
            return "threshold"
        if self.max_students is not None and executed >= self.max_students:
            return "cap"
        if self.wall_clock_budget is not None and spent >= self.wall_clock_budget:
            return "budget"
        return None


@dataclass
class InferenceResult:
    """One ``run_anytime`` call.

    ``elapsed[j]`` is student j's forward pass and batch confidence. With a
    threshold rule the confidence is scored in the loop, right after the
    forward pass, and timed with it. Otherwise the loop times the forward
    passes alone, which is what a budget rule sums, and every confidence
    is scored after the loop; each executed student's ``elapsed`` then gets
    an equal share of that time. The one softmax over the executed
    students' logits and the ensemble run once per call, after the loop
    and the confidences; ``scoring`` is their time, in no student's
    ``elapsed``.
    """

    prediction: np.ndarray  # M x C probabilities (float64)
    executed: int
    confidences: list[float]
    weights: list[float]
    elapsed: list[float]  # per-student seconds: forward pass and confidence
    scoring: float  # seconds of the softmax and ensemble after the loop
    probs: np.ndarray  # executed x N x C probabilities in the logits' dtype
    stopped_by: str  # "threshold", "cap", "budget", or "exhausted" if none fired

    def timings_ms(self) -> dict[str, object]:
        """The call's milliseconds: ``per_student_ms``, ``scoring_ms`` and
        ``total_ms``, the sum of the other two."""
        per_student = [1000.0 * t for t in self.elapsed]
        scoring = 1000.0 * self.scoring
        return {
            "per_student_ms": per_student,
            "scoring_ms": scoring,
            "total_ms": sum(per_student) + scoring,
        }


def confidence(logits: np.ndarray, eval_idx) -> float:
    """Batch confidence: mean over the evaluation rows of the row's maximum
    softmax probability. Lies in [1/C, 1], with 1/C only for exactly uniform
    rows.

    Computed in float64 as mean(1 / sum_j exp(z_j - max z)): the largest
    entry of a max-shifted softmax row is exp(0) / s = 1 / s exactly, so no
    second softmax is needed.

    Logits other than a 2-D float32 or float64 array, an empty index set,
    one not of integers (a boolean mask, say) or an index outside [0, rows)
    raise ValueError."""
    check_logits("confidence", logits)
    idx = check_index(eval_idx, logits.shape[0], "confidence", "evaluation")
    scores = _LogitStack(1, logits.shape, logits.dtype, idx)
    scores.push(logits)
    return scores.confidences()[0]


def _confidences(cols: np.ndarray, m: int) -> list[float]:
    """``confidence`` of each of m students whose class-major logits over
    the evaluation rows are the C x (m * n) block ``cols``, one student's n
    columns after another's. The class max, the float64 shift, the exp, the
    class sum and the reciprocal are each one numpy call across the whole
    block; then one reduction takes each student's mean over its own rows.

    The class max is taken in the logits' own dtype (max is exact) and the
    shift writes the one float64 copy, so the bits are those of casting
    first. Every step but the mean is elementwise or over the classes of
    one row, and each student's mean sums its own contiguous run of
    reciprocals, so a student's confidence has the same bits whatever block
    it is scored in. One student's run is reduced as a 1-D array: the same
    bits, and half a microsecond cheaper on a query, which a threshold rule
    pays per student."""
    z = np.subtract(cols, cols.max(axis=0), dtype=np.float64)
    np.exp(z, out=z)
    r = class_sum(z)
    np.divide(1.0, r, out=r)
    n = r.size // m
    if m == 1:
        return [float(np.add.reduce(r) / n)]
    return [s / n for s in np.add.reduce(r.reshape(m, n), 1).tolist()]


class _LogitStack:
    """The logits of up to ``k_total`` students over the same N rows, and
    their scoring over the checked index array ``idx``: the batch confidence
    of the student pushed last, or of every student pushed, then one softmax
    over every student pushed.

    The stack is class-major, C x K x N: each student's logits are copied
    in transposed, once, and scored by ``_confidences`` and
    ``numkit.softmax_classes`` on ``flat``, its C x (K * N) view, where the
    rows of students j..k-1 are the columns j * N to k * N."""

    def __init__(self, k_total: int, shape: tuple[int, int], dtype, idx: np.ndarray):
        n, c = shape
        self.stack = np.empty((c, k_total, n), dtype)
        self.flat = self.stack.reshape(c, k_total * n)
        self.size = 0
        self.idx = idx
        if idx.size == n and (idx == np.arange(n)).all():
            self.idx = None  # every row in order: no gather

    def push(self, logits: np.ndarray) -> None:
        """Store the next student's N x C logits."""
        self.stack[:, self.size] = logits.T
        self.size += 1

    def _scored(self, j: int, k: int) -> list[float]:
        """The batch confidences of students j..k-1: one ``_confidences``
        call on their columns of ``flat``, gathered with one ``take`` unless
        the index set is every row in order."""
        if self.idx is None:
            n = self.stack.shape[2]
            cols = self.flat[:, j * n : k * n]
        else:
            cols = self.stack[:, j:k].take(self.idx, axis=2).reshape(len(self.flat), -1)
        return _confidences(cols, k - j)

    def last_confidence(self) -> float:
        """The batch confidence of the student pushed last."""
        return self._scored(self.size - 1, self.size)[0]

    def confidences(self) -> list[float]:
        """The batch confidences of every student pushed, ``SCORE_BLOCK``
        float64 values of the evaluation rows' logits at a time: the students
        of a query in one call, each full-graph student alone."""
        c, _, n = self.stack.shape
        rows = n if self.idx is None else self.idx.size
        step = max(1, SCORE_BLOCK // (c * rows))
        confs: list[float] = []
        for j in range(0, self.size, step):
            confs += self._scored(j, min(j + step, self.size))
        return confs

    def softmax(self) -> np.ndarray:
        """The k x N x C probabilities of the k students pushed: one
        ``softmax_classes`` over the C x (k * N) block of every row of
        every student, then one transposed copy. The softmax runs in place,
        so it is the stack's last use."""
        c, _, n = self.stack.shape
        k = self.size
        e = softmax_classes(self.flat[:, : k * n])
        return np.ascontiguousarray(e.reshape(c, k, n).transpose(1, 2, 0))


def score_logits(
    logits: list[np.ndarray], eval_idx
) -> tuple[np.ndarray, list[float]]:
    """Per-student probabilities (a k x N x C stack) and batch confidences
    of students whose logits over every row are already known, by the
    scoring of ``run_anytime``: from the logits a run computes they are the
    same bits as its ``probs`` and ``confidences``. The confidences are
    scored in ``SCORE_BLOCK`` chunks, as a run without a threshold rule
    scores them after its loop. The index set is checked once. Each
    student's logits must be a 2-D float32 or float64 array of one shape."""
    if not logits:
        raise ValueError("score_logits: no students")
    for z in logits:
        check_logits("score_logits", z)
    shape = logits[0].shape
    if any(z.shape != shape for z in logits):
        raise ValueError(f"score_logits: logits of shapes {[z.shape for z in logits]}")
    idx = check_index(eval_idx, shape[0], "score_logits", "evaluation")
    scores = _LogitStack(len(logits), shape, np.result_type(*logits), idx)
    for z in logits:
        scores.push(z)
    confidences = scores.confidences()
    return scores.softmax(), confidences


def ensemble(preds: np.ndarray, confs: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Confidence-weighted combination P = sum_j w_j * preds_j with
    w = softmax(confidences), accumulated in float64 in student order.
    ``preds`` is a k x M x C stack (or a sequence of k M x C arrays) of
    row-normalized predictions."""
    if len(preds) == 0:
        raise ValueError("ensemble: no predictions")
    if len(preds) != len(confs):
        raise ValueError(
            f"ensemble: {len(preds)} predictions vs {len(confs)} confidences"
        )
    # numpy's 1-D max and sum over the K confidences: the bits of a row
    # softmax of the 1 x K array
    c = np.asarray(confs, dtype=np.float64)
    weights = np.exp(c - c.max())
    weights /= weights.sum()
    combined = np.zeros(preds[0].shape, dtype=np.float64)
    term = np.empty_like(combined)
    for w, p in zip(weights, preds):
        # cast into the one float64 work array, then scale in place: no
        # temporaries, and for float32 predictions faster than a multiply
        # that casts through numpy's ufunc buffers or a float64 copy of the
        # whole stack
        term[...] = p
        term *= w
        combined += term
    return combined, weights


def prefix_ensembles(preds: np.ndarray, confs: list[float]) -> Iterator[np.ndarray]:
    """Yield ``ensemble(preds[:k], confs[:k])[0]`` for k = 1..len(preds),
    one prefix of the stack at a time. Each prefix is recombined from
    scratch, so it is bit-identical to a run capped at k students."""
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
    thread through the executed students. Each student reads one [x | h]
    buffer allocated per call: x is written once, and each student's hidden
    output goes into the right-hand columns for the next. Its dtype is that
    of x combined with the weights. The cascade itself is never mutated.

    Per student the loop runs the forward pass and keeps the logits in one
    class-major stack (see the module docstring); with a threshold rule it
    also scores the student's float64 batch confidence, which that rule
    reads. Logits other than float32 or float64, from a cascade built by
    hand at another precision, raise ValueError.
    Without a threshold rule every executed student is scored after the
    loop, ``SCORE_BLOCK`` values at a time, and that time is shared equally
    into their ``elapsed``. Then one softmax over the executed students'
    stacked logits gives every ``probs`` row and the ensemble combines
    them; neither is in any student's ``elapsed``, both are in ``scoring``.
    """
    if not c.students:
        raise ValueError("run_anytime: empty cascade")
    first = c.students[0]
    d = c.feat_dim
    if x.shape[1] != d:
        raise ValueError(f"feature width mismatch: expected {d}, got {x.shape[1]}")
    idx = check_index(eval_idx, x.shape[0], "run_anytime", "evaluation")

    dtype = np.result_type(x.dtype, first.layers[0][0].dtype)
    inputs = np.zeros((x.shape[0], first.input_dim), dtype=dtype)
    inputs[:, :d] = x
    gated = policy.conf_threshold is not None
    h = None
    scores = None
    conf = None
    confs: list[float] = []
    elapsed: list[float] = []
    for params in c.students:
        t0 = time.perf_counter()
        if h is not None:
            inputs[:, d:] = h
        h, logits = student_forward(params, inputs)
        if scores is None:
            check_logits("run_anytime", logits)
            scores = _LogitStack(c.n_students, logits.shape, logits.dtype, idx)
        scores.push(logits)
        if gated:
            conf = scores.last_confidence()
            confs.append(conf)
        elapsed.append(time.perf_counter() - t0)
        stopped_by = policy.fired(conf, len(elapsed), sum(elapsed))
        if stopped_by is not None:
            break
    if not gated:
        t0 = time.perf_counter()
        confs = scores.confidences()
        share = (time.perf_counter() - t0) / len(elapsed)
        elapsed = [t + share for t in elapsed]
    t0 = time.perf_counter()
    probs = scores.softmax()
    prediction, weights = ensemble(probs, confs)
    scoring = time.perf_counter() - t0
    return InferenceResult(
        prediction=prediction,
        executed=len(confs),
        confidences=confs,
        weights=[float(w) for w in weights],
        elapsed=elapsed,
        scoring=scoring,
        probs=probs,
        stopped_by=stopped_by or "exhausted",
    )


def write_prediction_csv(path, result: InferenceResult) -> None:
    """Per-node predictions: `node,pred_class,confidence_weighted_max`, the
    last with 9 significant digits."""
    pred = result.prediction
    rows = np.arange(pred.shape[0])
    cls = np.argmax(pred, axis=1)
    columns = [rows, cls, pred[rows, cls]]
    _write_csv(
        path, columns, ("%d", "%d", "%.9g"), header="node,pred_class,confidence_weighted_max"
    )


def write_result_json(path, result: InferenceResult) -> None:
    """Run metadata: executed count, the stopping rule that fired,
    confidences and weights. It holds no clock value: the call's times are
    ``result.timings_ms()``, which ``infer`` writes to a file of its own."""
    doc = {
        "executed": result.executed,
        "stopped_by": result.stopped_by,
        "confidences": result.confidences,
        "weights": result.weights,
    }
    write_json(path, doc)
