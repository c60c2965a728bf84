"""Dense/sparse numeric kernels with hand-derived gradients.

Everything operates on plain numpy arrays (dense, row-major) and scipy CSR
matrices; there is no autodiff anywhere in the package. Loss functions return
a :class:`GradPair` carrying the scalar value and analytic gradients keyed by
parameter name, and every gradient formula is validated against
:func:`finite_diff_check` in the test suite.

float32 is the working precision for training; `finite_diff_check` insists on
float64 arrays because central differences drown in float32 rounding noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

# Type aliases for the two matrix representations used throughout.
DenseMatrix = np.ndarray
SparseMatrix = sparse.csr_array

DEFAULT_DTYPE = np.float32

# Denominator floor for relative-error comparisons (avoids 0/0).
REL_ERR_FLOOR = 1e-8

# row_max folds column by column when the array has at most this many
# columns and at least this many rows per column. Below that height numpy's
# per-row reduction is cheaper than one ufunc call per column; above that
# width the column loop loses to numpy's vectorized row reduction.
ROW_MAX_COLUMNS = 8
ROW_MAX_ROWS_PER_COLUMN = 16


@dataclass
class GradPair:
    """Scalar loss value plus gradients keyed by parameter identifier.

    Every gradient array has the same shape (and dtype) as the tensor it
    differentiates with respect to.
    """

    value: float
    grads: dict[str, np.ndarray]


def spmm(s: SparseMatrix, d: np.ndarray) -> np.ndarray:
    """Sparse (CSR) times dense product; agrees with the densified matmul."""
    if d.ndim != 2:
        raise ValueError(f"spmm expects a 2-D dense operand, got {d.shape}")
    if s.shape[1] != d.shape[0]:
        raise ValueError(f"spmm shape mismatch: {s.shape} x {d.shape}")
    return s @ d


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> np.ndarray:
    """Inverted-dropout mask: zeros w.p. `rate`, survivors scaled by 1/(1-rate).

    Scaling at train time keeps eval forward passes mask-free.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / (1.0 - rate)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    """Fan-based uniform init U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1, keepdims=True)`` with the same result, faster on tall,
    narrow arrays.

    numpy reduces each row on its own, which costs about 0.1 us per row
    whatever the width. With at most ``ROW_MAX_COLUMNS`` columns and at least
    ``ROW_MAX_ROWS_PER_COLUMN`` rows per column, the maximum is taken one
    column at a time instead, folding left to right as numpy's reduction
    does over a row no wider than its vector registers. Max is exact, so
    every non-NaN result, signed zeros and infinities included, is the same
    bits (checked against numpy with AVX-512 loops); a row holding a NaN
    gives NaN either way, though numpy does not fix that NaN's sign bit.
    Where numpy's vectors hold fewer than C - 1 values it may resolve a
    +0/-0 tie to the other zero; softmax_rows and confidence cannot see
    that sign, since exp(+0) = exp(-0) = 1.
    """
    n_rows, n_cols = a.shape
    if not 2 <= n_cols <= ROW_MAX_COLUMNS or n_rows < ROW_MAX_ROWS_PER_COLUMN * n_cols:
        return a.max(axis=1, keepdims=True)
    cols = a.T
    out = np.maximum(cols[0], cols[1])
    for col in cols[2:]:
        np.maximum(out, col, out=out)
    return out[:, None]


def _shifted(logits: np.ndarray) -> np.ndarray:
    """``logits - row_max(logits)`` as a fresh floating-point array."""
    if logits.dtype.kind != "f":
        logits = logits.astype(np.float64)
    return logits - row_max(logits)


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stabilized by max subtraction (never -inf)."""
    z = _shifted(logits)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction.

    Rows sum to 1 within rounding for any finite input, and the result is
    invariant under adding a per-row constant to the logits. The exp and
    the division run in place on the one shifted copy.
    """
    e = _shifted(logits)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def accuracy(logits: np.ndarray, truth_ids: np.ndarray) -> float:
    """Fraction of rows whose argmax equals the row's class id in
    ``truth_ids``; argmax ties break to the lowest class index."""
    return float(np.mean(np.argmax(logits, axis=1) == truth_ids))


def _as_index(mask) -> np.ndarray:
    return np.asarray(mask, dtype=np.intp).ravel()


def masked_cross_entropy(logits: np.ndarray, onehot: np.ndarray, mask) -> GradPair:
    """Mean cross entropy over the rows named by `mask`.

    value = (1/|mask|) * sum_i -log softmax(logits[i])[class(i)]

    The gradient w.r.t. the logits is (softmax - onehot)/|mask| on masked
    rows and zero elsewhere. Soft label rows (summing to 1) are supported;
    the mixup loss relies on that.
    """
    if logits.shape != onehot.shape:
        raise ValueError(
            f"logits shape {logits.shape} != labels shape {onehot.shape}"
        )
    idx = _as_index(mask)
    if idx.size == 0:
        raise ValueError("masked_cross_entropy: empty mask")
    sub_logits = logits[idx]
    logp = log_softmax_rows(sub_logits)
    sub_onehot = onehot[idx]
    value = float(-(sub_onehot * logp).sum() / idx.size)
    grad = np.zeros_like(logits)
    grad[idx] = (softmax_rows(sub_logits) - sub_onehot) / idx.size
    return GradPair(value, {"logits": grad})


def kl_divergence(teacher_probs: np.ndarray, student_logits: np.ndarray, mask) -> GradPair:
    """Mean KL(teacher || softmax(student)) over the rows named by `mask`.

    The teacher distribution is a constant: no gradient flows to it. The
    gradient w.r.t. the student logits is (softmax(student) - teacher)/|mask|
    on masked rows. Value is >= 0 up to rounding (Gibbs inequality).
    """
    if teacher_probs.shape != student_logits.shape:
        raise ValueError(
            f"teacher shape {teacher_probs.shape} != student shape {student_logits.shape}"
        )
    idx = _as_index(mask)
    if idx.size == 0:
        raise ValueError("kl_divergence: empty mask")
    t = teacher_probs[idx]
    row_sums = t.sum(axis=1)
    bad = np.abs(row_sums - 1.0) > 1e-5
    if np.any(bad):
        row = int(idx[np.argmax(bad)])
        raise ValueError(
            f"kl_divergence: teacher row {row} sums to {float(row_sums[np.argmax(bad)]):.8g}, not 1"
        )
    if np.any(t < 0):
        row = int(idx[np.argmax((t < 0).any(axis=1))])
        raise ValueError(f"kl_divergence: teacher row {row} has negative entries")
    logp = log_softmax_rows(student_logits[idx])
    # t*ln(t) with the 0*ln(0) = 0 limit
    t_log_t = np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
    value = float((t_log_t - t * logp).sum() / idx.size)
    grad = np.zeros_like(student_logits)
    grad[idx] = (softmax_rows(student_logits[idx]) - t) / idx.size
    return GradPair(value, {"logits": grad})


def finite_diff_check(
    loss_fn: Callable[[dict[str, np.ndarray]], GradPair],
    params: dict[str, np.ndarray],
    epsilon: float = 1e-5,
) -> float:
    """Max elementwise relative error between analytic and central-difference
    gradients of `loss_fn` over every entry of every parameter.

    `loss_fn(params)` must be a pure function of the (float64) parameter
    arrays and return a GradPair covering every key in `params`. Probing
    perturbs entries in place and restores them afterwards.
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-4]")
    for name, arr in params.items():
        if arr.dtype != np.float64:
            raise ValueError(
                f"finite_diff_check requires float64 parameters; {name!r} is {arr.dtype}"
            )
    base = loss_fn(params)
    worst = 0.0
    for name, arr in params.items():
        analytic = base.grads[name]
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + epsilon
            up = loss_fn(params).value
            arr.flat[i] = orig - epsilon
            down = loss_fn(params).value
            arr.flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise FloatingPointError(
                    f"non-finite loss while probing parameter {name!r} entry {i}"
                )
            fd = (up - down) / (2.0 * epsilon)
            an = float(analytic.flat[i])
            denom = max(abs(fd), abs(an), REL_ERR_FLOOR)
            worst = max(worst, abs(fd - an) / denom)
    return worst


def fingerprint(*arrays: np.ndarray) -> str:
    """SHA-256 hex digest over dtype, shape, and raw bytes of the arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
