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

# Type alias for the sparse matrix representation used throughout.
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

# row_sum folds column by column when the array has 2 to ROW_SUM_COLUMNS
# columns and at least ROW_SUM_ROWS_PER_COLUMN rows per column. numpy sums a
# row of fewer than 8 values one at a time from +0, which the fold repeats;
# from 8 values on it sums in unrolled blocks, in another order. Below that
# height numpy's per-row reduction is the cheaper one.
ROW_SUM_COLUMNS = 7
ROW_SUM_ROWS_PER_COLUMN = 64

# dropout_mask compares 16-bit draws with round(rate * DROPOUT_LEVELS), so
# a dropout rate takes effect as a multiple of 1/65536.
DROPOUT_LEVELS = 1 << 16

# 64-bit generator words per block drawn by dropout_mask: 128 KiB, small
# enough to stay in cache between the draw and the comparison.
DROPOUT_BLOCK = 1 << 14


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


def dropout_threshold(rate: float) -> int:
    """The 16-bit threshold ``t = round(rate * 65536)`` of a dropout rate:
    ``dropout_mask`` keeps a value iff its 16-bit draw is ``>= t``.

    ValueError naming the rate when it is outside [0, 1), or so close to 1
    (``rate >= 1 - 2**-17``) that ``t`` is 65536 and nothing would be kept.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout {rate} outside [0, 1)")
    threshold = round(rate * DROPOUT_LEVELS)
    if threshold == DROPOUT_LEVELS:
        raise ValueError(
            f"dropout {rate} keeps nothing: masks resolve rates in steps of "
            f"1/65536 and it rounds to 1 (it must be < 1 - 2^-17)"
        )
    return threshold


def dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> np.ndarray:
    """Inverted-dropout mask of ``dtype``: a value is kept iff a 16-bit draw
    ``u >= t`` with ``t = dropout_threshold(rate)``, and survivors are scaled
    by ``65536 / (65536 - t)``, so the mask's expectation is exactly 1 and the
    effective rate is ``t / 65536``.

    Scaling at train time keeps eval forward passes mask-free. The draws are
    the raw 64-bit words of ``rng.bit_generator``, read little-endian as four
    16-bit values each, low half first; a mask of n values takes
    ``ceil(n / 4)`` words. They are drawn ``DROPOUT_BLOCK`` words at a time,
    in order, so the mask and the generator state after it do not depend on
    the block size, and no full-size array of draws is built.
    """
    return _draw_dropout(rng, np.empty(shape, dtype=dtype), rate, None)


def apply_dropout(rng: np.random.Generator, x: np.ndarray, rate: float) -> np.ndarray:
    """``dropout_mask(rng, x.shape, rate, x.dtype) * x``, the same bits and
    the same generator state after it, as a fresh array: each block of the
    mask is multiplied by ``x`` as it is drawn, so no full-size mask is
    built."""
    return _draw_dropout(rng, np.empty_like(x, order="C"), rate, x)


def _draw_dropout(rng: np.random.Generator, out: np.ndarray, rate: float, x) -> np.ndarray:
    """The draw loop of ``dropout_mask`` and ``apply_dropout``: fill the
    C-contiguous ``out`` with the mask, one ``DROPOUT_BLOCK`` of words at a
    time, each block multiplied by the same block of ``x`` unless ``x`` is
    None."""
    threshold = dropout_threshold(rate)
    scale = DROPOUT_LEVELS / (DROPOUT_LEVELS - threshold)
    flat = out.reshape(-1)
    x_flat = None if x is None else np.ravel(x)
    words = -(-flat.size // 4)
    keep = np.empty(min(4 * DROPOUT_BLOCK, flat.size), dtype=bool)
    for start in range(0, words, DROPOUT_BLOCK):
        count = min(DROPOUT_BLOCK, words - start)
        block = slice(4 * start, 4 * (start + count))
        o = flat[block]
        draws = rng.bit_generator.random_raw(count).astype("<u8", copy=False).view("<u2")
        k = keep[: o.size]
        np.greater_equal(draws[: o.size], threshold, out=k)
        np.multiply(k, scale, dtype=out.dtype, out=o)
        if x_flat is not None:
            np.multiply(o, x_flat[block], out=o)
    return out


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


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1, keepdims=True)`` with the same bits, faster on tall,
    narrow arrays.

    For a C-contiguous float32 or float64 array with 2 to
    ``ROW_SUM_COLUMNS`` columns and at least ``ROW_SUM_ROWS_PER_COLUMN``
    rows per column, the sum is taken one column at a time:
    ``((+0 + c0) + c1) + ...``, the order in which numpy sums a row of
    fewer than 8 values. Starting from +0
    matters: a row of -0 values sums to +0, as in numpy. When two NaNs meet,
    which one's sign and payload survive depends on how the loop orders its
    operands, and numpy's vector and scalar loops differ there; so the rows
    whose fold is NaN are summed again by numpy. Every result, signed
    zeros, infinities, NaNs and subnormals included, is the same bits as
    numpy's (checked for every width at float32 and float64). Other dtypes
    go to numpy: it sums a float16 row in float32 and rounds once, which a
    float16 fold would not repeat.
    """
    n_rows, n_cols = a.shape
    if (
        not 2 <= n_cols <= ROW_SUM_COLUMNS
        or n_rows < ROW_SUM_ROWS_PER_COLUMN * n_cols
        or a.dtype not in (np.float32, np.float64)
        or not a.flags.c_contiguous
    ):
        return a.sum(axis=1, keepdims=True)
    cols = a.T
    out = cols[0] + 0.0
    for col in cols[1:]:
        np.add(out, col, out=out)
    nan = np.isnan(out)
    if nan.any():
        out[nan] = a[nan].sum(axis=1)
    return out[:, None]


def _shifted(logits: np.ndarray) -> np.ndarray:
    """``logits - row_max(logits)`` as a fresh floating-point array."""
    if logits.dtype.kind != "f":
        logits = logits.astype(np.float64)
    return logits - row_max(logits)


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stabilized by max subtraction (never -inf)."""
    z = _shifted(logits)
    z -= np.log(row_sum(np.exp(z)))
    return z


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction.

    Rows sum to 1 within rounding for any finite input, and the result is
    invariant under adding a per-row constant to the logits. The exp and
    the division run in place on the one shifted copy.
    """
    e = _shifted(logits)
    np.exp(e, out=e)
    e /= row_sum(e)
    return e


def accuracy(logits: np.ndarray, truth_ids: np.ndarray) -> float:
    """Fraction of rows whose argmax equals the row's class id in
    ``truth_ids``; argmax ties break to the lowest class index."""
    return float(np.mean(np.argmax(logits, axis=1) == truth_ids))


def check_index(idx, n_rows: int, func: str, name: str) -> np.ndarray:
    """The index set ``idx`` as a flat ``intp`` array, after rejecting an
    empty set, a set that does not hold integers (numpy would read a boolean
    mask as rows 0 and 1 and truncate floats) and any index outside
    [0, n_rows) (numpy would wrap a negative one onto another row). The
    ValueError names the function ``func`` and its index set ``name``."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError(f"{func}: empty {name} index set")
    if idx.dtype.kind not in "iu":
        raise ValueError(
            f"{func}: {name} index set must hold integers, got dtype {idx.dtype}"
        )
    lo, hi = idx.min(), idx.max()
    if lo < 0 or hi >= n_rows:
        bad = lo if lo < 0 else hi
        raise ValueError(f"{func}: {name} index {bad} out of range for {n_rows} rows")
    return idx.astype(np.intp, copy=False).ravel()


def masked_cross_entropy(logits: np.ndarray, onehot: np.ndarray, mask) -> GradPair:
    """Mean cross entropy over the rows named by `mask`.

    value = (1/|mask|) * sum_i -log softmax(logits[i])[class(i)]

    The gradient w.r.t. the logits is (softmax - onehot)/|mask| on masked
    rows and zero elsewhere. Soft label rows (summing to 1) work by the same
    formula, but the package passes only one-hot rows: ``cascade.mixup_loss``
    computes its own soft-label cross entropy. A row named m times counts m
    times, in the value and in the gradient alike.
    """
    if logits.shape != onehot.shape:
        raise ValueError(
            f"logits shape {logits.shape} != labels shape {onehot.shape}"
        )
    idx = check_index(mask, logits.shape[0], "masked_cross_entropy", "mask")
    sub_logits = logits[idx]
    logp = log_softmax_rows(sub_logits)
    sub_onehot = onehot[idx]
    value = float(-(sub_onehot * logp).sum() / idx.size)
    grad = np.zeros_like(logits)
    # accumulate, not assign, so a repeated row's terms add up. With one-hot
    # labels no term is -0, so on distinct rows 0 + term keeps its bits
    np.add.at(grad, idx, (softmax_rows(sub_logits) - sub_onehot) / idx.size)
    return GradPair(value, {"logits": grad})


@dataclass(frozen=True)
class SoftTargets:
    """Teacher rows checked to be distributions, with their ``t * ln t``
    terms: the constant side of ``kl_divergence``. Training derives them
    once per cascade and every epoch's KL reuses them."""

    probs: np.ndarray
    t_log_t: np.ndarray


def soft_targets(teacher_probs: np.ndarray) -> SoftTargets:
    """Check that every row of ``teacher_probs`` sums to 1 within 1e-5 and
    has no negative entry, and derive ``t * ln t`` with the 0 * ln 0 = 0
    limit."""
    row_sums = teacher_probs.sum(axis=1)
    bad = np.abs(row_sums - 1.0) > 1e-5
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ValueError(
            f"kl_divergence: teacher row {row} sums to {float(row_sums[row]):.8g}, not 1"
        )
    if np.any(teacher_probs < 0):
        row = int(np.argmax((teacher_probs < 0).any(axis=1)))
        raise ValueError(f"kl_divergence: teacher row {row} has negative entries")
    positive = teacher_probs > 0
    t_log_t = np.where(
        positive, teacher_probs * np.log(np.where(positive, teacher_probs, 1.0)), 0.0
    )
    return SoftTargets(teacher_probs, t_log_t)


def kl_divergence(targets: SoftTargets, logits: np.ndarray) -> GradPair:
    """Mean KL(teacher || softmax(logits)) over every row.

    ``targets`` are the ``SoftTargets`` of the teacher's probabilities,
    checked once when built. The teacher distribution is a constant: no
    gradient flows to it. The gradient w.r.t. the student logits is
    (softmax(logits) - teacher)/rows. Value is >= 0 up to rounding (Gibbs
    inequality).
    """
    t = targets.probs
    if t.shape != logits.shape:
        raise ValueError(f"teacher shape {t.shape} != student shape {logits.shape}")
    count = logits.shape[0]
    terms = t * log_softmax_rows(logits)
    np.subtract(targets.t_log_t, terms, out=terms)
    value = float(terms.sum() / count)
    diff = softmax_rows(logits) - t
    diff /= count
    return GradPair(value, {"logits": diff.astype(logits.dtype, copy=False)})


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
    """SHA-256 hex digest over dtype, shape, and raw bytes of the arrays.

    A C-contiguous array is hashed from its own memory; only another layout
    is copied, into C order, which is the byte order ``tobytes`` gives."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a)
    return h.hexdigest()
