"""Dense/sparse numeric kernels with hand-derived gradients.

Everything operates on plain numpy arrays (dense, row-major) and scipy CSR
matrices; there is no autodiff anywhere in the package. Loss functions return
a :class:`GradPair` carrying the scalar value and analytic gradients keyed by
parameter name, and every gradient formula is validated against
:func:`finite_diff_check` in the test suite.

float32 is the working precision for training; `finite_diff_check` insists on
float64 arrays because central differences drown in float32 rounding noise.

The package scores logits class-major: on C x M logits the class max, the
exp and the class sum are each one numpy call across all rows, where a
row-major array costs numpy a reduction per row. ``softmax_classes`` is the
softmax that the teacher's soft labels (``softmax_rows``) and anytime
scoring run on; ``log_and_softmax_rows`` gives each loss its
log-probabilities and probabilities from one pass, with the same steps and
bits. Both row functions copy their N x C logits once into that layout and
return N x C. A class sum (``class_sum``) adds the classes in order from
the first: up to 7 classes that is the order in which numpy sums a row, so
the bits are numpy's; from 8 classes numpy sums a row in unrolled blocks
and the last bits differ. Logits other than a 2-D float32 or float64 array
are refused (``check_logits``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

# Type alias for the sparse matrix representation used throughout: Â is
# held as CSR. The teacher's products over all N rows take its transpose
# view ``Â.T``, a CSC matrix over the same three arrays, which ``spmm``
# multiplies by scipy's column kernel; since every Â ``graphio`` builds is
# symmetric bit for bit with sorted rows, that is the row kernel's product,
# bit for bit (see ``teacher``).
SparseMatrix = sparse.csr_array

DEFAULT_DTYPE = np.float32

# Denominator floor for relative-error comparisons (avoids 0/0).
REL_ERR_FLOOR = 1e-8

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
    mask = np.empty(shape, dtype=dtype)
    _draw_dropout(rng, mask, rate, None)
    return mask


def apply_dropout(rng: np.random.Generator, x: np.ndarray, rate: float) -> np.ndarray:
    """``dropout_mask(rng, x.shape, rate, x.dtype) * x``, the same bits and
    the same generator state after it, as a fresh array: each block of the
    mask is multiplied by ``x`` as it is drawn, so no full-size mask is
    built."""
    out = np.empty_like(x, order="C")
    _draw_dropout(rng, out, rate, x)
    return out


def dropout_in_place(rng: np.random.Generator, x: np.ndarray, rate: float):
    """``x *= dropout_mask(rng, x.shape, rate, x.dtype)``, the same bits (a
    product of two values does not depend on their order) and the same
    generator state after it, with no full-size mask: each block of the mask
    is drawn into a buffer of one block and multiplied into ``x``.

    Returns the mask's keep scale ``65536 / (65536 - t)`` as a scalar of
    ``x``'s dtype, the value of every kept mask entry: a kept value of ``x``
    is now its old value times the scale, a dropped one is ±0 (NaN for an
    infinite or NaN value). ValueError unless ``x`` is a C-contiguous,
    writeable array."""
    if not (x.flags.c_contiguous and x.flags.writeable):
        raise ValueError("dropout_in_place needs a C-contiguous, writeable array")
    return x.dtype.type(_draw_dropout(rng, x, rate, x))


def _draw_dropout(rng: np.random.Generator, out: np.ndarray, rate: float, x) -> float:
    """The draw loop of ``dropout_mask``, ``apply_dropout`` and
    ``dropout_in_place``: fill the C-contiguous ``out`` with the mask, one
    ``DROPOUT_BLOCK`` of words at a time, each block multiplied by the same
    block of ``x`` unless ``x`` is None. When ``x`` is ``out`` itself, each
    block of the mask goes to a buffer of one block first. Returns the keep
    scale."""
    threshold = dropout_threshold(rate)
    scale = DROPOUT_LEVELS / (DROPOUT_LEVELS - threshold)
    flat = out.reshape(-1)
    x_flat = None if x is None else np.ravel(x)
    words = -(-flat.size // 4)
    size = min(4 * DROPOUT_BLOCK, flat.size)
    keep = np.empty(size, dtype=bool)
    buffer = np.empty(size, dtype=out.dtype) if x is out else None
    for start in range(0, words, DROPOUT_BLOCK):
        count = min(DROPOUT_BLOCK, words - start)
        block = slice(4 * start, 4 * (start + count))
        o = flat[block]
        draws = rng.bit_generator.random_raw(count).astype("<u8", copy=False).view("<u2")
        k = keep[: o.size]
        np.greater_equal(draws[: o.size], threshold, out=k)
        m = o if buffer is None else buffer[: o.size]
        np.multiply(k, scale, dtype=out.dtype, out=m)
        if x_flat is not None:
            np.multiply(m, x_flat[block], out=o)
    return scale


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    """Fan-based uniform init U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def check_logits(fn: str, logits: np.ndarray) -> None:
    """Refuse logits that the class-major softmax does not take: anything
    but a 2-D float32 or float64 array. The ValueError names the function
    ``fn``, the dtype and the shape."""
    if logits.ndim != 2 or logits.dtype not in (np.float32, np.float64):
        raise ValueError(
            f"{fn}: logits must be a 2-D float32 or float64 array, "
            f"got {logits.dtype} of shape {logits.shape}"
        )


def class_sum(z: np.ndarray) -> np.ndarray:
    """Sums over the leading axis of the C x M array ``z``, in class order.
    numpy reduces a single column as one contiguous run, which it sums in
    unrolled blocks from 8 values, so that case accumulates instead."""
    if z.shape[1] == 1:
        return np.add.accumulate(z, axis=0)[-1]
    return np.add.reduce(z, axis=0)


def softmax_classes(z: np.ndarray) -> np.ndarray:
    """Softmax over the leading axis of the C x M class-major block ``z``,
    in place, returning ``z``: the class max, shift, exp, class sum and
    division are each one numpy call across all M rows."""
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= class_sum(z)
    return z


def log_and_softmax_rows(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-softmax and softmax of the N x C ``logits``, as N x C
    arrays, from one class-major pass: one copy in, one class max and shift,
    one exp and one class sum ``s``, then ``z - log s`` (never -inf) and
    ``e / s``. The probabilities are ``softmax_rows(logits)`` bit for bit.
    Logits other than a 2-D float32 or float64 array raise ValueError."""
    check_logits("log_and_softmax_rows", logits)
    z = logits.T.copy()
    z -= z.max(axis=0)
    e = np.exp(z)
    s = class_sum(e)
    z -= np.log(s)
    e /= s
    return np.ascontiguousarray(z.T), np.ascontiguousarray(e.T)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the N x C ``logits``, stabilized by max
    subtraction.

    Rows sum to 1 within rounding for any finite input, and the result is
    invariant under adding a per-row constant to the logits. The logits are
    copied once into a C x N block, ``softmax_classes`` runs in place on
    it, and one transposed copy returns the N x C rows: the same bits as
    ``inference.score_logits`` gives for them. Logits other than a 2-D
    float32 or float64 array raise ValueError.
    """
    check_logits("softmax_rows", logits)
    return np.ascontiguousarray(softmax_classes(logits.T.copy()).T)


def accuracy(pred: np.ndarray, y: np.ndarray, idx=None) -> float:
    """Fraction of the rows ``idx`` (``check_index``), or of every row when
    omitted, whose one-hot label in ``y`` has its 1 at the argmax of
    ``pred`` (ties to the lowest class). ``pred`` and ``y`` hold the same
    rows and classes: unequal row or column counts raise ValueError naming
    both."""
    if pred.shape[0] != y.shape[0]:
        raise ValueError(
            f"accuracy: {pred.shape[0]} prediction rows vs {y.shape[0]} label rows"
        )
    if pred.shape[1] != y.shape[1]:
        raise ValueError(
            f"accuracy: {pred.shape[1]} prediction columns vs {y.shape[1]} label columns"
        )
    if idx is not None:
        idx = check_index(idx, pred.shape[0], "accuracy", "evaluation")
        pred, y = pred[idx], y[idx]
    return float(np.mean(y[np.arange(y.shape[0]), np.argmax(pred, axis=1)] == 1))


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
    logp, probs = log_and_softmax_rows(logits[idx])
    sub_onehot = onehot[idx]
    value = float(-(sub_onehot * logp).sum() / idx.size)
    grad = np.zeros_like(logits)
    # accumulate, not assign, so a repeated row's terms add up. With one-hot
    # labels no term is -0, so on distinct rows 0 + term keeps its bits
    np.add.at(grad, idx, (probs - sub_onehot) / idx.size)
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
    sums = teacher_probs.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-5
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ValueError(
            f"kl_divergence: teacher row {row} sums to {float(sums[row]):.8g}, not 1"
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
    logp, probs = log_and_softmax_rows(logits)
    terms = t * logp
    np.subtract(targets.t_log_t, terms, out=terms)
    value = float(terms.sum() / count)
    diff = probs - t
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
