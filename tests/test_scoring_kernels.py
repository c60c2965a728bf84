"""The class-major scoring kernels of ``inference`` and numkit's row
softmaxes against frozen references.

Every stack is scored through ``score_logits`` and ``confidence`` and
compared with ``frozen_class_order_softmax`` and
``frozen_class_order_confidence``, which take each class max and class sum
class by class, left to right from +0, in the kernels' dtypes: every
non-NaN value bit for bit, and NaN in the same positions. Which NaN
survives depends on each kernel's order of operands, and numpy reduces a
single row in another order than a block of rows. Up to 7 classes a sum
in class order is the order in which numpy sums a row, so the row-major
kernels that scoring had before it went class-major, frozen here with
numpy's own row max and row sum as ``frozen_confidence`` and
``frozen_stacked_softmax``, give the same bits too: every non-NaN
confidence and probability, with NaN in the same positions. Their NaN
payloads and signs can differ from the class-major ones. From 8 classes numpy sums a
row in unrolled blocks, so only the class-order references apply, and a
float64 oracle bounds the error. The grid covers 1 to 10, 16 and 47
classes; float32 and float64; one row (which ``class_sum`` accumulates) to
hundreds of rows; identity, unsorted and repeated index sets; and tied,
signed-zero, infinite and NaN rows.

``softmax_rows`` and the losses' one pass ``log_and_softmax_rows`` run the
same steps on one student's rows: they are checked against the class-order
references, ``softmax_rows`` against ``score_logits`` and the one pass
against ``softmax_rows`` and ``frozen_log_softmax_rows`` (the log-softmax
the losses ran before the pass) bit for bit, at 1 to 64 classes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlpcascade.inference as inf
from mlpcascade.numkit import class_sum, log_and_softmax_rows, softmax_rows

PROPERTY = settings(max_examples=150, deadline=None)
# NaNs of both signs and with payloads, since which NaN survives depends on
# each kernel's order of operands
NANS = tuple(
    np.array([sign | 0x7FF8000000000000 | payload], np.uint64).view(np.float64)[0]
    for sign in (0, 1 << 63)
    for payload in (0, 0x8DD08 << 29)
)
SPECIALS = (0.0, -0.0, np.inf, -np.inf, *NANS)
# numpy sums a row of up to this many values in class order, from +0
ROW_ORDER_CLASSES = 7


def oracle_bound(c):
    """The error bound against the float64 oracle, in epsilons of the
    logits' dtype relative to the oracle's entry: up to 3 for numpy's exp,
    (C - 1) / 2 for C - 1 additions of positive terms in class order, and
    1 / 2 for the division. Entries below the smallest normal may also
    differ by it. Measured over 40 seeds of 3 x 300 x C stacks: at most
    3.2, 3.9 and 6.1 epsilons at float32 and 3.0, 3.9 and 4.7 at float64,
    at C = 8, 16 and 47."""
    return 4 + c / 2


def frozen_confidence(logits, idx):
    rows = logits[idx]
    z = np.subtract(rows, rows.max(axis=1, keepdims=True), dtype=np.float64)
    np.exp(z, out=z)
    r = z.sum(axis=1)
    np.divide(1.0, r, out=r)
    return float(np.add.reduce(r) / r.size)


def frozen_stacked_softmax(logits):
    k, n, c = logits.shape
    rows = logits.reshape(k * n, c)
    e = rows - rows.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e.reshape(k, n, c)


def class_order_max(rows):
    m = rows[:, 0].copy()
    for j in range(1, rows.shape[1]):
        m = np.maximum(m, rows[:, j])
    return m


def class_order_sum(rows):
    s = np.zeros(rows.shape[0], rows.dtype)
    for j in range(rows.shape[1]):
        s = s + rows[:, j]
    return s


def frozen_class_order_confidence(logits, idx):
    rows = logits[idx]
    z = np.subtract(rows, class_order_max(rows)[:, None], dtype=np.float64)
    np.exp(z, out=z)
    r = 1.0 / class_order_sum(z)
    return float(np.add.reduce(r) / r.size)


def class_order_softmax(rows):
    e = np.exp(rows - class_order_max(rows)[:, None])
    return e / class_order_sum(e)[:, None]


def class_order_log_softmax(rows):
    z = rows - class_order_max(rows)[:, None]
    return z - np.log(class_order_sum(np.exp(z)))[:, None]


def frozen_log_softmax_rows(logits):
    """The row log-softmax the losses ran before ``log_and_softmax_rows``,
    frozen: its own class-major copy, shift, exp and class sum."""
    z = logits.T.copy()
    z -= z.max(axis=0)
    z -= np.log(class_sum(np.exp(z)))
    return np.ascontiguousarray(z.T)


def frozen_class_order_softmax(logits):
    k, n, c = logits.shape
    return class_order_softmax(logits.reshape(k * n, c)).reshape(k, n, c)


def oracle_softmax(logits):
    """Softmax in float64 of the shift the kernel computes in the logits'
    dtype (max is exact, and the shift rounds once in that dtype)."""
    k, n, c = logits.shape
    rows = logits.reshape(k * n, c)
    e = np.exp((rows - rows.max(axis=1, keepdims=True)).astype(np.float64))
    return (e / e.sum(axis=1, keepdims=True)).reshape(k, n, c)


def bits(a):
    """The raw bytes of ``a`` as unsigned integers: equal bits, NaN
    payloads and signed zeros included, compare equal."""
    a = np.asarray(a)
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def assert_same_bits_but_nan_payloads(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(bits(got[~nan]), bits(want[~nan]))


def assert_within_oracle(probs, oracle):
    nan = np.isnan(oracle)
    assert np.array_equal(np.isnan(probs), nan)
    info = np.finfo(probs.dtype)
    bound = oracle_bound(probs.shape[-1]) * float(info.eps) * oracle[~nan]
    err = np.abs(probs[~nan].astype(np.float64) - oracle[~nan])
    assert (err <= bound + float(info.tiny)).all()


def make_stack(rng, k, n, c, dtype, special_share, specials=SPECIALS):
    """A k x n x c stack of logits with whole tied rows, tied maxima and a
    ``special_share`` of its entries from ``specials``."""
    stack = rng.standard_normal((k, n, c)) * rng.choice([0.1, 3.0, 40.0])
    rows = stack.reshape(k * n, c)
    tied = rng.random(k * n) < 0.1
    rows[tied] = rows[tied, :1]
    if c > 1:
        top = rng.random(k * n) < 0.1
        rows[top, -1] = rows[top].max(axis=1)
    special = rng.random(stack.shape) < special_share
    stack[special] = rng.choice(specials, size=int(special.sum()))
    return stack.astype(dtype)


def make_index(rng, n, kind):
    if kind == "identity":
        return np.arange(n)
    if kind == "unsorted":
        return rng.permutation(n)[: max(1, n // 2)]
    return rng.integers(0, n, size=n + 3)  # repeated rows


def check_scoring(stack, idx):
    logits = list(stack)
    with np.errstate(all="ignore"):
        want_probs = frozen_class_order_softmax(stack)
        want_confs = [frozen_class_order_confidence(z, idx) for z in stack]
        probs, confs = inf.score_logits(logits, idx)
        single = inf.confidence(stack[0], idx)
        oracle = oracle_softmax(stack)
        if stack.shape[-1] <= ROW_ORDER_CLASSES:
            old_probs = frozen_stacked_softmax(stack)
            old_confs = [frozen_confidence(z, idx) for z in stack]
    assert probs.shape == stack.shape and probs.dtype == stack.dtype
    assert_same_bits_but_nan_payloads(probs, want_probs)
    assert_same_bits_but_nan_payloads(np.array(confs), np.array(want_confs))
    assert_same_bits_but_nan_payloads(np.array([single]), np.array(confs[:1]))
    assert_within_oracle(probs, oracle)
    if stack.shape[-1] <= ROW_ORDER_CLASSES:
        assert_same_bits_but_nan_payloads(probs, old_probs)
        assert_same_bits_but_nan_payloads(np.array(confs), np.array(old_confs))


# one row, which class_sum accumulates, to hundreds, for one student and
# for the stack
ROW_COUNTS = (1, 5, 16, 63, 64, 130, 300, 700)


@pytest.mark.parametrize("c", [*range(1, 11), 16, 47])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index", ["identity", "unsorted", "repeated"])
def test_seeded_stacks_keep_the_bits(c, dtype, index):
    rng = np.random.default_rng(c * 7 + len(index))
    for n in ROW_COUNTS:
        for k, share in ((1, 0.0), (4, 0.0), (3, 0.02)):
            stack = make_stack(rng, k, n, c, dtype, share)
            check_scoring(stack, make_index(rng, n, index))


@PROPERTY
@given(
    c=st.integers(1, 16),
    n=st.integers(1, 700),
    k=st.integers(1, 5),
    dtype=st.sampled_from([np.float32, np.float64]),
    index=st.sampled_from(["identity", "unsorted", "repeated"]),
    special_share=st.sampled_from([0.0, 0.001, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
# a NaN confidence whose sign differs from the row-major kernel's
@example(c=4, n=3, k=5, dtype=np.float32, index="identity", special_share=0.5, seed=79695)
def test_random_stacks_keep_the_bits(c, n, k, dtype, index, special_share, seed):
    rng = np.random.default_rng(seed)
    stack = make_stack(rng, k, n, c, dtype, special_share)
    check_scoring(stack, make_index(rng, n, index))


@pytest.mark.parametrize("c", [2, 4, 7, 8, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_special_rows_keep_the_bits(c, dtype):
    """Rows of one special value throughout, and one special value among
    finite ones, at every position: NaN rows, infinite maxima and
    all-signed-zero rows."""
    rows = [np.full(c, v) for v in SPECIALS]
    for v in SPECIALS:
        for j in range(c):
            row = np.linspace(-1.0, 1.0, c)
            row[j] = v
            rows.append(row)
    rows.append(np.zeros(c))
    rows.append(-np.zeros(c))
    block = np.array(rows)
    # many rows, in one student and as a stack, beside the one-row blocks below
    n = 64 * c + len(rows)
    stack = np.resize(block, (2, n, c)).astype(dtype)
    for idx in (np.arange(n), np.arange(len(rows)), np.arange(n)[::-1]):
        check_scoring(stack, idx)
    for i in range(len(rows)):
        check_scoring(stack[:, i : i + 1], np.array([0]))


# the specials of a row softmax's callers: no NaN logits
ROW_SPECIALS = (0.0, -0.0, np.inf, -np.inf)


def check_row_softmax(logits):
    """softmax_rows and log_and_softmax_rows against the class-order
    references, every non-NaN bit; softmax_rows against the scoring softmax
    of the same rows, and the one pass against softmax_rows and
    frozen_log_softmax_rows, every bit."""
    n, c = logits.shape
    with np.errstate(all="ignore"):
        probs = softmax_rows(logits)
        pass_logp, pass_probs = log_and_softmax_rows(logits)
        old_logp = frozen_log_softmax_rows(logits)
        scored = inf.score_logits([logits], np.arange(n))[0][0]
        want, want_log = class_order_softmax(logits), class_order_log_softmax(logits)
    for got in (probs, pass_logp, pass_probs):
        assert got.shape == logits.shape and got.dtype == logits.dtype
        assert got.flags.c_contiguous
    assert np.array_equal(bits(probs), bits(scored))
    assert np.array_equal(bits(pass_probs), bits(probs))
    assert np.array_equal(bits(pass_logp), bits(old_logp))
    assert_same_bits_but_nan_payloads(probs, want)
    assert_same_bits_but_nan_payloads(pass_logp, want_log)


@pytest.mark.parametrize("c", range(1, 65))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_softmax_is_the_scoring_softmax(c, dtype):
    """Seeded rows with ties and specials, then rows of one special value
    throughout and one special value among finite ones, as one block and
    each alone (a one-row block, which class_sum accumulates)."""
    rng = np.random.default_rng(c)
    for n, share in ((1, 0.0), (7, 0.2), (300, 0.0), (300, 0.02)):
        check_row_softmax(make_stack(rng, 1, n, c, dtype, share, ROW_SPECIALS)[0])
    rows = [np.full(c, v) for v in ROW_SPECIALS]
    for v in ROW_SPECIALS:
        row = np.linspace(-1.0, 1.0, c)
        row[rng.integers(c)] = v
        rows.append(row)
    block = np.array(rows, dtype=dtype)
    check_row_softmax(block)
    for i in range(len(block)):
        check_row_softmax(block[i : i + 1])


@PROPERTY
@given(
    c=st.integers(1, 64),
    n=st.integers(1, 400),
    dtype=st.sampled_from([np.float32, np.float64]),
    special_share=st.sampled_from([0.0, 0.001, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_rows_keep_the_scoring_bits(c, n, dtype, special_share, seed):
    rng = np.random.default_rng(seed)
    check_row_softmax(make_stack(rng, 1, n, c, dtype, special_share, ROW_SPECIALS)[0])
