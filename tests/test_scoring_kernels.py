"""The class-major scoring kernels of ``inference`` give the bits of the
row-major kernels they replaced.

``frozen_confidence`` and ``frozen_stacked_softmax`` are copies of the
row-major ``_confidence`` and ``_stacked_softmax`` as they were before
scoring went class-major. Every stack is scored through ``score_logits``
and ``confidence``, which pick the class-major or the row-major kernel by
the class count and dtype, and compared bit for bit, NaNs included: with 1
to 10 classes, on both sides of the 7-class cut; at float32 and float64,
and float16, which is scored row by row; with row counts on both sides of
numkit's row_max and row_sum fold heights; over identity, unsorted and
repeated index sets; with tied, signed-zero, infinite and NaN rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlpcascade.inference as inf
from mlpcascade.numkit import row_max, row_sum, softmax_rows

PROPERTY = settings(max_examples=150, deadline=None)
# NaNs of both signs and with payloads, since which NaN survives depends on
# each kernel's order of operands
NANS = tuple(
    np.array([sign | 0x7FF8000000000000 | payload], np.uint64).view(np.float64)[0]
    for sign in (0, 1 << 63)
    for payload in (0, 0x8DD08 << 29)
)
SPECIALS = (0.0, -0.0, np.inf, -np.inf, *NANS)


def frozen_confidence(logits, idx):
    rows = logits[idx]
    z = np.subtract(rows, row_max(rows), dtype=np.float64)
    np.exp(z, out=z)
    r = row_sum(z)[:, 0]
    np.divide(1.0, r, out=r)
    return float(np.add.reduce(r) / r.size)


def frozen_stacked_softmax(logits):
    k, n, c = logits.shape
    return softmax_rows(logits.reshape(k * n, c)).reshape(k, n, c)


def bits(a):
    """The raw bytes of ``a`` as unsigned integers: equal bits, NaN
    payloads and signed zeros included, compare equal."""
    a = np.asarray(a)
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def make_stack(rng, k, n, c, dtype, special_share):
    """A k x n x c stack of logits with whole tied rows, tied maxima and a
    ``special_share`` of its entries from ``SPECIALS``."""
    stack = rng.standard_normal((k, n, c)) * rng.choice([0.1, 3.0, 40.0])
    rows = stack.reshape(k * n, c)
    tied = rng.random(k * n) < 0.1
    rows[tied] = rows[tied, :1]
    if c > 1:
        top = rng.random(k * n) < 0.1
        rows[top, -1] = rows[top].max(axis=1)
    special = rng.random(stack.shape) < special_share
    stack[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return stack.astype(dtype)


def make_index(rng, n, kind):
    if kind == "identity":
        return np.arange(n)
    if kind == "unsorted":
        return rng.permutation(n)[: max(1, n // 2)]
    return rng.integers(0, n, size=n + 3)  # repeated rows


def check_same_bits(stack, idx):
    logits = list(stack)
    with np.errstate(all="ignore"):
        want_probs = frozen_stacked_softmax(stack)
        want_confs = [frozen_confidence(z, idx) for z in stack]
        probs, confs = inf.score_logits(logits, idx)
        single = inf.confidence(stack[0], idx)
    assert probs.shape == stack.shape and probs.dtype == stack.dtype
    assert np.array_equal(bits(probs), bits(want_probs))
    assert np.array_equal(bits(np.array(confs)), bits(np.array(want_confs)))
    assert bits(np.float64(single)) == bits(np.float64(want_confs[0]))


# both sides of row_max's (16 C) and row_sum's (64 C) fold heights, for one
# student and for the stack
ROW_COUNTS = (1, 5, 16, 63, 64, 130, 300, 700)


@pytest.mark.parametrize("c", range(1, 11))
# float16 logits, which only a library caller can pass, are scored row by
# row at every width: numpy sums them in float32
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("index", ["identity", "unsorted", "repeated"])
def test_seeded_stacks_keep_the_bits(c, dtype, index):
    rng = np.random.default_rng(c * 7 + len(index))
    for n in ROW_COUNTS:
        for k, share in ((1, 0.0), (4, 0.0), (3, 0.02)):
            stack = make_stack(rng, k, n, c, dtype, share)
            check_same_bits(stack, make_index(rng, n, index))


@PROPERTY
@given(
    c=st.integers(1, 10),
    n=st.integers(1, 700),
    k=st.integers(1, 5),
    dtype=st.sampled_from([np.float32, np.float64]),
    index=st.sampled_from(["identity", "unsorted", "repeated"]),
    special_share=st.sampled_from([0.0, 0.001, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_stacks_keep_the_bits(c, n, k, dtype, index, special_share, seed):
    rng = np.random.default_rng(seed)
    stack = make_stack(rng, k, n, c, dtype, special_share)
    check_same_bits(stack, make_index(rng, n, index))


@pytest.mark.parametrize("c", [2, 4, 7, 8])
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
    # tall enough for every fold, in one student and as a stack
    n = 64 * c + len(rows)
    stack = np.resize(block, (2, n, c)).astype(dtype)
    for idx in (np.arange(n), np.arange(len(rows)), np.arange(n)[::-1]):
        check_same_bits(stack, idx)
    for i in range(len(rows)):
        check_same_bits(stack[:, i : i + 1], np.array([0]))
