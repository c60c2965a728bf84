import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

import mlpcascade.numkit as nk
from mlpcascade.numkit import (
    GradPair,
    finite_diff_check,
    kl_divergence,
    log_softmax_rows,
    masked_cross_entropy,
    row_max,
    softmax_rows,
    spmm,
)

# Frozen expected values, computed once with 40-digit mpmath.
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
CE_123_CLASS2 = 0.4076059644443803
KL_73_UNIFORM = 0.08228287850505185


def finite_floats(shape, lo=-50.0, hi=50.0):
    return arrays(
        np.float64,
        shape,
        elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    )


class TestSpmm:
    def test_sparse_identity(self):
        m = np.arange(15.0).reshape(5, 3)
        eye = sparse.csr_array(sparse.eye_array(5))
        assert np.allclose(spmm(eye, m), m)

    def test_all_zero_sparse(self):
        s = sparse.csr_array((4, 4))
        m = np.ones((4, 2))
        assert np.array_equal(spmm(s, m), np.zeros((4, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s = sparse.random_array((6, 6), density=0.3, rng=rng, dtype=np.float64)
        s = sparse.csr_array(s)
        d = rng.standard_normal((6, 4))
        dense = s.toarray() @ d
        got = spmm(s, d)
        denom = np.maximum(np.abs(dense), 1.0)
        assert np.max(np.abs(got - dense) / denom) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="spmm shape mismatch"):
            spmm(sparse.csr_array((3, 3)), np.zeros((4, 2)))


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_rows(np.zeros((1, 3)))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    @pytest.mark.parametrize("c", [-1000.0, 0.0, 3.7, 1e4])
    def test_ln2_gap(self, c):
        out = softmax_rows(np.array([[c, c + np.log(2.0)]]))
        assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)

    def test_frozen_values(self):
        out = softmax_rows(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(out, [SOFTMAX_123], atol=1e-14)

    @given(finite_floats((4, 5), -1e4, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, logits):
        out = softmax_rows(logits)
        assert np.all(out >= 0) and np.all(out <= 1 + 1e-12)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-6

    @given(finite_floats((4, 5), -300.0, 300.0))
    @settings(max_examples=100, deadline=None)
    def test_entries_strictly_inside_unit_interval(self, logits):
        # strict positivity holds whenever the row's logit gap cannot
        # underflow exp (gap < ~745 in float64)
        out = softmax_rows(logits)
        assert np.all(out > 0) and np.all(out < 1 + 1e-12)

    @given(finite_floats((3, 4)), finite_floats((3, 1), -30.0, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_per_row_shift_invariance(self, logits, shifts):
        assert np.max(np.abs(softmax_rows(logits + shifts) - softmax_rows(logits))) < 1e-12


class TestMaskedCrossEntropy:
    def test_confident_correct_prediction(self):
        logits = np.array([[30.0, 0.0, 0.0]])
        onehot = np.array([[1.0, 0.0, 0.0]])
        assert masked_cross_entropy(logits, onehot, [0]).value < 1e-9

    def test_uniform_logits_give_ln_c(self):
        logits = np.zeros((3, 4))
        onehot = np.eye(4)[:3]
        got = masked_cross_entropy(logits, onehot, [0, 1, 2]).value
        assert abs(got - np.log(4.0)) < 1e-12

    def test_frozen_value(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        onehot = np.array([[0.0, 0.0, 1.0]])
        assert abs(masked_cross_entropy(logits, onehot, [0]).value - CE_123_CLASS2) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty mask"):
            masked_cross_entropy(np.zeros((2, 2)), np.eye(2), [])

    def test_gradient_zero_off_mask(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 3))
        onehot = np.eye(3)[rng.integers(0, 3, 5)]
        grad = masked_cross_entropy(logits, onehot, [1, 3]).grads["logits"]
        assert np.all(grad[[0, 2, 4]] == 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        onehot = np.eye(3)[rng.integers(0, 3, 5)]
        mask = np.sort(rng.choice(5, size=3, replace=False))
        params = {"logits": rng.standard_normal((5, 3))}

        def loss(p):
            return masked_cross_entropy(p["logits"], onehot, mask)

        assert finite_diff_check(loss, params) < 1e-5


class TestKLDivergence:
    def test_identical_distributions(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 3))
        t = softmax_rows(logits)
        assert abs(kl_divergence(t, logits, np.arange(4)).value) < 1e-12

    def test_onehot_teacher_uniform_student(self):
        t = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        logits = np.zeros((2, 3))
        got = kl_divergence(t, logits, [0, 1]).value
        assert abs(got - np.log(3.0)) < 1e-12

    def test_frozen_value(self):
        t = np.array([[0.7, 0.3]])
        logits = np.zeros((1, 2))
        assert abs(kl_divergence(t, logits, [0]).value - KL_73_UNIFORM) < 1e-12

    def test_unnormalized_teacher_rejected(self):
        t = np.array([[0.7, 0.7]])
        with pytest.raises(ValueError, match="sums to"):
            kl_divergence(t, np.zeros((1, 2)), [0])

    def test_negative_teacher_rejected(self):
        t = np.array([[1.2, -0.2]])
        with pytest.raises(ValueError, match="negative"):
            kl_divergence(t, np.zeros((1, 2)), [0])

    @given(finite_floats((3, 4), -20.0, 20.0), finite_floats((3, 4), -5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_gibbs_inequality(self, t_logits, s_logits):
        t = softmax_rows(t_logits)
        assert kl_divergence(t, s_logits, np.arange(3)).value >= -1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t = softmax_rows(rng.standard_normal((5, 3)))
        params = {"logits": rng.standard_normal((5, 3))}

        def loss(p):
            return kl_divergence(t, p["logits"], np.arange(5))

        assert finite_diff_check(loss, params) < 1e-5


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(2)
        params = {"theta": rng.standard_normal((4, 3))}

        def loss(p):
            th = p["theta"]
            return GradPair(0.5 * float((th * th).sum()), {"theta": th.copy()})

        assert finite_diff_check(loss, params) < 1e-8

    def test_epsilon_bounds_enforced(self):
        params = {"x": np.zeros((1, 1))}
        with pytest.raises(ValueError, match="epsilon"):
            finite_diff_check(lambda p: GradPair(0.0, {"x": p["x"]}), params, epsilon=1e-2)

    def test_float32_rejected(self):
        params = {"x": np.zeros((1, 1), dtype=np.float32)}
        with pytest.raises(ValueError, match="float64"):
            finite_diff_check(lambda p: GradPair(0.0, {"x": p["x"]}), params)

    def test_nonfinite_loss_names_parameter(self):
        params = {"bad": np.array([[0.5]])}

        def loss(p):
            v = float(p["bad"][0, 0])
            out = np.inf if v != 0.5 else 0.0
            return GradPair(out, {"bad": np.zeros((1, 1))})

        with pytest.raises(FloatingPointError, match="'bad'"):
            finite_diff_check(loss, params)

    def test_restores_parameters(self):
        params = {"x": np.array([[1.0, 2.0]])}
        before = params["x"].copy()

        def loss(p):
            return GradPair(float(p["x"].sum()), {"x": np.ones_like(p["x"])})

        finite_diff_check(loss, params)
        assert np.array_equal(params["x"], before)


def test_log_softmax_never_minus_inf():
    logits = np.array([[0.0, -1e4, 1e4]])
    assert np.all(np.isfinite(log_softmax_rows(logits)))


def assert_same_row_max(a):
    """row_max(a) equals a.max(axis=1, keepdims=True): same shape and dtype,
    NaN in the same rows, every other entry the same bits (signed zeros and
    infinities included)."""
    got, want = row_max(a), a.max(axis=1, keepdims=True)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].tobytes(), want[~nan].tobytes())


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0]


class TestRowMax:
    """row_max against numpy's row reduction, on the column fold and on the
    fallback. A short array only reaches the fold with the row threshold
    lifted, so each property runs once with the shipped dispatch and once
    with every array of at most ROW_MAX_COLUMNS columns forced onto the
    fold."""

    @staticmethod
    def check_both_paths(a):
        assert_same_row_max(a)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nk, "ROW_MAX_ROWS_PER_COLUMN", 0)
            assert_same_row_max(a)

    @given(
        st.sampled_from([np.float32, np.float64]).flatmap(
            lambda dt: arrays(
                dt,
                st.tuples(st.integers(1, 40), st.integers(1, 50)),
                elements=st.floats(width=np.dtype(dt).itemsize * 8)
                | st.sampled_from(SPECIAL),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_values(self, a):
        self.check_both_paths(a)

    @given(
        st.sampled_from([np.float32, np.float64]),
        st.integers(1, 50),
        st.integers(0, 300),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_tall_arrays_with_ties_and_specials(self, dtype, c, extra_rows, special, seed):
        # tall enough for the shipped dispatch to take the fold at c <= 8;
        # few distinct values so that ties, signed zeros and NaN rows are common
        rng = np.random.default_rng(seed)
        shape = (16 * c + extra_rows, c)
        a = rng.integers(-2, 3, size=shape).astype(dtype)
        mask = rng.random(shape) < special
        a[mask] = rng.choice(np.array(SPECIAL, dtype=dtype), size=int(mask.sum()))
        self.check_both_paths(a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n, c",
        [(3, 2), (3, 7), (20000, 1)]
        + [(n, c) for n in (128, 20000) for c in (2, 4, 7, 8, 9, 47)]
        + [(128, 1000), (2000, 1000)],
    )
    def test_dispatch_shapes(self, dtype, n, c):
        a = np.random.default_rng(c).standard_normal((n, c)).astype(dtype)
        assert_same_row_max(a)

    def test_strided_input(self):
        a = np.random.default_rng(0).standard_normal((400, 12))[:, ::3]
        assert_same_row_max(a)


def reference_softmax(logits):
    """softmax_rows with numpy's row max and out-of-place exp and divide."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [1, 2, 4, 7, 8, 9, 47])
@pytest.mark.parametrize("n", [5, 300])
def test_softmax_kernels_bit_identical_to_reference(dtype, c, n):
    logits = (np.random.default_rng(n + c).standard_normal((n, c)) * 8).astype(dtype)
    for got, want in (
        (softmax_rows(logits), reference_softmax(logits)),
        (log_softmax_rows(logits), reference_log_softmax(logits)),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_softmax_of_integer_logits_is_float64():
    out = softmax_rows(np.array([[1, 2, 3]]))
    assert out.dtype == np.float64
    assert np.allclose(out, [SOFTMAX_123], atol=1e-14)

