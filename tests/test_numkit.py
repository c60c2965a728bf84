import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

import mlpcascade.numkit as nk
import mlpcascade.params as params
from mlpcascade.numkit import (
    GradPair,
    finite_diff_check,
    kl_divergence,
    log_softmax_rows,
    masked_cross_entropy,
    softmax_rows,
    spmm,
)
from test_scoring_kernels import (
    ROW_ORDER_CLASSES,
    assert_within_oracle,
    class_order_log_softmax,
    class_order_softmax,
    oracle_softmax,
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

    @pytest.mark.parametrize("mask", [[2, 2, 0, 4], [1, 3, 1, 1]])
    def test_repeated_row_counts_in_value_and_gradient(self, mask):
        rng = np.random.default_rng(len(set(mask)))
        onehot = np.eye(3)[rng.integers(0, 3, 5)]
        params = {"logits": rng.standard_normal((5, 3))}

        def loss(p):
            return masked_cross_entropy(p["logits"], onehot, mask)

        assert finite_diff_check(loss, params) < 1e-5
        rows = np.unique(mask)
        weights = np.bincount(mask)[rows]
        once = [masked_cross_entropy(params["logits"], onehot, [r]) for r in rows]
        assert loss(params).value == pytest.approx(
            sum(w * ce.value for w, ce in zip(weights, once)) / len(mask), rel=1e-12
        )


class TestKLDivergence:
    def test_identical_distributions(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 3))
        t = softmax_rows(logits)
        assert abs(kl_divergence(nk.soft_targets(t), logits).value) < 1e-12

    def test_onehot_teacher_uniform_student(self):
        t = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        logits = np.zeros((2, 3))
        got = kl_divergence(nk.soft_targets(t), logits).value
        assert abs(got - np.log(3.0)) < 1e-12

    def test_frozen_value(self):
        t = np.array([[0.7, 0.3]])
        logits = np.zeros((1, 2))
        assert abs(kl_divergence(nk.soft_targets(t), logits).value - KL_73_UNIFORM) < 1e-12

    def test_unnormalized_teacher_rejected(self):
        t = np.array([[0.7, 0.7]])
        with pytest.raises(ValueError, match="sums to"):
            nk.soft_targets(t)

    def test_negative_teacher_rejected(self):
        t = np.array([[1.2, -0.2]])
        with pytest.raises(ValueError, match="negative"):
            nk.soft_targets(t)

    @given(finite_floats((3, 4), -20.0, 20.0), finite_floats((3, 4), -5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_gibbs_inequality(self, t_logits, s_logits):
        t = softmax_rows(t_logits)
        assert kl_divergence(nk.soft_targets(t), s_logits).value >= -1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        targets = nk.soft_targets(softmax_rows(rng.standard_normal((5, 3))))
        params = {"logits": rng.standard_normal((5, 3))}

        def loss(p):
            return kl_divergence(targets, p["logits"])

        assert finite_diff_check(loss, params) < 1e-5


def kl_reference(t, logits, idx):
    """The KL with every teacher term derived at the call, over the rows
    ``idx``, as ``kl_divergence`` once computed it: the bits its one form,
    over every row, must keep."""
    sub_t = t[idx]
    logp = log_softmax_rows(logits[idx])
    t_log_t = np.where(sub_t > 0, sub_t * np.log(np.where(sub_t > 0, sub_t, 1.0)), 0.0)
    value = float((t_log_t - sub_t * logp).sum() / idx.size)
    grad = np.zeros_like(logits)
    grad[idx] = (softmax_rows(logits[idx]) - sub_t) / idx.size
    return value, grad


class TestSoftTargets:
    """The teacher side of the KL derived once (``SoftTargets``) gives the
    bits of the per-call form."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_form_matches_the_reference(self, dtype, seed):
        rng = np.random.default_rng(seed)
        n, c = 37, 4
        t = softmax_rows(3.0 * rng.standard_normal((n, c))).astype(dtype)
        t[0] = np.eye(c, dtype=dtype)[1]  # zero entries take the 0 ln 0 limit
        logits = rng.standard_normal((n, c)).astype(dtype)
        got = kl_divergence(nk.soft_targets(t), logits)
        value, grad = kl_reference(t, logits, np.arange(n))
        assert got.value == value
        g = got.grads["logits"]
        assert g.dtype == grad.dtype and np.array_equal(g.view(np.uint8), grad.view(np.uint8))

    def test_checks_run_when_built(self):
        with pytest.raises(ValueError, match="^kl_divergence: teacher row 1 sums to 1.4, not 1$"):
            nk.soft_targets(np.array([[0.5, 0.5], [0.7, 0.7]]))
        with pytest.raises(ValueError, match="^kl_divergence: teacher row 2 has negative entries$"):
            nk.soft_targets(np.array([[0.5, 0.5], [1.0, 0.0], [1.2, -0.2]]))

    def test_shape_mismatch_rejected(self):
        targets = nk.soft_targets(np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match=r"teacher shape \(3, 2\) != student shape \(4, 2\)"):
            kl_divergence(targets, np.zeros((4, 2)))


def dropout_reference(rng, shape, rate, dtype):
    """The mask from one full-size draw of raw generator words, each split
    into four 16-bit values by shifts, low half first: keep iff the value is
    at least round(rate * 65536), and scale survivors by 65536 / (65536 - t)."""
    n = int(np.prod(shape))
    t = round(rate * 65536)
    words = rng.bit_generator.random_raw((n + 3) // 4)
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    values = ((words[:, None] >> shifts) & np.uint64(0xFFFF)).ravel()[:n]
    keep = (values >= t).reshape(shape)
    return np.where(keep, dtype(65536 / (65536 - t)), dtype(0))


class TestDropoutMask:
    """A mask keeps a value iff a 16-bit draw reaches the threshold
    round(rate * 65536). Masks drawn in blocks of words take the same words
    in the same order as one full-size draw, so every block size gives the
    reference bits and leaves the generator in the same state."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("shape", [(7, 3), (1, 1), (0, 5), (64, 33), (300, 128)])
    @pytest.mark.parametrize("block", [1, 5, 64, 1 << 14])
    def test_matches_one_full_draw(self, monkeypatch, dtype, rate, shape, block):
        monkeypatch.setattr(nk, "DROPOUT_BLOCK", block)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = nk.dropout_mask(rng, shape, rate, dtype)
        ref = dropout_reference(ref_rng, shape, rate, dtype)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert rng.random() == ref_rng.random()

    def test_cora_shape_feature_mask(self):
        got = nk.dropout_mask(np.random.default_rng(2), (2702, 1433), 0.5, np.float32)
        ref = dropout_reference(np.random.default_rng(2), (2702, 1433), 0.5, np.float32)
        assert np.array_equal(got, ref)

    def test_takes_one_word_per_four_values(self):
        for n in (1, 4, 5, 8, 4 * (1 << 14) + 1):
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            nk.dropout_mask(rng, (n,), 0.3, np.float32)
            ref_rng.bit_generator.random_raw((n + 3) // 4)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_golden_first_values(self):
        got = nk.dropout_mask(np.random.default_rng(0), (16,), 0.5, np.float32)
        assert got.tolist() == [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0,
                                2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9])
    def test_kept_fraction_and_scale(self, rate):
        shape = (2702, 1433)
        n = shape[0] * shape[1]
        t = round(rate * 65536)
        p = (65536 - t) / 65536
        mask = nk.dropout_mask(np.random.default_rng(5), shape, rate, np.float32)
        kept = mask != 0
        assert abs(kept.mean() - p) < 5 * np.sqrt(p * (1 - p) / n)
        assert np.all(mask[kept] == np.float32(65536 / (65536 - t)))

    def test_rate_outside_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            nk.dropout_mask(np.random.default_rng(0), (2, 2), 1.0, np.float32)

    @pytest.mark.parametrize("rate", [0.999999, 1 - 2.0**-17])
    def test_rate_that_keeps_nothing_rejected(self, rate):
        with pytest.raises(ValueError, match=f"^dropout {rate} keeps nothing"):
            nk.dropout_mask(np.random.default_rng(0), (2, 2), rate, np.float32)

    def test_highest_rate_keeps_one_level(self):
        rate = np.nextafter(1 - 2.0**-17, 0.0)
        assert nk.dropout_threshold(rate) == 65535
        mask = nk.dropout_mask(np.random.default_rng(0), (4,), rate, np.float64)
        assert set(mask.tolist()) <= {0.0, 65536.0}


class TestApplyDropout:
    """``apply_dropout`` multiplies each block of the mask into the input
    as it is drawn: the bytes of ``dropout_mask(...) * x`` and the generator
    state after it, on sizes that are not a multiple of four values or of a
    block, and on signed zeros and non-finite inputs."""

    @staticmethod
    def features(shape, dtype):
        x = np.random.default_rng(9).standard_normal(shape).astype(dtype)
        flat = x.reshape(-1)
        flat[::7] = -0.0
        flat[3::11] = np.inf
        flat[5::13] = np.nan
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [1e-6, 0.1, 0.5, 0.99])
    @pytest.mark.parametrize(
        "shape, block",
        [((1, 1), 1 << 14), ((7, 3), 1), ((5, 9), 2), ((130, 509), 1 << 14)],
    )
    def test_same_bytes_and_state_as_mask_times_x(self, monkeypatch, dtype, rate, shape, block):
        monkeypatch.setattr(nk, "DROPOUT_BLOCK", block)
        x = self.features(shape, dtype)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN in both
            got = nk.apply_dropout(rng, x, rate)
            want = nk.dropout_mask(ref_rng, shape, rate, dtype) * x
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_fortran_ordered_input(self):
        x = np.asfortranarray(self.features((33, 17), np.float32))
        with np.errstate(invalid="ignore"):
            got = nk.apply_dropout(np.random.default_rng(6), x, 0.5)
            want = nk.dropout_mask(np.random.default_rng(6), x.shape, 0.5, x.dtype) * x
        assert got.tobytes() == want.tobytes()

    def test_input_left_unchanged(self):
        x = self.features((6, 5), np.float64)
        before = x.tobytes()
        with np.errstate(invalid="ignore"):
            nk.apply_dropout(np.random.default_rng(0), x, 0.5)
        assert x.tobytes() == before


class TestDropoutInPlace:
    """``dropout_in_place`` multiplies each block of the mask into ``x``
    itself: the bytes of ``x * dropout_mask(...)`` and the generator state
    after it, and the mask's keep scale as a scalar of ``x``'s dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [1e-6, 0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize(
        "shape, block",
        [((1, 1), 1 << 14), ((7, 3), 1), ((5, 9), 2), ((130, 509), 1 << 14)],
    )
    def test_same_bytes_and_state_as_x_times_mask(self, monkeypatch, dtype, rate, shape, block):
        monkeypatch.setattr(nk, "DROPOUT_BLOCK", block)
        x = TestApplyDropout.features(shape, dtype)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN in both
            want = x * nk.dropout_mask(ref_rng, shape, rate, dtype)
            scale = nk.dropout_in_place(rng, x, rate)
        assert x.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        t = nk.dropout_threshold(rate)
        assert type(scale) is dtype and scale == dtype(65536 / (65536 - t))

    def test_non_contiguous_or_read_only_refused(self):
        x = np.ones((6, 4), np.float32)
        x.flags.writeable = False
        for bad in (np.ones((6, 4), np.float32)[:, :2], np.asfortranarray(np.ones((6, 4))), x):
            with pytest.raises(ValueError, match="C-contiguous, writeable"):
                nk.dropout_in_place(np.random.default_rng(0), bad, 0.5)


def finite_values(rng, shape, dtype, bound):
    """Random finite values of ``dtype`` below ``bound`` in magnitude, both
    signs, from random bit patterns (every exponent, subnormals included),
    with signed zeros mixed in."""
    bits = np.dtype(dtype).itemsize * 8
    raw = rng.integers(0, 2**bits, size=shape, dtype=np.uint64).astype(f"u{bits // 8}")
    x = raw.view(dtype)
    x = np.where(np.isfinite(x) & (np.abs(x) < bound), x, dtype(1.5))
    flat = x.reshape(-1)
    flat[::17] = 0.0
    flat[5::19] = -0.0
    return x


class TestReluDropoutGate:
    """The backward's gate ``d *= scale; d *= (r > 0)`` on the activation
    ``r`` dropped in place keeps the bits of the mask form ``d *= mask;
    d *= (r0 > 0)`` on the activation before dropout, whenever ``|d| *
    scale`` is finite (``params._relu_gate``)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
    def test_same_bits_as_the_mask_form(self, dtype, rate):
        rng = np.random.default_rng(int(rate * 10))
        shape = (257, 61)
        scale = 65536 / (65536 - nk.dropout_threshold(rate))
        big = np.finfo(dtype).max
        d = finite_values(rng, shape, dtype, big / scale)
        r0 = np.maximum(finite_values(rng, shape, dtype, big), 0)  # a ReLU output
        mask = nk.dropout_mask(np.random.default_rng(3), shape, rate, dtype)
        r = r0.copy()
        with np.errstate(over="ignore"):  # r0 * scale may overflow, in both forms
            kept = nk.dropout_in_place(np.random.default_rng(3), r, rate)
            assert r.tobytes() == (r0 * mask).tobytes()
            want = d * mask
            np.multiply(want, r0 > 0, out=want)
            got = d.copy()
            params._relu_gate(got, r, kept)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[mask == 0]).tolist() == np.signbit(d[mask == 0]).tolist()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_overflow_of_d_times_scale(self, dtype):
        """Where ``|d| * scale`` overflows, a dropped value's gradient is NaN
        (``inf * 0``) where the mask form gives ±0; a kept value's is ±inf
        in both. A gradient that large has already diverged training."""
        big = np.finfo(dtype).max
        d = np.array([big, -big, big, -big, 1.0], dtype)
        r0 = np.ones(5, dtype)
        mask = np.array([0, 0, 2, 2, 0], dtype)  # rate 0.5: scale 2
        got = d.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            want = d * mask
            np.multiply(want, r0 > 0, out=want)
            params._relu_gate(got, r0 * mask, dtype(2))
        assert want.tolist() == [0.0, -0.0, np.inf, -np.inf, 0.0]
        assert np.isnan(got[:2]).all()
        assert got[2:].tolist() == [np.inf, -np.inf, 0.0]


class TestLossIndexChecks:
    """The cross entropy takes the rows it scores as an index set; numpy
    would wrap a negative index onto another row and turn a past-the-end one
    into a bare IndexError. (The KL scores every row and takes none.)"""

    def losses(self):
        logits = np.array([[2.0, 0.0], [0.0, 1.0]])
        labels = np.eye(2)
        return {
            "masked_cross_entropy": lambda idx: masked_cross_entropy(logits, labels, idx),
        }

    @pytest.mark.parametrize("name", ["masked_cross_entropy"])
    @pytest.mark.parametrize("idx, bad", [([-1], -1), ([0, -2], -2), ([2], 2), ([1, 5], 5)])
    def test_out_of_range_rejected(self, name, idx, bad):
        with pytest.raises(
            ValueError, match=f"^{name}: mask index {bad} out of range for 2 rows$"
        ):
            self.losses()[name](idx)

    @pytest.mark.parametrize("name", ["masked_cross_entropy"])
    def test_empty_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name}: empty mask index set$"):
            self.losses()[name]([])

    @pytest.mark.parametrize("name", ["masked_cross_entropy"])
    @pytest.mark.parametrize(
        "idx, dtype",
        [(np.array([True, False]), "bool"), ([True, True], "bool"),
         (np.array([0.0, 1.0]), "float64"), ([1.7], "float64")],
    )
    def test_non_integer_index_set_rejected(self, name, idx, dtype):
        # a boolean mask would otherwise score rows 1 and 0, a float row 1.7 row 1
        with pytest.raises(
            ValueError, match=f"^{name}: mask index set must hold integers, got dtype {dtype}$"
        ):
            self.losses()[name](idx)


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


def reference_softmax(logits):
    """softmax_rows with numpy's row max and row sum and out-of-place exp
    and divide."""
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
    """Up to 7 classes numpy sums a row in class order, as the class-major
    kernel does, so numpy's row softmax is the reference; from 8 it sums in
    unrolled blocks, so the class-order reference is, and the float64
    oracle bounds the error."""
    logits = (np.random.default_rng(n + c).standard_normal((n, c)) * 8).astype(dtype)
    if c <= ROW_ORDER_CLASSES:
        want = reference_softmax(logits), reference_log_softmax(logits)
    else:
        want = class_order_softmax(logits), class_order_log_softmax(logits)
    got = softmax_rows(logits), log_softmax_rows(logits)
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype and mine.flags.c_contiguous
        assert np.array_equal(mine, theirs)
    assert_within_oracle(got[0][None], oracle_softmax(logits[None]))


@pytest.mark.parametrize("fn", [softmax_rows, log_softmax_rows])
@pytest.mark.parametrize(
    "logits",
    [
        np.array([[1, 2, 3]]),
        np.array([[1.0, 2.0, 3.0]], dtype=np.float16),
        np.array([[True, False]]),
        np.array([[1.0 + 0j, 2.0]]),
        np.array([1.0, 2.0, 3.0]),
        np.zeros((2, 3, 4)),
    ],
    ids=["int64", "float16", "bool", "complex", "1-D", "3-D"],
)
def test_softmax_refuses_all_but_2d_float32_or_float64(fn, logits):
    with pytest.raises(ValueError) as err:
        fn(logits)
    assert str(err.value) == (
        f"{fn.__name__}: logits must be a 2-D float32 or float64 array, "
        f"got {logits.dtype} of shape {logits.shape}"
    )


class TestFingerprint:
    """``fingerprint`` hashes dtype, shape and the C-order bytes. The digests
    below were taken from the definition that hashed ``tobytes()`` copies;
    hashing the array's own memory must give the same ones."""

    A = np.arange(12, dtype=np.float32).reshape(3, 4) / 7

    @pytest.mark.parametrize(
        "arrays, digest",
        [
            ((A,), "142fca439dd41cc7c6dc3824f3c6b1951c7bdd861c113be6da5656e6d5461d7d"),
            ((np.linspace(-1.0, 1.0, 10).reshape(2, 5),),
             "066b3fce971b16569f3fd5a5634f7527ae1ccf28b255357cb7b9ea4835f85210"),
            ((np.arange(-3, 5, dtype=np.int64),),
             "a3b5d2d532eacd11466d1111f20227101b22ca8f13629026def4cddf64987066"),
            ((np.arange(24, dtype=np.float64).reshape(4, 6)[::2, 1::2],),
             "f4be09b67ec5969472efefe4b9dfcbe90333b0ec30c6cc0a1ae8e4d999e78dc2"),
            ((np.empty((0, 3), dtype=np.float32),),
             "24711c218fa8af86c06a20f43edd23452dd723dcad783598bba0b5960fa98d02"),
            ((A, np.arange(4, dtype=np.int64)),
             "850bc2784fcade529100e5016fabffe2cb7fb049379dc11833cb69c1837864d6"),
        ],
        ids=["f32", "f64", "int64", "non-contiguous view", "empty", "two arrays"],
    )
    def test_digests_pinned(self, arrays, digest):
        assert nk.fingerprint(*arrays) == digest

    def test_view_hashes_as_its_copy(self):
        a = np.arange(30, dtype=np.float64).reshape(5, 6)
        assert nk.fingerprint(a.T) == nk.fingerprint(np.ascontiguousarray(a.T))
        assert nk.fingerprint(a.T) != nk.fingerprint(a)

    def test_contiguous_array_is_not_copied(self):
        import tracemalloc

        a = np.ones((1 << 20, 2), dtype=np.float64)  # 16 MiB
        tracemalloc.start()
        try:
            nk.fingerprint(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
