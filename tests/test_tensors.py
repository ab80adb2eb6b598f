"""Tensor kernel tests: matmul exactness and determinism, softmax, GELU."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, ndtr

from scalefold import tensors
from scalefold.tensors import (ShapeError, _slice_bits, _slices, as_int_tensor, as_tensor, gelu,
                               matmul, rowwise_softmax)


class TestAsTensor:
    def test_copies_to_float64(self):
        x = as_tensor([[1, 2], [3, 4]])
        assert x.dtype == np.float64
        assert x.flags["C_CONTIGUOUS"]

    def test_finiteness_check(self):
        with pytest.raises(ValueError):
            as_tensor([1.0, np.nan], check_finite=True)
        with pytest.raises(ValueError):
            as_tensor([1.0, np.inf], check_finite=True)

    def test_int_tensor_dtype(self):
        assert as_int_tensor([1, 2]).dtype == np.int32


class TestMatmul:
    def test_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)
        np.testing.assert_array_equal(matmul(a, np.eye(3)), a)

    def test_hand_example(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0], [1.0]]))
        np.testing.assert_array_equal(out, [[2.0], [4.0]])

    def test_annihilator(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        np.testing.assert_array_equal(matmul(a, np.zeros((4, 2))), np.zeros((3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            matmul(np.zeros(3), np.zeros((3, 1)))

    @pytest.mark.parametrize("cancel", [False, True], ids=["random", "cancelling"])
    @pytest.mark.parametrize("k", [3, 17, 64, 128, 512])
    def test_error_within_bound_of_exact_sum(self, k, cancel):
        """Each output is within the slice kernel's bound of the exact rational sum.

        The bound is 2**-52 * |exact| + 8 * k * 2**(-3 * beta) * max|a_i.| * max|b_.j|:
        one rounding of the result plus the dropped slice products and
        truncated residuals. Operands have exponents spread over +-40 and 30%
        exact zeros, so one entry dominates each row and column. In the
        cancelling case the second half of each row of `a` repeats the first
        and `b`'s second half negates its first to 2**-30, so the exact sum is
        far below its terms: a float summation of the products, BLAS `@` or
        a sequential loop, misses this bound by a factor of 2 to 2e5.
        """
        rng = np.random.default_rng(60 + k)

        def operand(shape):
            x = rng.normal(size=shape) * 2.0 ** rng.integers(-40, 41, size=shape)
            return np.where(rng.random(shape) < 0.3, 0.0, x)

        a, b = operand((6, k)), operand((k, 5))
        if cancel:
            h = k // 2
            a[:, h:2 * h] = a[:, :h]
            b[h:2 * h] = -b[:h] * (1 + 2.0 ** -30 * rng.normal(size=(h, 5)))
        got = matmul(a, b)
        unit = Fraction(k, 2 ** (3 * _slice_bits(k) - 3))
        for i in range(6):
            row = [Fraction(v) for v in a[i]]
            for j in range(5):
                exact = sum(x * Fraction(y) for x, y in zip(row, b[:, j]))
                bound = (abs(exact) / 2 ** 52
                         + unit * Fraction(np.abs(a[i]).max()) * Fraction(np.abs(b[:, j]).max()))
                assert abs(Fraction(got[i, j]) - exact) <= bound

    def test_slice_bits_keep_partial_sums_below_2_53(self):
        """k * 2**(2 * beta) <= 2**53 for every k up to 2**20, with beta the largest such."""
        for k in range(1, 2 ** 20 + 1):
            beta = _slice_bits(k)
            assert k << 2 * beta <= 1 << 53 < k << 2 * (beta + 1)

    @pytest.mark.parametrize("k", [1, 2, 8, 32, 128, 512, 2048])
    def test_slice_gemms_are_exact_on_the_worst_case_grid(self, k):
        """Slices at or near their largest magnitude, so each slice GEMM sums to its limit.

        Every entry is 1 - m * 2**-53 with m below 2**(52 - beta): its first
        slice is 2**beta - 1, the largest slice value, and its second lies in
        [2**(beta - 1), 2**beta). At these k, k * 2**(2 * beta) is exactly
        2**53 (2**52 at k = 1). Each kept slice product must equal its
        Python-integer sum, which a slice one bit wider rounds, and the
        result must stay within the bound against the exact sum.
        """
        beta = _slice_bits(k)
        rng = np.random.default_rng(64)

        def grid(shape, sign):
            return sign * (1.0 - rng.integers(1, 2 ** (52 - beta), size=shape) * 2.0 ** -53)

        a, b = grid((2, k), 1.0), grid((k, 3), -1.0)
        a[1] = -a[1]
        qa = _slices(a, np.zeros((2, 1), dtype=np.int32), beta)
        qb = _slices(b, np.zeros((1, 3), dtype=np.int32), beta)
        for q in qa + qb:
            assert np.array_equal(q, np.trunc(q)) and np.abs(q).max() <= 2 ** beta - 1
        assert np.abs(qa[0]).min() == np.abs(qb[0]).min() == 2 ** beta - 1
        assert min(np.abs(qa[1]).min(), np.abs(qb[1]).min()) >= 2 ** (beta - 1)
        for s in range(3):
            for t in range(3 - s):
                exact = qa[s].astype(np.int64).astype(object) @ qb[t].astype(np.int64).astype(object)
                assert (qa[s] @ qb[t]).astype(np.int64).astype(object).tolist() == exact.tolist()
        got = matmul(a, b)
        for i in range(2):
            for j in range(3):
                exact = sum(Fraction(x) * Fraction(y) for x, y in zip(a[i], b[:, j]))
                bound = abs(exact) / 2 ** 52 + Fraction(8 * k, 2 ** (3 * beta))
                assert abs(Fraction(got[i, j]) - exact) <= bound

    def test_all_zero_rows_and_columns_give_exact_zeros(self):
        rng = np.random.default_rng(61)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 5))
        a[2] = 0.0
        b[:, [0, 3]] = 0.0
        got = matmul(a, b)
        assert np.all(got[2] == 0) and np.all(got[:, [0, 3]] == 0)
        assert np.all(got[[0, 1, 3]][:, [1, 2, 4]] != 0)

    def test_subnormal_rows_give_their_product(self):
        """A subnormal row is scaled up exactly, so its product is not flushed."""
        a = np.array([[2.0 ** -1070, 3 * 2.0 ** -1072, 0.0], [5e-324, 0.0, 0.0]])
        b = np.array([[1.0, 2.0 ** 600], [2.0, 0.0], [7.0, 1.0]])
        got = matmul(a, b)
        assert got[0, 0] == 5 * 2.0 ** -1071       # exactly representable subnormal
        assert got[0, 1] == 2.0 ** -470
        assert got[1, 0] == 5e-324 and got[1, 1] == 5e-324 * 2.0 ** 600

    def test_large_row_max_with_an_in_range_result(self):
        """The powers of two are applied once at the end, so no intermediate overflows."""
        got = matmul(np.array([[1e300, 1.0]]), np.array([[1e-300], [0.0]]))
        assert got[0, 0] == 1.0
        big = matmul(np.array([[1e308, 1e308]]), np.array([[0.5], [0.5]]))
        assert big[0, 0] == 1e308
        # an out-of-range result overflows to inf, as in np.matmul
        with np.errstate(over="ignore"):
            assert matmul(np.array([[1e300]]), np.array([[1e300]]))[0, 0] == np.inf

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_operands_rejected(self, bad):
        """A scale taken from an infinite or NaN maximum is undefined: ValueError, in either operand."""
        x = np.ones((3, 4))
        x[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            matmul(x, np.ones((4, 2)))
        with pytest.raises(ValueError, match="finite"):
            matmul(np.ones((2, 3)), x)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((16, 64, 512), (512, 128)),             # wide model, second MLP matmul
        ((16, 4, 64, 64), (16, 4, 64, 32)),     # wide model, A @ V over 16 samples
    ])
    def test_transient_memory_is_bounded(self, a_shape, b_shape):
        """One call holds its output plus a fixed working set, not one sized by the batch.

        The working set is the slices of a single weight matrix (three
        copies) plus twice the chunk budget of float64 values for a chunk's
        slices, product buffer and exponents and numpy's temporaries. Chunks
        sized by their outputs alone held 17 MiB on the first shape, and a
        batch-sized chunk exceeds this allowance on both shapes.
        """
        rng = np.random.default_rng(62)
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        budget = (3 * b.nbytes if b.ndim == 2 else 0) + 2 * 8 * tensors._BLOCK_ELEMENTS
        tracemalloc.start()
        try:
            out = matmul(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + budget

    def test_result_does_not_depend_on_chunking(self, monkeypatch):
        """Each output depends only on its row and column: any chunk size gives the same bits."""
        rng = np.random.default_rng(63)
        a, b = rng.normal(size=(6, 20, 33)), rng.normal(size=(33, 7))
        h, v = rng.normal(size=(6, 2, 9, 33)), rng.normal(size=(6, 2, 33, 9))
        want, want_h = matmul(a, b), matmul(h, v)
        for block in (1, 300, 1 << 20):
            monkeypatch.setattr("scalefold.tensors._BLOCK_ELEMENTS", block)
            np.testing.assert_array_equal(matmul(a, b), want)
            np.testing.assert_array_equal(matmul(h, v), want_h)

    def test_stack_times_matrix_equals_per_slice(self):
        """A 3-D stack against a 2-D weight sums each slice as a 2-D product.

        8 * 64 rows of 24 against 128 columns span several chunks of the
        flattened rows.
        """
        rng = np.random.default_rng(12)
        a = rng.normal(size=(8, 64, 24))
        b = rng.normal(size=(24, 128))
        got = matmul(a, b)
        assert got.shape == (8, 64, 128)
        for i in range(len(a)):
            np.testing.assert_array_equal(got[i], matmul(a[i], b))

    def test_batched_heads_equal_per_slice(self):
        """(n, h, p, dh) x (n, h, dh, p) equals the per-(n, h) 2-D products."""
        rng = np.random.default_rng(13)
        a = rng.normal(size=(5, 4, 64, 16))
        b = rng.normal(size=(5, 4, 16, 64))
        got = matmul(a, b)
        assert got.shape == (5, 4, 64, 64)
        assert got.size > 2 ** 15
        for i in range(5):
            for j in range(4):
                np.testing.assert_array_equal(got[i, j], matmul(a[i, j], b[i, j]))

    def test_batch_axes_must_broadcast(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))

    def test_repeated_runs_identical(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        np.testing.assert_array_equal(matmul(a, b), matmul(a, b))


class TestRowwiseSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(rowwise_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_closed_form(self):
        out = rowwise_softmax(np.log(np.array([[1.0, 3.0]])))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_no_overflow(self):
        out = rowwise_softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)

    @settings(deadline=None)
    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
                    min_size=1, max_size=4).filter(lambda r: len({len(x) for x in r}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = rowwise_softmax(np.array(rows))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0)

    @settings(deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-100, 100))
    def test_shift_invariance(self, row, c):
        x = np.array([row])
        np.testing.assert_allclose(rowwise_softmax(x), rowwise_softmax(x + c), atol=1e-12)


@pytest.mark.parametrize("kernel, reference", [
    (rowwise_softmax,
     lambda x: np.exp(x - x.max(axis=-1, keepdims=True))
     / np.exp(x - x.max(axis=-1, keepdims=True)).sum(axis=-1, keepdims=True)),
    (gelu, lambda x: x * ndtr(x)),
])
def test_elementwise_kernel_writes_one_buffer(kernel, reference):
    """Softmax and GELU give their out-of-place expressions bit for bit in one output buffer.

    Holding softmax's shifted input, its exponentials and its output at
    once would take three times the output.
    """
    x = np.random.default_rng(64).normal(size=(64, 4096)) * 4
    tracemalloc.start()
    try:
        out = kernel(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, reference(x))
    # row statistics and numpy's reduction buffers aside, nothing but the output
    assert peak <= 1.1 * out.nbytes


class TestGelu:
    def test_zero(self):
        assert gelu(np.array(0.0)) == 0.0

    def test_asymptotes(self):
        np.testing.assert_allclose(gelu(np.array(30.0)), 30.0, rtol=1e-12)
        np.testing.assert_allclose(gelu(np.array(-30.0)), 0.0, atol=1e-12)

    def test_exact_cdf_form(self):
        """x * Phi(x) with the Gaussian CDF, checked against an erf oracle."""
        x = np.linspace(-6, 6, 241)
        phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(gelu(x), x * phi, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(gelu(np.array(1.0)), 0.8413447460685429, rtol=1e-12)

    def test_negative_infinity_gives_the_limit_without_a_warning(self):
        """-inf gives -0, GELU's limit, and warns nothing; +inf, NaN and finite
        inputs keep the bits of Phi(x) * x, whose first operand gives a NaN's sign."""
        x = np.array([-np.inf, np.inf, np.nan, -np.nan, 0.0, -0.0, -40.0, -1e300, 5e-324, 2.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gelu(x)
            assert gelu(np.array(-np.inf)).tobytes() == np.array([-0.0]).tobytes()
            with np.errstate(invalid="ignore"):
                want = ndtr(x) * x
        want[0] = -0.0
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_not_tanh_approximation(self):
        # the tanh fit differs from the exact CDF in the fourth decimal near 2
        x = 2.0
        tanh_fit = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))
        assert abs(gelu(np.array(x)).item() - tanh_fit) > 1e-5
