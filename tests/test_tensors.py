"""Tensor kernel tests: matmul determinism, softmax, GELU."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from scalefold.tensors import ShapeError, as_int_tensor, as_tensor, gelu, matmul, rowwise_softmax


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

    def test_matches_sequential_reduction_bitwise(self):
        """The summation order is pinned: sequential over the inner axis.

        An explicit triple loop accumulating in the same order must produce
        bit-identical results, not merely close ones.
        """
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 17))
        b = rng.normal(size=(17, 3))
        expect = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                acc = 0.0
                for k in range(17):
                    acc += a[i, k] * b[k, j]
                expect[i, j] = acc
        np.testing.assert_array_equal(matmul(a, b), expect)

    def test_stack_times_matrix_equals_per_slice(self):
        """A 3-D stack against a 2-D weight sums each slice as a 2-D product.

        8 * 64 * 128 outputs are 2**16, so the flattened rows span more than
        one block of the rank-1 loop.
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

    def test_not_tanh_approximation(self):
        # the tanh fit differs from the exact CDF in the fourth decimal near 2
        x = 2.0
        tanh_fit = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))
        assert abs(gelu(np.array(x)).item() - tanh_fit) > 1e-5
