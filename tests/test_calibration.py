"""Calibration tests: percentile bounds and affine parameter fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefold.calibration import (
    DEGENERATE_SCALE,
    _channel_bounds,
    calibrate_tensor,
    compute_affine_params,
    percentile_bounds,
)
from scalefold.quantizers import (QuantParams, Scheme,
                                  uniform_dequantize, uniform_quantize)


@st.composite
def samples(draw):
    """Flat samples of 1 to 5,000 values: Gaussian or Cauchy, ties, signed zeros, constants, sorted."""
    n = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "cauchy", "ties", "zeros", "constant", "sorted"]))
    if kind == "normal":
        return rng.normal(size=n) * draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e200]))
    if kind == "cauchy":
        return rng.standard_cauchy(size=n)
    if kind == "ties":
        return rng.integers(-3, 4, size=n).astype(np.float64)
    if kind == "zeros":
        return rng.choice([-0.0, 0.0, -2.5, 2.5], size=n)
    if kind == "constant":
        return np.full(n, draw(st.sampled_from([-0.0, 0.0, 3.25, -7.0])))
    return np.sort(rng.normal(size=n))


percentiles = (st.sampled_from([50.001, 99.0, 99.9, 99.99, 99.999, 100.0])
               | st.floats(50.0, 100.0, exclude_min=True))


@st.composite
def channel_samples(draw):
    """(n, C) samples, one row or one channel included: each channel Gaussian, tied,
    signed zeros or constant."""
    n = draw(st.sampled_from([1, 2]) | st.integers(1, 600))
    c = draw(st.sampled_from([1]) | st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["normal", "ties", "zeros", "constant"]),
                          min_size=c, max_size=c))
    columns = {
        "normal": lambda: rng.normal(size=n) * 10.0 ** rng.integers(-5, 5),
        "ties": lambda: rng.integers(-3, 4, size=n).astype(np.float64),
        "zeros": lambda: rng.choice([-0.0, 0.0, -2.5, 2.5], size=n),
        "constant": lambda: np.full(n, rng.choice([-0.0, 0.0, 3.25, -7.0])),
    }
    return np.stack([columns[kind]() for kind in kinds], axis=1)


class TestPercentileBounds:
    def test_minmax_reduction(self):
        assert percentile_bounds(np.array([1.0, 5.0, 3.0]), 100.0) == (1.0, 5.0)

    def test_median_collapse(self):
        x = np.array([3.0, 1.0, 9.0, 4.0])
        lo, hi = percentile_bounds(x, 50.000001)
        np.testing.assert_allclose([lo, hi], [np.median(x), np.median(x)], atol=1e-4)

    def test_linear_interpolation(self):
        x = np.arange(101.0)
        assert percentile_bounds(x, 99.0) == (1.0, 99.0)

    def test_monotone_nesting(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=5000)
        ps = [60.0, 75.0, 90.0, 99.0, 99.9, 100.0]
        intervals = [percentile_bounds(x, p) for p in ps]
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo2 <= lo1 and hi1 <= hi2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_bounds(np.array([]), 100.0)

    def test_out_of_band_percentile_rejected(self):
        for p in (50.0, 100.5, 0.0):
            with pytest.raises(ValueError):
                percentile_bounds(np.ones(3), p)

    @settings(deadline=None, max_examples=300)
    @given(samples(), percentiles)
    def test_equals_numpy_percentile(self, x, p):
        """The tail selection reads np.percentile's bounds, bit for bit up to the sign of a zero.

        Which of two tied -0.0 and 0.0 a partition puts at a rank is
        unspecified, so only a zero bound may differ, and only in sign
        (a fit never reads that sign). Every other finite float equals
        another only when their bits do.
        """
        lo, hi = percentile_bounds(x, p)
        want_lo, want_hi = np.percentile(x, [100.0 - p, p])
        assert type(lo) is float and type(hi) is float
        assert (lo, hi) == (want_lo, want_hi)

    @pytest.mark.parametrize("shape", [(64, 16, 64), (16, 64, 128), (8, 4, 16, 16), (65536,)])
    def test_subsample_reads_every_channel(self, shape, monkeypatch):
        """Only a few thousand values are partitioned, even when channel 0 is narrow.

        A captured stack keeps its channels on the last axis. A subsample
        stride that is a multiple of the channel count would read channel 0
        alone; with channel 0 a hundred times narrower than the rest, its
        thresholds would then leave half the sample to partition.
        """
        x = np.random.default_rng(31).normal(size=shape)
        x[..., 0] *= 0.01
        sizes = []
        partition = np.partition

        def spy(a, kth):
            sizes.append(a.size)
            return partition(a, kth)

        monkeypatch.setattr(np, "partition", spy)
        lo, hi = percentile_bounds(x, 99.99)
        monkeypatch.undo()
        assert (lo, hi) == tuple(np.percentile(x, [100.0 - 99.99, 99.99]))
        need = x.size - int(np.floor((x.size - 1) * 0.9999))
        # the subsample, then the values past each of its two thresholds
        assert len(sizes) == 3 and sizes[0] <= 2 * 64 * need
        assert max(sizes[1:]) <= 4 * 64 * need

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.linspace(-1.0, 1.0, 1000)
        x[17] = bad
        for p in (99.0, 100.0):
            with pytest.raises(ValueError, match="non-finite"):
                percentile_bounds(x, p)


class TestComputeAffineParams:
    def test_direct(self):
        assert compute_affine_params(0.0, 15.0, 4) == (1.0, 0)

    def test_symmetric_band_half_even_zero_point(self):
        s, z = compute_affine_params(-1.0, 1.0, 8)
        assert s == 2.0 / 255.0
        assert z == 128  # round(127.5) half to even

    def test_degenerate_constant(self):
        s, z = compute_affine_params(3.0, 3.0, 4)
        assert s == DEGENERATE_SCALE
        assert 0 <= z <= 15

    def test_degenerate_all_zero_is_lossless(self):
        s, z = compute_affine_params(0.0, 0.0, 4)
        qp = QuantParams(Scheme.UNIFORM, 4, scale=np.array([s]),
                         zero_point=np.array([z], dtype=np.int64))
        assert uniform_dequantize(np.array([z], dtype=np.int32), qp)[0] == 0.0

    def test_zero_point_maps_to_zero(self):
        """Dequantizing code z must give exactly 0 whenever 0 is in range."""
        rng = np.random.default_rng(44)
        for _ in range(200):
            lo = -float(rng.uniform(0.1, 10))
            hi = float(rng.uniform(0.1, 10))
            s, z = compute_affine_params(lo, hi, 8)
            qp = QuantParams(Scheme.UNIFORM, 8, scale=np.array([s]),
                             zero_point=np.array([z], dtype=np.int64))
            assert uniform_dequantize(np.array([z], dtype=np.int32), qp)[0] == 0.0

    def test_array_call_equals_scalar_calls(self):
        """One call over per-channel bounds is the per-channel scalar fits, bit for bit."""
        rng = np.random.default_rng(45)
        lo = np.concatenate([-rng.uniform(0.0, 5.0, 30), [2.0, 0.0, -1.0, 7.5]])
        hi = np.concatenate([rng.uniform(0.0, 5.0, 30), [2.0, 0.0, -0.5, 9.0]])
        for bits in (2, 4, 8):
            s, z = compute_affine_params(lo, hi, bits)
            assert s.shape == z.shape == lo.shape and z.dtype == np.int64
            pairs = [compute_affine_params(a, b, bits) for a, b in zip(lo, hi)]
            np.testing.assert_array_equal(s, [p[0] for p in pairs])
            np.testing.assert_array_equal(z, [p[1] for p in pairs])

    def test_inverted_bound_in_an_array_rejected(self):
        with pytest.raises(ValueError):
            compute_affine_params(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 4)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            compute_affine_params(1.0, 0.0, 4)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            compute_affine_params(0.0, np.inf, 4)


class TestCalibrateTensor:
    def test_per_channel_worked_example(self):
        """Channel ranges [0,15] and [0,30] at b=4 give s=[1,2], z=[0,0]."""
        x = np.stack([np.linspace(0.0, 15.0, 31), np.linspace(0.0, 30.0, 31)], axis=1)
        qp = calibrate_tensor(x, 4, per_channel=True)
        np.testing.assert_array_equal(qp.scale, [1.0, 2.0])
        np.testing.assert_array_equal(qp.zero_point, [0, 0])

    def test_per_layer_takes_global_range(self):
        x = np.stack([np.linspace(0.0, 15.0, 31), np.linspace(0.0, 30.0, 31)], axis=1)
        qp = calibrate_tensor(x, 4)
        np.testing.assert_array_equal(qp.scale, [2.0])
        np.testing.assert_array_equal(qp.zero_point, [0])

    def test_per_layer_scale_bounds_per_channel_scales(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(64, 8)) * rng.uniform(0.1, 4.0, size=8)
        qc = calibrate_tensor(x, 4, per_channel=True)
        ql = calibrate_tensor(x, 4)
        assert ql.scale[0] >= qc.scale.max()

    def test_per_channel_equals_per_layer_fit_of_each_channel(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(5, 7, 6)) * rng.uniform(0.1, 4.0, size=6)
        x[..., 2] = 1.5  # a constant channel takes the degenerate scale
        chan = calibrate_tensor(x, 4, 99.0, per_channel=True)
        for c in range(x.shape[-1]):
            layer = calibrate_tensor(x[..., c], 4, 99.0)
            assert chan.scale[c] == layer.scale[0]
            assert chan.zero_point[c] == layer.zero_point[0]

    def test_channel_wise_params_fit_tensors_of_any_rank(self):
        """The channels are the last axis, so params fitted on a stack fit each sample.

        Calibration sees stacked captures of shape (batch, rows, channels)
        while inference applies the same params to single (rows, channels)
        tensors, and both quantize each channel with its own scale.
        """
        rng = np.random.default_rng(21)
        stacked = rng.normal(size=(10, 6, 4)) * [0.1, 1.0, 5.0, 20.0]
        qp = calibrate_tensor(stacked, 4, per_channel=True)
        assert qp.scale.shape == (4,)
        codes = uniform_quantize(stacked, qp)
        np.testing.assert_array_equal(uniform_quantize(stacked[0], qp), codes[0])
        for c in range(4):
            one = QuantParams(Scheme.UNIFORM, 4, scale=qp.scale[c:c + 1],
                              zero_point=qp.zero_point[c:c + 1])
            np.testing.assert_array_equal(uniform_quantize(stacked[..., c], one), codes[..., c])

    def test_percentile_tightens_bounds(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=20_000)
        x[:5] = 500.0  # outliers
        full = calibrate_tensor(x, 8)
        clipped = calibrate_tensor(x, 8, 99.9)
        assert clipped.scale[0] < full.scale[0]

    def test_log_scale_is_upper_bound(self):
        x = np.array([0.001, 0.2, 0.8])
        for scheme in (Scheme.LOG2, Scheme.LOG_SQRT2):
            qp = calibrate_tensor(x, 4, scheme=scheme)
            assert qp.scale[0] == 0.8
            assert qp.zero_point is None

    def test_log_negative_data_rejected(self):
        with pytest.raises(ValueError):
            calibrate_tensor(np.array([-0.5, 0.5]), 4, scheme=Scheme.LOG2)

    def test_log_all_zero_degenerate(self):
        qp = calibrate_tensor(np.zeros(16), 4, scheme=Scheme.LOG2)
        assert qp.scale[0] == DEGENERATE_SCALE

    def test_log_per_channel_rejected(self):
        with pytest.raises(ValueError, match="per layer"):
            calibrate_tensor(np.ones((3, 3)), 4, scheme=Scheme.LOG2, per_channel=True)

    def test_constant_tensor_does_not_divide_by_zero(self):
        qp = calibrate_tensor(np.full((8, 8), 3.0), 4)
        assert np.isfinite(qp.scale[0]) and qp.scale[0] > 0

    @settings(deadline=None, max_examples=200)
    @given(samples(), percentiles, st.integers(2, 8))
    def test_layer_wise_fit_is_the_numpy_percentile_fit(self, x, p, bits):
        """Uniform and log fits equal the fits on np.percentile's bounds, bit for bit."""
        lo, hi = np.percentile(x, [100.0 - p, p])
        s, z = compute_affine_params(lo, hi, bits)
        qp = calibrate_tensor(x, bits, p)
        assert qp.scale.tobytes() == np.float64(s).tobytes()
        assert qp.zero_point.tolist() == [z]
        mag = np.abs(x)
        qp = calibrate_tensor(mag, bits, p, scheme=Scheme.LOG_SQRT2)
        hi = np.percentile(mag, p)
        assert qp.scale[0] == (hi if hi > 0.0 else DEGENERATE_SCALE)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_per_channel_min_max_is_the_numpy_percentile_fit(self, bits):
        """A p = 100 weight fit equals the fit on np.percentile(rows, [0, 100], axis=1)."""
        rng = np.random.default_rng(24)
        w = rng.normal(size=(64, 48)) * rng.uniform(1e-3, 4.0, size=48)
        w[:, 3] = 0.7                                 # constant column
        w[:, 5] = rng.choice([-0.0, 0.0], size=64)    # signed zeros only
        w[:, 9] = np.abs(w[:, 9])                     # nonnegative column
        w[0, 11] = 0.0
        qp = calibrate_tensor(w, bits, per_channel=True)
        lows, highs = np.percentile(w.T, [0.0, 100.0], axis=1)
        s, z = compute_affine_params(lows, highs, bits)
        assert qp.scale.tobytes() == s.tobytes()
        np.testing.assert_array_equal(qp.zero_point, z)

    @settings(deadline=None, max_examples=300)
    @given(channel_samples(), percentiles, st.integers(2, 8))
    def test_per_channel_fit_is_the_numpy_percentile_fit(self, x, p, bits):
        """Each channel's bounds are np.percentile's, up to the sign of a zero, and so is the fit.

        A sort and np.percentile's partition may put different ones of tied
        -0.0 and 0.0 at a rank; the fit never reads that sign, so its scales
        and zero points are the same bits.
        """
        want = np.percentile(x, [100.0 - p, p], axis=0)
        for got, expected in zip(_channel_bounds(x, p), want):
            assert got.shape == expected.shape
            assert (got == expected).all()
        s, z = compute_affine_params(*want, bits)
        qp = calibrate_tensor(x.reshape(1, *x.shape), bits, p, per_channel=True)
        assert qp.scale.tobytes() == s.tobytes()
        np.testing.assert_array_equal(qp.zero_point, z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    # each id names the fit's arguments and its channel axis (None: one scale)
    @pytest.mark.parametrize("cfg", [
        dict(percentile=99.0), dict(percentile=100.0),
        dict(percentile=99.0, per_channel=True), dict(percentile=100.0, per_channel=True),
        dict(scheme=Scheme.LOG2), dict(scheme=Scheme.LOG_SQRT2, percentile=99.0),
    ], ids=["cfg0-None", "cfg1-None", "cfg2--1", "cfg3--1", "cfg4-None", "cfg5-None"])
    def test_non_finite_sample_rejected(self, cfg, bad):
        """NaN or an infinity raises for every scheme, even one lying beyond the percentile.

        A NaN used to fit a log site the degenerate scale, and an infinity
        beyond a 99th percentile used to fit a finite range.
        """
        x = np.abs(np.random.default_rng(25).normal(size=(200, 8)))
        x[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            calibrate_tensor(x, 4, **cfg)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(32, 16))
        a = calibrate_tensor(x, 6, 99.5)
        b = calibrate_tensor(x.copy(), 6, 99.5)
        np.testing.assert_array_equal(a.scale, b.scale)
        np.testing.assert_array_equal(a.zero_point, b.zero_point)

    def test_bits_and_percentile_validation(self):
        x = np.random.default_rng(26).normal(size=(64, 4))
        for per_channel in (False, True):
            for kw in (dict(bits=1), dict(bits=9), dict(bits=4, percentile=50.0),
                       dict(bits=4, percentile=101.0)):
                with pytest.raises(ValueError):
                    calibrate_tensor(x, per_channel=per_channel, **kw)
