"""Calibration tests: percentile bounds and affine parameter fitting."""

import numpy as np
import pytest

from scalefold.calibration import (
    DEGENERATE_SCALE,
    CalibConfig,
    calibrate_tensor,
    compute_affine_params,
    percentile_bounds,
)
from scalefold.quantizers import (Granularity, QuantParams, Scheme,
                                  uniform_dequantize, uniform_quantize)


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
        cfg = CalibConfig(bits=4, granularity=Granularity.PER_CHANNEL, percentile=100.0)
        qp = calibrate_tensor(x, cfg, channel_axis=1)
        np.testing.assert_array_equal(qp.scale, [1.0, 2.0])
        np.testing.assert_array_equal(qp.zero_point, [0, 0])

    def test_per_layer_takes_global_range(self):
        x = np.stack([np.linspace(0.0, 15.0, 31), np.linspace(0.0, 30.0, 31)], axis=1)
        qp = calibrate_tensor(x, CalibConfig(bits=4, percentile=100.0))
        np.testing.assert_array_equal(qp.scale, [2.0])
        np.testing.assert_array_equal(qp.zero_point, [0])

    def test_per_layer_scale_bounds_per_channel_scales(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(64, 8)) * rng.uniform(0.1, 4.0, size=8)
        cfg_c = CalibConfig(bits=4, granularity=Granularity.PER_CHANNEL, percentile=100.0)
        cfg_l = CalibConfig(bits=4, percentile=100.0)
        qc = calibrate_tensor(x, cfg_c, channel_axis=1)
        ql = calibrate_tensor(x, cfg_l)
        assert ql.scale[0] >= qc.scale.max()

    def test_channel_axis_is_preserved_verbatim(self):
        """A negative axis must survive so params fit tensors of other ranks.

        Calibration sees stacked captures of shape (batch, rows, channels)
        while inference applies the same params to single (rows, channels)
        tensors; storing a normalized positive axis would break that.
        """
        rng = np.random.default_rng(21)
        stacked = rng.normal(size=(10, 6, 4))
        cfg = CalibConfig(bits=4, granularity=Granularity.PER_CHANNEL, percentile=100.0)
        qp = calibrate_tensor(stacked, cfg, channel_axis=-1)
        assert qp.channel_axis == -1
        codes = uniform_quantize(stacked[0], qp)  # 2-D input, same params
        assert codes.shape == (6, 4)

    def test_missing_channel_axis_rejected(self):
        cfg = CalibConfig(granularity=Granularity.PER_CHANNEL)
        with pytest.raises(ValueError):
            calibrate_tensor(np.ones((3, 3)), cfg)

    def test_percentile_tightens_bounds(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=20_000)
        x[:5] = 500.0  # outliers
        full = calibrate_tensor(x, CalibConfig(bits=8, percentile=100.0))
        clipped = calibrate_tensor(x, CalibConfig(bits=8, percentile=99.9))
        assert clipped.scale[0] < full.scale[0]

    def test_log_scale_is_upper_bound(self):
        x = np.array([0.001, 0.2, 0.8])
        for scheme in (Scheme.LOG2, Scheme.LOG_SQRT2):
            qp = calibrate_tensor(x, CalibConfig(bits=4, scheme=scheme, percentile=100.0))
            assert qp.scale[0] == 0.8
            assert qp.zero_point is None

    def test_log_negative_data_rejected(self):
        cfg = CalibConfig(bits=4, scheme=Scheme.LOG2, percentile=100.0)
        with pytest.raises(ValueError):
            calibrate_tensor(np.array([-0.5, 0.5]), cfg)

    def test_log_all_zero_degenerate(self):
        cfg = CalibConfig(bits=4, scheme=Scheme.LOG2, percentile=100.0)
        qp = calibrate_tensor(np.zeros(16), cfg)
        assert qp.scale[0] == DEGENERATE_SCALE

    def test_log_per_channel_rejected(self):
        cfg = CalibConfig(bits=4, scheme=Scheme.LOG2,
                          granularity=Granularity.PER_CHANNEL)
        with pytest.raises(ValueError):
            calibrate_tensor(np.ones((3, 3)), cfg, channel_axis=1)

    def test_constant_tensor_does_not_divide_by_zero(self):
        qp = calibrate_tensor(np.full((8, 8), 3.0), CalibConfig(bits=4))
        assert np.isfinite(qp.scale[0]) and qp.scale[0] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(32, 16))
        cfg = CalibConfig(bits=6, percentile=99.5)
        a = calibrate_tensor(x, cfg)
        b = calibrate_tensor(x.copy(), cfg)
        np.testing.assert_array_equal(a.scale, b.scale)
        np.testing.assert_array_equal(a.zero_point, b.zero_point)


class TestCalibConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CalibConfig(bits=1)
        with pytest.raises(ValueError):
            CalibConfig(percentile=50.0)
        with pytest.raises(ValueError):
            CalibConfig(percentile=101.0)
