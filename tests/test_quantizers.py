"""Quantizer tests.

The log-sqrt2 dequantizer claims 1-ulp agreement with the exact value
s * sqrt(2)**(-code). The reference here is computed with mpmath at 60
digits and then correctly rounded to float64; anything less careful (for
example np.power(np.sqrt(2.0), -codes)) drifts by dozens of ulps at large
codes and would make the bound meaningless.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefold.quantizers import (
    GELU_TANH_BOUND,
    QuantParams,
    Scheme,
    _tanh_gelu,
    fake_quantize,
    gelu_centred,
    log2_dequantize,
    log2_quantize,
    logsqrt2_dequantize,
    logsqrt2_dequantize_shift,
    logsqrt2_quantize,
    parity_indicator,
    uniform_centred,
    uniform_dequantize,
    uniform_quantize,
)
from scalefold.tensors import gelu

mpmath.mp.dps = 60


def ulp_distance(a, b):
    """Distance in representable float64 steps, exact for same-sign finite floats."""
    ia = np.atleast_1d(np.float64(a)).view(np.int64)
    ib = np.atleast_1d(np.float64(b)).view(np.int64)
    return np.abs(ia - ib)


def exact_sqrt2_pow(s, code):
    """Correctly rounded s * sqrt(2)**(-code)."""
    return float(mpmath.mpf(s) * mpmath.power(mpmath.sqrt(2), -int(code)))


def uparams(s, z, bits):
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.int64))
    return QuantParams(Scheme.UNIFORM, bits, scale=s, zero_point=z)


class TestQuantParams:
    def test_rejects_bad_bits(self):
        for bits in (1, 9, 0):
            with pytest.raises(ValueError):
                uparams(1.0, 0, bits)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            uparams(0.0, 0, 4)
        with pytest.raises(ValueError):
            uparams(-1.0, 0, 4)

    def test_rejects_out_of_range_zero_point(self):
        with pytest.raises(ValueError):
            uparams(1.0, 16, 4)
        with pytest.raises(ValueError):
            uparams(1.0, -1, 4)

    @pytest.mark.parametrize("bits", [4.7, 4.0, True, "4", None])
    def test_rejects_a_bit_width_that_is_not_an_integer(self, bits):
        """A fractional, boolean or string width fails at construction, for every scheme."""
        with pytest.raises(ValueError, match="not an integer"):
            QuantParams(Scheme.LOG2, bits, scale=[1.0])
        with pytest.raises(ValueError, match="not an integer"):
            QuantParams(Scheme.UNIFORM, bits, scale=[1.0], zero_point=[0])

    def test_integer_bit_width_is_stored_as_int(self):
        qp = QuantParams(Scheme.LOG2, np.int64(5), scale=[1.0])
        assert type(qp.bits) is int and qp.bits == 5

    def test_rejects_float_zero_point(self):
        with pytest.raises(ValueError):
            QuantParams(Scheme.UNIFORM, 4, scale=np.array([1.0]),
                        zero_point=np.array([0.5]))

    def test_log_scheme_carries_no_zero_point(self):
        with pytest.raises(ValueError):
            QuantParams(Scheme.LOG2, 4, scale=np.array([1.0]),
                        zero_point=np.array([0], dtype=np.int64))

    def test_json_round_trip(self):
        qp = uparams([1.0, 2.0], [3, 4], 6)
        d = qp.to_json()
        assert set(d) == {"scheme", "bits", "scale", "zero_point"}
        back = QuantParams.from_json(d)
        assert back.scheme is qp.scheme and back.bits == qp.bits
        np.testing.assert_array_equal(back.scale, qp.scale)
        np.testing.assert_array_equal(back.zero_point, qp.zero_point)
        assert back.to_json() == d

    def test_json_takes_exactly_the_written_keys(self):
        """An extra key, such as an earlier writer's `granularity`, or a missing one is refused."""
        for qp, extra in (
            (uparams([1.0, 2.0], [3, 4], 6), {"granularity": "per_channel", "channel_axis": -1}),
            (uparams(0.5, 7, 4), {"granularity": "per_layer", "channel_axis": None}),
            (QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([0.9])), {"channel_axis": None}),
        ):
            with pytest.raises(ValueError, match="QuantParams expects keys"):
                QuantParams.from_json({**qp.to_json(), **extra})
            short = qp.to_json()
            del short["zero_point"]
            with pytest.raises(ValueError, match="QuantParams expects keys"):
                QuantParams.from_json(short)

    @pytest.mark.parametrize("change", [
        {"bits": None}, {"scale": {"a": 1.0}}, {"zero_point": {"a": 1}}, {"bits": 4.7},
        {"bits": "4"}, {"bits": True}, {"bits": 6.0}, {"zero_point": [6.5, 4]},
        {"zero_point": [3.0, 4]}, {"zero_point": [3, True]}, {"zero_point": "34"},
        {"scale": ["0.5", 2.0]}, {"scale": [1.0, None]}, {"scale": [False, 2.0]},
        {"scale": 1.0},
    ])
    def test_json_malformed_raises_value_error(self, change):
        """Wrong JSON types are rejected, never truncated or parsed from strings."""
        d = {**uparams([1.0, 2.0], [3, 4], 6).to_json(), **change}
        with pytest.raises(ValueError, match="malformed"):
            QuantParams.from_json(d)

    def test_json_not_an_object_raises_value_error(self):
        with pytest.raises(ValueError):
            QuantParams.from_json(["uniform", 4])


class TestUniform:
    def test_direct_evaluation(self):
        qp = uparams(1.0, 0, 4)
        np.testing.assert_array_equal(
            uniform_quantize(np.array([0.0, 7.4, 15.0]), qp), [0, 7, 15])

    def test_lower_clip(self):
        qp = uparams(1.0, 0, 4)
        assert uniform_quantize(np.array([-1.0]), qp)[0] == 0

    def test_upper_clip(self):
        qp = uparams(1.0, 0, 4)
        assert uniform_quantize(np.array([99.0]), qp)[0] == 15

    def test_grid_fixed_points_exhaustive(self):
        """x = s*(k - z) must map back to code k, for every code and several grids."""
        for bits in range(2, 9):
            qmax = (1 << bits) - 1
            for s, z in ((1.0, 0), (0.37, qmax // 2), (2.5e-3, qmax)):
                qp = uparams(s, z, bits)
                k = np.arange(qmax + 1, dtype=np.int64)
                x = s * (k - z)
                np.testing.assert_array_equal(uniform_quantize(x, qp), k)
                np.testing.assert_array_equal(uniform_dequantize(k.astype(np.int32), qp), x)

    def test_dequantize_examples(self):
        qp = uparams(0.5, 3, 4)
        assert uniform_dequantize(np.array([3], dtype=np.int32), qp)[0] == 0.0
        assert uniform_dequantize(np.array([7], dtype=np.int32), qp)[0] == 2.0

    def test_dequantize_rejects_out_of_range(self):
        qp = uparams(1.0, 0, 4)
        with pytest.raises(ValueError):
            uniform_dequantize(np.array([16], dtype=np.int32), qp)
        with pytest.raises(ValueError):
            uniform_dequantize(np.array([-1], dtype=np.int32), qp)

    def test_round_half_to_even(self):
        # x/s at exact .5 ticks: 0.5 -> 0, 1.5 -> 2, 2.5 -> 2, 3.5 -> 4
        qp = uparams(1.0, 0, 4)
        np.testing.assert_array_equal(
            uniform_quantize(np.array([0.5, 1.5, 2.5, 3.5]), qp), [0, 2, 2, 4])

    def test_round_before_zero_point_addition(self):
        # with z odd, rounding after adding z would break ties the other way:
        # round(2.5) + 3 = 5 but round(2.5 + 3) = 6
        qp = uparams(1.0, 3, 4)
        assert uniform_quantize(np.array([2.5]), qp)[0] == 5

    def test_round_trip_error_bound_randomized(self):
        """|dequant(quant(x)) - x| <= s/2 for x inside the clip range."""
        rng = np.random.default_rng(2024)
        for bits in (2, 4, 8):
            qmax = (1 << bits) - 1
            s, z = 0.173, min(qmax, 5)
            qp = uparams(s, z, bits)
            lo, hi = s * (0 - z), s * (qmax - z)
            x = rng.uniform(lo, hi, size=10_000)
            err = np.abs(uniform_dequantize(uniform_quantize(x, qp), qp) - x)
            assert err.max() <= s / 2 + 1e-15

    @settings(deadline=None, max_examples=200)
    @given(st.floats(1e-6, 1e3), st.integers(0, 15), st.floats(-0.49, 0.49),
           st.integers(0, 15))
    def test_round_trip_is_nearest_grid_point(self, s, z, frac, k):
        qp = uparams(s, z, 4)
        x = s * (k - z) + frac * s
        got = uniform_dequantize(uniform_quantize(np.array([x]), qp), qp)[0]
        assert got == s * (k - z)

    def test_monotone_codes(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.normal(size=1000) * 3)
        codes = uniform_quantize(x, uparams(0.21, 7, 4))
        assert np.all(np.diff(codes.astype(np.int64)) >= 0)

    def test_per_channel_equals_per_slice(self):
        """Per-channel quantization is per-layer quantization channel by channel."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 3)) * [1.0, 5.0, 0.2]
        s = np.array([0.1, 0.7, 0.02])
        z = np.array([3, 8, 12])
        qp = uparams(s, z, 4)
        codes = uniform_quantize(x, qp)
        for c in range(3):
            per_layer = uparams(s[c], z[c], 4)
            np.testing.assert_array_equal(codes[:, c],
                                          uniform_quantize(x[:, c], per_layer))
        # the channels are the last axis at any rank
        np.testing.assert_array_equal(uniform_quantize(x[np.newaxis], qp), codes[np.newaxis])

    def test_channel_count_mismatch(self):
        """The channels are the last axis: a match on any other axis does not count."""
        for channels, shape in ((2, (4, 3)), (3, (3, 5))):
            qp = uparams(np.ones(channels), np.zeros(channels, dtype=np.int64), 4)
            with pytest.raises(ValueError, match=f"{shape[-1]} channels .* carry {channels}"):
                uniform_quantize(np.zeros(shape), qp)

    def test_scheme_mismatch(self):
        log_qp = QuantParams(Scheme.LOG2, 4, scale=np.array([1.0]))
        with pytest.raises(ValueError):
            uniform_quantize(np.ones(3), log_qp)

    def test_nan_rejected_and_infinities_saturate(self):
        """A NaN has no code in [0, 2**b - 1]; ±inf take the end codes."""
        qp = uparams(0.1, 3, 4)
        with pytest.raises(ValueError, match="NaN"):
            uniform_quantize(np.array([0.5, np.nan, 0.1]), qp)
        np.testing.assert_array_equal(uniform_quantize(np.array([np.inf, -np.inf]), qp), [15, 0])


class TestLog2:
    def test_direct_examples(self):
        assert log2_quantize(np.array([0.5]), 1.0, 4)[0] == 1
        assert log2_quantize(np.array([1.0]), 1.0, 4)[0] == 0

    def test_rounding_band(self):
        # everything in (2**-1.5, 2**-0.5) rounds to code 1
        x = np.array([0.3536, 0.5, 0.707])
        np.testing.assert_array_equal(log2_quantize(x, 1.0, 4), [1, 1, 1])

    def test_zero_maps_to_deepest_level(self):
        for bits in (2, 4, 8):
            assert log2_quantize(np.array([0.0]), 1.0, bits)[0] == (1 << bits) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log2_quantize(np.array([-0.1]), 1.0, 4)

    def test_nan_rejected_and_infinity_saturates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            log2_quantize(np.array([0.5, np.nan, 0.1]), 1.0, 4)
        np.testing.assert_array_equal(log2_quantize(np.array([np.inf, 0.0]), 1.0, 4), [0, 15])

    def test_dequantize_examples(self):
        assert log2_dequantize(np.array([0], dtype=np.int32), 1.7, 2)[0] == 1.7
        assert log2_dequantize(np.array([3], dtype=np.int32), 1.0, 2)[0] == 0.125

    def test_grid_fixed_points(self):
        for bits in range(2, 9):
            k = np.arange((1 << bits), dtype=np.int32)
            for s in (1.0, 0.93, 3.7e-2):
                x = np.ldexp(s, -k)
                np.testing.assert_array_equal(log2_quantize(x, s, bits), k)

    def test_dequantize_is_exact_scaling(self):
        """ldexp against the 60-digit reference: zero ulp error, every code."""
        rng = np.random.default_rng(31)
        for s in rng.uniform(1e-4, 10.0, size=20):
            codes = np.arange(256, dtype=np.int32)
            got = log2_dequantize(codes, s, 8)
            want = [float(mpmath.mpf(s) * mpmath.power(2, -int(c))) for c in codes]
            assert np.all(ulp_distance(got, np.array(want)) == 0)

    def test_monotone_codes(self):
        x = np.geomspace(1e-6, 1.0, 500)
        codes = log2_quantize(x, 1.0, 8).astype(np.int64)
        assert np.all(np.diff(codes) <= 0)


class TestLogSqrt2:
    def test_direct_examples(self):
        assert logsqrt2_quantize(np.array([0.5]), 1.0, 4)[0] == 2
        assert logsqrt2_quantize(np.array([2.0 ** -1.5]), 1.0, 4)[0] == 3
        assert logsqrt2_quantize(np.array([1.0]), 1.0, 4)[0] == 0

    def test_base_change_identity(self):
        """round(-2*log2(x/s)) must equal round(-log2(x/s)/log2(sqrt 2)).

        Dividing by the exact constant 0.5 is lossless, so the two code
        computations agree bit for bit. (Dividing by the *computed float*
        log2(sqrt(2)) would not: that value is 0.5 + 2**-53.)
        """
        rng = np.random.default_rng(17)
        x = np.exp(rng.uniform(np.log(1e-8), np.log(10.0), size=50_000))
        for s in (1.0, 0.37, 8.1):
            direct = logsqrt2_quantize(x, s, 8)
            via_half = np.clip(np.rint(-np.log2(x / s) / 0.5), 0, 255).astype(np.int32)
            np.testing.assert_array_equal(direct, via_half)

    def test_zero_maps_to_deepest_level(self):
        assert logsqrt2_quantize(np.array([0.0]), 1.0, 4)[0] == 15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            logsqrt2_quantize(np.array([-1e-9]), 1.0, 4)

    def test_nan_rejected_and_infinity_saturates(self):
        with pytest.raises(ValueError, match="nonnegative"):
            logsqrt2_quantize(np.array([0.5, np.nan, 0.1]), 1.0, 4)
        np.testing.assert_array_equal(logsqrt2_quantize(np.array([np.inf, 0.0]), 1.0, 4), [0, 15])

    def test_parity_indicator(self):
        np.testing.assert_array_equal(
            parity_indicator(np.array([0, 3, 8, 255], dtype=np.int32)), [0, 1, 0, 1])

    def test_dequantize_even_and_odd_branches(self):
        assert logsqrt2_dequantize(np.array([0], dtype=np.int32), 1.0, 2)[0] == 1.0
        assert logsqrt2_dequantize(np.array([2], dtype=np.int32), 1.0, 2)[0] == 0.5
        odd = logsqrt2_dequantize(np.array([3], dtype=np.int32), 1.0, 2)[0]
        np.testing.assert_allclose(odd, 2.0 ** -1.5, rtol=1e-15)

    def test_one_ulp_of_exact_value_all_codes(self):
        """The parity-scale route stays within 1 ulp of s*sqrt(2)**(-code)."""
        rng = np.random.default_rng(101)
        scales = np.concatenate([[1.0], rng.uniform(1e-4, 10.0, size=30)])
        codes = np.arange(256, dtype=np.int32)
        for s in scales:
            got = logsqrt2_dequantize(codes, s, 8)
            want = np.array([exact_sqrt2_pow(s, c) for c in codes])
            assert ulp_distance(got, want).max() <= 1

    def test_even_codes_are_exact(self):
        # even codes never touch the sqrt(2) factor, so they are error-free
        codes = np.arange(0, 256, 2, dtype=np.int32)
        got = logsqrt2_dequantize(codes, 0.816, 8)
        want = np.array([exact_sqrt2_pow(0.816, c) for c in codes])
        assert np.all(ulp_distance(got, want) == 0)

    def test_grid_fixed_points(self):
        for bits in range(2, 9):
            k = np.arange((1 << bits), dtype=np.int32)
            x = logsqrt2_dequantize(k, 1.0, bits)
            np.testing.assert_array_equal(logsqrt2_quantize(x, 1.0, bits), k)

    def test_monotone_codes(self):
        x = np.geomspace(1e-6, 1.0, 500)
        codes = logsqrt2_quantize(x, 1.0, 8).astype(np.int64)
        assert np.all(np.diff(codes) <= 0)


class TestShiftPaths:
    """The simulated integer shift path must match the float path exactly."""

    def test_logsqrt2_shift_equals_float_exhaustive(self):
        rng = np.random.default_rng(56)
        for bits in range(2, 9):
            codes = np.arange(1 << bits, dtype=np.int32)
            for s in np.concatenate([[1.0], rng.uniform(1e-4, 9.0, 25)]):
                np.testing.assert_array_equal(
                    logsqrt2_dequantize_shift(codes, s, bits),
                    logsqrt2_dequantize(codes, s, bits))

    @pytest.mark.parametrize("dequantize", [log2_dequantize, logsqrt2_dequantize,
                                            logsqrt2_dequantize_shift])
    def test_codes_outside_the_grid_rejected(self, dequantize):
        for code in (-1, 16):
            with pytest.raises(ValueError, match=r"codes outside \[0, 15\]"):
                dequantize(np.array([0, code], dtype=np.int32), 1.0, 4)


class TestResolutionOrdering:
    """How the sqrt(2)-base grid relates to the power-of-two grid.

    The half-power grid contains every power-of-two level in its range, and
    rounding in the log domain can only get closer on the finer grid. (In the
    linear domain the pointwise comparison genuinely fails for some inputs,
    because rounding happens in log space, not to the nearest linear level;
    the honest pointwise statements are the two below, and the aggregate one
    in the synth-data tests.)
    """

    def test_levels_superset_at_b4(self):
        s = 1.0
        ls2_levels = logsqrt2_dequantize(np.arange(16, dtype=np.int32), s, 4)
        log2_levels = log2_dequantize(np.arange(8, dtype=np.int32), s, 3)
        # log2 level k reappears exactly as half-power level 2k
        np.testing.assert_array_equal(ls2_levels[::2], log2_levels)

    def test_log_domain_error_dominance(self):
        """|log2(x) - log2(x_ls2)| <= |log2(x) - log2(x_l2)| pre-clip."""
        s = 1.0
        # fine grid over the unclipped band of the b=4 half-power quantizer
        x = np.geomspace(2.0 ** -7.4, 1.0, 20_001)
        c2 = log2_quantize(x, s, 4).astype(np.float64)
        cs = logsqrt2_quantize(x, s, 4).astype(np.float64)
        t = np.log2(x / s)
        err_log2 = np.abs(t + c2)
        err_ls2 = np.abs(t + cs / 2.0)
        assert np.all(err_ls2 <= err_log2 + 1e-12)

    def test_nearest_level_distance_dominance(self):
        """Distance to the closest reconstruction level never grows."""
        s = 1.0
        x = np.geomspace(2.0 ** -7.4, 1.0, 5_001)
        ls2_levels = logsqrt2_dequantize(np.arange(16, dtype=np.int32), s, 4)
        log2_levels = log2_dequantize(np.arange(16, dtype=np.int32), s, 4)
        d_ls2 = np.abs(x[:, None] - ls2_levels).min(axis=1)
        d_l2 = np.abs(x[:, None] - log2_levels).min(axis=1)
        assert np.all(d_ls2 <= d_l2 + 1e-18)


class TestFakeQuantize:
    def test_uniform_composition(self):
        qp = uparams(1.0, 0, 4)
        assert fake_quantize(np.array([7.4]), qp)[0] == 7.0

    def test_log2_composition(self):
        qp = QuantParams(Scheme.LOG2, 4, scale=np.array([1.0]))
        assert fake_quantize(np.array([0.6]), qp)[0] == 0.5

    def test_grid_points_are_fixed(self):
        qp = QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([0.77]))
        x = logsqrt2_dequantize(np.arange(16, dtype=np.int32), 0.77, 4)
        np.testing.assert_array_equal(fake_quantize(x, qp), x)

    def test_shape_preserved(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.normal(size=(4, 5, 6)))
        for qp in (uparams(0.2, 5, 4),
                   QuantParams(Scheme.LOG2, 4, scale=np.array([1.0])),
                   QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([1.0]))):
            assert fake_quantize(x, qp).shape == x.shape


# where GELU takes its minimum, about -0.17: it falls left of here and rises right of it
_GELU_ARGMIN = -0.7517915241


def _bisect(t, lo, hi, rising):
    """h in [lo, hi] with gelu(h) at t, to the last float, where GELU rises (or falls) there."""
    lo, hi = np.broadcast_to(lo, t.shape), np.broadcast_to(hi, t.shape)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = (gelu(mid) < t) == rising          # the root lies above mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return hi


def gelu_preimages(t):
    """h with gelu(h) at t on each branch of GELU where t has one: every t above the minimum
    on the rising branch, the negative ones also on the falling branch."""
    t = t[t > gelu(np.array(_GELU_ARGMIN))]
    neg = t[t < 0]
    return np.concatenate([_bisect(t, _GELU_ARGMIN, np.abs(t) + 2.0, rising=True),
                           _bisect(neg, -40.0, _GELU_ARGMIN, rising=False)])


class TestGeluCentred:
    """`gelu_centred` gives `uniform_centred(gelu(h))` from the tanh form of GELU."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(2, 8), st.one_of(st.floats(5e-4, 1e-3), st.floats(1e-3, 3.0)),
           st.data())
    def test_codes_are_the_exact_ones_bit_for_bit(self, bits, scale, data):
        """Equal int64 views, so the sign of a zero code and NaN's bits count too.

        The values sit within 40 ulp of every h whose exact GELU falls on a
        rounding boundary (k + 1/2) * s, on both branches of GELU, for every
        code and one beyond each end, where the tanh form can fall on the
        other side of the boundary; then +-0, subnormals, +-1e300, +-1e308,
        +-inf, +-NaN and normal draws. At scales of 1e-3 and below no tanh
        code is certain, so every entry with a finite quotient is recomputed.
        """
        z = data.draw(st.integers(0, (1 << bits) - 1), label="zero point")
        qp = uparams(scale, z, bits)
        k = np.arange(-z - 1, qp.qmax - z + 1) + 0.5
        roots = gelu_preimages(k * scale)
        near = roots[:, None] + np.spacing(roots)[:, None] * np.arange(-40, 41)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -2.2e-310, 1e300, -1e300,
                   1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
        h = np.concatenate([near.ravel(), special, rng.normal(size=500) * 4])
        # 1e308 / s overflows
        with np.errstate(over="ignore"):
            got, want = gelu_centred(h, qp), uniform_centred(gelu(h), qp)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_tanh_form_stays_within_the_bound(self):
        """|tanh form - gelu| <= GELU_TANH_BOUND for every float64 h.

        On a grid of step d = 2**-16 over [-40, 40] the largest gap is
        4.733e-4. Between grid points the gap can grow by at most
        max|slope difference| * d / 2: GELU's slope, Phi(h) + h * phi(h),
        and the tanh form's both lie in [-0.13, 1.13] (their finite
        differences on the grid say so), so the difference of the slopes is
        below 1.26 and the growth below 1e-5. The floats of both forms stray
        from the smooth functions by a few ulp of |h| <= 40, below 1e-13. So
        the grid's largest gap plus 1e-5 must stay below the bound. Beyond the
        grid both forms give h exactly above it and -0 below it, -inf
        included: there tanh saturates at +-1 and ndtr at 1 and 0.
        """
        step = 2.0 ** -16
        worst = 0.0
        for lo in range(-40, 40, 8):
            h = lo + step * np.arange(8 * 2**16 + 1)
            t, g = _tanh_gelu(h, np.empty_like(h)), gelu(h)
            worst = max(worst, np.abs(t - g).max())
            for form in (t, g):
                slope = np.diff(form) / step
                assert slope.min() > -0.13 and slope.max() < 1.13
        assert 4.7e-4 < worst and worst + 1e-5 < GELU_TANH_BOUND
        far = np.append(np.geomspace(40.0, 1e300, 2000), np.inf)
        for h, want in ((far[:-1], far[:-1]), (-far, np.full_like(far, -0.0))):
            for form in (_tanh_gelu(h, np.empty_like(h)), gelu(h)):
                np.testing.assert_array_equal(form.view(np.int64), want.view(np.int64))

    def test_holds_less_than_gelu_and_uniform_centred(self):
        """The peak traced memory stays at or below that of the two kernels it replaces.

        Those hold GELU's output and the codes at once, two full-size
        buffers; the kernel holds the codes and one chunk of scratch.
        """
        h = np.random.default_rng(64).normal(size=(64, 4096)) * 4
        qp = uparams(0.05, 12, 8)
        peaks, outs = [], []
        for kernel in (lambda: gelu_centred(h, qp), lambda: uniform_centred(gelu(h), qp)):
            tracemalloc.start()
            try:
                outs.append(kernel())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(outs[0].view(np.int64), outs[1].view(np.int64))
        assert peaks[0] <= peaks[1]

    def test_rejects_params_it_cannot_take(self):
        for qp in (uparams([0.1, 0.2], [0, 1], 4),
                   QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([1.0]))):
            with pytest.raises(ValueError, match="one-scale uniform"):
                gelu_centred(np.zeros((2, 2)), qp)
