"""Reparameterization tests.

The load-bearing fact is the code-equality theorem: quantizing the adjusted
activations (x + s*r2)/r1 with the layer-wise pair (s~, z~) produces exactly
the integer codes that channel-wise quantization of x produces with (s_d,
z_d). It holds because x~/s~ = x/s_d + r2_d in exact arithmetic and r2 is an
integer, so both paths round the same fractional part and then clip over the
same code range. Floating-point only enters through x~/s~, whose rounding
noise can flip a code only when x/s_d sits within float error of a rounding
tie; random draws near half-integers are excluded for that reason, and
`TestRoundingTies` pins down what happens exactly on a tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scalefold.quantizers import (
    QuantParams,
    Scheme,
    SQRT2,
    base_change_scale,
    logsqrt2_dequantize,
    uniform_quantize,
)
from scalefold.reparam import ReparamRecord, reparameterize_layernorm_site


def channel_params(s, z, bits=4):
    return QuantParams(
        Scheme.UNIFORM, bits,
        scale=np.asarray(s, dtype=np.float64),
        zero_point=np.asarray(z, dtype=np.int64),
    )


def draw_off_ties(rng, qp, n_rows, margin=1e-6):
    """Sample activations whose x/s_d stays away from half-integer ties."""
    d = qp.scale.size
    frac = rng.uniform(-0.5 + margin, 0.5 - margin, size=(n_rows, d))
    level = rng.integers(-2, qp.qmax + 3, size=(n_rows, d))  # includes clip overshoot
    return qp.scale * (level - qp.zero_point + frac)


class TestBuildRecord:
    def test_worked_example(self):
        qp = channel_params([1.0, 2.0, 3.0], [4, 6, 8])
        rec = ReparamRecord(qp)
        assert rec.target_scale == 2.0
        assert rec.target_zero == 6
        np.testing.assert_array_equal(rec.r1, [0.5, 1.0, 1.5])
        np.testing.assert_array_equal(rec.r2, [-2, 0, 2])

    def test_single_channel_identity(self):
        rec = ReparamRecord(channel_params([2.0], [5]))
        np.testing.assert_array_equal(rec.r1, [1.0])
        np.testing.assert_array_equal(rec.r2, [0])

    def test_identical_channels_no_variation(self):
        rec = ReparamRecord(channel_params([0.7] * 5, [3] * 5))
        np.testing.assert_array_equal(rec.r1, np.ones(5))
        np.testing.assert_array_equal(rec.r2, np.zeros(5))

    def test_zero_mean_rounds_half_to_even(self):
        rec = ReparamRecord(channel_params([1.0, 1.0], [2, 3]))
        assert rec.target_zero == 2  # mean 2.5 rounds to even
        # mean 3.5 rounds up to even, and a mean off the tie to nearest
        assert ReparamRecord(channel_params([1.0, 1.0], [3, 4])).target_zero == 4
        assert ReparamRecord(channel_params([1.0] * 4, [2, 3, 3, 3])).target_zero == 3

    def test_factor_definitions_exact(self):
        rng = np.random.default_rng(40)
        s = rng.uniform(0.01, 3.0, size=64)
        z = rng.integers(0, 16, size=64)
        rec = ReparamRecord(channel_params(s, z))
        np.testing.assert_array_equal(rec.r1, s / rec.target_scale)
        np.testing.assert_array_equal(rec.r2, z - rec.target_zero)

    def test_rejects_log_scheme(self):
        qp = QuantParams(Scheme.LOG2, 4, scale=np.array([1.0]))
        with pytest.raises(ValueError, match="must be uniform"):
            ReparamRecord(qp)

    def test_target_takes_the_source_bit_width(self):
        rec = ReparamRecord(channel_params([1.0, 2.0, 3.0], [40, 60, 80], bits=7))
        target = rec.target_params()
        assert target.bits == 7
        np.testing.assert_array_equal(target.scale, [2.0])
        np.testing.assert_array_equal(target.zero_point, [60])


def fold_affine(gamma, beta, qp):
    """gamma~ and beta~ of a site whose consumer is a one-column zero projection."""
    gamma_adj, beta_adj, *_ = reparameterize_layernorm_site(
        gamma, beta, np.zeros((len(gamma), 1)), np.zeros(1), qp)
    return gamma_adj, beta_adj


def fold_consumer(weight, bias, qp):
    """W~ and b~ of a site whose affine parameters are the identity."""
    d = weight.shape[0]
    _, _, w_adj, b_adj, _ = reparameterize_layernorm_site(np.ones(d), np.zeros(d), weight, bias, qp)
    return w_adj, b_adj


class TestAffineAdjustment:
    def test_worked_example(self):
        # s~ = 1 and z~ = round(4/3) = 1: r1 = [2, 0.5, 0.5], r2 = [3, -1, -1],
        # s * r2 = [6, -0.5, -0.5]
        gamma_adj, beta_adj = fold_affine(np.array([2.0, 4.0, 1.0]), np.array([1.0, 0.0, 0.5]),
                                          channel_params([2.0, 0.5, 0.5], [4, 0, 0]))
        np.testing.assert_array_equal(gamma_adj, [1.0, 8.0, 2.0])
        np.testing.assert_array_equal(beta_adj, [3.5, -1.0, 0.0])

    def test_identity_record(self):
        gamma, beta = np.array([1.5, -2.0]), np.array([0.1, 0.2])
        gamma_adj, beta_adj = fold_affine(gamma, beta, channel_params([0.7, 0.7], [3, 3]))
        np.testing.assert_array_equal(gamma_adj, gamma)
        np.testing.assert_array_equal(beta_adj, beta)

    def test_zero_gamma_annihilates(self):
        gamma_adj, _ = fold_affine(np.zeros(2), np.ones(2), channel_params([1.0, 4.0], [2, 9]))
        np.testing.assert_array_equal(gamma_adj, np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="affine vectors must have 2 channels"):
            reparameterize_layernorm_site(np.ones(3), np.ones(3), np.ones((2, 1)), np.ones(1),
                                          channel_params([1.0, 2.0], [0, 1]))


class TestWeightCompensation:
    def test_worked_example(self):
        # s~ = 1 and z~ = 1: r1 = [2, 0.5, 0.5], r2 = [1, -1, 0]
        w = np.array([[1.0], [1.0], [1.0]])
        w_adj, b_adj = fold_consumer(w, np.zeros(1), channel_params([2.0, 0.5, 0.5], [2, 0, 1]))
        np.testing.assert_array_equal(w_adj, [[2.0], [0.5], [0.5]])
        # b~ = 0 - (2*1*1 + 0.5*(-1)*1 + 0.5*0*1) = -1.5
        np.testing.assert_array_equal(b_adj, [-1.5])

    def test_identity_record(self):
        rng = np.random.default_rng(41)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=6)
        w_adj, b_adj = fold_consumer(w, b, channel_params([0.3] * 4, [7] * 4))
        np.testing.assert_array_equal(w_adj, w)
        np.testing.assert_array_equal(b_adj, b)

    def test_dimension_mismatch(self):
        qp = channel_params([1.0, 2.0], [0, 1])
        with pytest.raises(ValueError, match="weight must be 2-D with 2 input rows"):
            reparameterize_layernorm_site(np.ones(2), np.ones(2), np.ones((3, 2)), np.ones(2), qp)
        with pytest.raises(ValueError, match="bias length"):
            reparameterize_layernorm_site(np.ones(2), np.ones(2), np.ones((2, 2)), np.ones(3), qp)

    def test_linear_output_alignment(self):
        """The folded site computes the same consumer output, to 1e-10.

        For normalized rows u, the site emits x = u * gamma + beta into
        x @ W + b; the folded site emits u * gamma~ + beta~ into W~ and b~.
        """
        rng = np.random.default_rng(42)
        for d in (8, 64, 512):
            s = rng.uniform(0.02, 2.0, size=d)
            z = rng.integers(0, 256, size=d)
            gamma, beta = rng.normal(size=d) * s * 4, rng.normal(size=d) * s
            w = rng.normal(size=(d, 3 * d)) / np.sqrt(d)
            b = rng.normal(size=3 * d)
            u = rng.normal(size=(16, d))
            site = reparameterize_layernorm_site(gamma, beta, w, b, channel_params(s, z, bits=8))
            lhs = (u * gamma + beta) @ w + b
            rhs = (u * site.gamma + site.beta) @ site.weight + site.bias
            denom = np.abs(lhs).max()
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(denom, 1.0)


class TestCodeEquality:
    def test_brute_force_code_equality(self):
        """Layer-wise codes of adjusted activations == channel-wise codes."""
        rng = np.random.default_rng(77)
        d = 64
        s = rng.uniform(0.01, 4.0, size=d)
        z = rng.integers(0, 16, size=d)
        qp = channel_params(s, z)
        rec = ReparamRecord(qp)
        x = draw_off_ties(rng, qp, 2000)
        codes_channel = uniform_quantize(x, qp)
        x_adj = (x + s * rec.r2) / rec.r1
        codes_layer = uniform_quantize(x_adj, rec.target_params())
        np.testing.assert_array_equal(codes_layer, codes_channel)

    def test_code_equality_includes_clip_region(self):
        """Both paths clip identically: the pre-clip integers are equal."""
        rng = np.random.default_rng(78)
        qp = channel_params([0.5, 1.5, 2.5], [1, 8, 15])
        rec = ReparamRecord(qp)
        # levels far outside [0, 15] on purpose
        frac = rng.uniform(-0.45, 0.45, size=(500, 3))
        level = rng.integers(-40, 60, size=(500, 3))
        x = qp.scale * (level - qp.zero_point + frac)
        codes_channel = uniform_quantize(x, qp)
        x_adj = (x + qp.scale * rec.r2) / rec.r1
        codes_layer = uniform_quantize(x_adj, rec.target_params())
        np.testing.assert_array_equal(codes_layer, codes_channel)
        assert codes_channel.min() == 0 and codes_channel.max() == 15

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_code_equality_random_instances(self, seed, bits):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 12))
        qmax = (1 << bits) - 1
        qp = channel_params(rng.uniform(1e-3, 10.0, size=d),
                            rng.integers(0, qmax + 1, size=d), bits=bits)
        rec = ReparamRecord(qp)
        x = draw_off_ties(rng, qp, 100)
        x_adj = (x + qp.scale * rec.r2) / rec.r1
        np.testing.assert_array_equal(
            uniform_quantize(x_adj, rec.target_params()),
            uniform_quantize(x, qp))


def fold_codes(x, qp):
    """(channel-wise codes of x, layer-wise codes of the folded activations)."""
    rec = ReparamRecord(qp)
    x_adj = (x + qp.scale * rec.r2) / rec.r1
    return uniform_quantize(x, qp), uniform_quantize(x_adj, rec.target_params())


@st.composite
def tie_instances(draw):
    """Channel-wise params with dyadic scales and values on and off ties of x/s_d.

    Each scale is a * 2**e with a < 2**20, so s_d * (m + 1/2) and its
    quotient by s_d are exact: a value drawn onto a tie sits exactly on it.
    Off a tie, x/s_d stays at least 1e-9 from every half-integer, far above
    the fold's float error (about 1e-13 at the largest levels). Levels m
    reach two codes past both ends of the grid, into the clip region.
    """
    bits = draw(st.integers(2, 8))
    qmax = (1 << bits) - 1
    d = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 16))
    mant = draw(hnp.arrays(np.int64, d, elements=st.integers(1, 2**20 - 1)))
    expo = draw(hnp.arrays(np.int64, d, elements=st.integers(-20, 2)))
    zero = draw(hnp.arrays(np.int64, d, elements=st.integers(0, qmax)))
    code = draw(hnp.arrays(np.int64, (rows, d), elements=st.integers(-2, qmax + 2)))
    on_tie = draw(hnp.arrays(np.bool_, (rows, d)))
    frac = draw(hnp.arrays(np.float64, (rows, d),
                           elements=st.floats(-0.5 + 1e-9, 0.5 - 1e-9)))
    qp = channel_params(np.ldexp(mant.astype(np.float64), expo), zero, bits=bits)
    level = code - zero
    x = qp.scale * (level + np.where(on_tie, 0.5, frac))
    assert np.array_equal((x / qp.scale)[on_tie], (level + 0.5)[on_tie])
    return qp, x, on_tie


class TestRoundingTies:
    """Exactly on a tie of x/s_d the fold may move a code by one, and nowhere else."""

    @settings(deadline=None, max_examples=200)
    @given(tie_instances())
    def test_codes_differ_by_at_most_one_and_only_on_ties(self, instance):
        qp, x, on_tie = instance
        chan, layer = fold_codes(x, qp)
        diff = layer.astype(np.int64) - chan
        assert np.all(np.abs(diff[on_tie]) <= 1)
        assert np.all(diff[~on_tie] == 0)

    def test_ties_do_flip(self):
        """The bound is reached: round-half-to-even on x/s_d and on the folded
        x~/s~, which carries rounding error, part ways at a good share of ties."""
        rng = np.random.default_rng(79)
        s = np.ldexp(rng.integers(1, 2**20, size=64).astype(np.float64),
                     rng.integers(-20, 3, size=64))
        qp = channel_params(s, rng.integers(0, 16, size=64))
        x = s * (rng.integers(-2, 18, size=(200, 64)) - qp.zero_point + 0.5)
        chan, layer = fold_codes(x, qp)
        flipped = np.mean(chan != layer)
        assert 0.05 < flipped < 0.95


class TestSiteReparam:
    def test_identity_site_is_noop(self):
        rng = np.random.default_rng(50)
        gamma, beta = rng.normal(size=8), rng.normal(size=8)
        w, b = rng.normal(size=(8, 16)), rng.normal(size=16)
        site = reparameterize_layernorm_site(
            gamma, beta, w, b, channel_params([0.9] * 8, [4] * 8))
        np.testing.assert_array_equal(site.gamma, gamma)
        np.testing.assert_array_equal(site.beta, beta)
        np.testing.assert_array_equal(site.weight, w)
        np.testing.assert_array_equal(site.bias, b)
        target = site.record.target_params()
        assert target.scale[0] == 0.9
        assert target.zero_point[0] == 4

    def test_layer_params_are_per_layer_uniform(self):
        site = reparameterize_layernorm_site(
            np.ones(3), np.zeros(3), np.ones((3, 2)), np.zeros(2),
            channel_params([1.0, 2.0, 3.0], [4, 6, 8]))
        target = site.record.target_params()
        assert target.scheme is Scheme.UNIFORM
        assert target.scale.size == 1 and target.zero_point.size == 1


class TestBaseChangeScale:
    def test_even_codes_unchanged(self):
        codes = np.array([0, 2, 8], dtype=np.int32)
        np.testing.assert_array_equal(base_change_scale(0.7, codes), np.full(3, 0.7))

    def test_odd_codes_carry_sqrt2(self):
        got = base_change_scale(1.0, np.array([1, 3], dtype=np.int32))
        np.testing.assert_array_equal(got, np.full(2, SQRT2))

    def test_reproduces_half_power_grid(self):
        """s~ * 2**floor(-code/2) equals the direct dequantizer, all codes."""
        codes = np.arange(16, dtype=np.int32)
        s = 0.93
        via_scale = np.ldexp(base_change_scale(s, codes), np.floor_divide(-codes, 2))
        np.testing.assert_array_equal(via_scale, logsqrt2_dequantize(codes, s, 4))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            base_change_scale(0.0, np.array([1], dtype=np.int32))


class TestRecordValidation:
    """A record is its source; r1 = s / s~ and r2 = z - z~ derive from it."""

    def test_r2_must_be_integer(self):
        """z~ is the channel mean rounded half to even, so r2 is exact integers."""
        rec = ReparamRecord(channel_params([1.0, 2.0], [4, 9]))
        assert rec.target_zero == 6 and isinstance(rec.target_zero, int)
        assert rec.r2.dtype == np.int64
        np.testing.assert_array_equal(rec.r2, [-2, 3])

    def test_r1_must_be_positive(self):
        """A target scale that overflows to inf is no quantizer, so no r1 of zeros is used."""
        rec = ReparamRecord(channel_params([1.7e308] * 64, [0] * 64))
        assert rec.target_scale == np.inf
        with pytest.raises(ValueError, match="positive and finite"):
            rec.target_params()
        with pytest.raises(ValueError, match="positive and finite"):
            reparameterize_layernorm_site(np.ones(64), np.zeros(64), np.ones((64, 2)),
                                          np.zeros(2), rec.source)

    def test_source_must_be_channel_wise_uniform(self):
        """A uniform source is channel-wise over its scales, one channel included."""
        with pytest.raises(ValueError, match="must be uniform"):
            ReparamRecord(QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([1.0])))
        one = ReparamRecord(QuantParams(Scheme.UNIFORM, 4, scale=np.array([1.0]),
                                        zero_point=np.array([0])))
        assert one.source.scale.size == 1

    def test_length_mismatch(self):
        """The width is the source's: scales and zero points of unequal length are rejected."""
        with pytest.raises(ValueError, match="zero_point length"):
            ReparamRecord(channel_params([1.0, 2.0], [0]))
