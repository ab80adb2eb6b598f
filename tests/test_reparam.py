"""Reparameterization tests.

The load-bearing fact is the code-equality theorem: quantizing the adjusted
activations (x + s*r2)/r1 with the layer-wise pair (s~, z~) produces exactly
the integer codes that channel-wise quantization of x produces with (s_d,
z_d). It holds because x~/s~ = x/s_d + r2_d in exact arithmetic and r2 is an
integer, so both paths round the same fractional part and then clip over the
same code range. Floating-point only enters through x~/s~, whose rounding
noise can flip a code only when x/s_d sits within float error of a rounding
tie; random draws near half-integers are excluded for that reason.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalefold.quantizers import (
    Granularity,
    QuantParams,
    Scheme,
    SQRT2,
    base_change_scale,
    logsqrt2_dequantize,
    uniform_quantize,
)
from scalefold.reparam import (
    ReparamRecord,
    apply_affine_adjustment,
    apply_weight_compensation,
    build_reparam_record,
    reparameterize_layernorm_site,
)


def channel_params(s, z, bits=4, axis=-1):
    return QuantParams(
        Scheme.UNIFORM, bits,
        scale=np.asarray(s, dtype=np.float64),
        zero_point=np.asarray(z, dtype=np.int64),
        granularity=Granularity.PER_CHANNEL, channel_axis=axis,
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
        rec = build_reparam_record(qp)
        assert rec.target_scale == 2.0
        assert rec.target_zero == 6
        np.testing.assert_array_equal(rec.r1, [0.5, 1.0, 1.5])
        np.testing.assert_array_equal(rec.r2, [-2, 0, 2])

    def test_single_channel_identity(self):
        rec = build_reparam_record(channel_params([2.0], [5]))
        np.testing.assert_array_equal(rec.r1, [1.0])
        np.testing.assert_array_equal(rec.r2, [0])

    def test_identical_channels_no_variation(self):
        rec = build_reparam_record(channel_params([0.7] * 5, [3] * 5))
        np.testing.assert_array_equal(rec.r1, np.ones(5))
        np.testing.assert_array_equal(rec.r2, np.zeros(5))

    def test_zero_mean_rounds_half_to_even(self):
        rec = build_reparam_record(channel_params([1.0, 1.0], [2, 3]))
        assert rec.target_zero == 2  # mean 2.5 rounds to even

    def test_factor_definitions_exact(self):
        rng = np.random.default_rng(40)
        s = rng.uniform(0.01, 3.0, size=64)
        z = rng.integers(0, 16, size=64)
        rec = build_reparam_record(channel_params(s, z))
        np.testing.assert_array_equal(rec.r1, s / rec.target_scale)
        np.testing.assert_array_equal(rec.r2, z - rec.target_zero)

    def test_rejects_per_layer_input(self):
        qp = QuantParams(Scheme.UNIFORM, 4, scale=np.array([1.0]),
                         zero_point=np.array([0], dtype=np.int64))
        with pytest.raises(ValueError):
            build_reparam_record(qp)

    def test_rejects_log_scheme(self):
        qp = QuantParams(Scheme.LOG2, 4, scale=np.array([1.0]))
        with pytest.raises(ValueError):
            build_reparam_record(qp)

    def test_json_round_trip(self):
        rec = build_reparam_record(channel_params([1.0, 2.0, 3.0], [4, 6, 8]))
        back = ReparamRecord.from_json(rec.to_json())
        np.testing.assert_array_equal(back.r1, rec.r1)
        np.testing.assert_array_equal(back.r2, rec.r2)
        assert back.target_scale == rec.target_scale
        assert back.target_zero == rec.target_zero
        np.testing.assert_array_equal(back.source.scale, rec.source.scale)


class TestAffineAdjustment:
    def test_worked_example(self):
        rec = ReparamRecord(
            r1=np.array([2.0, 1.0]), r2=np.array([3, -1]),
            target_scale=1.0, target_zero=0,
            source=channel_params([1.0, 2.0], [3, 0]),
        )
        gamma_adj, beta_adj = apply_affine_adjustment(
            np.array([2.0, 4.0]), np.array([1.0, 0.0]), rec)
        np.testing.assert_array_equal(gamma_adj, [1.0, 4.0])
        np.testing.assert_array_equal(beta_adj, [2.0, -2.0])

    def test_identity_record(self):
        rec = build_reparam_record(channel_params([0.7, 0.7], [3, 3]))
        gamma, beta = np.array([1.5, -2.0]), np.array([0.1, 0.2])
        gamma_adj, beta_adj = apply_affine_adjustment(gamma, beta, rec)
        np.testing.assert_array_equal(gamma_adj, gamma)
        np.testing.assert_array_equal(beta_adj, beta)

    def test_zero_gamma_annihilates(self):
        rec = build_reparam_record(channel_params([1.0, 4.0], [2, 9]))
        gamma_adj, _ = apply_affine_adjustment(np.zeros(2), np.ones(2), rec)
        np.testing.assert_array_equal(gamma_adj, np.zeros(2))

    def test_length_mismatch(self):
        rec = build_reparam_record(channel_params([1.0, 2.0], [0, 1]))
        with pytest.raises(ValueError):
            apply_affine_adjustment(np.ones(3), np.ones(3), rec)


class TestWeightCompensation:
    def test_worked_example(self):
        rec = ReparamRecord(
            r1=np.array([2.0, 0.5]), r2=np.array([1, -1]),
            target_scale=1.0, target_zero=0,
            source=channel_params([1.0, 2.0], [1, 0]),
        )
        w = np.array([[1.0], [1.0]])
        w_adj, b_adj = apply_weight_compensation(w, np.zeros(1), rec)
        np.testing.assert_array_equal(w_adj, [[2.0], [0.5]])
        # b~ = 0 - (1*1*1 + 2*(-1)*1) = 1
        np.testing.assert_array_equal(b_adj, [1.0])

    def test_identity_record(self):
        rec = build_reparam_record(channel_params([0.3] * 4, [7] * 4))
        rng = np.random.default_rng(41)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=6)
        w_adj, b_adj = apply_weight_compensation(w, b, rec)
        np.testing.assert_array_equal(w_adj, w)
        np.testing.assert_array_equal(b_adj, b)

    def test_dimension_mismatch(self):
        rec = build_reparam_record(channel_params([1.0, 2.0], [0, 1]))
        with pytest.raises(ValueError):
            apply_weight_compensation(np.ones((3, 2)), np.ones(2), rec)
        with pytest.raises(ValueError):
            apply_weight_compensation(np.ones((2, 2)), np.ones(3), rec)

    def test_linear_output_alignment(self):
        """x @ W + b == x~ @ W~ + b~ with x~ = (x + s*r2)/r1, to 1e-10."""
        rng = np.random.default_rng(42)
        for d in (8, 64, 512):
            s = rng.uniform(0.02, 2.0, size=d)
            z = rng.integers(0, 256, size=d)
            rec = build_reparam_record(channel_params(s, z, bits=8))
            w = rng.normal(size=(d, 3 * d)) / np.sqrt(d)
            b = rng.normal(size=3 * d)
            x = rng.normal(size=(16, d)) * s * 4
            x_adj = (x + s * rec.r2) / rec.r1
            lhs = x @ w + b
            rhs = x_adj @ (w * rec.r1[:, None]) + (b - (s * rec.r2) @ w)
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
        rec = build_reparam_record(qp)
        x = draw_off_ties(rng, qp, 2000)
        codes_channel = uniform_quantize(x, qp)
        x_adj = (x + s * rec.r2) / rec.r1
        codes_layer = uniform_quantize(x_adj, rec.target_params())
        np.testing.assert_array_equal(codes_layer, codes_channel)

    def test_code_equality_includes_clip_region(self):
        """Both paths clip identically: the pre-clip integers are equal."""
        rng = np.random.default_rng(78)
        qp = channel_params([0.5, 1.5, 2.5], [1, 8, 15])
        rec = build_reparam_record(qp)
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
        rec = build_reparam_record(qp)
        x = draw_off_ties(rng, qp, 100)
        x_adj = (x + qp.scale * rec.r2) / rec.r1
        np.testing.assert_array_equal(
            uniform_quantize(x_adj, rec.target_params()),
            uniform_quantize(x, qp))


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
        assert site.layer_params.scale[0] == 0.9
        assert site.layer_params.zero_point[0] == 4

    def test_composition_matches_parts(self):
        rng = np.random.default_rng(51)
        qp = channel_params([1.0, 2.0, 3.0], [4, 6, 8])
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        w, b = rng.normal(size=(3, 5)), rng.normal(size=5)
        site = reparameterize_layernorm_site(gamma, beta, w, b, qp)
        rec = build_reparam_record(qp)
        g2, b2 = apply_affine_adjustment(gamma, beta, rec)
        w2, bb2 = apply_weight_compensation(w, b, rec)
        np.testing.assert_array_equal(site.gamma, g2)
        np.testing.assert_array_equal(site.beta, b2)
        np.testing.assert_array_equal(site.weight, w2)
        np.testing.assert_array_equal(site.bias, bb2)

    def test_layer_params_are_per_layer_uniform(self):
        site = reparameterize_layernorm_site(
            np.ones(3), np.zeros(3), np.ones((3, 2)), np.zeros(2),
            channel_params([1.0, 2.0, 3.0], [4, 6, 8]))
        assert site.layer_params.granularity is Granularity.PER_LAYER
        assert site.layer_params.scale.size == 1


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
        np.testing.assert_array_equal(via_scale, logsqrt2_dequantize(codes, s))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            base_change_scale(0.0, np.array([1], dtype=np.int32))


class TestRecordValidation:
    def test_r2_must_be_integer(self):
        with pytest.raises(ValueError):
            ReparamRecord(r1=np.array([1.0]), r2=np.array([0.5]),
                          target_scale=1.0, target_zero=0,
                          source=channel_params([1.0], [0]))

    def test_r1_must_be_positive(self):
        with pytest.raises(ValueError):
            ReparamRecord(r1=np.array([-1.0]), r2=np.array([0]),
                          target_scale=1.0, target_zero=0,
                          source=channel_params([1.0], [0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ReparamRecord(r1=np.array([1.0, 2.0]), r2=np.array([0]),
                          target_scale=1.0, target_zero=0,
                          source=channel_params([1.0, 2.0], [0, 0]))
