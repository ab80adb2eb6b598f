"""Synthetic generator tests: determinism, target statistics, difficulty."""

import numpy as np
import pytest

from scalefold.calibration import calibrate_tensor
from scalefold.model import ModelConfig, model_forward
from scalefold.quantizers import Scheme, fake_quantize
from scalefold.synth import SynthSpec, gen_activations, gen_model

CFG = ModelConfig()


def capture_site(blocks, spec, site, n):
    grab = []
    for x in gen_activations(CFG, spec, n, stream=0):
        caps = {}
        model_forward(x, blocks, CFG, capture=caps)
        grab.append(caps[site])
    return np.stack(grab)


class TestDeterminism:
    def test_same_seed_same_model(self):
        a = gen_model(CFG, SynthSpec(seed=9))
        b = gen_model(CFG, SynthSpec(seed=9))
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.w_qkv, wb.w_qkv)
            np.testing.assert_array_equal(wa.gamma1, wb.gamma1)
            np.testing.assert_array_equal(wa.b_2, wb.b_2)

    def test_different_seeds_differ(self):
        a = gen_model(CFG, SynthSpec(seed=1))
        b = gen_model(CFG, SynthSpec(seed=2))
        assert not np.array_equal(a[0].w_qkv, b[0].w_qkv)

    def test_activations_deterministic(self):
        x = gen_activations(CFG, SynthSpec(seed=3), 4, stream=0)
        y = gen_activations(CFG, SynthSpec(seed=3), 4, stream=0)
        np.testing.assert_array_equal(x, y)

    def test_streams_are_disjoint(self):
        spec = SynthSpec(seed=3)
        calib = gen_activations(CFG, spec, 4, stream=0)
        ev = gen_activations(CFG, spec, 4, stream=1)
        assert not np.array_equal(calib, ev)

    def test_prefix_stability(self):
        """Sample i does not depend on how many samples are requested."""
        spec = SynthSpec(seed=5)
        short = gen_activations(CFG, spec, 3, stream=0)
        long = gen_activations(CFG, spec, 8, stream=0)
        np.testing.assert_array_equal(short, long[:3])


class TestActivations:
    def test_shape(self):
        out = gen_activations(CFG, SynthSpec(), 7)
        assert out.shape == (7, CFG.patches, CFG.dim)

    def test_standard_normal_moments(self):
        out = gen_activations(CFG, SynthSpec(seed=0), 64)
        n = out.size
        assert abs(out.mean()) < 3.0 / np.sqrt(n)
        assert abs(out.std() - 1.0) < 3.0 / np.sqrt(n)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_activations(CFG, SynthSpec(), 0)


class TestChannelRanges:
    """Post-LayerNorm per-channel ranges, measured over 1024 rows."""

    def test_default_targets_within_30_percent(self):
        spec = SynthSpec()
        blocks = gen_model(CFG, spec)
        stack = capture_site(blocks, spec, "block0.ln1_out", 1024 // CFG.patches)
        spans = np.ptp(stack.reshape(-1, CFG.dim), axis=0)
        assert abs(spans.min() / spec.channel_range_min - 1) < 0.30
        assert abs(spans.mean() / spec.channel_range_mean - 1) < 0.30
        assert abs(spans.max() / spec.channel_range_max - 1) < 0.30

    def test_constant_spec_within_20_percent(self):
        c = 5.0
        spec = SynthSpec(channel_range_min=c, channel_range_mean=c, channel_range_max=c)
        blocks = gen_model(CFG, spec)
        stack = capture_site(blocks, spec, "block0.ln1_out", 1024 // CFG.patches)
        spans = np.ptp(stack.reshape(-1, CFG.dim), axis=0)
        assert np.all(np.abs(spans / c - 1.0) < 0.20)

    def test_spread_is_severe_by_default(self):
        """Largest channel range dwarfs the smallest, the motivating regime."""
        spec = SynthSpec()
        blocks = gen_model(CFG, spec)
        stack = capture_site(blocks, spec, "block0.ln1_out", 16)
        spans = np.ptp(stack.reshape(-1, CFG.dim), axis=0)
        assert spans.max() / spans.min() > 4.0


class TestAttentionProfile:
    def test_mass_concentrates_below_03(self):
        """At least 99% of post-Softmax values sit under 0.3 by default."""
        spec = SynthSpec()
        blocks = gen_model(CFG, spec)
        pooled = np.concatenate(
            [capture_site(blocks, spec, f"block{i}.attn_a", 32).ravel()
             for i in range(CFG.blocks)])
        assert float((pooled < 0.3).mean()) >= 0.99
        assert pooled.max() > 0.65  # the tail is heavy, not clipped flat

    def test_quantizer_family_ordering(self):
        """On the pooled post-Softmax sample at b=4:

        mse(log sqrt2) <= mse(log2) <= mse(uniform)

        This is the distribution shape doing the work: most mass is far below
        the maximum, which wastes the uniform grid, and the half-power grid
        halves the log-domain rounding error of the power-of-two grid.
        """
        spec = SynthSpec()
        blocks = gen_model(CFG, spec)
        pooled = np.concatenate(
            [capture_site(blocks, spec, f"block{i}.attn_a", 32).ravel()
             for i in range(CFG.blocks)])
        mse = {}
        for scheme in (Scheme.UNIFORM, Scheme.LOG2, Scheme.LOG_SQRT2):
            qp = calibrate_tensor(pooled, 4, scheme=scheme)
            mse[scheme] = float(np.mean((pooled - fake_quantize(pooled, qp)) ** 2))
        assert mse[Scheme.LOG_SQRT2] <= mse[Scheme.LOG2] <= mse[Scheme.UNIFORM]

    def test_sharpness_knob_is_monotone(self):
        tails = []
        for sharp in (0.25, 1.0, 4.0):
            spec = SynthSpec(attention_sharpness=sharp)
            blocks = gen_model(CFG, spec)
            a = capture_site(blocks, spec, "block0.attn_a", 8)
            tails.append(float((a >= 0.3).mean()))
        assert tails[0] < tails[1] < tails[2]


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(channel_range_min=5.0, channel_range_mean=4.0)
        with pytest.raises(ValueError):
            SynthSpec(attention_sharpness=0.0)

    def test_json_round_trip(self):
        spec = SynthSpec(seed=4, channel_range_min=1.0, channel_range_mean=2.0,
                         channel_range_max=3.0, attention_sharpness=0.7)
        assert SynthSpec.from_json(spec.to_json()) == spec

    def test_json_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="attention_sharpnes"):
            SynthSpec.from_json({**SynthSpec().to_json(), "attention_sharpnes": 2.0})
