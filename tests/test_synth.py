"""Synthetic generator tests: determinism, target statistics, difficulty."""

import numpy as np
import pytest

from scalefold.calibration import calibrate_tensor
from scalefold.model import ModelConfig
from scalefold.pipeline import capture_activations
from scalefold.quantizers import Scheme, fake_quantize
from scalefold.synth import CHANNEL_SPAN_TARGETS, SynthSpec, gen_activations, gen_model

CFG = ModelConfig()


def capture_site(blocks, spec, site, n):
    """`site`'s capture from one forward over n calibration samples, shaped (n, ...)."""
    return capture_activations(blocks, CFG, gen_activations(CFG, spec, n, stream=0))[site]


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
        lo, mid, hi = CHANNEL_SPAN_TARGETS
        assert abs(spans.min() / lo - 1) < 0.30
        assert abs(spans.mean() / mid - 1) < 0.30
        assert abs(spans.max() / hi - 1) < 0.30

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


class TestSynthSpec:
    def test_json_round_trip(self):
        spec = SynthSpec(seed=4)
        assert SynthSpec.from_json(spec.to_json()) == spec

    def test_json_rejects_unknown_key(self):
        """A spec is its seed alone; an older spec's difficulty target is an unknown key."""
        with pytest.raises(ValueError, match="channel_range_min"):
            SynthSpec.from_json({**SynthSpec().to_json(), "channel_range_min": 3.94})
