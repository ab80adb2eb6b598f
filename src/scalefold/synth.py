"""Synthetic models and data with controlled quantization difficulty.

Two knobs matter. First, the spread of post-LayerNorm channel spans: the
generator draws affine gains so that, over a large batch, per-channel
activation spans hit configurable min/mean/max targets. Wide spread is what
makes a single layer-wise quantizer lossy and channel-wise calibration
worthwhile. Second, attention sharpness: Q/K weights are scaled so the
post-Softmax distribution concentrates near zero with a heavy tail, the
regime where a sqrt(2)-base log quantizer beats the power-of-two one.
"""

from dataclasses import dataclass

import numpy as np

from .model import BlockWeights, JsonFields

# Expected span (max - min) of about a thousand standard-normal draws.
# Post-LayerNorm channels are near standard normal over tokens, so an affine
# gain of target/NORMAL_SPAN_1024 lands the empirical channel span near the
# target when measured over ~1024 rows.
NORMAL_SPAN_1024 = 6.55

# Channel offsets beta are drawn at this fraction of the channel span. It
# spreads the per-channel zero points without pushing channel ranges off the
# code grid.
BETA_SPREAD = 0.12

# Per-head logit gains form a geometric ladder spanning this ratio around
# attention_sharpness. Near-flat heads keep most post-Softmax mass tiny while
# the sharpest head supplies rare near-one peaks, so the pooled distribution
# concentrates near zero with a heavy tail instead of piling up at 1/N.
HEAD_SHARPNESS_SPREAD = 1.5

# Logit gain at attention_sharpness = 1.0, calibrated so the default profile
# keeps at least 99% of post-Softmax values below 0.3 while the tail still
# reaches near 1.
_BASE_LOGIT_SCALE = 0.55

# Substream tags so model weights and activation batches never share a
# generator stream.
_ACT_STREAM_TAG = 977


@dataclass(frozen=True)
class SynthSpec(JsonFields):
    """Generator targets; defaults give the reference difficulty profile."""

    seed: int = 0
    channel_range_min: float = 3.94
    channel_range_mean: float = 7.11
    channel_range_max: float = 22.2
    attention_sharpness: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.channel_range_min <= self.channel_range_mean <= self.channel_range_max:
            raise ValueError("channel range targets must satisfy 0 < min <= mean <= max")
        if not self.attention_sharpness > 0:
            raise ValueError("attention_sharpness must be positive")


def _span_targets(n, lo, mid, hi, rng):
    """Per-channel span targets hitting (lo, mid, hi) as (min, mean, max).

    Most channels sit near the mean, with short geometric tails reaching the
    extremes, which mirrors how normalization layers behave: a bulk of
    ordinary channels and a few outliers.
    """
    if hi - lo < 1e-12 * mid:
        return np.full(n, mid)
    if n < 4:
        # too few channels for tails; interpolate and accept the mean drift
        return rng.permutation(np.geomspace(lo, hi, n))
    n_lo = max(1, n // 10)
    n_hi = max(1, n // 16)
    n_bulk = n - n_lo - n_hi
    tail_lo = np.geomspace(lo, mid * 0.8, n_lo)
    tail_hi = np.geomspace(mid * 1.4, hi, n_hi)
    bulk_mean = (n * mid - tail_lo.sum() - tail_hi.sum()) / n_bulk
    jitter = rng.uniform(-0.08, 0.08, n_bulk) * bulk_mean
    jitter -= jitter.mean()
    bulk = np.clip(bulk_mean + jitter, lo, hi)
    return rng.permutation(np.concatenate([tail_lo, bulk, tail_hi]))


def _head_ladder(heads):
    if heads == 1:
        return np.ones(1)
    return np.geomspace(1.0 / HEAD_SHARPNESS_SPREAD, HEAD_SHARPNESS_SPREAD, heads)


def _affine_pair(rng, n, lo, mid, hi):
    spans = _span_targets(n, lo, mid, hi, rng)
    gamma = spans / NORMAL_SPAN_1024
    beta = rng.normal(0.0, BETA_SPREAD * spans)
    return gamma, beta


def gen_model(cfg, spec):
    """Generate encoder blocks with the spec's difficulty profile.

    Deterministic in spec.seed; each block draws from its own substream, so
    blocks could be generated independently or in parallel.
    """
    lo, mid, hi = (spec.channel_range_min, spec.channel_range_mean,
                   spec.channel_range_max)
    d, f = cfg.dim, cfg.mlp_dim
    sw = 1.0 / np.sqrt(d)
    blocks = []
    for i in range(cfg.blocks):
        rng = np.random.default_rng([spec.seed, i])
        gamma1, beta1 = _affine_pair(rng, d, lo, mid, hi)
        gamma2, beta2 = _affine_pair(rng, d, lo, mid, hi)
        w_qkv = rng.normal(0.0, sw, (d, 3 * d))
        b_qkv = rng.normal(0.0, 0.02, 3 * d)
        # scale the Q and K projections per head, hence the logits, hence how
        # peaked each head's post-Softmax rows are
        gains = np.sqrt(_BASE_LOGIT_SCALE * spec.attention_sharpness
                        * _head_ladder(cfg.heads))
        for h in range(cfg.heads):
            for off in (0, d):
                cols = slice(off + h * cfg.head_dim, off + (h + 1) * cfg.head_dim)
                w_qkv[:, cols] *= gains[h]
                b_qkv[cols] *= gains[h]
        blocks.append(BlockWeights(
            gamma1=gamma1, beta1=beta1,
            w_qkv=w_qkv, b_qkv=b_qkv,
            w_o=rng.normal(0.0, sw, (d, d)), b_o=rng.normal(0.0, 0.02, d),
            gamma2=gamma2, beta2=beta2,
            w_1=rng.normal(0.0, sw, (d, f)), b_1=rng.normal(0.0, 0.02, f),
            w_2=rng.normal(0.0, 1.0 / np.sqrt(f), (f, d)), b_2=rng.normal(0.0, 0.02, d),
        ).validate(cfg))
    return blocks


def gen_activations(cfg, spec, n, stream=0):
    """n batches of standard-normal tokens, shape (n, patches, dim).

    Deterministic in (spec.seed, stream, sample index): every sample has its
    own substream, so any prefix or partition of the batch can be generated
    independently. Distinct `stream` values give disjoint data, e.g. one for
    calibration and one for evaluation.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    out = np.empty((n, cfg.patches, cfg.dim))
    for i in range(n):
        rng = np.random.default_rng([spec.seed, _ACT_STREAM_TAG + stream, i])
        out[i] = rng.normal(size=(cfg.patches, cfg.dim))
    return out
