"""Synthetic models and data with a fixed quantization difficulty profile.

The profile has two parts. First, the spread of post-LayerNorm channel
spans: the generator draws affine gains so that, over a large batch,
per-channel activation spans hit the min/mean/max of CHANNEL_SPAN_TARGETS.
Wide spread is what makes a single layer-wise quantizer lossy and
channel-wise calibration worthwhile. Second, attention sharpness: Q/K
weights are scaled so the post-Softmax distribution concentrates near zero
with a heavy tail, the regime where a sqrt(2)-base log quantizer beats the
power-of-two one. The seed alone picks a model and its data.
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

# Post-LayerNorm channel span targets (min, mean, max) over ~1024 rows.
CHANNEL_SPAN_TARGETS = (3.94, 7.11, 22.2)

# Per-head logit gains form a geometric ladder spanning this ratio around
# _LOGIT_SCALE. Near-flat heads keep most post-Softmax mass tiny while the
# sharpest head supplies rare near-one peaks, so the pooled distribution
# concentrates near zero with a heavy tail instead of piling up at 1/N.
HEAD_SHARPNESS_SPREAD = 1.5

# Logit gain, calibrated so the profile keeps at least 99% of post-Softmax
# values below 0.3 while the tail still reaches near 1.
_LOGIT_SCALE = 0.55

# Substream tags so model weights and activation batches never share a
# generator stream.
_ACT_STREAM_TAG = 977


@dataclass(frozen=True)
class SynthSpec(JsonFields):
    """The generator's seed; the difficulty profile is the module's constants."""

    seed: int = 0


def _span_targets(n, rng):
    """Per-channel span targets hitting CHANNEL_SPAN_TARGETS as (min, mean, max).

    Most channels sit near the mean, with short geometric tails reaching the
    extremes, which mirrors how normalization layers behave: a bulk of
    ordinary channels and a few outliers.
    """
    lo, mid, hi = CHANNEL_SPAN_TARGETS
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


def _affine_pair(rng, n):
    spans = _span_targets(n, rng)
    gamma = spans / NORMAL_SPAN_1024
    beta = rng.normal(0.0, BETA_SPREAD * spans)
    return gamma, beta


def gen_model(cfg, spec):
    """Generate encoder blocks with the module's difficulty profile.

    Deterministic in spec.seed; each block draws from its own substream, so
    blocks could be generated independently or in parallel.
    """
    d, f = cfg.dim, cfg.mlp_dim
    sw = 1.0 / np.sqrt(d)
    blocks = []
    for i in range(cfg.blocks):
        rng = np.random.default_rng([spec.seed, i])
        gamma1, beta1 = _affine_pair(rng, d)
        gamma2, beta2 = _affine_pair(rng, d)
        w_qkv = rng.normal(0.0, sw, (d, 3 * d))
        b_qkv = rng.normal(0.0, 0.02, 3 * d)
        # scale the Q and K projections per head, hence the logits, hence how
        # peaked each head's post-Softmax rows are
        gains = np.sqrt(_LOGIT_SCALE * _head_ladder(cfg.heads))
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
