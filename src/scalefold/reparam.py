"""Lossless rescaling of channel-wise quantizers into layer-wise ones.

A channel-wise affine quantizer (s_d, z_d) over a normalization layer's
output can be traded for a single layer-wise pair (s~, z~) without touching
the captured statistics: the per-channel variation factors

    r1_d = s_d / s~        (scale ratio, positive)
    r2_d = z_d - z~        (zero-point offset, integer)

are absorbed into the normalization affine parameters and the next linear
layer. `apply_affine_adjustment` rewrites gamma and beta so the layer itself
emits the adjusted activations; `apply_weight_compensation` rewrites the
consumer's weights and bias so the layer output is unchanged in exact
arithmetic. Quantizing the adjusted activations with (s~, z~) then yields
the same integer codes as quantizing the originals channel-wise, except for
inputs landing exactly on rounding ties.

The compensated weight rows are rescaled by r1, so any weight quantizer
fitted before the fold is stale; callers must re-fit it afterwards.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quantizers import QuantParams, Scheme
from .tensors import as_tensor


@dataclass(frozen=True, eq=False)
class ReparamRecord:
    """Audit record of one fold: the channel-wise source, from which all else derives.

    The layer-wise target is the channel mean at the source's bit width:
    s~ = mean(s) and z~ = round(mean(z)) (half to even). The fold factors
    are r1 = s / s~ exactly as computed and r2 = z - z~ in exact integers.
    """

    source: QuantParams

    def __post_init__(self):
        if self.source.scheme is not Scheme.UNIFORM:
            raise ValueError("fold source must be uniform")

    @cached_property
    def target_scale(self):
        with np.errstate(over="ignore"):   # an overflow to inf fails `target_params`
            return float(np.mean(self.source.scale))

    @cached_property
    def target_zero(self):
        return int(np.rint(np.mean(self.source.zero_point)))

    @property
    def r1(self):
        return self.source.scale / self.target_scale

    @property
    def r2(self):
        return self.source.zero_point - self.target_zero

    @property
    def channels(self):
        return self.source.scale.size

    def target_params(self):
        """The layer-wise target quantizer; ValueError if it is not a valid quantizer."""
        return QuantParams(
            Scheme.UNIFORM, self.source.bits,
            scale=np.array([self.target_scale]),
            zero_point=np.array([self.target_zero], dtype=np.int64),
        )


def apply_affine_adjustment(gamma, beta, record):
    """Fold the variation factors into normalization affine parameters.

    gamma~ = gamma / r1 and beta~ = (beta + s * r2) / r1, so the layer now
    emits x~ = (x + s * r2) / r1 in place of x.
    """
    gamma = as_tensor(gamma)
    beta = as_tensor(beta)
    if gamma.shape != (record.channels,) or beta.shape != (record.channels,):
        raise ValueError(
            f"affine vectors must have {record.channels} channels, "
            f"got {gamma.shape} and {beta.shape}"
        )
    shift = record.source.scale * record.r2
    return gamma / record.r1, (beta + shift) / record.r1


def apply_weight_compensation(weight, bias, record):
    """Rewrite the consumer so the adjusted activations cancel exactly.

    Row d of the weight matrix is scaled by r1_d, and the bias absorbs the
    shift: b~ = b - (s * r2) @ W. In exact arithmetic
    x~ @ W~ + b~ == x @ W + b for every input x. The returned weights need a
    fresh quantizer fit, since their rows were rescaled.
    """
    weight = as_tensor(weight)
    bias = as_tensor(bias)
    if weight.ndim != 2 or weight.shape[0] != record.channels:
        raise ValueError(
            f"weight must be 2-D with {record.channels} input rows, got {weight.shape}"
        )
    if bias.shape != (weight.shape[1],):
        raise ValueError(f"bias length {bias.shape} does not match weight columns")
    shift = record.source.scale * record.r2
    return weight * record.r1[:, np.newaxis], bias - shift @ weight


@dataclass(frozen=True, eq=False)
class SiteReparam:
    """Everything produced by folding one normalization site."""

    gamma: np.ndarray
    beta: np.ndarray
    weight: np.ndarray
    bias: np.ndarray
    record: ReparamRecord


def reparameterize_layernorm_site(gamma, beta, weight, bias, channel_params):
    """Fold one normalization site end to end.

    Returns the adjusted affine parameters, the compensated consumer weights
    (which need a fresh quantizer fit), and the audit record, whose
    `target_params()` is the layer-wise quantizer. A source that is not
    uniform, or whose target is not a valid quantizer, raises ValueError.
    """
    record = ReparamRecord(channel_params)
    record.target_params()   # a target that is no quantizer raises before the fold divides by it
    gamma_adj, beta_adj = apply_affine_adjustment(gamma, beta, record)
    weight_adj, bias_adj = apply_weight_compensation(weight, bias, record)
    return SiteReparam(
        gamma=gamma_adj,
        beta=beta_adj,
        weight=weight_adj,
        bias=bias_adj,
        record=record,
    )

