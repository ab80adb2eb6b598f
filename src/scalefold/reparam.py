"""Lossless rescaling of channel-wise quantizers into layer-wise ones.

A channel-wise affine quantizer (s_d, z_d) over a normalization layer's
output can be traded for a single layer-wise pair (s~, z~) without touching
the captured statistics: the per-channel variation factors

    r1_d = s_d / s~        (scale ratio, positive)
    r2_d = z_d - z~        (zero-point offset, integer)

are absorbed into the normalization affine parameters and the next linear
layer. `reparameterize_layernorm_site` rewrites gamma and beta so the layer
itself emits the adjusted activations, and the consumer's weights and bias
so the consumer's output is unchanged in exact arithmetic. Quantizing the
adjusted activations with (s~, z~) then yields the same integer codes as
quantizing the originals channel-wise, except for inputs landing exactly on
rounding ties.

The compensated weight rows are rescaled by r1, so any weight quantizer
fitted before the fold is stale; callers must re-fit it afterwards.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

    def target_params(self):
        """The layer-wise target quantizer; ValueError if it is not a valid quantizer."""
        return QuantParams(
            Scheme.UNIFORM, self.source.bits,
            scale=np.array([self.target_scale]),
            zero_point=np.array([self.target_zero], dtype=np.int64),
        )


class SiteReparam(NamedTuple):
    """Everything produced by folding one normalization site."""

    gamma: np.ndarray
    beta: np.ndarray
    weight: np.ndarray
    bias: np.ndarray
    record: ReparamRecord


def reparameterize_layernorm_site(gamma, beta, weight, bias, channel_params):
    """Fold one normalization site end to end.

    The affine parameters become gamma~ = gamma / r1 and
    beta~ = (beta + s * r2) / r1, so the layer emits x~ = (x + s * r2) / r1
    in place of x. Row d of the consumer weight is scaled by r1_d and the bias
    absorbs the shift, b~ = b - (s * r2) @ W, so x~ @ W~ + b~ == x @ W + b in
    exact arithmetic. The compensated weights need a fresh quantizer fit; the
    audit record's `target_params()` is the layer-wise quantizer. A source
    that is not uniform, a target that is not a valid quantizer, and
    parameters whose shapes do not fit the source's channels raise ValueError.
    """
    record = ReparamRecord(channel_params)
    record.target_params()   # a target that is no quantizer raises before the fold divides by it
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    weight, bias = as_tensor(weight), as_tensor(bias)
    d = channel_params.scale.size
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(
            f"affine vectors must have {d} channels, got {gamma.shape} and {beta.shape}")
    if weight.ndim != 2 or weight.shape[0] != d:
        raise ValueError(f"weight must be 2-D with {d} input rows, got {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ValueError(f"bias length {bias.shape} does not match weight columns")
    r1, shift = record.r1, channel_params.scale * record.r2
    return SiteReparam(gamma / r1, (beta + shift) / r1,
                       weight * r1[:, np.newaxis], bias - shift @ weight, record)
