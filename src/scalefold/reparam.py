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

import numpy as np

from .quantizers import QuantParams, Scheme
from .tensors import as_tensor


@dataclass(frozen=True, eq=False)
class ReparamRecord:
    """Audit record of one fold: the channel-wise source and its layer-wise target.

    The fold factors r1 and r2 are derived from the two, never stored.
    """

    target_scale: float
    target_zero: int
    source: QuantParams

    def __post_init__(self):
        if self.source.scheme is not Scheme.UNIFORM:
            raise ValueError("fold source must be uniform")
        if not (self.target_scale > 0 and np.isfinite(self.target_scale)):
            raise ValueError("target scale must be positive and finite")
        if self.target_zero != int(self.target_zero):
            raise ValueError("target zero point must be an integer")
        object.__setattr__(self, "target_zero", int(self.target_zero))

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
        return QuantParams(
            Scheme.UNIFORM, self.source.bits,
            scale=np.array([self.target_scale]),
            zero_point=np.array([self.target_zero], dtype=np.int64),
        )

    def to_json(self):
        """The record's scalars; the source's vectors ship as container tensors."""
        return {
            "target_scale": float(self.target_scale),
            "target_zero": int(self.target_zero),
            "bits": int(self.source.bits),
        }

    @classmethod
    def from_json(cls, d, scale, zero_point):
        """Inverse of `to_json`, given the source's scale and zero-point vectors.

        Nothing is converted: target_scale must be a JSON number, target_zero
        and bits integers, booleans neither. Malformed input raises ValueError.
        """
        try:
            target_scale, target_zero, bits = d["target_scale"], d["target_zero"], d["bits"]
            if (any(isinstance(v, bool) for v in (target_scale, target_zero, bits))
                    or not isinstance(target_scale, (int, float))
                    or not isinstance(target_zero, int) or not isinstance(bits, int)):
                raise TypeError("target_scale must be a number, target_zero and bits integers")
            return cls(
                target_scale=float(target_scale),
                target_zero=target_zero,
                source=QuantParams(Scheme.UNIFORM, bits, scale=scale, zero_point=zero_point),
            )
        except (KeyError, OverflowError, TypeError) as e:
            raise ValueError(f"malformed fold record: {type(e).__name__}: {e}") from None


def build_reparam_record(qp):
    """Derive fold factors from channel-wise affine parameters `qp`.

    The layer-wise target is the channel mean: s~ = mean(s) and
    z~ = round(mean(z)) (half to even). The record derives r1 = s / s~
    exactly as computed and r2 = z - z~ in exact integers.
    """
    if qp.scheme is not Scheme.UNIFORM:
        raise ValueError("fold factors need uniform parameters")
    return ReparamRecord(
        target_scale=float(np.mean(qp.scale)),
        target_zero=int(np.rint(np.mean(qp.zero_point))),
        source=qp,
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
    `target_params()` is the layer-wise quantizer.
    """
    record = build_reparam_record(channel_params)
    gamma_adj, beta_adj = apply_affine_adjustment(gamma, beta, record)
    weight_adj, bias_adj = apply_weight_compensation(weight, bias, record)
    return SiteReparam(
        gamma=gamma_adj,
        beta=beta_adj,
        weight=weight_adj,
        bias=bias_adj,
        record=record,
    )

