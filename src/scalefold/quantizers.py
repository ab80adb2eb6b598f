"""Quantizer families: affine uniform, log2, and log-sqrt2.

The log-sqrt2 dequantizer is written in its base-changed form
``s_adj * 2**floor(-code/2)`` where ``s_adj`` folds a sqrt(2) factor in for
odd codes. That form needs only a parity bit and a power-of-two multiply, so
it runs on the same integer shift path as plain log2 dequantization;
``logsqrt2_dequantize_shift`` simulates that path with exact fixed-point
integers and must match the float path bit for bit.

A quantizer's scale vector says its kind: one scale is layer-wise, more are
channel-wise, and the channels are always the tensor's last axis, where
LayerNorm stacks (n, patches, dim) and weights (in, out) keep them.
"""

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .tensors import as_int_tensor, as_tensor, gelu, gelu_limit

SQRT2 = float(np.sqrt(2.0))

# The tanh form of GELU, 0.5 * h * (1 + tanh(sqrt(2/pi) * (h + 0.044715 * h**3))),
# as `_tanh_gelu` computes it, lies within this distance of `tensors.gelu` at
# every float64 h: the largest gap is 4.73e-4, at h = 2.70, and beyond
# [-40, 40] both give h or -0 (tests/test_quantizers.py checks it).
GELU_TANH_BOUND = 5e-4
_TANH_K1 = float(np.sqrt(2.0 / np.pi))
_TANH_K3 = _TANH_K1 * 0.044715

# Elements of h per chunk of `gelu_centred`: its scratch quotients and their
# masks stay at a few hundred KiB beside the output, and one sample of the
# 64x128 model's MLP, 64 x 512, is one chunk.
_GELU_CHUNK = 1 << 15


class Scheme(str, enum.Enum):
    UNIFORM = "uniform"
    LOG2 = "log2"
    LOG_SQRT2 = "log_sqrt2"


def _qmax(bits):
    return (1 << bits) - 1


@dataclass(frozen=True, eq=False)
class QuantParams:
    """Frozen parameters of one quantizer site.

    scale is a 1-element vector for per-layer sites and one entry per channel
    of the last axis for per-channel sites. zero_point is present only for
    the uniform scheme and lies in [0, 2**bits - 1]. Log schemes are per-layer
    here: their sites (post-Softmax tensors) are quantized with a single scale.
    """

    scheme: Scheme
    bits: int
    scale: np.ndarray
    zero_point: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if isinstance(self.bits, bool) or not isinstance(self.bits, numbers.Integral):
            raise ValueError(f"bit width {self.bits!r} is not an integer")
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bit width {self.bits} outside [2, 8]")
        object.__setattr__(self, "bits", int(self.bits))
        scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        if scale.ndim != 1 or scale.size == 0:
            raise ValueError("scale must be a nonempty vector")
        if not (scale.min() > 0 and scale.max() < np.inf):    # a NaN fails min() > 0
            raise ValueError("scales must be positive and finite")
        object.__setattr__(self, "scale", scale)
        if self.scheme is Scheme.UNIFORM:
            if self.zero_point is None:
                raise ValueError("uniform scheme requires zero points")
            zp = np.atleast_1d(np.asarray(self.zero_point))
            if zp.dtype.kind not in "iu":
                raise ValueError("zero points must be integers")
            zp = zp.astype(np.int64)
            if zp.shape != scale.shape:
                raise ValueError("zero_point length must match scale length")
            if zp.min() < 0 or zp.max() > _qmax(self.bits):
                raise ValueError(f"zero points outside [0, {_qmax(self.bits)}]")
            object.__setattr__(self, "zero_point", zp)
        else:
            if self.zero_point is not None:
                raise ValueError("log schemes carry no zero point")
            if scale.size != 1:
                raise ValueError("log schemes are per-layer: scale must have one entry")

    @property
    def qmax(self):
        return _qmax(self.bits)

    def to_json(self):
        return {
            "scheme": self.scheme.value,
            "bits": int(self.bits),
            "scale": [float(v) for v in self.scale],
            "zero_point": None if self.zero_point is None else [int(v) for v in self.zero_point],
        }

    @classmethod
    def from_json(cls, d):
        """Inverse of `to_json`; wrong keys or malformed values raise ValueError.

        `d` must hold exactly the keys `to_json` writes. Nothing is rounded
        or parsed: each value must have the JSON type `to_json` writes.
        """
        expected = ["bits", "scale", "scheme", "zero_point"]
        got = sorted(d) if isinstance(d, dict) else type(d).__name__
        if got != expected:
            raise ValueError(f"QuantParams expects keys {expected}, got {got}")
        try:
            bits, scale, zp = d["bits"], d["scale"], d["zero_point"]
            if not (_json_list([bits], int) and _json_list(scale, (int, float))
                    and (zp is None or _json_list(zp, int))):
                raise TypeError("bits must be an integer, scale a list of numbers and "
                                "zero_point null or a list of integers")
            return cls(
                scheme=Scheme(d["scheme"]),
                bits=bits,
                scale=np.asarray(scale, dtype=np.float64),
                zero_point=None if zp is None else np.asarray(zp, dtype=np.int64),
            )
        except (OverflowError, TypeError) as e:
            raise ValueError(f"malformed quantizer params: {type(e).__name__}: {e}") from None


def _json_list(v, kinds):
    return isinstance(v, list) and all(isinstance(e, kinds) and not isinstance(e, bool) for e in v)


def param_view(vec, x):
    """`vec` (scales or zero points) against x: one entry is a scalar, more are x's last axis."""
    if vec.size == 1:
        return vec[0]
    if x.shape[-1] != vec.size:
        raise ValueError(f"last axis has {x.shape[-1]} channels but params carry {vec.size}")
    return vec


def _check_codes(codes, bits):
    codes = as_int_tensor(codes)
    if np.any(codes < 0) or np.any(codes > _qmax(bits)):
        raise ValueError(f"codes outside [0, {_qmax(bits)}]")
    return codes


def uniform_centred(x, qp):
    """Affine codes minus their zero points: clip(round(x/s), -z, 2**b - 1 - z).

    Rounding is round-half-to-even. Returns float64 integer values of x's
    shape in a new C-ordered array, ready to be multiplied as they are;
    `uniform_quantize` adds z back. A strided x, such as the q, k and v
    column blocks of the QKV product, is read where it lies, not copied.
    """
    if qp.scheme is not Scheme.UNIFORM:
        raise ValueError(f"uniform quantizer got {qp.scheme.value} params")
    x = np.asarray(x, dtype=np.float64)
    s = param_view(qp.scale, x)
    z = param_view(qp.zero_point, x)
    out = np.divide(x, s, out=np.empty(x.shape))
    np.rint(out, out=out)
    return _clip_centred(out, qp)


def _clip_centred(codes, qp):
    """Clip rounded codes minus zero points to [-z, 2**b - 1 - z], in place."""
    z = param_view(qp.zero_point, codes)
    np.maximum(codes, -z, out=codes)
    return np.minimum(codes, qp.qmax - z, out=codes)


def _tanh_gelu(h, out):
    """The tanh form of GELU of h, into `out`; within `GELU_TANH_BOUND` of `gelu(h)`.

    h * h overflows to inf for |h| > 1.3e154 and tanh then saturates, so
    such an h still gives h or -0; h beyond 9e307 gives inf (2 * h
    overflows), and -inf gives -0, as `gelu` does, where 0 * -inf would be NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(h, out=out)
        out *= _TANH_K3
        out += _TANH_K1
        out *= h
        np.tanh(out, out=out)
        out += 1.0
        out *= h
        out *= 0.5
    return gelu_limit(h, out)


def gelu_centred(h, qp):
    """`uniform_centred(tensors.gelu(h), qp)` bit for bit, sign bits included, for one-scale qp.

    The exact GELU, h * ndtr(h), costs scipy's scalar CDF per entry. Here
    each chunk of h takes the tanh form instead (`_tanh_gelu`, a few numpy
    passes), divided by s and rounded. With m = GELU_TANH_BOUND / s, the
    exact quotient gelu(h) / s lies within m of the tanh one: where the two
    forms are different floats at all (-40 < h < 9), their gap is at most
    4.74e-4 and both quotients are below 9 / s, so the two divisions add a
    few ulp of 9 / s at most. So a tanh quotient closer than 1/2 - m to its
    rounded value rounds to the exact code; only the entries at least
    1/2 - m from it take `uniform_centred(gelu(h), qp)` itself, whose codes
    the final clip leaves as they are. Both forms carry h's sign, so a zero
    code's sign is the exact one's too; h = -inf gives -0 in both. A
    quotient that is not finite (h = +inf or NaN, or h above 9e307, where
    the tanh form overflows) has a NaN residual and keeps its tanh code, so
    it never takes the exact path: NaN or +inf, where the exact code is NaN
    or clips to the same top code. The codes are then clipped as
    `uniform_centred` clips them.

    The output is the one full-size buffer; the scratch is one chunk's
    quotients, so the kernel holds less than `gelu` and `uniform_centred`
    together, which hold two full-size buffers.
    """
    if qp.scheme is not Scheme.UNIFORM or qp.scale.size != 1:
        raise ValueError("gelu_centred takes one-scale uniform params")
    h = as_tensor(h)
    s = qp.scale[0]
    certain = 0.5 - GELU_TANH_BOUND / s
    flat = h.reshape(-1)
    codes = np.empty(h.shape)
    out = codes.reshape(-1)
    scratch = np.empty(min(flat.size, _GELU_CHUNK))
    for lo in range(0, flat.size, _GELU_CHUNK):
        hc, cc = flat[lo:lo + _GELU_CHUNK], out[lo:lo + _GELU_CHUNK]
        x = _tanh_gelu(hc, scratch[:hc.size])
        x /= s
        np.rint(x, out=cc)
        with np.errstate(invalid="ignore"):     # inf - inf where x is infinite
            x -= cc
        np.abs(x, out=x)
        near = np.flatnonzero(x >= certain)
        cc[near] = uniform_centred(gelu(hc[near]), qp)
    return _clip_centred(codes, qp)


def uniform_quantize(x, qp):
    """Map values onto the affine integer grid: clip(round(x/s) + z, 0, 2**b - 1).

    Rounding is round-half-to-even. Returns int32 codes of x's shape; ±inf
    take the end codes, and a NaN raises ValueError.
    """
    codes = uniform_centred(x, qp)
    if np.isnan(codes.min(initial=0.0)):
        raise ValueError("uniform_quantize got NaN inputs")
    codes += param_view(qp.zero_point, codes)
    return codes.astype(np.int32)


def centre_codes(codes, qp):
    """Affine codes minus their zero points, c - z, as integer-valued float64.

    This is what `uniform_centred` returned for the values the codes came
    from. Non-uniform params or codes outside [0, 2**b - 1] raise ValueError.
    """
    if qp.scheme is not Scheme.UNIFORM:
        raise ValueError(f"uniform codes got {qp.scheme.value} params")
    codes = _check_codes(codes, qp.bits)
    centred = codes.astype(np.float64)
    centred -= param_view(qp.zero_point, codes)
    return centred


def uniform_dequantize(codes, qp):
    """Reconstruct s * (code - z) for codes produced by `uniform_quantize`."""
    centred = centre_codes(codes, qp)
    return param_view(qp.scale, centred) * centred


def _log_codes(x, s, bits, label, per_octave):
    """clip(round(-per_octave * log2(x/s)), 0, 2**bits - 1) as int32, in one float buffer.

    Zero maps to the maximum code; a negative or NaN input raises ValueError.
    """
    if not (np.isscalar(s) or np.asarray(s).size == 1):
        raise ValueError(f"{label} takes a single scale")
    s = float(np.asarray(s).reshape(()))
    if not (s > 0 and np.isfinite(s)):
        raise ValueError(f"{label} scale must be positive and finite")
    if not 2 <= int(bits) <= 8:
        raise ValueError(f"bit width {bits} outside [2, 8]")
    x = as_tensor(x)
    if not x.min(initial=0.0) >= 0:                 # a NaN fails it too
        raise ValueError(f"{label} requires nonnegative inputs")
    raw = np.divide(x, s)
    with np.errstate(divide="ignore"):
        np.log2(raw, out=raw)
    raw *= -per_octave                              # exact: -1 or -2
    np.rint(raw, out=raw)
    np.maximum(raw, 0.0, out=raw)
    return np.minimum(raw, float(_qmax(bits)), out=raw).astype(np.int32)


def log2_quantize(x, s, bits):
    """Power-of-two codes: clip(round(-log2(x/s)), 0, 2**bits - 1).

    Zeros land on the deepest level (maximum code); negatives and NaN are rejected.
    """
    return _log_codes(x, s, bits, "log2_quantize", 1.0)


def log2_dequantize(codes, s, bits):
    """Reconstruct s * 2**(-code). Power-of-two scaling is exact in float64."""
    codes = _check_codes(codes, bits)
    return np.ldexp(np.float64(s), -codes)


def logsqrt2_quantize(x, s, bits):
    """Half-power codes: clip(round(-2 * log2(x/s)), 0, 2**bits - 1).

    -2 * log2(x/s) is exactly -log(x/s) in base sqrt(2) (the base-change
    constant log2(sqrt(2)) = 1/2 is a power of two, so the rescaling is
    lossless). Zero maps to the maximum code, negatives and NaN are rejected.
    """
    return _log_codes(x, s, bits, "logsqrt2_quantize", 2.0)


def parity_indicator(codes):
    """Least-significant bit of each code: 1 for odd codes, else 0."""
    return as_int_tensor(codes) & np.int32(1)


def base_change_scale(s, codes):
    """Dequantization scales for half-power codes on the power-of-two path.

    s~ = s * (parity(code) * (sqrt(2) - 1) + 1): odd codes carry the extra
    sqrt(2), even codes reconstruct on the plain power-of-two grid.
    """
    s = float(np.asarray(s).reshape(()))
    if not (s > 0 and np.isfinite(s)):
        raise ValueError("scale must be positive and finite")
    return s * (parity_indicator(codes) * (SQRT2 - 1.0) + 1.0)


def logsqrt2_dequantize(codes, s, bits):
    """Reconstruct s * sqrt(2)**(-code) via the shift-friendly split.

    Odd codes fold one sqrt(2) into the scale, even codes leave it alone;
    what remains is a plain power-of-two factor:

        s_adj = s * (parity * (sqrt(2) - 1) + 1)     (base_change_scale)
        x_hat = s_adj * 2**floor(-code / 2)

    The result equals s * sqrt(2)**(-code) to within one ulp.
    """
    codes = _check_codes(codes, bits)
    return np.ldexp(base_change_scale(s, codes), np.floor_divide(-codes, 2))


def _shift_pow2(exponents, frac):
    # 2**(-k) as an exact fixed-point integer: (1 << frac) >> k, then an
    # exact rescale by 2**-frac. The frac + 1 levels are shifted once with
    # Python ints, which stay exact for any frac, and the exponents index
    # them; the levels are powers of two, so float conversion is exact.
    one = 1 << frac
    levels = np.array([float(one >> k) for k in range(frac + 1)])
    return levels[exponents]


def logsqrt2_dequantize_shift(codes, s, bits):
    """Integer shift path for log-sqrt2 dequantization.

    The 2**floor(-code/2) factor comes from an arithmetic right shift by
    ceil(code/2); the parity-adjusted scale multiplies the shifted grid
    value. Equals `logsqrt2_dequantize` exactly for every code.
    """
    codes = _check_codes(codes, bits)
    frac = _qmax(bits)
    mant = _shift_pow2((codes + 1) >> 1, frac)
    return np.ldexp(base_change_scale(s, codes) * mant, -frac)


def fake_quantize(x, qp):
    """Quantize then dequantize, the simulated-quantization round trip."""
    if qp.scheme is Scheme.UNIFORM:
        # s * (c - z) in the one buffer of the centred codes: the bits of
        # dequantizing `uniform_quantize`'s codes, without their copies
        out = uniform_centred(x, qp)
        out *= param_view(qp.scale, out)
        return out
    s = qp.scale[0]
    if qp.scheme is Scheme.LOG2:
        return log2_dequantize(log2_quantize(x, s, qp.bits), s, qp.bits)
    return logsqrt2_dequantize(logsqrt2_quantize(x, s, qp.bits), s, qp.bits)
