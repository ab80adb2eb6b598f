"""Range calibration: percentile bounds and affine parameter fitting.

A per-channel fit gives one scale per channel of the sample's last axis.
"""

import math

import numpy as np

from .quantizers import QuantParams, Scheme
from .tensors import as_tensor

# Scale fallback for constant tensors, where max == min and the affine fit
# would otherwise divide by zero.
DEGENERATE_SCALE = 1e-8


def _extremes(x, axis=None):
    """min and max of x (along axis); ValueError if the sample holds NaN or an infinity.

    NaN propagates through both reductions and an infinity is an extreme,
    so checking the two results checks every value.
    """
    lo, hi = x.min(axis=axis), x.max(axis=axis)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("calibration sample contains non-finite values")
    return lo, hi


def _rank(n, q):
    """numpy's `linear` rule for quantile q of n sorted values: ranks i, j and weight t.

    With v = (n - 1) * q the ranks are floor(v) and floor(v) + 1, both
    n - 1 once v reaches the last rank, where numpy's weight is v - (-1).
    """
    v = (n - 1) * q
    if v >= n - 1:
        return n - 1, n - 1, v + 1.0
    i = math.floor(v)
    return i, i + 1, v - i


def _lerp(a, b, t):
    """numpy's interpolation between neighbouring order statistics, rounding included."""
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def percentile_bounds(x, p):
    """Symmetric percentile clip bounds: (percentile(100-p), percentile(p)).

    np.percentile's default `linear` rule, bit for bit up to the sign of a
    zero bound: the order statistics at ranks floor(v) and floor(v) + 1,
    v = (n - 1) * q, interpolated as numpy does. Only those ranks are
    selected, from the tails: a strided subsample's need-th smallest value
    t has at least need values of the sample at or below it, so the values
    <= t are a sorted prefix holding every rank the lower bound reads, and
    likewise at the top. The stride is coprime with the last axis, the
    channel axis of a captured stack, so the subsample visits every channel
    rather than one, and its thresholds sit near the sample's own tails: a
    99.99 bound on 131,072 values thus partitions a few thousand. p = 100
    reduces to min/max. NaN or an infinity in the sample raises ValueError.
    """
    x = as_tensor(x)
    channels = x.shape[-1] if x.ndim else 1
    x = x.ravel()
    if x.size == 0:
        raise ValueError("cannot calibrate an empty sample")
    p = float(p)
    if not 50.0 < p <= 100.0:
        raise ValueError("percentile must lie in (50, 100]")
    lo, hi = _extremes(x)
    n = x.size
    i_lo, j_lo, t_lo = _rank(n, (100.0 - p) / 100)
    i_hi, j_hi, t_hi = _rank(n, p / 100)
    if p == 100.0:
        # min and max stand in for every rank read: the lower bound puts
        # weight 0 on rank 1, the upper one reads rank n - 1 twice
        return float(_lerp(lo, lo, t_lo)), float(_lerp(hi, hi, t_hi))
    need_lo, need_hi = j_lo + 1, n - i_hi
    stride = max(1, n // (64 * max(need_lo, need_hi)))
    while math.gcd(stride, channels) != 1:
        stride += 1
    sub = x[::stride]
    if sub.size <= need_lo + need_hi:
        ranks = [i_lo, j_lo, i_hi, j_hi]
        a_lo, b_lo, a_hi, b_hi = np.partition(x, sorted(set(ranks)))[ranks]
    else:
        sub = np.partition(sub, [need_lo - 1, sub.size - need_hi])
        low = np.partition(x[x <= sub[need_lo - 1]], [i_lo, j_lo])
        high = x[x >= sub[sub.size - need_hi]]
        skip = n - high.size
        high = np.partition(high, [i_hi - skip, j_hi - skip])
        a_lo, b_lo = low[i_lo], low[j_lo]
        a_hi, b_hi = high[i_hi - skip], high[j_hi - skip]
    return float(_lerp(a_lo, b_lo, t_lo)), float(_lerp(a_hi, b_hi, t_hi))


def _channel_bounds(x, p):
    """np.percentile(x, [100 - p, p], axis=0) of an (n, C) sample.

    p = 100 takes each channel's min and max. Below it, the channels are
    sorted once, as the rows of a (C, n) copy, and the ranks of `_rank` are
    read and interpolated with `_lerp`, the rule np.percentile applies: the
    same bits up to the sign of a zero bound, since a sort and numpy's
    partition may rank tied -0.0 and 0.0 differently (a fit never reads
    that sign). NaN or an infinity raises ValueError.
    """
    if p == 100.0:
        return _extremes(x, axis=0)
    rows = np.ascontiguousarray(x.T)
    rows.sort(axis=-1)
    _extremes(rows[:, [0, -1]])         # infinities sort to the ends, NaN last
    bounds = []
    for q in ((100.0 - p) / 100, p / 100):
        i, j, t = _rank(rows.shape[1], q)
        bounds.append(_lerp(rows[:, i], rows[:, j], t))
    return bounds


def compute_affine_params(lo, hi, bits):
    """Fit scale and zero point to a clip range: s = (hi-lo)/(2**bits - 1).

    lo and hi are scalars or equal-shaped arrays (one range per channel);
    the result has their shape. The zero point round(-lo/s) is clipped into
    the code range so it is always a representable code; a constant range
    (hi == lo) falls back to DEGENERATE_SCALE instead of dividing by zero.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("bounds must be finite")
    if np.any(hi < lo):
        raise ValueError(f"upper bound {hi} below lower bound {lo}")
    qmax = (1 << bits) - 1
    s = (hi - lo) / qmax
    s = np.where(s > 0.0, s, DEGENERATE_SCALE)
    z = np.clip(np.rint(-lo / s), 0, qmax).astype(np.int64)
    return s[()], z[()]


def _log_scale(hi):
    return hi if hi > 0.0 else DEGENERATE_SCALE


def calibrate_tensor(x, bits, percentile=100.0, scheme=Scheme.UNIFORM, per_channel=False):
    """Fit QuantParams for one site from sample data.

    Uniform sites fit percentile bounds over the whole sample or, with
    per_channel, over each channel x[..., c] of its last axis; log sites are
    per layer and use the upper bound as the scale, since their grid covers
    (0, s]. Multi-batch calibration is concatenation: pass the stacked
    capture. Bounds are np.percentile's: a per-layer fit selects them from
    the sample's tails (see `percentile_bounds`), a per-channel one sorts
    each channel once (see `_channel_bounds`), and a p = 100 fit takes
    min/max. A bad bit width or percentile, or NaN or an infinity in x,
    raises ValueError.
    """
    x = as_tensor(x)
    if x.size == 0:
        raise ValueError("cannot calibrate an empty sample")
    p = float(percentile)
    if not 50.0 < p <= 100.0:
        raise ValueError("percentile must lie in (50, 100]")
    if Scheme(scheme) is not Scheme.UNIFORM:
        # log schemes: layer-wise scale from the upper bound
        if per_channel:
            raise ValueError("log schemes are calibrated per layer")
        _, hi = percentile_bounds(x, p)
        if np.any(x < 0):
            raise ValueError("log schemes require nonnegative calibration data")
        return QuantParams(scheme, bits, scale=np.array([_log_scale(hi)]))
    if per_channel:
        lows, highs = _channel_bounds(x.reshape(-1, x.shape[-1]), p)
    else:
        lows, highs = percentile_bounds(x, p)
    s, z = compute_affine_params(lows, highs, bits)
    return QuantParams(Scheme.UNIFORM, bits, scale=s, zero_point=z)
