"""Range calibration: percentile bounds and affine parameter fitting."""

from dataclasses import dataclass

import numpy as np

from .quantizers import Granularity, QuantParams, Scheme
from .tensors import as_tensor

# Scale fallback for constant tensors, where max == min and the affine fit
# would otherwise divide by zero.
DEGENERATE_SCALE = 1e-8


@dataclass(frozen=True)
class CalibConfig:
    """How to fit one site: bit width, scheme, granularity, clip percentile."""

    bits: int = 8
    scheme: Scheme = Scheme.UNIFORM
    granularity: Granularity = Granularity.PER_LAYER
    percentile: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "granularity", Granularity(self.granularity))
        if not 2 <= int(self.bits) <= 8:
            raise ValueError(f"bit width {self.bits} outside [2, 8]")
        if not 50.0 < float(self.percentile) <= 100.0:
            raise ValueError("percentile must lie in (50, 100]")


def percentile_bounds(x, p):
    """Symmetric percentile clip bounds: (percentile(100-p), percentile(p)).

    Linear interpolation on the sorted sample; p = 100 reduces to min/max.
    """
    x = as_tensor(x)
    if x.size == 0:
        raise ValueError("cannot calibrate an empty sample")
    if not 50.0 < float(p) <= 100.0:
        raise ValueError("percentile must lie in (50, 100]")
    lo, hi = np.percentile(x, [100.0 - p, p])
    return float(lo), float(hi)


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


def calibrate_tensor(x, cfg, channel_axis=None):
    """Fit QuantParams for one site from sample data.

    Uniform sites fit percentile bounds (per layer, or per slice along
    channel_axis); log sites use the upper percentile bound as the scale,
    since their grid covers (0, s]. Multi-batch calibration is concatenation:
    pass the stacked capture.
    """
    x = as_tensor(x)
    if x.size == 0:
        raise ValueError("cannot calibrate an empty sample")
    p = float(cfg.percentile)

    if cfg.scheme is Scheme.UNIFORM:
        if cfg.granularity is Granularity.PER_LAYER:
            rows, channel_axis = x.reshape(1, -1), None
        elif channel_axis is None:
            raise ValueError("per-channel calibration needs a channel_axis")
        else:
            axis = channel_axis % x.ndim
            rows = np.moveaxis(x, axis, 0).reshape(x.shape[axis], -1)
        lows, highs = np.percentile(rows, [100.0 - p, p], axis=1)
        s, z = compute_affine_params(lows, highs, cfg.bits)
        # keep the caller's axis convention (e.g. -1 survives a change of ndim
        # between the stacked calibration capture and single-sample tensors)
        return QuantParams(Scheme.UNIFORM, cfg.bits, scale=s, zero_point=z,
                           granularity=cfg.granularity, channel_axis=channel_axis)

    # log schemes: layer-wise scale from the upper bound
    if cfg.granularity is not Granularity.PER_LAYER:
        raise ValueError("log schemes are calibrated per layer")
    if np.any(x < 0):
        raise ValueError("log schemes require nonnegative calibration data")
    _, hi = percentile_bounds(x, p)
    return QuantParams(cfg.scheme, cfg.bits, scale=np.array([_log_scale(hi)]))
