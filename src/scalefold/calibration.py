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

    The zero point round(-lo/s) is clipped into the code range so it is
    always a representable code; a constant tensor (hi == lo) falls back to
    DEGENERATE_SCALE instead of dividing by zero.
    """
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("bounds must be finite")
    if hi < lo:
        raise ValueError(f"upper bound {hi} below lower bound {lo}")
    qmax = (1 << bits) - 1
    s = (hi - lo) / qmax
    if not s > 0.0:
        s = DEGENERATE_SCALE
    z = int(np.clip(np.rint(-lo / s), 0, qmax))
    return s, z


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
            lo, hi = percentile_bounds(x, p)
            s, z = compute_affine_params(lo, hi, cfg.bits)
            return QuantParams(Scheme.UNIFORM, cfg.bits, scale=np.array([s]),
                               zero_point=np.array([z], dtype=np.int64))
        if channel_axis is None:
            raise ValueError("per-channel calibration needs a channel_axis")
        axis = channel_axis % x.ndim
        chans = np.moveaxis(x, axis, 0).reshape(x.shape[axis], -1)
        lows = np.percentile(chans, 100.0 - p, axis=1)
        highs = np.percentile(chans, p, axis=1)
        fitted = [compute_affine_params(lo, hi, cfg.bits) for lo, hi in zip(lows, highs)]
        # keep the caller's axis convention (e.g. -1 survives a change of ndim
        # between the stacked calibration capture and single-sample tensors)
        return QuantParams(
            Scheme.UNIFORM, cfg.bits,
            scale=np.array([f[0] for f in fitted]),
            zero_point=np.array([f[1] for f in fitted], dtype=np.int64),
            granularity=Granularity.PER_CHANNEL, channel_axis=channel_axis,
        )

    # log schemes: layer-wise scale from the upper bound
    if cfg.granularity is not Granularity.PER_LAYER:
        raise ValueError("log schemes are calibrated per layer")
    if np.any(x < 0):
        raise ValueError("log schemes require nonnegative calibration data")
    _, hi = percentile_bounds(x, p)
    return QuantParams(cfg.scheme, cfg.bits, scale=np.array([_log_scale(hi)]))
