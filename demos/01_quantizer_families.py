"""Walk through the three quantizer families on post-Softmax data.

A uniform affine quantizer spends its codes evenly across the calibrated
range. The log quantizers spend them geometrically, which suits attention
maps: most entries are small but span several octaves, a few are near 1.
The half-power variant inserts one extra level between every pair of
power-of-two levels, so its grid strictly contains the power-of-two grid.
"""

import numpy as np

from scalefold.calibration import calibrate_tensor
from scalefold.model import ModelConfig
from scalefold.pipeline import capture_activations
from scalefold.quantizers import (Scheme, fake_quantize, log2_dequantize,
                                  logsqrt2_dequantize)
from scalefold.synth import SynthSpec, gen_activations, gen_model

cfg = ModelConfig()
spec = SynthSpec()
blocks = gen_model(cfg, spec)
caps = capture_activations(blocks, cfg, gen_activations(cfg, spec, 16))
x = np.concatenate([caps[f"block{i}.attn_a"].ravel() for i in range(cfg.blocks)])
print(f"attention maps: {x.size} values, median {np.median(x):.2e}, "
      f"max {x.max():.3f}")

bits = 4
fits = {
    "uniform": calibrate_tensor(x, bits),
    "log2": calibrate_tensor(x, bits, scheme=Scheme.LOG2),
    "log_sqrt2": calibrate_tensor(x, bits, scheme=Scheme.LOG_SQRT2),
}

print(f"\nreconstruction MSE at {bits} bits:")
for name, qp in fits.items():
    mse = np.mean((fake_quantize(x, qp) - x) ** 2)
    print(f"  {name:10s} {mse:.3e}")

# the level grids themselves; both log fits share the same scale here
s = float(fits["log2"].scale[0])
pow2 = log2_dequantize(np.arange(8), s, 3)
half = logsqrt2_dequantize(np.arange(16), s, 4)
print(f"\npower-of-two levels (s={s:.3f}, 3 bits):")
print("  " + "  ".join(f"{v:.2e}" for v in pow2))
print("half-power levels at 4 bits cover the same span at double density;")
print("their even codes land exactly on the power-of-two grid:",
      np.array_equal(half[::2], pow2))
