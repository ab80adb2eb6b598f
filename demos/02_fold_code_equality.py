"""Fold channel-wise quantizers into one layer-wise quantizer, losslessly.

Channel-wise affine quantization handles the wild per-channel ranges after
LayerNorm, but inference kernels want a single scale per tensor. The fold
absorbs the per-channel variation into the LayerNorm affine parameters and
the next projection's weights. The punchline: the layer-wise quantizer then
emits the exact same integer codes the channel-wise one would have, clipped
values included, so nothing is lost by switching granularity.
"""

import numpy as np

from scalefold.calibration import calibrate_tensor
from scalefold.quantizers import uniform_quantize
from scalefold.reparam import reparameterize_layernorm_site

rng = np.random.default_rng(7)
dim, cols, rows = 16, 24, 5000

# a post-normalization activation matrix with very unequal channel spreads
spread = np.geomspace(0.2, 8.0, dim)
x = rng.normal(size=(rows, dim)) * spread + rng.normal(size=dim)

# one scale per channel of the last axis
chan = calibrate_tensor(x, 4, per_channel=True)
print("channel scales span "
      f"{chan.scale.min():.3f} .. {chan.scale.max():.3f} "
      f"(ratio {chan.scale.max() / chan.scale.min():.1f}x)")

gamma, beta = np.ones(dim), np.zeros(dim)
weight = rng.normal(size=(dim, cols))
bias = rng.normal(size=cols)
res = reparameterize_layernorm_site(gamma, beta, weight, bias, chan)
rec = res.record
print(f"fold factors: r1 in [{rec.r1.min():.3f}, {rec.r1.max():.3f}], "
      f"r2 in [{rec.r2.min()}, {rec.r2.max()}], "
      f"target scale {rec.target_scale:.4f}, zero {rec.target_zero}")

# the adjusted activations are what the rewritten LayerNorm now emits
adjusted = (x + chan.scale * rec.r2) / rec.r1
codes_chan = uniform_quantize(x, chan)
codes_layer = uniform_quantize(adjusted, rec.target_params())
clipped = np.mean((codes_chan == 0) | (codes_chan == 15))
print(f"\ninteger codes equal: {np.array_equal(codes_chan, codes_layer)} "
      f"({codes_chan.size} values, {clipped:.1%} in the clip region)")

# and the linear output the next layer computes is untouched
y0 = x @ weight + bias
y1 = adjusted @ res.weight + res.bias
print(f"linear output max deviation: {np.max(np.abs(y1 - y0)):.2e}")
