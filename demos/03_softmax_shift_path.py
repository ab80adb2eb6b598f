"""Serve half-power codes on integer-shift hardware.

The half-power quantizer wins accuracy on attention maps but its levels
s * (sqrt 2)^-k are not powers of two, so a naive dequantizer needs a real
multiply per element. The rewrite: fold the sqrt(2) of every odd code into
the scale (two scales total, chosen by the code's parity), after which the
remaining factor is an exact power of two and dequantization is a bit
shift. The two routes agree bit for bit.
"""

import numpy as np

from scalefold.quantizers import (base_change_scale, logsqrt2_dequantize,
                                  logsqrt2_dequantize_shift,
                                  logsqrt2_quantize, parity_indicator)

rng = np.random.default_rng(3)
bits, s = 4, 0.9375
x = np.exp(rng.uniform(np.log(1e-4), 0.0, size=4096)) * s

codes = logsqrt2_quantize(x, s, bits)
print(f"codes 0..{2 ** bits - 1}, histogram: {np.bincount(codes, minlength=16)}")

# parity splits the grid into the power-of-two half and the sqrt(2) half
scales = base_change_scale(s, codes)
print(f"\neven-code scale {s:.6f}, odd-code scale {s * np.sqrt(2):.6f}")
print("parity of first 12 codes:", parity_indicator(codes[:12]))

# route A: evaluate s * (sqrt 2)^-code directly
route_a = logsqrt2_dequantize(codes, s, bits)
# route B: parity-adjusted scale, then a pure power-of-two shift
route_b = np.ldexp(scales, np.floor_divide(-codes, 2))
# route C: the shift kernel that the quantized A @ V runs, on the grid's levels
route_c = logsqrt2_dequantize_shift(codes, s, bits)

print("\nbitwise equal, direct vs parity-scale:",
      np.array_equal(route_a, route_b))
print("bitwise equal, parity-scale vs A @ V shift kernel:",
      np.array_equal(route_b, route_c))
print(f"reconstruction MSE: {np.mean((route_a - x) ** 2):.3e}")
