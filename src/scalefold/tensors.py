"""Minimal dense float64 kernels for a small transformer forward pass.

Everything operates on plain numpy arrays in C order, float64 throughout.
The reduction order of `matmul` is pinned so results are bit-reproducible
across runs and machines; the quantization equivalence checks rely on that.
32-bit floats appear only in the file container, never in compute.
"""

import math

import numpy as np
from scipy.special import ndtr


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


def as_tensor(x, check_finite=False):
    """Coerce to a C-contiguous float64 array, optionally rejecting NaN/Inf."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if check_finite and not np.isfinite(arr).all():
        raise ValueError("tensor contains non-finite values")
    return arr


def as_int_tensor(x):
    """Coerce integer codes to a C-contiguous int32 array."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"integer tensor expected, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int32)


# Output elements per block of the rank-1 loop: 2**15 float64 values are
# 256 KiB, so each block's accumulator stays cache-resident however large the
# stacked batch grows, and a single sample of either model shape is one block.
_BLOCK_ELEMENTS = 1 << 15


def matmul(a, b):
    """Matrix product with a fixed, sequential reduction over the inner axis.

    Accumulates rank-1 updates in inner-index order, so every output element
    is summed exactly as a naive triple loop would sum it. Results are
    therefore independent of BLAS blocking or threading and bit-stable
    run to run. Leading axes broadcast as in `np.matmul`; each output matrix
    is summed exactly as a 2-D product of its own slices would be.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of ndim >= 2, got {a.ndim} and {b.ndim}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    (m, k), n = a.shape[-2:], b.shape[-1]
    if b.ndim == 2:
        # every row of every slice meets the same matrix: one (rows, k) operand
        lhs, rhs = a.reshape(-1, k), b
        shape = a.shape[:-1] + (n,)
    else:
        try:
            batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError as exc:
            raise ShapeError(f"batch axes differ: {a.shape} x {b.shape}") from exc
        lhs = np.broadcast_to(a, batch + (m, k)).reshape(-1, m, k)
        rhs = np.broadcast_to(b, batch + (k, n)).reshape(-1, k, n)
        shape = batch + (m, n)
    out = np.zeros(lhs.shape[:-1] + (n,))
    step = max(1, _BLOCK_ELEMENTS // max(1, math.prod(out.shape[1:])))
    for lo in range(0, len(out), step):
        acc = out[lo:lo + step]
        # operands with the inner axis leading, so each rank-1 term is two views
        xs = np.moveaxis(lhs[lo:lo + step], -1, 0)[..., np.newaxis]
        ys = rhs if b.ndim == 2 else np.moveaxis(rhs[lo:lo + step], -2, 0)[..., np.newaxis, :]
        for x, y in zip(xs, ys):
            acc += x * y
    return out.reshape(shape)


def rowwise_softmax(x):
    """Softmax over the last axis, max-subtracted for overflow safety.

    Rows of the output are nonnegative and sum to 1 up to roundoff for any
    finite input, including rows with large magnitudes.
    """
    x = as_tensor(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def gelu(x):
    """x * Phi(x) with the exact Gaussian CDF, not the tanh approximation."""
    x = as_tensor(x)
    return x * ndtr(x)
