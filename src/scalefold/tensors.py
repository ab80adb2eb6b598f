"""Minimal dense float64 kernels for a small transformer forward pass.

Everything operates on plain numpy arrays in C order, float64 throughout.
`matmul` runs on BLAS but is bit-reproducible across runs and BLAS thread
counts: it splits each operand into integer-valued slices whose products are
exact float64 GEMMs, and combines them in a fixed order. The quantization
equivalence checks rely on that. It runs every product of the unhooked float
forward (which calibration, the fold's refit and every capture use) and any
hooked product with a per-channel activation quantizer, whose scales do not
factor out of the inner sum. The other hooked products, A @ V under the
log-sqrt2 quantizer included, run as exact integer GEMMs on the codes instead
(see `model`). 32-bit floats appear only in the file container, never in
compute.

`single_threaded_blas` holds numpy's OpenBLAS at one thread for a region, so
that threads of our own can each run whole kernels on one core (the sharded
stacks of `model.model_forward`). The handle is the scipy-openblas64 of
numpy's wheels: its exported thread-count functions are looked up on first
use on numpy's own `_multiarray_umath` extension, whose handle searches the
libraries it links, and driven through `ctypes`; where numpy links any
other BLAS, or that lookup fails, nothing is ever held, and the regions run
as they always did.
"""

import contextlib
import ctypes
import functools
import math
import threading

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


# Float64 values of working memory per chunk of the flattened batch: 2**18
# are 2 MiB, one core's L2 on a current Xeon, so a chunk's slices and product
# stay cache-sized however large the stacked batch grows, while each slice
# GEMM stays large enough to run at BLAS speed. On a 2-vCPU Xeon, one float
# forward of the 64x128 model over 16 samples spent 143 ms in `matmul` at
# 2**18, 198 ms at 2**15 (up to 64 chunks per product) and 171 ms at 2**21,
# which spills L2. A chunk is never smaller than one row or matrix.
_BLOCK_ELEMENTS = 1 << 18

# Slices per operand; the products of slices s and t with s + t < _SLICES are kept.
_SLICES = 3


def _slice_bits(k):
    """Bits per slice for inner size k: the largest beta with k * 2**(2 * beta) <= 2**53."""
    return (53 - (k - 1).bit_length()) // 2


def _exponents(x, axis):
    """Per-line e with max |x| < 2**e along `axis` (0 for an all-zero line); rejects NaN/Inf."""
    amax = np.maximum(x.max(axis=axis, keepdims=True, initial=0.0),
                      -x.min(axis=axis, keepdims=True, initial=0.0))
    if not np.isfinite(amax).all():
        raise ValueError("matmul operands must be finite")
    return np.frexp(amax)[1]


def _slices(x, e, beta):
    """Integer-valued slices q_s, |q_s| < 2**beta, with x ~ 2**e * sum_s q_s * 2**(-(s+1)*beta).

    Scaling by a power of two and r - trunc(r) are exact; only an entry so
    far below its line's max that the scaling makes it subnormal loses bits,
    all far below the last slice. What the last slice truncates is below
    2**(e - _SLICES * beta) in magnitude.
    """
    r = np.ldexp(x, beta - e)
    qs = []
    for _ in range(_SLICES - 1):
        q = np.trunc(r)
        r -= q
        np.ldexp(r, beta, out=r)
        qs.append(q)
    qs.append(np.trunc(r, out=r))
    return qs


def _combine(qa, qb, beta, out, tmp):
    """Sum of 2**(-(s+t)*beta) * (qa[s] @ qb[t]) over s + t < _SLICES, into `out`.

    Every slice product is an exact BLAS GEMM: its partial sums are integers
    below k * 2**(2 * beta) <= 2**53. The levels s + t are added least
    significant first, each in increasing s, so the float rounding of the
    combination happens in one fixed order.
    """
    for level in range(_SLICES - 1, -1, -1):
        for s in range(level + 1):
            if level == _SLICES - 1 and s == 0:
                np.matmul(qa[s], qb[level - s], out=out)
            else:
                np.matmul(qa[s], qb[level - s], out=tmp)
                out += tmp
        if level:
            np.ldexp(out, -beta, out=out)


def matmul(a, b):
    """Matrix product on exact BLAS GEMMs of fixed-width slices of its operands.

    Each row of `a` and each column of `b` is scaled by the power of two 2**-e
    that bounds its max |value|, then cut into 3 slices of
    beta = (53 - ceil(log2 k)) // 2 bits. The 6 slice products whose orders
    sum to at most 2 run as float64 BLAS GEMMs on integer values whose partial
    sums stay below 2**53, so each is exact at any BLAS blocking or thread
    count. They are combined least significant first in a fixed order, and
    2**(e_a + e_b - 2 * beta) is applied by one `ldexp` at the end, so a
    result that is in range is never lost to an intermediate overflow or
    underflow. Each output element therefore depends only on its own row of
    `a` and column of `b`: a stack equals its per-sample loop bit for bit,
    and results are bit-identical across runs and BLAS thread counts.

    Against the exact sum of the k products, each output is within
    2**-52 * |exact| + c * k * 2**(-3 * beta) * max|a_i.| * max|b_.j|. The
    dropped slice products and the truncated residuals give c <= 12 in the
    worst case, and rounding the combination adds at most a few more when
    2 * beta is close to 53; the tests hold c = 8, which is 6e-17 of
    max|a_i.| * max|b_.j| at k = 512 and 9e-19 at k = 64.

    An all-zero row or column gives exact zeros, a subnormal row its product,
    and a result beyond the float64 range inf, as in `np.matmul`. Non-finite
    operands raise ValueError: no power-of-two scale bounds an infinite or
    NaN row. Leading axes broadcast as in `np.matmul`.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of ndim >= 2, got {a.ndim} and {b.ndim}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    (m, k), n = a.shape[-2:], b.shape[-1]
    batched = b.ndim > 2
    if not batched:
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
    beta = _slice_bits(k)
    e_a = _exponents(lhs, -1)
    e_b = _exponents(rhs, -2)
    e_out = e_a - 2 * beta
    if not batched:
        qb = _slices(rhs, e_b, beta)
    out = np.empty(lhs.shape[:-1] + (n,))
    # working floats per unit of the flattened batch: the slices made in the
    # loop, then the product buffer and the exponent sum of the final ldexp
    sliced = math.prod(lhs.shape[1:]) + (math.prod(rhs.shape[1:]) if batched else 0)
    unit = _SLICES * sliced + 2 * math.prod(out.shape[1:])
    step = max(1, _BLOCK_ELEMENTS // max(1, unit))
    tmp = np.empty((min(step, len(out)),) + out.shape[1:])
    for lo in range(0, len(out), step):
        hi = min(lo + step, len(out))
        acc = out[lo:hi]
        # the chunk's slices live only for the call, so two chunks never overlap
        _combine(_slices(lhs[lo:hi], e_a[lo:hi], beta),
                 _slices(rhs[lo:hi], e_b[lo:hi], beta) if batched else qb,
                 beta, acc, tmp[:hi - lo])
        np.ldexp(acc, e_out[lo:hi] + (e_b[lo:hi] if batched else e_b), out=acc)
    return out.reshape(shape)


# The thread-count functions of the scipy-openblas64 that numpy's wheels
# link; any other BLAS (MKL, Accelerate, a system OpenBLAS) is not driven,
# and stacks run serially.
_OPENBLAS_GET = "scipy_openblas_get_num_threads64_"
_OPENBLAS_SET = "scipy_openblas_set_num_threads64_"

# the thread count is process-wide, so one region holds it at a time
_BLAS_LOCK = threading.Lock()


@functools.cache
def _openblas():
    """(get, set) of numpy's scipy-openblas64 thread count, or None where numpy has none.

    The symbols are looked up on numpy's own extension module, whose handle
    searches the libraries it links.
    """
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = getattr(lib, _OPENBLAS_GET), getattr(lib, _OPENBLAS_SET)
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def single_threaded_blas():
    """Hold numpy's OpenBLAS at one thread for the body; yields whether it does.

    The previous count comes back on exit, also when the body raises. Where
    no OpenBLAS with a settable count is loaded, or another thread's region
    holds the count, the body runs with nothing changed and gets False.
    """
    handle = _openblas()
    if handle is None or not _BLAS_LOCK.acquire(blocking=False):
        yield False
        return
    get, put = handle
    before = get()
    try:
        put(1)
        yield True
    finally:
        put(before)
        _BLAS_LOCK.release()


def rowwise_softmax(x):
    """Softmax over the last axis, max-subtracted for overflow safety.

    Rows of the output are nonnegative and sum to 1 up to roundoff for any
    finite input, including rows with large magnitudes.
    """
    x = as_tensor(x)
    e = x - np.maximum.reduce(x, -1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, -1, keepdims=True)
    return e


def gelu(x):
    """x * Phi(x) with the exact Gaussian CDF, not the tanh approximation."""
    x = as_tensor(x)
    out = ndtr(x)
    out *= x
    return out
