"""A small pre-norm transformer encoder with quantization hooks.

The forward pass is deliberately plain: LayerNorm -> multi-head attention
-> residual, then LayerNorm -> MLP -> residual. Every matrix-multiplication
input (activation or weight) passes through exactly one hook that quantizes
it or leaves it alone; LayerNorm, Softmax and GELU always run in float64.
The hooks are the flat site table {"block{i}.{site}": QuantParams} that the
pipeline fits and the container ships, keyed exactly as `capture` is; a name
the table lacks is bypassed.
A product whose two hooks are uniform affine with scales that factor out of
the inner sum (a layer-wise activation times a layer-wise or per-output-
channel weight) runs on the integer codes as exact float32 BLAS GEMMs over
chunks of the inner axis, and A @ V with a log-sqrt2 A runs as exact
float64 GEMMs, through the parity split of A's codes into power-of-two
matrices. The four attention sites act on the heads after
their split, so each takes a one-scale hook only. Any other product (a
per-channel activation hook) fake-quantizes its operands and sums them with
the float `tensors.matmul`, exact slice GEMMs combined in a fixed order,
which also runs every product of the unhooked float forward.
With no sink attached, a one-scale uniform `gelu_out` hook takes its codes
straight from the pre-GELU tensor (`quantizers.gelu_centred`): the tanh
form of GELU, with the exact CDF only next to a code boundary, gives the
exact GELU's codes bit for bit. A forward with a sink computes the exact
GELU, since the sink receives it.
A block loaded from a quantized container holds its weight matrices as
`CodeBlock`s, the shipped codes centred once at load, and each weight
product multiplies those codes with the block's own params, not the table's
entry at its name; no weight is quantized in the forward.
`capture` is a sink for the pre-hook tensor at each named site: the forward
runs `capture[name] = tensor` once per site, as it reaches the site, and
never reads the sink back. A plain dict therefore keeps every site of the
pass; calibration and evaluation instead pass an observer that fits or
measures each site on arrival and keeps nothing, so neither holds the
captures of a whole stack. The forward goes on to use each tensor, so a
sink must not modify it. Both entries, `model_forward` and `capture_forward`,
take one (patches, dim) sample or an (n, patches, dim) stack; a stack runs
as one pass, and each of its samples comes out bit-identical to running
that sample alone. `model_forward` runs a stack of two or more as one
such pass per shard of samples, one shard per CPU up to a fixed cap, with
the same bits and the same sink contract (see there). `capture_forward` is
the unhooked forward cut short after its last site, the last block's
`gelu_out`, on the same dispatch: calibration reads nothing past it.
"""

import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .quantizers import (SQRT2, QuantParams, Scheme, centre_codes, fake_quantize,
                         gelu_centred, logsqrt2_quantize, param_view, uniform_centred)
from .tensors import (ShapeError, as_tensor, gelu, matmul, rowwise_softmax,
                      single_threaded_blas)

# Activation sites, in forward order. Each is the input of one matmul:
#   ln1_out      post-LayerNorm tokens entering the QKV projection
#   attn_q/k     the two operands of Q @ K^T (quantized separately)
#   attn_a       post-Softmax attention, the log-sqrt2 site
#   attn_v       the V operand of A @ V
#   msa_proj_in  concatenated heads entering the output projection
#   ln2_out      post-LayerNorm tokens entering the first MLP matmul
#   gelu_out     post-GELU tokens entering the second MLP matmul
ACTIVATION_SITES = (
    "ln1_out", "attn_q", "attn_k", "attn_a", "attn_v",
    "msa_proj_in", "ln2_out", "gelu_out",
)
WEIGHT_SITES = ("w_qkv", "w_o", "w_1", "w_2")


class JsonFields:
    """JSON form of a flat dataclass of int and float fields: exactly its fields, by name."""

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, d):
        """Inverse of `to_json`; wrong keys or a value of the wrong type raise ValueError.

        A float field takes any real number, an int field only an integer;
        booleans are neither.
        """
        expected = sorted(f.name for f in fields(cls))
        got = sorted(d) if isinstance(d, dict) else type(d).__name__
        if got != expected:
            raise ValueError(f"{cls.__name__} expects keys {expected}, got {got}")
        for f in fields(cls):
            kind = numbers.Real if f.type is float else numbers.Integral
            value = d[f.name]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{cls.__name__}.{f.name} must be {f.type.__name__}, "
                                 f"got {type(value).__name__} {value!r}")
        return cls(**d)


@dataclass(frozen=True)
class ModelConfig(JsonFields):
    """Dimensions of the toy encoder."""

    patches: int = 16
    dim: int = 64
    heads: int = 4
    head_dim: int = 16
    mlp_dim: int = 256
    blocks: int = 2
    eps: float = 1e-5

    def __post_init__(self):
        for name in ("patches", "dim", "heads", "head_dim", "mlp_dim", "blocks"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")
        if self.heads * self.head_dim != self.dim:
            raise ValueError(
                f"heads * head_dim must equal dim: {self.heads} * {self.head_dim} != {self.dim}"
            )
        if not self.eps > 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True, eq=False)
class CodeBlock:
    """A weight matrix held as its shipped uniform affine codes, centred once.

    `centred` is c - z as integer-valued float32, which holds every centred
    code of at most 8 bits exactly and which the float32 GEMMs of
    `_centred_matmul` multiply as it is; `params` is the weight site's
    quantizer. `dequantize` widens the codes to float64 before it scales
    them, so it gives s * (c - z), the bits `fake_quantize` gives on the
    weight the codes were quantized from.
    """

    centred: np.ndarray
    params: QuantParams

    @classmethod
    def from_codes(cls, codes, qp):
        """Centre codes on qp's zero points; see `quantizers.centre_codes` for what raises."""
        return cls(centre_codes(codes, qp).astype(np.float32), qp)

    @property
    def shape(self):
        return self.centred.shape

    def dequantize(self):
        out = self.centred.astype(np.float64)
        out *= param_view(self.params.scale, out)
        return out


@dataclass
class BlockWeights:
    """Parameters of one encoder block.

    w_qkv columns are laid out [Q | K | V], each dim wide, head-major inside
    (head i owns columns i*head_dim:(i+1)*head_dim of its third). The four
    weight matrices are float arrays, or `CodeBlock`s in a block loaded from
    a quantized container.
    """

    gamma1: np.ndarray
    beta1: np.ndarray
    w_qkv: np.ndarray | CodeBlock
    b_qkv: np.ndarray
    w_o: np.ndarray | CodeBlock
    b_o: np.ndarray
    gamma2: np.ndarray
    beta2: np.ndarray
    w_1: np.ndarray | CodeBlock
    b_1: np.ndarray
    w_2: np.ndarray | CodeBlock
    b_2: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, CodeBlock):
                setattr(self, f.name, as_tensor(value))

    def validate(self, cfg):
        d, f = cfg.dim, cfg.mlp_dim
        expect = {
            "gamma1": (d,), "beta1": (d,), "w_qkv": (d, 3 * d), "b_qkv": (3 * d,),
            "w_o": (d, d), "b_o": (d,), "gamma2": (d,), "beta2": (d,),
            "w_1": (d, f), "b_1": (f,), "w_2": (f, d), "b_2": (d,),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeError(f"{name} has shape {got}, expected {shape}")
        return self


def _apply(x, qp):
    if isinstance(x, CodeBlock):
        return x.dequantize()
    return x if qp is None else fake_quantize(x, qp)


def _centred(w, qp):
    return w.centred if isinstance(w, CodeBlock) else uniform_centred(w, qp)


# Elements of A per chunk of the log-sqrt2 A @ V: at about 50 working bytes
# each, 2**15 of them keep a chunk near `tensors.matmul`'s 2 MiB budget.
_LOG_CHUNK = 1 << 15


def _bands(e, odd, width):
    """(band, even mask, odd mask) of each band that holds a code, in band order."""
    if e.max(initial=0) < width:
        # every code is in band 0, where the parity masks are the band's masks
        yield 0, ~odd, odd
        return
    band = e // width
    even = ~odd
    for b in range(int(band.max()) + 1):
        inband = band == b
        if inband.any():
            yield b, inband & even, inband & odd


def _log_sqrt2_bands(a, qa, vc, v_qmax):
    """Half-power codes of `a` times the centred integer codes `vc`, unscaled.

    With c = logsqrt2_quantize(a), e = (c + 1) >> 1 and p = c & 1, the
    dequantized operand is s * 2**-e * (sqrt(2) if p else 1): an even and an
    odd power-of-two matrix. Exponents run in fixed bands of `width`, set by
    the inner size k and V's bit width only, so that in band [lo, hi] the
    entries 2**(hi - e) keep every partial sum an integer below
    k * v_qmax * 2**(width - 1) <= 2**51: in each band the even and the odd
    matrix are exact GEMMs, one stack of two, combined as
    ldexp(R_even + sqrt(2) * R_odd, -hi) band by band in order. A band that
    no code falls in adds exactly zero, so it is skipped; a stack therefore
    sums the same bands as each of its samples alone, bit for bit. When every
    exponent is below `width` (always at 4 bits, and at 8 bits for attention
    with no entry below about 2**-width of the scale), band 0 is the only band
    and its masks are the parity's own. The bands stay float64: a float32
    band would be 10 exponents wide at 8 bits with k = 64, and 3.1% of the
    64x128 model's block-0 attention codes on held-out data (seed 5) lie past
    that, so the products would run on two bands instead of one.
    """
    codes = logsqrt2_quantize(a, qa.scale[0], qa.bits)
    odd = (codes & 1).astype(bool)
    e = codes           # (c + 1) >> 1, in the codes' own buffer
    e += 1
    e >>= 1
    k = a.shape[-1]
    width = 52 - (k * v_qmax - 1).bit_length()      # 52 - ceil(log2(k * v_qmax))
    acc = np.zeros(a.shape[:-1] + vc.shape[-1:])
    split = np.empty((2,) + a.shape)                 # the even half, then the odd one
    for b, even_in, odd_in in _bands(e, odd, width):
        hi = (b + 1) * width - 1
        # 2**(hi - e) where the code is in the band and of the half's parity, else 0
        shift = hi - e
        np.ldexp(even_in, shift, out=split[0], dtype=np.float64)
        np.ldexp(odd_in, shift, out=split[1], dtype=np.float64)
        r_even, r_odd = split @ vc
        r_odd *= SQRT2
        r_odd += r_even
        acc += np.ldexp(r_odd, -hi, out=r_odd)
    return acc


def _log_sqrt2_matmul(a, qa, vc, v_qmax):
    """`_log_sqrt2_bands` over chunks of at most `_LOG_CHUNK` elements of `a`.

    The chunks split the flattened leading (sample, head) axes, so the
    codes, bands and split operand, about 50 bytes per element of `a`, never
    exist for a whole stack at once. Each output row depends on its own
    matrix only, so the chunks give the unchunked product bit for bit. An
    `a` that fits in one chunk, such as one sample, runs as it is.
    """
    if a.size <= _LOG_CHUNK:
        return _log_sqrt2_bands(a, qa, vc, v_qmax)
    (rows, k), m = a.shape[-2:], vc.shape[-1]
    batch = np.broadcast_shapes(a.shape[:-2], vc.shape[:-2])
    a3 = np.broadcast_to(a, batch + (rows, k)).reshape(-1, rows, k)
    v3 = np.broadcast_to(vc, batch + (k, m)).reshape(-1, k, m)
    out = np.empty((len(a3), rows, m))
    step = max(1, _LOG_CHUNK // (rows * k))
    for lo in range(0, len(a3), step):
        out[lo:lo + step] = _log_sqrt2_bands(a3[lo:lo + step], qa, v3[lo:lo + step], v_qmax)
    return out.reshape(batch + (rows, m))


def _qmatmul(x, qx, w, qw):
    """`x @ w` with x through hook `qx` and w through `qw`, or a `CodeBlock` w through its own.

    A one-scale uniform `qx` hands x's centred codes to `_centred_matmul`.
    When `qx` is log-sqrt2 instead (A of A @ V) and w's params are uniform,
    the product runs on the parity split of A's codes as exact integer GEMMs
    (`_log_sqrt2_matmul`). Every other product (no hook, a per-channel
    activation) fake-quantizes both operands and runs the float
    `tensors.matmul`, which is bit-identical at any thread count.
    """
    if _uniform(qx) and qx.scale.size == 1:
        return _centred_matmul(uniform_centred(x, qx), qx, w, qw)
    if isinstance(w, CodeBlock):
        qw = w.params
    if qx is not None and qx.scheme is Scheme.LOG_SQRT2 and _uniform(qw):
        prod = _log_sqrt2_matmul(x, qx, _centred(w, qw), qw.qmax)
        prod *= qx.scale * qw.scale
        return prod
    return matmul(_apply(x, qx), _apply(w, qw))


def _uniform(qp):
    return qp is not None and qp.scheme is Scheme.UNIFORM


# float32 holds every integer up to 2**24, so a float32 GEMM of centred codes
# is exact while k * qmax_x * qmax_w, its largest partial sum, stays at or
# below this: k <= 258 at 8/8 bits, k <= 74565 at 4/4.
_F32_EXACT = 1 << 24


def _centred_matmul(xc, qx, w, qw):
    """`x^ @ w` from the centred codes xc = c_x - z_x of x under one-scale uniform `qx`.

    When w's params (a `CodeBlock`'s own, else `qw`) are uniform affine with
    one scale or one per output column, both scales leave the inner sum:

        x^ @ w^ = ((c_x - z_x) @ (c_w - z_w)) * (s_x * s_w)

    The centred codes are integers with |c - z| <= qmax, so each product of
    two is at most qx.qmax * qw.qmax in magnitude. Both operands are cast to
    float32 (xc's float64 buffer is dropped there), and the inner axis runs
    in chunks of at most `_F32_EXACT // (qx.qmax * qw.qmax)` entries: every
    partial sum of a chunk's float32 BLAS GEMM is then an integer of at most
    2**24, so each chunk is exact, at any blocking or thread count. Each
    chunk's result is widened to float64 and the chunks are added there,
    exactly too, before the scales are applied: the output is the exact
    integer product scaled, bit for bit. A stack times one weight matrix runs
    as (rows, k) GEMMs. Otherwise x^ = s_x * xc, the bits of `fake_quantize`,
    meets w through `qw` in the float `tensors.matmul`.
    """
    if isinstance(w, CodeBlock):
        qw = w.params
    if not _uniform(qw):
        xc *= qx.scale[0]
        return matmul(xc, _apply(w, qw))
    wc = _centred(w, qw).astype(np.float32, copy=False)
    shape = xc.shape[:-1] + wc.shape[-1:]
    k = xc.shape[-1]
    xc = xc.astype(np.float32)
    if wc.ndim == 2:
        xc = xc.reshape(-1, k)
    step = _F32_EXACT // (qx.qmax * qw.qmax)
    prod = np.matmul(xc[..., :step], wc[..., :step, :]).astype(np.float64)
    for lo in range(step, k, step):
        prod += np.matmul(xc[..., lo:lo + step], wc[..., lo:lo + step, :])
    prod = prod.reshape(shape)
    prod *= qx.scale * qw.scale
    return prod


def _cap(capture, prefix, site, value):
    if capture is not None:
        capture[prefix + site] = value


def _hook_at(hooks, prefix):
    """site -> the table's params at `prefix + site`, None (bypass) where it has none."""
    hooks = hooks or {}
    return lambda site: hooks.get(prefix + site)


def layernorm_forward(x, gamma, beta, eps=1e-5):
    """Row-wise normalization with population variance, then affine.

    The row statistics are `x.mean` and `x.var` bit for bit, from the same
    numpy reductions in the same order, but the output is the only full-size
    buffer: x is centred into it, squared there and summed for the variance,
    then centred into it again and normalized in place.
    """
    x = as_tensor(x)
    n = x.shape[-1]
    mu = np.add.reduce(x, -1, keepdims=True)
    mu /= n
    y = np.subtract(x, mu)
    np.square(y, out=y)
    var = np.add.reduce(y, -1, keepdims=True)
    var /= n
    np.subtract(x, mu, out=y)
    var += eps
    y /= np.sqrt(var, out=var)
    y *= as_tensor(gamma)
    y += as_tensor(beta)
    return y


def _tokens(x, cfg):
    x = as_tensor(x)
    if x.ndim not in (2, 3) or x.shape[-2:] != (cfg.patches, cfg.dim):
        raise ShapeError(
            f"expected ({cfg.patches}, {cfg.dim}) tokens or a stack of them, got {x.shape}")
    return x


def _split_heads(t, cfg):
    # (..., patches, dim) -> (..., heads, patches, head_dim), head-major columns
    return t.reshape(t.shape[:-1] + (cfg.heads, cfg.head_dim)).swapaxes(-3, -2)


def _msa(x_ln, w, cfg, hooks=None, capture=None, prefix=""):
    """Multi-head self-attention on already-normalized tokens, all heads at once."""
    hook = _hook_at(hooks, prefix)
    d = cfg.dim

    qkv = _qmatmul(x_ln, hook("ln1_out"), w.w_qkv, hook("w_qkv"))
    qkv += w.b_qkv
    q, k, v = qkv[..., :d], qkv[..., d:2 * d], qkv[..., 2 * d:]
    _cap(capture, prefix, "attn_q", q)
    _cap(capture, prefix, "attn_k", k)
    _cap(capture, prefix, "attn_v", v)

    scores = _qmatmul(_split_heads(q, cfg), hook("attn_q"),
                      _split_heads(k, cfg).swapaxes(-1, -2), hook("attn_k"))
    scores /= np.sqrt(float(cfg.head_dim))
    attn = rowwise_softmax(scores)
    _cap(capture, prefix, "attn_a", attn)
    heads = _qmatmul(attn, hook("attn_a"), _split_heads(v, cfg), hook("attn_v"))

    # merge back: head i owns columns i*head_dim:(i+1)*head_dim again
    merged = heads.swapaxes(-3, -2).reshape(x_ln.shape)
    _cap(capture, prefix, "msa_proj_in", merged)
    out = _qmatmul(merged, hook("msa_proj_in"), w.w_o, hook("w_o"))
    out += w.b_o
    return out


def _mlp(y_ln, w, cfg, hooks=None, capture=None, prefix="", stop=False):
    """Two-layer MLP with exact-CDF GELU on already-normalized tokens.

    With no sink and a one-scale uniform `gelu_out` hook, the float GELU is
    never formed: `gelu_centred` gives its codes straight from the pre-GELU
    tensor, the bits `uniform_centred(gelu(h))` gives. With `stop`, the
    steps end at the gelu_out capture and return None.
    """
    hook = _hook_at(hooks, prefix)
    h = _qmatmul(y_ln, hook("ln2_out"), w.w_1, hook("w_1"))
    h += w.b_1
    qg = hook("gelu_out")
    if capture is None and _uniform(qg) and qg.scale.size == 1:
        out = _centred_matmul(gelu_centred(h, qg), qg, w.w_2, hook("w_2"))
    else:
        hidden = gelu(h)
        del h           # the pre-GELU buffer must not live through the capture
        _cap(capture, prefix, "gelu_out", hidden)
        if stop:
            return None
        out = _qmatmul(hidden, qg, w.w_2, hook("w_2"))
    out += w.b_2
    return out


def _block(x, w, cfg, hooks=None, capture=None, prefix="", stop=False):
    """One encoder block: x + MSA(LN(x)), then y + MLP(LN(y)).

    Hooks are looked up, and captures stored, at `prefix + site`. With
    `stop`, the block ends at the gelu_out capture and returns None.
    """
    x1 = layernorm_forward(x, w.gamma1, w.beta1, cfg.eps)
    _cap(capture, prefix, "ln1_out", x1)
    y = _msa(x1, w, cfg, hooks, capture, prefix)
    y += x
    y1 = layernorm_forward(y, w.gamma2, w.beta2, cfg.eps)
    _cap(capture, prefix, "ln2_out", y1)
    out = _mlp(y1, w, cfg, hooks, capture, prefix, stop)
    if out is not None:
        out += y
    return out


def _forward(x, blocks, cfg, hooks, capture, stop):
    """All blocks on x; with `stop`, the pass ends at the last block's gelu_out capture.

    Nothing after that site reaches the sink, so a stopped pass skips the
    last block's output product, its bias and its residual, and returns None.
    """
    last = len(blocks) - 1
    for i, w in enumerate(blocks):
        x = _block(x, w, cfg, hooks, capture, f"block{i}.", stop and i == last)
    return x


# Shards of one stack that run at once. Each holds its own `tensors.matmul`
# chunk and weight slices, so the working set grows by about 3.5 MB per
# shard on the 64x128 model: evaluating it on 16 held-out samples peaked
# (tracemalloc) at 20.1 MB serially, 22.1 MB on 2 shards, 23.5 on 3, 27.1 on
# 4 and 49.0 on 16, against 25.2 MB for the stack's captures. Two is also
# the only count whose speed has been measured (on a 2-vCPU Xeon).
_MAX_SHARDS = 2


def _usable_cpus():
    """CPUs in the process's affinity mask, or all of them where the platform has none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shard_count(x):
    """Shards for tokens `x`: one per usable CPU, at most one per sample and `_MAX_SHARDS`."""
    if x.ndim == 2 or len(x) < 2:
        return 1            # one sample, or an empty stack
    return min(len(x), _MAX_SHARDS, _usable_cpus())


class _Rendezvous:
    """Where the shards of one forward hand each capture site to the caller's sink.

    Each shard leaves its part of the site and waits; once all are in, one
    thread joins the parts in shard order into the whole-stack tensor and
    hands it to the sink while the others still wait. So the sink gets each
    site once, in forward order, from one thread at a time, with the bits a
    serial forward captures, and no shard runs ahead of it. A shard that
    fails aborts the rendezvous, and the shards waiting at it or reaching it
    later raise BrokenBarrierError instead of waiting for ever.
    """

    def __init__(self, sink, shards):
        self._sink = sink
        self._name = None
        self._parts = [None] * shards
        self._barrier = threading.Barrier(shards, action=self._deliver)

    def _deliver(self):
        whole = np.concatenate(self._parts)
        self._parts = [None] * len(self._parts)
        self._sink[self._name] = whole

    def put(self, shard, name, part):
        self._name = name
        self._parts[shard] = part
        self._barrier.wait()

    def abort(self):
        self._barrier.abort()


class _ShardSink:
    """Shard `shard`'s capture sink: each site goes to the rendezvous."""

    def __init__(self, rendezvous, shard):
        self._rendezvous, self._shard = rendezvous, shard

    def __setitem__(self, name, part):
        self._rendezvous.put(self._shard, name, part)


def _sharded_forward(x, shards, blocks, cfg, hooks, capture, stop):
    """`_forward` on `shards` contiguous runs of samples at once, the first in this thread.

    Every shard is read back before anything is raised; the exception is the
    first, in shard order, that is not a shard's broken rendezvous. A
    stopped pass returns None.
    """
    parts = np.array_split(x, shards)
    meet = None if capture is None else _Rendezvous(capture, shards)

    def run(i):
        """(shard i's output, None), or (None, what it raised) after aborting the rendezvous."""
        try:
            return _forward(parts[i], blocks, cfg, hooks,
                            None if meet is None else _ShardSink(meet, i), stop), None
        except BaseException as exc:        # re-raised below, in shard order
            if meet is not None:
                meet.abort()
            return None, exc

    with ThreadPoolExecutor(shards - 1, thread_name_prefix="scalefold-shard") as pool:
        futures = [pool.submit(run, i) for i in range(1, shards)]
        outcomes = [run(0)] + [f.result() for f in futures]
    errors = [exc for _, exc in outcomes if exc is not None]
    if errors:
        raise next((e for e in errors if not isinstance(e, threading.BrokenBarrierError)),
                   errors[0])
    return None if stop else np.concatenate([out for out, _ in outcomes])


def model_forward(x, blocks, cfg, hooks=None, capture=None):
    """Run all blocks on one (patches, dim) sample or an (n, patches, dim) stack.

    `hooks` is the flat site table {"block{i}.{site}": QuantParams}, keyed as
    `capture` is; a name it lacks, or hooks None, bypasses that site.
    `capture`, if given, receives `capture[name] = tensor` once per site in
    forward order (see the module docstring). Captures keep the input's
    leading axis: a stack captures (n, patches, dim) per site and
    (n, heads, patches, patches) at attn_a.

    Tokens of any other shape raise ShapeError, and a `block{i}.attn_*` hook
    with more than one scale raises ValueError, both before any block runs.

    A stack of two or more samples runs as one contiguous shard of samples
    per CPU in the process's affinity mask, at most `_MAX_SHARDS` of them
    since each shard's working set runs at once, each shard a thread of its
    own (the caller's thread runs the first) with numpy's OpenBLAS held at
    one thread meanwhile (`tensors.single_threaded_blas`), so that each core
    runs every kernel of its shard. A sample's output depends on its own
    rows only, and every GEMM is exact at any BLAS thread count, so the
    output and every capture are bit-identical to the serial forward. The
    sink contract is the serial one: the shards meet at each site, where one
    thread hands the whole-stack tensor, joined from their parts, to
    `capture` while the others wait (see `_Rendezvous`); a shard's error is
    raised once every shard has stopped. Where BLAS's thread count cannot be
    set, or another thread's sharded forward is running, and for one
    sample, the forward runs serially in the caller's thread.
    """
    return _run(x, blocks, cfg, hooks, capture, stop=False)


def capture_forward(x, blocks, cfg, capture):
    """The unhooked float forward of x up to its last site, handing every site to `capture`.

    `capture` receives what `model_forward(x, blocks, cfg, capture=capture)`
    hands it, in the same order, with the same bits and on the same shards,
    but the pass ends at the last block's gelu_out capture: the last block's
    output product, which no site reads, is never computed. Returns None.
    """
    _run(x, blocks, cfg, None, capture, stop=True)


def _run(x, blocks, cfg, hooks, capture, stop):
    """Both entries' dispatch: every input check, then the stack's shards, else `_forward`."""
    x = _tokens(x, cfg)
    for i in range(len(blocks)):
        hook = _hook_at(hooks, f"block{i}.")
        # these hooks act on the split heads, where a scale per channel of dim has no axis
        for site in ("attn_q", "attn_k", "attn_a", "attn_v"):
            qp = hook(site)
            if qp is not None and qp.scale.size != 1:
                raise ValueError(f"block{i}.{site} holds {qp.scale.size} scales; an attention "
                                 "site is layer-wise")
    shards = _shard_count(x)
    if shards > 1:
        with single_threaded_blas() as held:
            if held:
                return _sharded_forward(x, shards, blocks, cfg, hooks, capture, stop)
    return _forward(x, blocks, cfg, hooks, capture, stop)
