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
channel weight) runs on the integer codes as an exact BLAS GEMM, and so does
A @ V with a log-sqrt2 A, through the parity split of A's codes into
power-of-two matrices. Any other product (a per-channel activation hook)
fake-quantizes its operands and sums them with the float `tensors.matmul`,
exact slice GEMMs combined in a fixed order, which also runs every product of
the unhooked float forward.
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
sink must not modify it. Every forward function
takes one (patches, dim) sample or an (n, patches, dim) stack; a stack runs
as one pass, and each of its samples comes out bit-identical to running
that sample alone.
"""

import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .quantizers import (SQRT2, QuantParams, Scheme, centre_codes, fake_quantize,
                         logsqrt2_quantize, param_view, parity_indicator, uniform_centred)
from .tensors import ShapeError, as_tensor, gelu, matmul, rowwise_softmax

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

    `centred` is c - z as integer-valued float64, which the integer GEMMs of
    `_qmatmul` multiply as it is; `params` is the weight site's quantizer.
    `dequantize` gives s * (c - z), the bits `fake_quantize` gives on the
    weight the codes were quantized from.
    """

    centred: np.ndarray
    params: QuantParams

    @classmethod
    def from_codes(cls, codes, qp):
        """Centre codes on qp's zero points; see `quantizers.centre_codes` for what raises."""
        return cls(centre_codes(codes, qp), qp)

    @property
    def shape(self):
        return self.centred.shape

    def dequantize(self):
        return param_view(self.params.scale, self.centred) * self.centred


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


def _same(t):
    return t


def _log_sqrt2_bands(a, qa, vc, v_qmax):
    """Half-power codes of `a` times the centred integer codes `vc`, unscaled.

    With c = logsqrt2_quantize(a), e = (c + 1) >> 1 and p = c & 1, the
    dequantized operand is s * 2**-e * (sqrt(2) if p else 1): an even and an
    odd power-of-two matrix. Exponents run in fixed bands of `width`, set by
    the inner size k and V's bit width only, so that in band [lo, hi] the
    entries 2**(hi - e) keep every partial sum an integer below
    k * v_qmax * 2**(width - 1) <= 2**51: each band is one exact GEMM of the
    even rows stacked over the odd rows, combined as
    ldexp(R_even + sqrt(2) * R_odd, -hi) band by band in order. A band that
    no code falls in adds exactly zero, so it is skipped; a stack therefore
    sums the same bands as each of its samples alone, bit for bit.
    """
    codes = logsqrt2_quantize(a, qa.scale[0], qa.bits)
    e = (codes + 1) >> 1
    odd = parity_indicator(codes).astype(bool)
    even = ~odd
    rows, k = a.shape[-2:]
    width = 52 - (k * v_qmax - 1).bit_length()      # 52 - ceil(log2(k * v_qmax))
    band = e // width
    acc = np.zeros(a.shape[:-1] + vc.shape[-1:])
    split = np.empty(a.shape[:-2] + (2 * rows, k))
    for b in range(int(band.max(initial=0)) + 1):
        inband = band == b
        if not inband.any():
            continue
        hi = (b + 1) * width - 1
        # 2**(hi - e) where the code is in the band and of the half's parity, else 0
        np.ldexp(inband & even, hi - e, out=split[..., :rows, :], dtype=np.float64)
        np.ldexp(inband & odd, hi - e, out=split[..., rows:, :], dtype=np.float64)
        r = split @ vc
        acc += np.ldexp(r[..., :rows, :] + SQRT2 * r[..., rows:, :], -hi)
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


def _qmatmul(x, qx, w, qw, lhs=_same, rhs=_same):
    """`x @ w` with x through hook `qx` and w through `qw`.

    `lhs` and `rhs` rearrange the hooked operands (the attention head split);
    hooks act on x and w as given. When both hooks are uniform affine, `qx`
    has one scale and `qw`'s scale is one value or, with no `rhs`, one per
    output column, both scales leave the inner sum:

        x^ @ w^ = ((c_x - z_x) @ (c_w - z_w)) * (s_x * s_w)

    The centred codes are integers with |c - z| <= 255 (QuantParams caps bits
    at 8), so every partial sum of the float64 BLAS product is an integer
    below k * 255**2, far under 2**53 for any inner size k that fits in
    memory: the GEMM is exact, and bit-identical at any blocking or thread
    count. A stack times one weight matrix runs as one (rows, k) GEMM. When
    `qx` is log-sqrt2 instead (A of A @ V) and `x` is not rearranged, the
    product runs on the parity split of A's codes, again as exact integer
    GEMMs (`_log_sqrt2_matmul`). Every other product (no hook, a per-channel
    activation) fake-quantizes both operands and runs the float
    `tensors.matmul`, which is also bit-identical at any thread count.

    `w` may be a `CodeBlock`, the shipped codes of a quantized container: it
    multiplies with its own params and `qw` is not read; its centred codes
    enter the integer GEMMs directly and the float route dequantizes them,
    so no weight is quantized here.
    """
    if isinstance(w, CodeBlock):
        qw = w.params
    w_int = qw is not None and qw.scheme is Scheme.UNIFORM and (qw.scale.size == 1 or rhs is _same)
    x_scheme = None if qx is None else qx.scheme
    if w_int and x_scheme is Scheme.UNIFORM and qx.scale.size == 1:
        xc, wc = lhs(uniform_centred(x, qx)), rhs(_centred(w, qw))
        if wc.ndim == 2:
            prod = (xc.reshape(-1, xc.shape[-1]) @ wc).reshape(xc.shape[:-1] + wc.shape[-1:])
        else:
            prod = xc @ wc
    elif w_int and x_scheme is Scheme.LOG_SQRT2 and lhs is _same:
        prod = _log_sqrt2_matmul(x, qx, rhs(_centred(w, qw)), qw.qmax)
    else:
        return matmul(lhs(_apply(x, qx)), rhs(_apply(w, qw)))
    return prod * (qx.scale * qw.scale)


def _cap(capture, prefix, site, value):
    if capture is not None:
        capture[prefix + site] = value


def _hook_at(hooks, prefix):
    """site -> the table's params at `prefix + site`, None (bypass) where it has none."""
    hooks = hooks or {}
    return lambda site: hooks.get(prefix + site)


def layernorm_forward(x, gamma, beta, eps=1e-5):
    """Row-wise normalization with population variance, then affine."""
    x = as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    y = x - mu
    y /= np.sqrt(var + eps)
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


def msa_forward(x_ln, w, cfg, hooks=None, capture=None, prefix=""):
    """Multi-head self-attention on already-normalized tokens, all heads at once."""
    hook = _hook_at(hooks, prefix)
    x_ln = _tokens(x_ln, cfg)
    d = cfg.dim

    qkv = _qmatmul(x_ln, hook("ln1_out"), w.w_qkv, hook("w_qkv")) + w.b_qkv
    q, k, v = qkv[..., :d], qkv[..., d:2 * d], qkv[..., 2 * d:]
    _cap(capture, prefix, "attn_q", q)
    _cap(capture, prefix, "attn_k", k)
    _cap(capture, prefix, "attn_v", v)

    def heads_of(t):
        return _split_heads(t, cfg)

    def keys_of(t):
        return _split_heads(t, cfg).swapaxes(-1, -2)

    scores = _qmatmul(q, hook("attn_q"), k, hook("attn_k"), heads_of, keys_of)
    attn = rowwise_softmax(scores / np.sqrt(float(cfg.head_dim)))
    _cap(capture, prefix, "attn_a", attn)
    heads = _qmatmul(attn, hook("attn_a"), v, hook("attn_v"), rhs=heads_of)

    # merge back: head i owns columns i*head_dim:(i+1)*head_dim again
    merged = heads.swapaxes(-3, -2).reshape(x_ln.shape)
    _cap(capture, prefix, "msa_proj_in", merged)
    out = _qmatmul(merged, hook("msa_proj_in"), w.w_o, hook("w_o"))
    return out + w.b_o


def mlp_forward(y_ln, w, cfg, hooks=None, capture=None, prefix=""):
    """Two-layer MLP with exact-CDF GELU on already-normalized tokens."""
    hook = _hook_at(hooks, prefix)
    y_ln = _tokens(y_ln, cfg)
    hidden = gelu(_qmatmul(y_ln, hook("ln2_out"), w.w_1, hook("w_1")) + w.b_1)
    _cap(capture, prefix, "gelu_out", hidden)
    return _qmatmul(hidden, hook("gelu_out"), w.w_2, hook("w_2")) + w.b_2


def block_forward(x, w, cfg, hooks=None, capture=None, prefix=""):
    """One encoder block: x + MSA(LN(x)), then y + MLP(LN(y)).

    Hooks are looked up, and captures stored, at `prefix + site`.
    """
    x = _tokens(x, cfg)
    x1 = layernorm_forward(x, w.gamma1, w.beta1, cfg.eps)
    _cap(capture, prefix, "ln1_out", x1)
    y = msa_forward(x1, w, cfg, hooks, capture, prefix) + x
    y1 = layernorm_forward(y, w.gamma2, w.beta2, cfg.eps)
    _cap(capture, prefix, "ln2_out", y1)
    return mlp_forward(y1, w, cfg, hooks, capture, prefix) + y


def model_forward(x, blocks, cfg, hooks=None, capture=None):
    """Run all blocks on one (patches, dim) sample or an (n, patches, dim) stack.

    `hooks` is the flat site table {"block{i}.{site}": QuantParams}, keyed as
    `capture` is; a name it lacks, or hooks None, bypasses that site.
    `capture`, if given, receives `capture[name] = tensor` once per site in
    forward order (see the module docstring). Captures keep the input's
    leading axis: a stack captures (n, patches, dim) per site and
    (n, heads, patches, patches) at attn_a.
    """
    out = as_tensor(x)
    for i, w in enumerate(blocks):
        out = block_forward(out, w, cfg, hooks=hooks, capture=capture, prefix=f"block{i}.")
    return out
