"""A small pre-norm transformer encoder with quantization hooks.

The forward pass is deliberately plain: LayerNorm -> multi-head attention
-> residual, then LayerNorm -> MLP -> residual. Every matrix-multiplication
input (activation or weight) passes through exactly one hook that either
fake-quantizes it or leaves it alone; LayerNorm and Softmax always run in
float64. A `capture` dict collects the pre-hook tensors at each named site,
which is how calibration and evaluation observe the model. Every forward
function takes one (patches, dim) sample or an (n, patches, dim) stack; a
stack runs as one pass, and each of its samples comes out bit-identical to
running that sample alone.
"""

from dataclasses import dataclass, fields

import numpy as np

from .quantizers import QuantParams, fake_quantize
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
SITES = ACTIVATION_SITES + WEIGHT_SITES


@dataclass(frozen=True)
class ModelConfig:
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

    def to_json(self):
        return {
            "patches": self.patches, "dim": self.dim, "heads": self.heads,
            "head_dim": self.head_dim, "mlp_dim": self.mlp_dim,
            "blocks": self.blocks, "eps": self.eps,
        }

    @classmethod
    def from_json(cls, d):
        return cls(**{k: d[k] for k in
                      ("patches", "dim", "heads", "head_dim", "mlp_dim", "blocks", "eps")})


@dataclass
class BlockWeights:
    """Parameters of one encoder block.

    w_qkv columns are laid out [Q | K | V], each dim wide, head-major inside
    (head i owns columns i*head_dim:(i+1)*head_dim of its third).
    """

    gamma1: np.ndarray
    beta1: np.ndarray
    w_qkv: np.ndarray
    b_qkv: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray
    gamma2: np.ndarray
    beta2: np.ndarray
    w_1: np.ndarray
    b_1: np.ndarray
    w_2: np.ndarray
    b_2: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, as_tensor(getattr(self, f.name)))

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


@dataclass(frozen=True)
class QuantHooks:
    """Per-site quantizer parameters for one block; None means bypass."""

    ln1_out: QuantParams | None = None
    attn_q: QuantParams | None = None
    attn_k: QuantParams | None = None
    attn_a: QuantParams | None = None
    attn_v: QuantParams | None = None
    msa_proj_in: QuantParams | None = None
    ln2_out: QuantParams | None = None
    gelu_out: QuantParams | None = None
    w_qkv: QuantParams | None = None
    w_o: QuantParams | None = None
    w_1: QuantParams | None = None
    w_2: QuantParams | None = None


_BYPASS = QuantHooks()


def _apply(x, qp):
    return x if qp is None else fake_quantize(x, qp)


def _cap(capture, prefix, site, value):
    if capture is not None:
        capture[prefix + site] = value


def layernorm_forward(x, gamma, beta, eps=1e-5):
    """Row-wise normalization with population variance, then affine."""
    x = as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * as_tensor(gamma) + as_tensor(beta)


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
    hooks = hooks or _BYPASS
    x_ln = _tokens(x_ln, cfg)
    d = cfg.dim

    qkv = matmul(_apply(x_ln, hooks.ln1_out), _apply(w.w_qkv, hooks.w_qkv)) + w.b_qkv
    q, k, v = qkv[..., :d], qkv[..., d:2 * d], qkv[..., 2 * d:]
    _cap(capture, prefix, "attn_q", q)
    _cap(capture, prefix, "attn_k", k)
    _cap(capture, prefix, "attn_v", v)

    qh = _split_heads(_apply(q, hooks.attn_q), cfg)
    kh = _split_heads(_apply(k, hooks.attn_k), cfg)
    vh = _split_heads(_apply(v, hooks.attn_v), cfg)
    attn = rowwise_softmax(matmul(qh, kh.swapaxes(-1, -2)) / np.sqrt(float(cfg.head_dim)))
    _cap(capture, prefix, "attn_a", attn)
    heads = matmul(_apply(attn, hooks.attn_a), vh)

    # merge back: head i owns columns i*head_dim:(i+1)*head_dim again
    merged = heads.swapaxes(-3, -2).reshape(x_ln.shape)
    _cap(capture, prefix, "msa_proj_in", merged)
    out = matmul(_apply(merged, hooks.msa_proj_in), _apply(w.w_o, hooks.w_o))
    return out + w.b_o


def mlp_forward(y_ln, w, cfg, hooks=None, capture=None, prefix=""):
    """Two-layer MLP with exact-CDF GELU on already-normalized tokens."""
    hooks = hooks or _BYPASS
    y_ln = _tokens(y_ln, cfg)
    hidden = gelu(matmul(_apply(y_ln, hooks.ln2_out), _apply(w.w_1, hooks.w_1)) + w.b_1)
    _cap(capture, prefix, "gelu_out", hidden)
    return matmul(_apply(hidden, hooks.gelu_out), _apply(w.w_2, hooks.w_2)) + w.b_2


def block_forward(x, w, cfg, hooks=None, capture=None, prefix=""):
    """One encoder block: x + MSA(LN(x)), then y + MLP(LN(y))."""
    x = _tokens(x, cfg)
    x1 = layernorm_forward(x, w.gamma1, w.beta1, cfg.eps)
    _cap(capture, prefix, "ln1_out", x1)
    y = msa_forward(x1, w, cfg, hooks, capture, prefix) + x
    y1 = layernorm_forward(y, w.gamma2, w.beta2, cfg.eps)
    _cap(capture, prefix, "ln2_out", y1)
    return mlp_forward(y1, w, cfg, hooks, capture, prefix) + y


def model_forward(x, blocks, cfg, hooks=None, capture=None):
    """Run all blocks on one (patches, dim) sample or an (n, patches, dim) stack.

    `hooks` is one QuantHooks per block, or None for all-bypass. Captures keep
    the input's leading axis: a stack captures (n, patches, dim) per site and
    (n, heads, patches, patches) at attn_a.
    """
    if hooks is not None and len(hooks) != len(blocks):
        raise ShapeError(f"{len(hooks)} hook sets for {len(blocks)} blocks")
    out = as_tensor(x)
    for i, w in enumerate(blocks):
        h = hooks[i] if hooks is not None else None
        out = block_forward(out, w, cfg, hooks=h, capture=capture, prefix=f"block{i}.")
    return out


def site_names(cfg):
    """All hook-site names of the model, block-qualified, forward order."""
    return [f"block{i}.{s}" for i in range(cfg.blocks) for s in SITES]
