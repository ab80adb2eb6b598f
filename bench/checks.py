"""Correctness checks run on every timed repeat, outside the timed regions.

Each check returns (name, ok, detail). The benchmark counts them into
`attempted` and `failed`; a run is correct only if none fails.
"""

import hashlib

import numpy as np
from scipy.special import erf

import scalefold as sf

# Largest relative difference allowed between scalefold's float forward and
# the numpy reference below. The pinned-order matmul and BLAS `@` sum in
# different orders; the measured maximum is about 1e-15 on both model shapes.
REFERENCE_RTOL = 1e-12


def _ref_layernorm(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def _ref_attention(x, w, cfg):
    p, d, h, dh = cfg.patches, cfg.dim, cfg.heads, cfg.head_dim
    qkv = x @ w.w_qkv + w.b_qkv
    q, k, v = (qkv[:, j * d:(j + 1) * d].reshape(p, h, dh).transpose(1, 0, 2)
               for j in range(3))
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    heads = (attn @ v).transpose(1, 0, 2).reshape(p, d)
    return heads @ w.w_o + w.b_o


def _ref_mlp(x, w):
    hidden = x @ w.w_1 + w.b_1
    hidden = 0.5 * hidden * (1.0 + erf(hidden / np.sqrt(2.0)))
    return hidden @ w.w_2 + w.b_2


def reference_forward(x, blocks, cfg):
    """The float encoder written independently with BLAS `@` and erf GELU."""
    for w in blocks:
        x = x + _ref_attention(_ref_layernorm(x, w.gamma1, w.beta1, cfg.eps), w, cfg)
        x = x + _ref_mlp(_ref_layernorm(x, w.gamma2, w.beta2, cfg.eps), w)
    return x


def check_reference_forward(x, blocks, cfg):
    """Float `model_forward` agrees with `reference_forward` within REFERENCE_RTOL."""
    got = sf.model_forward(x, blocks, cfg)
    want = reference_forward(x, blocks, cfg)
    rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return ("float forward matches the numpy reference", rel <= REFERENCE_RTOL,
            f"max relative difference {rel:.3e} (limit {REFERENCE_RTOL:.0e})")


def check_shift_path(x, blocks, cfg, sites, hooks):
    """The shift dequantizer equals the log-sqrt2 one bit for bit.

    The codes are the artifact's own: the quantized model's post-Softmax
    attention on a held-out sample, quantized with each block's attn_a site.
    """
    cap = {}
    sf.model_forward(x, blocks, cfg, hooks=hooks, capture=cap)
    out = []
    for i in range(cfg.blocks):
        qp = sites[f"block{i}.attn_a"]
        s = float(qp.scale[0])
        codes = sf.logsqrt2_quantize(cap[f"block{i}.attn_a"], s, qp.bits)
        want = sf.logsqrt2_dequantize(codes, s, qp.bits)
        got = sf.logsqrt2_dequantize_shift(codes, s, qp.bits)
        same = got.shape == want.shape and np.array_equal(
            got.view(np.uint64), want.view(np.uint64))
        out.append((f"block{i}.attn_a shift dequantizer is exact", same,
                    f"{codes.size} codes, {qp.bits} bits"))
    return out


def check_code_equality(rate):
    """The fold keeps every integer code: EvalReport.code_equality_rate is exactly 1."""
    return ("code equality rate is 1.0", rate == 1.0, f"rate {rate!r}")


def check_same_artifact(data, first_digest):
    """The quantized container's bytes hash to the first repeat's sha256."""
    digest = hashlib.sha256(data).hexdigest()
    return ("quantized container bytes repeat", digest == first_digest, f"sha256 {digest}")
