"""Toy encoder tests: forward-pass oracles, hook plumbing, reparam invariance.

The reference implementations here are written straight from the layer
formulas with einsum and numpy reductions, deliberately not sharing any code
with the library, so agreement is meaningful.
"""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import scalefold
from scalefold.model import (
    ACTIVATION_SITES,
    WEIGHT_SITES,
    BlockWeights,
    CodeBlock,
    ModelConfig,
    _block,
    _log_sqrt2_bands,
    _log_sqrt2_matmul,
    _mlp,
    _msa,
    _qmatmul,
    capture_forward,
    layernorm_forward,
    model_forward,
)
from scalefold.quantizers import (SQRT2, QuantParams, Scheme, fake_quantize,
                                  logsqrt2_quantize, uniform_dequantize, uniform_quantize)
from scalefold.reparam import reparameterize_layernorm_site
from scalefold.calibration import calibrate_tensor
from scalefold.container import ModelContainer, blocks_from_container, container_from_model
from scalefold.pipeline import (QuantizeConfig, calibrate_model, hooks_from_sites, load_sites,
                                quantize_model, reparameterize_model)
from scalefold.synth import SynthSpec, gen_activations, gen_model
from scalefold.tensors import ShapeError, gelu, matmul, rowwise_softmax


def small_cfg():
    return ModelConfig(patches=4, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=1)


def random_block(cfg, seed):
    rng = np.random.default_rng(seed)
    d, f = cfg.dim, cfg.mlp_dim
    return BlockWeights(
        gamma1=rng.uniform(0.5, 2.0, d), beta1=rng.normal(size=d),
        w_qkv=rng.normal(size=(d, 3 * d)) / np.sqrt(d), b_qkv=rng.normal(size=3 * d) * 0.02,
        w_o=rng.normal(size=(d, d)) / np.sqrt(d), b_o=rng.normal(size=d) * 0.02,
        gamma2=rng.uniform(0.5, 2.0, d), beta2=rng.normal(size=d),
        w_1=rng.normal(size=(d, f)) / np.sqrt(d), b_1=rng.normal(size=f) * 0.02,
        w_2=rng.normal(size=(f, d)) / np.sqrt(f), b_2=rng.normal(size=d) * 0.02,
    )


def reference_layernorm(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def reference_msa(x_ln, w, cfg):
    d, dh = cfg.dim, cfg.head_dim
    qkv = x_ln @ w.w_qkv + w.b_qkv
    q, k, v = np.split(qkv, 3, axis=1)
    outs = []
    for h in range(cfg.heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = np.einsum("nd,md->nm", q[:, sl], k[:, sl]) / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        outs.append(a @ v[:, sl])
    return np.concatenate(outs, axis=1) @ w.w_o + w.b_o


def reference_mlp(y_ln, w):
    from scipy.special import ndtr
    h = y_ln @ w.w_1 + w.b_1
    return (h * ndtr(h)) @ w.w_2 + w.b_2


def reference_block(x, w, cfg):
    y = reference_msa(reference_layernorm(x, w.gamma1, w.beta1, cfg.eps), w, cfg) + x
    return reference_mlp(reference_layernorm(y, w.gamma2, w.beta2, cfg.eps), w) + y


def fake_quant_forward(x, blocks, cfg, hooks):
    """The hooked encoder with every operand fake-quantized, summed by `tensors.matmul`.

    Each hook acts on its operand before the head split; the model's
    attention hooks have one scale and act after it, which gives the same
    codes. The LayerNorm, Softmax and GELU kernels are the library's, so the
    matmul route is the only difference.
    """
    def fq(t, qp):
        return t if qp is None else fake_quantize(t, qp)

    def heads(t):
        return t.reshape(t.shape[:-1] + (cfg.heads, cfg.head_dim)).swapaxes(-3, -2)

    for i, w in enumerate(blocks):
        h = {site: hooks.get(f"block{i}.{site}") for site in ACTIVATION_SITES + WEIGHT_SITES}
        x1 = layernorm_forward(x, w.gamma1, w.beta1, cfg.eps)
        qkv = matmul(fq(x1, h["ln1_out"]), fq(w.w_qkv, h["w_qkv"])) + w.b_qkv
        q, k, v = np.split(qkv, 3, axis=-1)
        scores = matmul(heads(fq(q, h["attn_q"])), heads(fq(k, h["attn_k"])).swapaxes(-1, -2))
        attn = rowwise_softmax(scores / np.sqrt(float(cfg.head_dim)))
        merged = matmul(fq(attn, h["attn_a"]), heads(fq(v, h["attn_v"]))).swapaxes(-3, -2)
        merged = merged.reshape(x.shape)
        y = matmul(fq(merged, h["msa_proj_in"]), fq(w.w_o, h["w_o"])) + w.b_o + x
        y1 = layernorm_forward(y, w.gamma2, w.beta2, cfg.eps)
        hidden = gelu(matmul(fq(y1, h["ln2_out"]), fq(w.w_1, h["w_1"])) + w.b_1)
        x = matmul(fq(hidden, h["gelu_out"]), fq(w.w_2, h["w_2"])) + w.b_2 + y
    return x


def fold_and_quantize(cfg, spec, bits):
    """(folded, quantized) containers of the synthetic model calibrated on 4 samples."""
    calib = gen_activations(cfg, spec, 4)
    calib_c = calibrate_model(container_from_model(cfg, gen_model(cfg, spec)), calib,
                              QuantizeConfig(bits_w=bits, bits_a=bits))
    rep_c = reparameterize_model(calib_c, calib)
    return rep_c, quantize_model(rep_c)




def model_hooks(*per_block):
    """The flat site table from one {site: params} dict per block."""
    return {f"block{i}.{site}": qp for i, h in enumerate(per_block) for site, qp in h.items()}


def layer_params(scale, zero, bits=4):
    return QuantParams(Scheme.UNIFORM, bits, scale=np.array([scale]),
                       zero_point=np.array([zero], dtype=np.int64))


def column_params(w, bits=4):
    """Per-output-channel min/max weight params, as the pipeline fits them."""
    return calibrate_tensor(w, bits, per_channel=True)


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        out = layernorm_forward(np.full((2, 4), 7.0), np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_unit_variance_row(self):
        out = layernorm_forward(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2), eps=0.0)
        np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-12)

    def test_beta_is_additive(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(3, 6))
        gamma = rng.uniform(0.5, 2.0, 6)
        base = layernorm_forward(x, gamma, np.zeros(6))
        shifted = layernorm_forward(x, gamma, np.full(6, 2.5))
        np.testing.assert_allclose(shifted, base + 2.5, atol=1e-12)

    def test_normalizes_in_one_buffer(self):
        """The out-of-place expression bit for bit, with the output its only full-size buffer."""
        rng = np.random.default_rng(65)
        x = rng.normal(size=(64, 4096)) * 3 + 1
        gamma, beta = rng.uniform(0.5, 2.0, 4096), rng.normal(size=4096)
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        tracemalloc.start()
        try:
            out = layernorm_forward(x, gamma, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, (x - mu) / np.sqrt(var + 1e-5) * gamma + beta)
        # row statistics and numpy's reduction buffers aside, nothing but the output
        assert peak <= 1.1 * out.nbytes

    def test_population_variance_oracle(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(5, 16)) * 3 + 1
        gamma = rng.uniform(0.5, 2.0, 16)
        beta = rng.normal(size=16)
        np.testing.assert_allclose(
            layernorm_forward(x, gamma, beta, eps=1e-5),
            reference_layernorm(x, gamma, beta, 1e-5), rtol=1e-12, atol=1e-12)


class TestMSA:
    def test_single_patch_attention_is_identity_on_v(self):
        """One patch means one attention score, so Softmax gives exactly 1.

        With W_qkv = [I | I | I] and W_o = I the output is V = x itself.
        """
        cfg = ModelConfig(patches=1, dim=4, heads=1, head_dim=4, mlp_dim=8, blocks=1)
        eye = np.eye(4)
        w = random_block(cfg, 0)
        w.w_qkv = np.concatenate([eye, eye, eye], axis=1)
        w.b_qkv = np.zeros(12)
        w.w_o = eye
        w.b_o = np.zeros(4)
        x = np.array([[0.3, -1.2, 2.0, 0.7]])
        np.testing.assert_allclose(_msa(x, w, cfg), x, rtol=1e-12)

    def test_uniform_attention_averages_values(self):
        """Zero Q/K weights flatten every attention row to 1/N."""
        cfg = small_cfg()
        w = random_block(cfg, 1)
        w.w_qkv = w.w_qkv.copy()
        w.w_qkv[:, :2 * cfg.dim] = 0.0
        w.b_qkv = np.zeros(3 * cfg.dim)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(cfg.patches, cfg.dim))
        v = x @ w.w_qkv[:, 2 * cfg.dim:]
        want = np.tile(v.mean(axis=0), (cfg.patches, 1)) @ w.w_o + w.b_o
        np.testing.assert_allclose(_msa(x, w, cfg), want, rtol=1e-10, atol=1e-12)

    def test_matches_reference_implementation(self):
        cfg = small_cfg()
        w = random_block(cfg, 3)
        x = np.random.default_rng(4).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_allclose(_msa(x, w, cfg),
                                   reference_msa(x, w, cfg), atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        cfg = small_cfg()
        w = random_block(cfg, 5)
        x = np.random.default_rng(6).normal(size=(cfg.patches, cfg.dim))
        caps = {}
        _msa(x, w, cfg, capture=caps)
        attn = caps["attn_a"]
        assert attn.shape == (cfg.heads, cfg.patches, cfg.patches)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_single_head_equals_full_width_head(self):
        """h=1 with D_h=D runs the same formula as the multi-head split."""
        cfg1 = ModelConfig(patches=4, dim=8, heads=1, head_dim=8, mlp_dim=16, blocks=1)
        w = random_block(cfg1, 7)
        x = np.random.default_rng(8).normal(size=(4, 8))
        np.testing.assert_allclose(_msa(x, w, cfg1),
                                   reference_msa(x, w, cfg1), atol=1e-12)


class TestMLP:
    def test_zero_input_zero_bias(self):
        cfg = small_cfg()
        w = random_block(cfg, 10)
        w.b_1 = np.zeros(cfg.mlp_dim)
        w.b_2 = np.zeros(cfg.dim)
        out = _mlp(np.zeros((cfg.patches, cfg.dim)), w, cfg)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_zero_w2_returns_bias(self):
        cfg = small_cfg()
        w = random_block(cfg, 11)
        w.w_2 = np.zeros((cfg.mlp_dim, cfg.dim))
        x = np.random.default_rng(12).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_allclose(_mlp(x, w, cfg),
                                   np.tile(w.b_2, (cfg.patches, 1)), atol=1e-15)

    def test_matches_reference(self):
        cfg = small_cfg()
        w = random_block(cfg, 13)
        x = np.random.default_rng(14).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_allclose(_mlp(x, w, cfg),
                                   reference_mlp(x, w), atol=1e-12)


class TestBlockForward:
    def test_zero_weights_residual_identity(self):
        cfg = small_cfg()
        d, f = cfg.dim, cfg.mlp_dim
        w = BlockWeights(
            gamma1=np.ones(d), beta1=np.zeros(d),
            w_qkv=np.zeros((d, 3 * d)), b_qkv=np.zeros(3 * d),
            w_o=np.zeros((d, d)), b_o=np.zeros(d),
            gamma2=np.ones(d), beta2=np.zeros(d),
            w_1=np.zeros((d, f)), b_1=np.zeros(f),
            w_2=np.zeros((f, d)), b_2=np.zeros(d),
        )
        x = np.random.default_rng(15).normal(size=(cfg.patches, d))
        np.testing.assert_array_equal(_block(x, w, cfg), x)

    def test_matches_reference_composition(self):
        cfg = small_cfg()
        w = random_block(cfg, 16)
        x = np.random.default_rng(17).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_allclose(_block(x, w, cfg),
                                   reference_block(x, w, cfg), atol=1e-12)

    def test_reparam_invariance(self):
        """Folding both LayerNorm sites leaves the block output unchanged.

        The affine adjustment makes LN emit (x' + s*r2)/r1 and the weight
        compensation cancels it, so under bypass hooks the forward agrees to
        float rounding.
        """
        cfg = small_cfg()
        w = random_block(cfg, 18)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(cfg.patches, cfg.dim))
        before = _block(x, w, cfg)

        caps = {}
        _block(x, w, cfg, capture=caps)
        site1 = reparameterize_layernorm_site(
            w.gamma1, w.beta1, w.w_qkv, w.b_qkv,
            calibrate_tensor(caps["ln1_out"], 4, per_channel=True))
        site2 = reparameterize_layernorm_site(
            w.gamma2, w.beta2, w.w_1, w.b_1,
            calibrate_tensor(caps["ln2_out"], 4, per_channel=True))
        w.gamma1, w.beta1, w.w_qkv, w.b_qkv = site1.gamma, site1.beta, site1.weight, site1.bias
        w.gamma2, w.beta2, w.w_1, w.b_1 = site2.gamma, site2.beta, site2.weight, site2.bias

        after = _block(x, w, cfg)
        denom = np.abs(before).max()
        assert np.abs(after - before).max() <= 1e-9 * denom


class TestHooks:
    def test_bypass_hooks_change_nothing(self):
        cfg = small_cfg()
        w = random_block(cfg, 20)
        x = np.random.default_rng(21).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_array_equal(_block(x, w, cfg),
                                      _block(x, w, cfg, hooks={}))

    def test_hook_locality(self):
        """A hook at one site must leave every upstream capture untouched."""
        cfg = small_cfg()
        w = random_block(cfg, 22)
        x = np.random.default_rng(23).normal(size=(cfg.patches, cfg.dim))
        clean = {}
        _block(x, w, cfg, capture=clean)

        qp = QuantParams(Scheme.UNIFORM, 4, scale=np.array([0.1]),
                         zero_point=np.array([8], dtype=np.int64))
        hooked = {}
        _block(x, w, cfg, hooks={"msa_proj_in": qp}, capture=hooked)
        upstream = ("ln1_out", "attn_q", "attn_k", "attn_v", "attn_a", "msa_proj_in")
        for site in upstream:
            np.testing.assert_array_equal(hooked[site], clean[site])
        assert not np.array_equal(hooked["ln2_out"], clean["ln2_out"])

    def test_hook_changes_output(self):
        cfg = small_cfg()
        w = random_block(cfg, 24)
        x = np.random.default_rng(25).normal(size=(cfg.patches, cfg.dim))
        qp = QuantParams(Scheme.UNIFORM, 2, scale=np.array([0.5]),
                         zero_point=np.array([2], dtype=np.int64))
        hooked = _block(x, w, cfg, hooks={"ln1_out": qp})
        assert not np.array_equal(hooked, _block(x, w, cfg))

    def test_quantization_preserves_shapes(self):
        cfg = small_cfg()
        w = random_block(cfg, 26)
        x = np.random.default_rng(27).normal(size=(cfg.patches, cfg.dim))
        qp4 = QuantParams(Scheme.UNIFORM, 4, scale=np.array([0.2]),
                          zero_point=np.array([7], dtype=np.int64))
        log_qp = QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([1.0]))
        hooks = {**{s: qp4 for s in ACTIVATION_SITES}, "attn_a": log_qp}
        out = _block(x, w, cfg, hooks=hooks)
        assert out.shape == (cfg.patches, cfg.dim)

    @pytest.mark.parametrize("patches", [8, 6])
    @pytest.mark.parametrize("site", ["attn_q", "attn_k", "attn_a", "attn_v"])
    def test_multi_scale_attention_hook_is_named(self, site, patches):
        """An attention site takes one scale; a hook with more raises ValueError naming it.

        The attention hooks act on the split heads, where a scale per channel
        has no axis to run along. With patches == dim a dim-long vector would
        broadcast over the wrong axis instead of failing. One sample and a
        sharded stack raise alike, and the same site with one scale runs.
        """
        cfg = ModelConfig(patches=patches, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=2)
        blocks = [random_block(cfg, 28 + i) for i in range(2)]
        x = np.random.default_rng(29).normal(size=(2, cfg.patches, cfg.dim))
        channels = cfg.patches if site == "attn_a" else cfg.dim
        chan = QuantParams(Scheme.UNIFORM, 4, scale=np.linspace(0.05, 0.4, channels),
                           zero_point=np.full(channels, 8, dtype=np.int64))
        model_forward(x, blocks, cfg, hooks=model_hooks({}, {site: layer_params(0.1, 8)}))
        for stack in (x, x[0]):
            with pytest.raises(ValueError, match=f"block1.{site} holds {channels} scales"):
                model_forward(stack, blocks, cfg, hooks=model_hooks({}, {site: chan}))


class TestModelForward:
    def test_capture_covers_all_sites(self):
        cfg = ModelConfig(patches=4, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=3)
        blocks = [random_block(cfg, 30 + i) for i in range(3)]
        x = np.random.default_rng(31).normal(size=(cfg.patches, cfg.dim))
        caps = {}
        model_forward(x, blocks, cfg, capture=caps)
        assert sorted(caps) == sorted(f"block{i}.{s}" for i in range(3)
                                      for s in ACTIVATION_SITES)

    def test_stack_equals_per_sample_loop(self):
        """One pass over an (n, patches, dim) stack is the per-sample loop, bit for bit.

        The first set is no hooks at all, the unhooked float forward on the
        slice kernel of `tensors.matmul`; the second holds a per-channel
        activation site and a log-sqrt2 site with no V hook, which fake-quantize
        into the same kernel; the third has layer-wise activations and
        per-output-channel weights at every site, so every product runs on
        the integer path; the fourth has an 8-bit log-sqrt2 A and a layer-wise V, so A @ V runs on
        the parity split, on sharpened attention whose codes reach past the
        first exponent band in some samples but not in others (constant
        tokens attend uniformly), exact zeros (the deepest code) included.
        Every captured site must match the stacked per-sample captures exactly.
        """
        cfg = ModelConfig(patches=4, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=2)
        blocks = [random_block(cfg, 40 + i) for i in range(2)]
        xs = np.random.default_rng(41).normal(size=(6, cfg.patches, cfg.dim))
        chan = QuantParams(Scheme.UNIFORM, 4, scale=np.linspace(0.1, 0.5, cfg.dim),
                           zero_point=np.arange(cfg.dim, dtype=np.int64))
        log_qp = QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([1.0]))
        mixed = model_hooks(*[{"ln1_out": chan, "attn_a": log_qp,
                               "gelu_out": layer_params(0.3, 8)}] * 2)
        acts = {s: layer_params(0.3, 8) for s in ACTIVATION_SITES}
        acts["attn_a"] = layer_params(1 / 15, 0)
        all_affine = model_hooks(*[{**acts, **{s: column_params(getattr(bw, s))
                                               for s in WEIGHT_SITES}} for bw in blocks])
        sharp = [random_block(cfg, 40 + i) for i in range(2)]
        for bw in sharp:
            bw.w_qkv = bw.w_qkv * 12
        xs_sharp = xs.copy()
        xs_sharp[::2] = np.arange(cfg.patches)[:, None]
        parity = model_hooks(*[{"attn_a": QuantParams(Scheme.LOG_SQRT2, 8, scale=np.array([1.0])),
                                "attn_v": layer_params(0.05, 128, bits=8)}] * 2)

        for hooks, bws, stack in ((None, blocks, xs), (mixed, blocks, xs),
                                  (all_affine, blocks, xs), (parity, sharp, xs_sharp)):
            caps = {}
            got = model_forward(stack, bws, cfg, hooks=hooks, capture=caps)
            singles = []
            for x in stack:
                cap = {}
                singles.append((model_forward(x, bws, cfg, hooks=hooks, capture=cap), cap))
            np.testing.assert_array_equal(got, np.stack([out for out, _ in singles]))
            assert sorted(caps) == sorted(singles[0][1])
            for key, val in caps.items():
                want = np.stack([cap[key] for _, cap in singles])
                assert val.shape == want.shape
                np.testing.assert_array_equal(val, want)
            assert caps["block0.attn_a"].shape == (6, cfg.heads, cfg.patches, cfg.patches)

        # the parity set's attention spans the bands as described
        width = 52 - (cfg.patches * 255 - 1).bit_length()
        a = caps["block0.attn_a"].reshape(len(xs_sharp), -1)
        deepest_band = ((logsqrt2_quantize(a, 1.0, 8) + 1) >> 1).max(axis=1) // width
        assert 0 in deepest_band and deepest_band.max() >= 2
        assert (a == 0).any()

    @pytest.mark.parametrize("bits", [4, 8])
    def test_a_sink_does_not_change_the_output(self, bits):
        """The hooked forward is the same bits with no sink as with a plain dict.

        With no sink, `gelu_out`'s uniform one-scale hook takes its codes
        from the pre-GELU tensor (`gelu_centred`); with one, from the float
        GELU the sink receives. Both come out equal on a stack and on each
        sample alone, and the stack equals its per-sample loop with no sink.
        The GELU scales put about one entry in 100 (4 bits) or 10 (8 bits)
        within GELU_TANH_BOUND / s of a rounding boundary.
        """
        cfg = ModelConfig(patches=8, dim=16, heads=2, head_dim=8, mlp_dim=64, blocks=2)
        blocks = [random_block(cfg, 60 + i) for i in range(2)]
        xs = np.random.default_rng(61).normal(size=(6, cfg.patches, cfg.dim))
        acts = {s: layer_params(0.3 if bits == 4 else 0.02, 1 << (bits - 1), bits)
                for s in ACTIVATION_SITES}
        acts["attn_a"] = QuantParams(Scheme.LOG_SQRT2, bits, scale=np.array([1.0]))
        acts["gelu_out"] = layer_params(0.1 if bits == 4 else 0.01, 2, bits)
        hooks = model_hooks(*[{**acts, **{s: column_params(getattr(bw, s), bits)
                                          for s in WEIGHT_SITES}} for bw in blocks])
        stacked = model_forward(xs, blocks, cfg, hooks=hooks)
        np.testing.assert_array_equal(stacked, model_forward(xs, blocks, cfg, hooks=hooks,
                                                             capture={}))
        for x, want in zip(xs, stacked):
            alone = model_forward(x, blocks, cfg, hooks=hooks)
            np.testing.assert_array_equal(alone, model_forward(x, blocks, cfg, hooks=hooks,
                                                               capture={}))
            np.testing.assert_array_equal(alone, want)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_hooked_forward_matches_fake_quant_float_matmul(self, bits):
        """The integer path on the shipped codes agrees with fake-quantized folded floats.

        The model multiplies the quantized container's codes; the reference
        fake-quantizes the folded container's float weights with the same
        sites and sums every product on the float `tensors.matmul`. The two
        differ only in float rounding of the scale products (about 1e-16
        relative per product), so the end-to-end output must agree within
        1e-12 of its largest magnitude at both bit widths.
        """
        cfg = ModelConfig(patches=8, dim=32, heads=2, head_dim=16, mlp_dim=64, blocks=2)
        spec = SynthSpec(seed=bits)
        rep_c, q_c = fold_and_quantize(cfg, spec, bits)
        hooks = hooks_from_sites(cfg, load_sites(q_c))
        xs = gen_activations(cfg, spec, 3, stream=1)
        got = model_forward(xs, blocks_from_container(q_c)[1], cfg, hooks=hooks)
        want = fake_quant_forward(xs, blocks_from_container(rep_c)[1], cfg, hooks)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("step", [1, -1])
    def test_flipping_one_shipped_code_changes_the_hooked_output(self, step):
        """One stored code moved by +-1 moves the output to that of the moved weight.

        The loaded block differs from the unflipped one in exactly that
        centred code, the hooked output changes, and it equals (within the
        1e-12 of the test above) the fake-quant float path on the weights
        dequantized from the flipped codes, s * (c - z).
        """
        cfg = ModelConfig(patches=8, dim=32, heads=2, head_dim=16, mlp_dim=64, blocks=2)
        spec = SynthSpec(seed=5)
        _, q_c = fold_and_quantize(cfg, spec, 4)
        sites = load_sites(q_c)
        hooks = hooks_from_sites(cfg, sites)
        xs = gen_activations(cfg, spec, 3, stream=1)
        # the last product, whose output no later quantizer can round away
        key = "block1.w_2.codes"
        codes = q_c.tensors[key].astype(np.int64)
        idx = tuple(np.argwhere((codes + step >= 0) & (codes + step <= 15))[0])
        codes[idx] += step
        flipped = ModelContainer(meta=q_c.meta,
                                 tensors={**q_c.tensors, key: codes.astype(np.uint8)})
        before, after = blocks_from_container(q_c)[1], blocks_from_container(flipped)[1]
        moved = after[1].w_2.centred - before[1].w_2.centred
        assert np.argwhere(moved).tolist() == [list(idx)] and moved[idx] == step

        base = model_forward(xs, before, cfg, hooks=hooks)
        got = model_forward(xs, after, cfg, hooks=hooks)
        floats = [BlockWeights(**{**vars(bw), **{
            s: uniform_dequantize(flipped.tensors[f"block{i}.{s}.codes"], sites[f"block{i}.{s}"])
            for s in WEIGHT_SITES}}) for i, bw in enumerate(after)]
        want = fake_quant_forward(xs, floats, cfg, hooks)
        assert np.abs(got - base).max() > 1e-6 * np.abs(base).max()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("x_hook", ["layer", "log_sqrt2", "channel", None])
    def test_code_block_multiplies_as_its_weight(self, x_hook):
        """A CodeBlock in place of w and its hook gives the same bits on every route.

        Layer-wise and log-sqrt2 activations take the integer GEMMs on the
        centred codes; a per-channel or absent activation hook takes the
        float route on s * (c - z). The block multiplies with its own params:
        the weight hook given with it is not read.
        """
        rng = np.random.default_rng(60)
        w = rng.normal(size=(8, 6))
        qw = column_params(w)
        block = CodeBlock.from_codes(uniform_quantize(w, qw), qw)
        x = np.abs(rng.normal(size=(2, 3, 8)))
        qx = {"layer": layer_params(0.3, 8),
              "log_sqrt2": QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([2.0])),
              "channel": QuantParams(Scheme.UNIFORM, 4, scale=np.linspace(0.1, 0.5, 8),
                                     zero_point=np.arange(8, dtype=np.int64)),
              None: None}[x_hook]
        want = _qmatmul(x, qx, w, qw)
        for hook in (None, qw, column_params(2 * w)):
            np.testing.assert_array_equal(_qmatmul(x, qx, block, hook), want)

    def test_integer_path_is_exact_at_worst_case_codes(self):
        """Every centred code at |c - z| = 255: the product is the exact integer sum.

        Activation codes sit at 255 with zero point 0; weight column j sits at
        the other end of its grid from its zero point, alternating sign. With
        power-of-two scales the output divided by s_x * s_w is an integer,
        which must equal the Python-int dot product of the centred codes.
        """
        k, n = 4099, 6   # k * 255**2 is odd and needs 28 bits: float32 sums round it
        s_x, s_w = 2.0 ** -4, 2.0 ** -np.arange(1, n + 1)
        qx = layer_params(s_x, 0, bits=8)
        z_w = np.where(np.arange(n) % 2 == 0, 0, 255)
        qw = QuantParams(Scheme.UNIFORM, 8, scale=s_w, zero_point=z_w.astype(np.int64))
        x = np.full((2, 3, k), 300.0 * s_x)          # clips to code 255
        w = np.tile(np.where(z_w == 0, 1e3, -1e3) * s_w, (k, 1))   # clips to 255 or 0
        got = _qmatmul(x, qx, w, qw) / (s_x * s_w)
        c_x = np.full((k,), 255, dtype=object)
        c_w = np.tile(np.where(z_w == 0, 255, -255).astype(object), (k, 1))
        exact = c_x @ c_w
        assert all(abs(v) == k * 255 * 255 for v in exact)
        for row in got.reshape(-1, n):
            assert [int(v) for v in row] == list(exact)
            assert all(float(v) == v for v in row)

    @pytest.mark.parametrize("bits_x, bits_w, k", [
        (8, 8, 258), (8, 8, 259), (8, 8, 512), (8, 4, 4387), (4, 8, 4387),
    ])
    def test_integer_path_is_exact_across_the_float32_chunk_bound(self, bits_x, bits_w, k):
        """Worst-case codes at and just past the inner size one float32 GEMM sums exactly.

        Every centred code sits at |c - z| = qmax, so each of the k products
        is qmax_x * qmax_w in magnitude and of one sign per column. One float32
        chunk is exact up to k = 2**24 // (qmax_x * qmax_w): 258 at 8/8 bits,
        4386 at 8/4 and 4/8. Just past it the sum (259 * 255**2 = 16,841,475,
        or 4387 * 255 * 15) is odd and above 2**24, so a single float32 GEMM
        rounds it; the chunked product must still equal the Python-int sum,
        with the weight as a float matrix and as a `CodeBlock`.
        """
        n = 4
        q_x, q_w = 2 ** bits_x - 1, 2 ** bits_w - 1
        s_x, s_w = 2.0 ** -3, 2.0 ** -np.arange(1, n + 1)
        qx = layer_params(s_x, 0, bits=bits_x)
        z_w = np.where(np.arange(n) % 2 == 0, 0, q_w)
        qw = QuantParams(Scheme.UNIFORM, bits_w, scale=s_w, zero_point=z_w.astype(np.int64))
        x = np.full((2, 3, k), 2.0 * q_x * s_x)          # clips to code q_x
        w = np.tile(np.where(z_w == 0, 1e3, -1e3) * s_w, (k, 1))   # clips to q_w or 0
        exact = [k * q_x * q_w * (1 if z == 0 else -1) for z in z_w]
        assert (k > (1 << 24) // (q_x * q_w)) == (k != 258)
        for weight in (w, CodeBlock.from_codes(uniform_quantize(w, qw), qw)):
            got = _qmatmul(x, qx, weight, qw) / (s_x * s_w)
            for row in got.reshape(-1, n):
                assert [int(v) for v in row] == exact
                assert all(float(v) == v for v in row)

    def test_parity_split_agrees_with_a_50_digit_reference(self):
        """A @ V on crafted log-sqrt2 codes that fill every exponent band.

        k = 64 and an 8-bit V give bands of 52 - ceil(log2(64 * 255)) = 38
        exponents, so the codes 0..255 (exponents 0..128) fall in four bands;
        zeros of A take the deepest code. V sits at |c - z| = 255 throughout.
        Each output must agree with the 50-digit sum of
        s * sqrt(2)**-c * s_v * (c_v - z_v) within 1e-15 of the sum of the
        terms' magnitudes.
        """
        k, s, s_v = 64, 0.8125, 2.0 ** -5 * 1.1
        rng = np.random.default_rng(50)
        codes = rng.integers(0, 256, size=(2, 3, k))
        codes[..., :4] = [0, 75, 151, 228]       # first code of each band
        qa = QuantParams(Scheme.LOG_SQRT2, 8, scale=np.array([s]))
        a = np.where(codes == 255, 0.0, fake_quantize(s * 2.0 ** (-codes / 2), qa))
        assert np.array_equal(logsqrt2_quantize(a, s, 8), codes)
        assert (a == 0).any()
        qv = layer_params(s_v, 0, bits=8)
        v = np.full((k, 5), 300 * s_v)              # clips to code 255
        got = _qmatmul(a, qa, v, qv)
        with mpmath.workdps(50):
            for row, out in zip(codes.reshape(-1, k), got.reshape(-1, 5)):
                terms = [mpmath.mpf(s) * mpmath.sqrt(2) ** -int(c) * mpmath.mpf(s_v) * 255
                         for c in row]
                want, size = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
                for value in out:
                    assert abs(mpmath.mpf(value) - want) <= 1e-15 * size

    def test_parity_split_sums_each_band_exactly(self):
        """Each band's GEMM is exact, so two bands of even codes round once.

        With s = s_v = 1 and even codes 2e, A holds 2**-e and V its centred
        codes, and e in 0..75 spans exactly two bands of 38. Each band's sum is
        an exact integer times 2**-hi, so their one addition returns the
        exact sum correctly rounded. A band wide enough to overflow 53 bits
        would round inside the GEMM, and twice-rounded rows would show.
        """
        k, rows = 64, 400
        rng = np.random.default_rng(51)
        e = rng.integers(0, 76, size=(rows, k))
        e[:, :2] = [0, 75]
        qa = QuantParams(Scheme.LOG_SQRT2, 8, scale=np.array([1.0]))
        c_v = rng.integers(0, 256, size=(k, 3))
        got = _qmatmul(np.ldexp(1.0, -e), qa, c_v - 128.0, layer_params(1.0, 128, bits=8))
        for row, out in zip(e, got):
            for col, value in zip(c_v.T, out):
                exact = sum(Fraction(int(c) - 128, 2 ** int(x)) for x, c in zip(row, col))
                assert value == float(exact)

    @staticmethod
    def band_reference(codes, vc, v_qmax):
        """`quantizers.logsqrt2_shift_matmul` as its docstring states it, one output at a time.

        In each band [hi - width + 1, hi] that holds a code of the row, in
        band order, the even and the odd codes' terms 2**(hi - e) * vc are
        summed as exact Python ints, and ldexp(R_even + sqrt(2) * R_odd, -hi)
        is added to the output, which starts at 0.0.
        """
        rows, k = codes.shape[-2:]
        m = vc.shape[-1]
        width = 52 - (k * v_qmax - 1).bit_length()
        vc = np.broadcast_to(vc, codes.shape[:-2] + (k, m))
        out = np.zeros(codes.shape[:-1] + (m,))
        for idx in np.ndindex(codes.shape[:-2]):
            for i in range(rows):
                c = [int(v) for v in codes[idx][i]]
                e = [(v + 1) >> 1 for v in c]
                for j in range(m):
                    col = [int(v) for v in vc[idx][:, j]]
                    acc = 0.0
                    for band in sorted({x // width for x in e}):
                        hi = (band + 1) * width - 1
                        sums = [0, 0]
                        for cl, el, vl in zip(c, e, col):
                            if el // width == band:
                                sums[cl & 1] += (vl << (hi - el))
                        acc += math.ldexp(float(sums[0]) + SQRT2 * float(sums[1]), -hi)
                    out[idx + (i, j)] = acc
        return out

    @pytest.mark.parametrize("top", [78, 80, 255])
    def test_bands_equal_their_exact_int_reference(self, monkeypatch, top):
        """8-bit attention in one exponent band, in two or in four, chunked or not.

        k = 16 and an 8-bit V give bands of 52 - ceil(log2(16 * 255)) = 40
        exponents: codes up to 78 (e <= 39) stay in band 0, the only band of
        the single-band path, code 80 (e = 40) is the first of band 1, and
        codes up to 255 (e <= 128) reach band 3.
        V holds centred codes across [-255, 255], per (sample, head) and shared.
        """
        k, s = 16, 0.75
        rng = np.random.default_rng(53)
        codes = rng.integers(0, top + 1, size=(3, 2, 5, k))
        codes[..., 0] = top
        qa = QuantParams(Scheme.LOG_SQRT2, 8, scale=np.array([s]))
        a = np.where(codes == 255, 0.0, fake_quantize(s * 2.0 ** (-codes / 2), qa))
        assert np.array_equal(logsqrt2_quantize(a, s, 8), codes)
        bands = set((((codes + 1) >> 1) // 40).ravel().tolist())
        assert bands == {78: {0}, 80: {0, 1}, 255: {0, 1, 2, 3}}[top]
        for vc in (rng.integers(-255, 256, size=(3, 2, k, 4)).astype(np.float64),
                   rng.integers(-255, 256, size=(k, 4)).astype(np.float64)):
            want = self.band_reference(codes, vc, 255)
            got = _log_sqrt2_bands(a, qa, vc, 255)
            assert got.tobytes() == want.tobytes()
            for chunk in (1, 200, 1 << 20):     # 1, 2 and all 6 matrices per chunk
                monkeypatch.setattr("scalefold.model._LOG_CHUNK", chunk)
                assert _log_sqrt2_matmul(a, qa, vc, 255).tobytes() == want.tobytes()

    def test_parity_split_does_not_depend_on_chunking(self, monkeypatch):
        """A @ V runs in chunks of (sample, head) matrices; any chunk size gives the same bits."""
        rng = np.random.default_rng(52)
        qa = QuantParams(Scheme.LOG_SQRT2, 8, scale=np.array([1.0]))
        qv = layer_params(0.05, 128, bits=8)
        a = rowwise_softmax(rng.normal(size=(6, 2, 9, 33)) * 3)
        heads, shared = rng.normal(size=(6, 2, 33, 7)), rng.normal(size=(33, 7))
        want = [_qmatmul(a, qa, v, qv) for v in (heads, shared)]
        for chunk in (1, 1000, 1 << 20):     # 1, 3 and all 12 matrices per chunk
            monkeypatch.setattr("scalefold.model._LOG_CHUNK", chunk)
            for v, expected in zip((heads, shared), want):
                np.testing.assert_array_equal(_qmatmul(a, qa, v, qv), expected)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_hooked_output_is_the_same_at_any_blas_thread_count(self, bits):
        """Every hooked product is an exact integer GEMM, so BLAS threading changes no bit.

        With mlp_dim 512, the 8-bit w_2 product runs past one float32 chunk.
        """
        script = textwrap.dedent(f"""
            import hashlib
            from scalefold.container import blocks_from_container, container_from_model
            from scalefold.model import ModelConfig, model_forward
            from scalefold.pipeline import QuantizeConfig, hooks_from_sites, run_pipeline
            from scalefold.quantizers import QuantParams
            from scalefold.synth import SynthSpec, gen_activations, gen_model
            cfg = ModelConfig(patches=32, dim=64, heads=2, head_dim=32, mlp_dim=512, blocks=1)
            spec = SynthSpec(seed={bits})
            q_c = run_pipeline(container_from_model(cfg, gen_model(cfg, spec)),
                               gen_activations(cfg, spec, 4),
                               QuantizeConfig(bits_w={bits}, bits_a={bits}))
            sites = {{k: QuantParams.from_json(v) for k, v in q_c.meta["sites"].items()}}
            out = model_forward(gen_activations(cfg, spec, 4, stream=1),
                                blocks_from_container(q_c)[1], cfg,
                                hooks=hooks_from_sites(cfg, sites))
            print(hashlib.sha256(out.tobytes()).hexdigest())
        """)
        src = os.path.dirname(os.path.dirname(scalefold.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True)
            digests.add(done.stdout.strip())
        assert len(digests) == 1 and len(digests.pop()) == 64

    @pytest.mark.parametrize("entry", ["model_forward", "capture_forward"])
    @pytest.mark.parametrize("shape", [(3, 8), (4, 9), (8,), (3, 4, 9), (3, 5, 8),
                                       (2, 3, 4, 8)])
    def test_mis_shaped_tokens_rejected(self, entry, shape):
        """Both entries check the tokens, a sample or a stack, before any block runs."""
        cfg = small_cfg()
        blocks = [random_block(cfg, 42)]
        forward = model_forward if entry == "model_forward" else (
            lambda x, blocks, cfg: capture_forward(x, blocks, cfg, {}))
        with pytest.raises(ShapeError, match=r"expected \(4, 8\) tokens"):
            forward(np.zeros(shape), blocks, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(patches=4, dim=8, heads=3, head_dim=4, mlp_dim=16, blocks=1)
        with pytest.raises(ValueError):
            ModelConfig(patches=0, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=1)

    def test_config_json_round_trip(self):
        cfg = ModelConfig(patches=4, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=3)
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("field, value", [
        ("eps", "1e-5"), ("patches", 16.0), ("patches", True), ("dim", None), ("eps", [1e-5]),
    ])
    def test_config_json_value_types_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig.from_json({**ModelConfig().to_json(), field: value})

    def test_config_json_takes_an_int_for_a_float(self):
        assert ModelConfig.from_json({**ModelConfig().to_json(), "eps": 1}).eps == 1

    def test_config_json_keys_must_equal_fields(self):
        d = ModelConfig().to_json()
        with pytest.raises(ValueError, match="dims"):
            ModelConfig.from_json({**d, "dims": 64})
        del d["dim"]
        with pytest.raises(ValueError, match="expects keys"):
            ModelConfig.from_json(d)

    def test_block_weights_shape_validation(self):
        cfg = small_cfg()
        w = random_block(cfg, 34)
        w.w_o = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            w.validate(cfg)

    def test_weight_sites_enumeration(self):
        assert set(WEIGHT_SITES) == {"w_qkv", "w_o", "w_1", "w_2"}
