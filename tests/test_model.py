"""Toy encoder tests: forward-pass oracles, hook plumbing, reparam invariance.

The reference implementations here are written straight from the layer
formulas with einsum and numpy reductions, deliberately not sharing any code
with the library, so agreement is meaningful.
"""

import numpy as np
import pytest

from scalefold.model import (
    ACTIVATION_SITES,
    SITES,
    WEIGHT_SITES,
    BlockWeights,
    ModelConfig,
    QuantHooks,
    block_forward,
    layernorm_forward,
    mlp_forward,
    model_forward,
    msa_forward,
    site_names,
)
from scalefold.quantizers import QuantParams, Scheme
from scalefold.reparam import reparameterize_layernorm_site
from scalefold.calibration import CalibConfig, calibrate_tensor
from scalefold.quantizers import Granularity
from scalefold.tensors import ShapeError


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
        np.testing.assert_allclose(msa_forward(x, w, cfg), x, rtol=1e-12)

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
        np.testing.assert_allclose(msa_forward(x, w, cfg), want, rtol=1e-10, atol=1e-12)

    def test_matches_reference_implementation(self):
        cfg = small_cfg()
        w = random_block(cfg, 3)
        x = np.random.default_rng(4).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_allclose(msa_forward(x, w, cfg),
                                   reference_msa(x, w, cfg), atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        cfg = small_cfg()
        w = random_block(cfg, 5)
        x = np.random.default_rng(6).normal(size=(cfg.patches, cfg.dim))
        caps = {}
        msa_forward(x, w, cfg, capture=caps)
        attn = caps["attn_a"]
        assert attn.shape == (cfg.heads, cfg.patches, cfg.patches)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)

    def test_single_head_equals_full_width_head(self):
        """h=1 with D_h=D runs the same formula as the multi-head split."""
        cfg1 = ModelConfig(patches=4, dim=8, heads=1, head_dim=8, mlp_dim=16, blocks=1)
        w = random_block(cfg1, 7)
        x = np.random.default_rng(8).normal(size=(4, 8))
        np.testing.assert_allclose(msa_forward(x, w, cfg1),
                                   reference_msa(x, w, cfg1), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        cfg = small_cfg()
        w = random_block(cfg, 9)
        with pytest.raises(ShapeError):
            msa_forward(np.zeros((3, 8)), w, cfg)


class TestMLP:
    def test_zero_input_zero_bias(self):
        cfg = small_cfg()
        w = random_block(cfg, 10)
        w.b_1 = np.zeros(cfg.mlp_dim)
        w.b_2 = np.zeros(cfg.dim)
        out = mlp_forward(np.zeros((cfg.patches, cfg.dim)), w, cfg)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_zero_w2_returns_bias(self):
        cfg = small_cfg()
        w = random_block(cfg, 11)
        w.w_2 = np.zeros((cfg.mlp_dim, cfg.dim))
        x = np.random.default_rng(12).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_allclose(mlp_forward(x, w, cfg),
                                   np.tile(w.b_2, (cfg.patches, 1)), atol=1e-15)

    def test_matches_reference(self):
        cfg = small_cfg()
        w = random_block(cfg, 13)
        x = np.random.default_rng(14).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_allclose(mlp_forward(x, w, cfg),
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
        np.testing.assert_array_equal(block_forward(x, w, cfg), x)

    def test_matches_reference_composition(self):
        cfg = small_cfg()
        w = random_block(cfg, 16)
        x = np.random.default_rng(17).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_allclose(block_forward(x, w, cfg),
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
        before = block_forward(x, w, cfg)

        ccfg = CalibConfig(bits=4, granularity=Granularity.PER_CHANNEL, percentile=100.0)
        caps = {}
        block_forward(x, w, cfg, capture=caps)
        site1 = reparameterize_layernorm_site(
            w.gamma1, w.beta1, w.w_qkv, w.b_qkv,
            calibrate_tensor(caps["ln1_out"], ccfg, channel_axis=-1))
        site2 = reparameterize_layernorm_site(
            w.gamma2, w.beta2, w.w_1, w.b_1,
            calibrate_tensor(caps["ln2_out"], ccfg, channel_axis=-1))
        w.gamma1, w.beta1, w.w_qkv, w.b_qkv = site1.gamma, site1.beta, site1.weight, site1.bias
        w.gamma2, w.beta2, w.w_1, w.b_1 = site2.gamma, site2.beta, site2.weight, site2.bias

        after = block_forward(x, w, cfg)
        denom = np.abs(before).max()
        assert np.abs(after - before).max() <= 1e-9 * denom


class TestHooks:
    def test_bypass_hooks_change_nothing(self):
        cfg = small_cfg()
        w = random_block(cfg, 20)
        x = np.random.default_rng(21).normal(size=(cfg.patches, cfg.dim))
        np.testing.assert_array_equal(block_forward(x, w, cfg),
                                      block_forward(x, w, cfg, hooks=QuantHooks()))

    def test_hook_locality(self):
        """A hook at one site must leave every upstream capture untouched."""
        cfg = small_cfg()
        w = random_block(cfg, 22)
        x = np.random.default_rng(23).normal(size=(cfg.patches, cfg.dim))
        clean = {}
        block_forward(x, w, cfg, capture=clean)

        qp = QuantParams(Scheme.UNIFORM, 4, scale=np.array([0.1]),
                         zero_point=np.array([8], dtype=np.int64))
        hooked = {}
        block_forward(x, w, cfg, hooks=QuantHooks(msa_proj_in=qp), capture=hooked)
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
        hooked = block_forward(x, w, cfg, hooks=QuantHooks(ln1_out=qp))
        assert not np.array_equal(hooked, block_forward(x, w, cfg))

    def test_quantization_preserves_shapes(self):
        cfg = small_cfg()
        w = random_block(cfg, 26)
        x = np.random.default_rng(27).normal(size=(cfg.patches, cfg.dim))
        qp4 = QuantParams(Scheme.UNIFORM, 4, scale=np.array([0.2]),
                          zero_point=np.array([7], dtype=np.int64))
        log_qp = QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([1.0]))
        hooks = QuantHooks(**{s: qp4 for s in ACTIVATION_SITES if s != "attn_a"},
                           attn_a=log_qp)
        out = block_forward(x, w, cfg, hooks=hooks)
        assert out.shape == (cfg.patches, cfg.dim)


class TestModelForward:
    def test_capture_covers_all_sites(self):
        cfg = ModelConfig(patches=4, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=3)
        blocks = [random_block(cfg, 30 + i) for i in range(3)]
        x = np.random.default_rng(31).normal(size=(cfg.patches, cfg.dim))
        caps = {}
        model_forward(x, blocks, cfg, capture=caps)
        assert sorted(caps) == sorted(f"block{i}.{s}" for i in range(3)
                                      for s in ACTIVATION_SITES)
        assert sorted(site_names(cfg)) == sorted(
            f"block{i}.{s}" for i in range(3) for s in SITES)

    def test_stack_equals_per_sample_loop(self):
        """One pass over an (n, patches, dim) stack is the per-sample loop, bit for bit.

        The hooks include a per-channel site and a log-sqrt2 site, and every
        captured site must match the stacked per-sample captures exactly.
        """
        cfg = ModelConfig(patches=4, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=2)
        blocks = [random_block(cfg, 40 + i) for i in range(2)]
        xs = np.random.default_rng(41).normal(size=(6, cfg.patches, cfg.dim))
        chan = QuantParams(Scheme.UNIFORM, 4, scale=np.linspace(0.1, 0.5, cfg.dim),
                           zero_point=np.arange(cfg.dim, dtype=np.int64),
                           granularity=Granularity.PER_CHANNEL, channel_axis=-1)
        log_qp = QuantParams(Scheme.LOG_SQRT2, 4, scale=np.array([1.0]))
        layer = QuantParams(Scheme.UNIFORM, 4, scale=np.array([0.3]),
                            zero_point=np.array([8], dtype=np.int64))
        hooks = [QuantHooks(ln1_out=chan, attn_a=log_qp, gelu_out=layer)] * 2

        caps = {}
        got = model_forward(xs, blocks, cfg, hooks=hooks, capture=caps)
        singles = []
        for x in xs:
            cap = {}
            singles.append((model_forward(x, blocks, cfg, hooks=hooks, capture=cap), cap))
        np.testing.assert_array_equal(got, np.stack([out for out, _ in singles]))
        assert sorted(caps) == sorted(singles[0][1])
        for key, val in caps.items():
            want = np.stack([cap[key] for _, cap in singles])
            assert val.shape == want.shape
            np.testing.assert_array_equal(val, want)
        assert caps["block0.attn_a"].shape == (6, cfg.heads, cfg.patches, cfg.patches)

    def test_stack_with_wrong_trailing_shape_rejected(self):
        cfg = small_cfg()
        blocks = [random_block(cfg, 42)]
        for shape in ((3, cfg.patches + 1, cfg.dim), (3, cfg.patches, cfg.dim + 1),
                      (2, 3, cfg.patches, cfg.dim)):
            with pytest.raises(ShapeError):
                model_forward(np.zeros(shape), blocks, cfg)

    def test_hooks_length_mismatch(self):
        cfg = small_cfg()
        blocks = [random_block(cfg, 33)]
        x = np.zeros((cfg.patches, cfg.dim))
        with pytest.raises(ShapeError):
            model_forward(x, blocks, cfg, hooks=[QuantHooks(), QuantHooks()])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(patches=4, dim=8, heads=3, head_dim=4, mlp_dim=16, blocks=1)
        with pytest.raises(ValueError):
            ModelConfig(patches=0, dim=8, heads=2, head_dim=4, mlp_dim=16, blocks=1)

    def test_block_weights_shape_validation(self):
        cfg = small_cfg()
        w = random_block(cfg, 34)
        w.w_o = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            w.validate(cfg)

    def test_weight_sites_enumeration(self):
        assert set(WEIGHT_SITES) == {"w_qkv", "w_o", "w_1", "w_2"}
        assert len(SITES) == 12
