"""Calibrate -> fold -> quantize, as staged container transforms.

The flow has no optimization loop. One capture pass, a single forward over
the whole calibration stack, fits every quantizer from data (channel-wise
affine on the post-LayerNorm sites, a sqrt(2)-base log quantizer on
post-Softmax, layer-wise affine elsewhere, channel-wise min/max on weights).
The fold stage then rewrites each LayerNorm site's affine parameters and
consumer weights so a single layer-wise quantizer reproduces the
channel-wise codes, refits the rewritten weights and the downstream sites
with the same site fitter as calibration, and swaps the post-Softmax
dequantizer onto the power-of-two shift path. The quantize stage emits
integer weight codes. Each stage appends to a logical pass log; identical
inputs produce byte-identical containers.
"""

from dataclasses import dataclass

import numpy as np

from .calibration import CalibConfig, calibrate_tensor
from .container import blocks_from_container, container_from_model
from .model import (ACTIVATION_SITES, WEIGHT_SITES, QuantHooks, model_forward)
from .quantizers import (Granularity, QuantParams, Scheme, fake_quantize,
                         log2_dequantize, log2_quantize, logsqrt2_dequantize,
                         logsqrt2_dequantize_shift, logsqrt2_quantize,
                         uniform_quantize)
from .reparam import ReparamRecord, reparameterize_layernorm_site
from .tensors import as_tensor

# LayerNorm site -> (affine params, consumer weight/bias) within a block
LN_SITES = {
    "ln1_out": ("gamma1", "beta1", "w_qkv", "b_qkv"),
    "ln2_out": ("gamma2", "beta2", "w_1", "b_1"),
}
# activation sites that keep a layer-wise affine quantizer throughout
PLAIN_SITES = ("attn_q", "attn_k", "attn_v", "msa_proj_in", "gelu_out")


class PipelineError(RuntimeError):
    """Inconsistent inputs handed to a pipeline stage."""


@dataclass(frozen=True)
class QuantizeConfig:
    """Bit widths and the activation clip percentile."""

    bits_w: int = 4
    bits_a: int = 4
    percentile: float = 99.99

    def __post_init__(self):
        for name in ("bits_w", "bits_a"):
            if not 2 <= int(getattr(self, name)) <= 8:
                raise ValueError(f"{name} outside [2, 8]")
        if not 50.0 < float(self.percentile) <= 100.0:
            raise ValueError("percentile must lie in (50, 100]")

    def to_json(self):
        return {"bits_w": self.bits_w, "bits_a": self.bits_a,
                "percentile": self.percentile}

    @classmethod
    def from_json(cls, d):
        return cls(bits_w=int(d["bits_w"]), bits_a=int(d["bits_a"]),
                   percentile=float(d["percentile"]))


def _check_acts(cfg, acts):
    acts = as_tensor(acts)
    if acts.ndim != 3 or acts.shape[1:] != (cfg.patches, cfg.dim):
        raise PipelineError(
            f"activations shaped {acts.shape} do not fit a "
            f"({cfg.patches}, {cfg.dim}) model"
        )
    return acts


def capture_activations(blocks, cfg, acts, hooks=None):
    """Forward the whole stack in one pass; each site's capture keeps axis 0."""
    caps = {}
    model_forward(_check_acts(cfg, acts), blocks, cfg, hooks=hooks, capture=caps)
    return caps


def _fit_sites(blocks, caps, qcfg):
    """Fit the layer-wise, post-Softmax and weight sites of every block.

    Activation sites fit from the captured stacks, weights by channel-wise
    min/max over their output columns.
    """
    a_layer = CalibConfig(bits=qcfg.bits_a, percentile=qcfg.percentile)
    a_log = CalibConfig(bits=qcfg.bits_a, scheme=Scheme.LOG_SQRT2, percentile=100.0)
    w_chan = CalibConfig(bits=qcfg.bits_w, granularity=Granularity.PER_CHANNEL,
                         percentile=100.0)
    sites = {}
    for i, bw in enumerate(blocks):
        pre = f"block{i}."
        sites[pre + "attn_a"] = calibrate_tensor(caps[pre + "attn_a"], a_log)
        for site in PLAIN_SITES:
            sites[pre + site] = calibrate_tensor(caps[pre + site], a_layer)
        for site in WEIGHT_SITES:
            sites[pre + site] = calibrate_tensor(getattr(bw, site), w_chan, channel_axis=1)
    return sites


def _sites_to_json(sites):
    return {name: qp.to_json() for name, qp in sites.items()}


def _sites_from_json(d):
    return {name: QuantParams.from_json(v) for name, v in d.items()}


def _append_pass(meta, name):
    log = list(meta.get("passes", []))
    log.append({"step": len(log) + 1, "name": name})
    meta["passes"] = log
    return meta


def calibrate_model(model_c, acts, qcfg=None):
    """Stage 1: fit all quantizers from calibration data.

    Also snapshots what later evaluation arms need: naive layer-wise affine
    parameters for the LayerNorm sites and the full pre-fold site table.
    """
    qcfg = qcfg or QuantizeConfig()
    cfg, blocks = blocks_from_container(model_c)
    acts = _check_acts(cfg, acts)
    caps = capture_activations(blocks, cfg, acts)

    a_chan = CalibConfig(bits=qcfg.bits_a, granularity=Granularity.PER_CHANNEL,
                         percentile=qcfg.percentile)
    a_layer = CalibConfig(bits=qcfg.bits_a, percentile=qcfg.percentile)
    sites, naive = {}, {}
    for i in range(cfg.blocks):
        for site in LN_SITES:
            key = f"block{i}.{site}"
            # captured stacks are (n, patches, dim): channels on the last axis
            sites[key] = calibrate_tensor(caps[key], a_chan, channel_axis=-1)
            naive[key] = calibrate_tensor(caps[key], a_layer)
    sites.update(_fit_sites(blocks, caps, qcfg))

    out = container_from_model(cfg, blocks, stage="calibrated")
    out.meta["quantize_config"] = qcfg.to_json()
    out.meta["calib"] = {"samples": int(acts.shape[0])}
    out.meta["sites"] = _sites_to_json(sites)
    out.meta["ablation"] = {
        "ln_layer_wise": _sites_to_json(naive),
        "precalib_sites": _sites_to_json(sites),
    }
    _append_pass(out.meta, "fit-quantizers")
    return out


def reparameterize_model(calib_c, acts):
    """Stage 2: fold channel-wise LayerNorm quantizers into layer-wise ones.

    Each LayerNorm site independently gets its variation factors folded into
    the affine parameters and the consuming projection. After compensation
    the rewritten projections are refitted from scratch, activation
    statistics for the downstream sites are recomputed through the adjusted
    model, and the post-Softmax dequantizer is marked for the base-changed
    shift path.
    """
    if calib_c.stage != "calibrated":
        raise PipelineError(f"fold stage expects a calibrated container, got {calib_c.stage!r}")
    cfg, blocks = blocks_from_container(calib_c)
    acts = _check_acts(cfg, acts)
    qcfg = QuantizeConfig.from_json(calib_c.meta["quantize_config"])
    sites = _sites_from_json(calib_c.meta["sites"])

    records = {}
    for i, bw in enumerate(blocks):
        for site, (g_name, b_name, w_name, bias_name) in LN_SITES.items():
            key = f"block{i}.{site}"
            res = reparameterize_layernorm_site(
                getattr(bw, g_name), getattr(bw, b_name),
                getattr(bw, w_name), getattr(bw, bias_name),
                sites[key],
            )
            setattr(bw, g_name, res.gamma)
            setattr(bw, b_name, res.beta)
            setattr(bw, w_name, res.weight)
            setattr(bw, bias_name, res.bias)
            sites[key] = res.layer_params
            records[key] = res.record

    out = container_from_model(cfg, blocks, stage="reparameterized")
    out.meta.update({k: v for k, v in calib_c.meta.items()
                     if k in ("quantize_config", "calib", "ablation", "passes")})
    _append_pass(out.meta, "fold-records")
    _append_pass(out.meta, "affine-adjust")
    _append_pass(out.meta, "weight-compensate")

    # refit everything that the fold touched or that flows downstream of it
    sites.update(_fit_sites(blocks, capture_activations(blocks, cfg, acts), qcfg))
    _append_pass(out.meta, "weight-recalibrate")
    _append_pass(out.meta, "softmax-base-change")

    out.meta["sites"] = _sites_to_json(sites)
    out.meta["reparam_records"] = {k: r.to_json() for k, r in records.items()}
    out.meta["softmax_dequant"] = "base-changed-shift"
    return out


def quantize_model(rep_c):
    """Stage 3: emit integer codes for every weight tensor."""
    if rep_c.stage != "reparameterized":
        raise PipelineError(f"quantize stage expects a folded container, got {rep_c.stage!r}")
    cfg, blocks = blocks_from_container(rep_c)
    sites = _sites_from_json(rep_c.meta["sites"])
    out = container_from_model(cfg, blocks, stage="quantized")
    out.meta.update({k: v for k, v in rep_c.meta.items()
                     if k in ("quantize_config", "calib", "ablation", "passes",
                              "sites", "reparam_records", "softmax_dequant")})
    for i, bw in enumerate(blocks):
        for site in WEIGHT_SITES:
            key = f"block{i}.{site}"
            out.tensors[key + ".codes"] = uniform_quantize(getattr(bw, site), sites[key])
    _append_pass(out.meta, "emit-codes")
    return out


def run_pipeline(model_c, acts, qcfg=None):
    """All three stages in order on in-memory containers."""
    return quantize_model(reparameterize_model(calibrate_model(model_c, acts, qcfg), acts))


def hooks_from_sites(cfg, sites):
    """Build per-block QuantHooks from a flat site-name -> params table."""
    hooks = []
    for i in range(cfg.blocks):
        pre = f"block{i}."
        kwargs = {s: sites[pre + s] for s in ACTIVATION_SITES + WEIGHT_SITES
                  if pre + s in sites}
        hooks.append(QuantHooks(**kwargs))
    return hooks


@dataclass
class EvalReport:
    """Outcome of comparing a quantized model against its float source."""

    per_site_mse: dict
    output_mse: float
    output_cosine: float
    code_equality: dict
    code_equality_rate: float
    ln_ablation: dict
    softmax_ablation: dict

    def __post_init__(self):
        for name, value in list(self.per_site_mse.items()):
            if value < 0:
                raise ValueError(f"negative MSE at {name}")
        for name, rate in self.code_equality.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"code-equality rate at {name} outside [0, 1]")

    def to_json(self):
        return {
            "per_site_mse": dict(self.per_site_mse),
            "output_mse": self.output_mse,
            "output_cosine": self.output_cosine,
            "code_equality": dict(self.code_equality),
            "code_equality_rate": self.code_equality_rate,
            "ln_ablation": dict(self.ln_ablation),
            "softmax_ablation": dict(self.softmax_ablation),
        }


def _config_match(fp_c, q_c):
    a, b = fp_c.meta.get("model_config", {}), q_c.meta.get("model_config", {})
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            raise PipelineError(
                f"model config mismatch at {key!r}: {a.get(key)} != {b.get(key)}"
            )


def _mse(a, b):
    return float(np.mean((as_tensor(a) - as_tensor(b)) ** 2))


def evaluate(fp_c, q_c, acts):
    """Compare the quantized container against the float model on held-out data.

    Reports per-site quantization MSE, end-to-end output MSE and cosine
    similarity, the integer-code-equality rate at every folded site, and
    two ablations: end-to-end MSE with naive layer-wise / channel-wise /
    folded LayerNorm quantizers, and post-Softmax reconstruction MSE under
    log2 / log-sqrt2 / the base-changed integer shift path. Each model runs
    once over the whole held-out stack; nothing is refitted here.
    """
    _config_match(fp_c, q_c)
    if q_c.stage != "quantized":
        raise PipelineError(f"evaluate expects a quantized container, got stage {q_c.stage!r}")
    cfg, fp_blocks = blocks_from_container(fp_c)
    _, q_blocks = blocks_from_container(q_c)
    acts = _check_acts(cfg, acts)
    sites = _sites_from_json(q_c.meta["sites"])
    records = {k: ReparamRecord.from_json(v)
               for k, v in q_c.meta.get("reparam_records", {}).items()}

    fp_caps, q_caps = {}, {}
    fp_out = model_forward(acts, fp_blocks, cfg, capture=fp_caps)
    q_out = model_forward(acts, q_blocks, cfg, hooks=hooks_from_sites(cfg, sites),
                          capture=q_caps)

    per_site_mse = {}
    for name, qp in sorted(sites.items()):
        base, _, site = name.rpartition(".")
        if site in WEIGHT_SITES:
            idx = int(base.removeprefix("block"))
            w = getattr(q_blocks[idx], site)
            per_site_mse[name] = _mse(fake_quantize(w, qp), w)
        else:
            seen = q_caps[name]
            per_site_mse[name] = _mse(fake_quantize(seen, qp), seen)

    output_mse = _mse(q_out, fp_out)
    va, vb = q_out.ravel(), fp_out.ravel()
    output_cosine = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

    # code equality at the folded sites, computed from the audit records at
    # full float64 precision on the float model's activations
    code_equality = {}
    hits = total = 0
    for name, rec in sorted(records.items()):
        x = fp_caps[name]
        codes_chan = uniform_quantize(x, rec.source)
        adjusted = (x + rec.source.scale * rec.r2) / rec.r1
        codes_layer = uniform_quantize(adjusted, rec.target_params())
        eq = codes_chan == codes_layer
        code_equality[name] = float(np.mean(eq))
        hits += int(eq.sum())
        total += eq.size
    code_equality_rate = float(hits / total) if total else 1.0

    # ablation 1: LayerNorm-site granularity, end to end
    abl = q_c.meta.get("ablation", {})
    pre_sites = _sites_from_json(abl.get("precalib_sites", {}))
    naive_ln = _sites_from_json(abl.get("ln_layer_wise", {}))
    ln_ablation = {}
    if pre_sites and naive_ln:
        chan_sites = dict(pre_sites)
        layer_sites = dict(pre_sites)
        layer_sites.update(naive_ln)
        for label, table in (("layer_wise", layer_sites), ("channel_wise", chan_sites)):
            out = model_forward(acts, fp_blocks, cfg, hooks=hooks_from_sites(cfg, table))
            ln_ablation[label] = _mse(out, fp_out)
        ln_ablation["reparam"] = output_mse

    # ablation 2: post-Softmax quantizer family, on the captured tensors
    sq = {"log2": [0.0, 0], "log_sqrt2": [0.0, 0], "base_changed": [0.0, 0]}
    for i in range(cfg.blocks):
        key = f"block{i}.attn_a"
        a = fp_caps[key]
        s = float(sites[key].scale[0])
        bits = sites[key].bits
        codes2 = log2_quantize(a, s, bits)
        err2 = log2_dequantize(codes2, s, bits) - a
        codesq = logsqrt2_quantize(a, s, bits)
        errq = logsqrt2_dequantize(codesq, s, bits) - a
        # inference route: parity-adjusted scales on the integer shift path
        errb = logsqrt2_dequantize_shift(codesq, s, bits) - a
        for label, err in (("log2", err2), ("log_sqrt2", errq), ("base_changed", errb)):
            sq[label][0] += float(np.sum(err ** 2))
            sq[label][1] += err.size
    softmax_ablation = {k: v[0] / v[1] for k, v in sq.items()}

    return EvalReport(
        per_site_mse=per_site_mse,
        output_mse=output_mse,
        output_cosine=output_cosine,
        code_equality=code_equality,
        code_equality_rate=code_equality_rate,
        ln_ablation=ln_ablation,
        softmax_ablation=softmax_ablation,
    )
