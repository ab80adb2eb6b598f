"""Calibrate -> fold -> quantize, as staged container transforms.

The flow has no optimization loop. One capture pass, a single forward over
the whole calibration stack that ends at its last site, the last block's
`gelu_out`, fits every activation quantizer from data
(channel-wise affine on the post-LayerNorm sites, a sqrt(2)-base log
quantizer on post-Softmax, layer-wise affine elsewhere).
Each activation site is fitted the moment the forward reaches it: the pass
hands its sites to an observer (the `capture` sink of `model_forward`),
which reduces each stack and keeps none, and evaluation measures its
forwards the same way. No fit reads the model's output, so the capture
pass never computes the last block's output product. No stage holds the
captures of a whole stack.
The fold stage then rewrites each LayerNorm site's affine parameters and
consumer weights so a single layer-wise quantizer reproduces the
channel-wise codes, fits all four weight sites of every block by
channel-wise min/max on the folded weights, and swaps the post-Softmax
dequantizer onto the power-of-two shift path; it reads no data, since the
rewrite changes no other activation. The quantize stage ships each
weight matrix as its integer codes in place of its floats, which is what the
forward of the loaded container multiplies, and records each weight site's
quantization MSE, taken from the folded floats, for evaluation. The fold and
quantize stages carry their input's metadata whole and add their own.
Identical inputs produce byte-identical containers.

Every stage writes its per-layer sites to the manifest's `sites` table and
its per-channel quantizers as tensors (see `container.channel_tensors`):
the LayerNorm sites `block{i}.ln{1,2}_out` of a calibrated container, from
the fold on each weight site `block{i}.{w}`, and each fold record's
channel-wise source `reparam_records.block{i}.ln{1,2}_out`. `load_sites`
and `load_records` read them back. A fold record is its source and nothing else: the source's
bit width is `quantize_config.bits_a`, and the layer-wise target is derived
from it (see `reparam.ReparamRecord`).
"""

import math
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np

from .calibration import calibrate_tensor
from .container import (ContainerError, blocks_from_container, channel_params,
                        channel_tensors, container_from_model)
from .model import (ACTIVATION_SITES, WEIGHT_SITES, CodeBlock, JsonFields, capture_forward,
                    model_forward)
from .quantizers import (QuantParams, Scheme, fake_quantize,
                         log2_dequantize, log2_quantize, logsqrt2_dequantize,
                         logsqrt2_dequantize_shift, logsqrt2_quantize,
                         uniform_dequantize, uniform_quantize)
from .reparam import ReparamRecord, reparameterize_layernorm_site
from .tensors import as_tensor

# LayerNorm site -> (affine params, consumer weight/bias) within a block
LN_SITES = {
    "ln1_out": ("gamma1", "beta1", "w_qkv", "b_qkv"),
    "ln2_out": ("gamma2", "beta2", "w_1", "b_1"),
}

# Uniform activation fits clip to the sample's (100 - p)th and pth
# percentiles at this p; the post-Softmax log fit and the weight fits take
# the full range.
CLIP_PERCENTILE = 99.99


class PipelineError(RuntimeError):
    """Inconsistent inputs handed to a pipeline stage."""


@dataclass(frozen=True)
class QuantizeConfig(JsonFields):
    """Bit widths of the weight and activation quantizers."""

    bits_w: int = 4
    bits_a: int = 4

    def __post_init__(self):
        for name in ("bits_w", "bits_a"):
            if not 2 <= int(getattr(self, name)) <= 8:
                raise ValueError(f"{name} outside [2, 8]")


def _check_acts(cfg, acts):
    acts = as_tensor(acts)
    if acts.ndim != 3 or acts.shape[1:] != (cfg.patches, cfg.dim):
        raise PipelineError(
            f"activations shaped {acts.shape} do not fit a "
            f"({cfg.patches}, {cfg.dim}) model"
        )
    return acts


class _SiteObserver:
    """A `model_forward` capture sink that hands each site to `observe(name, tensor)`.

    It keeps nothing, so each captured stack is garbage once the forward has
    moved past its site and `observe` has reduced it.
    """

    def __init__(self, observe):
        self._observe = observe

    def __setitem__(self, name, tensor):
        self._observe(name, tensor)


def capture_activations(blocks, cfg, acts, capture=None):
    """Forward the whole stack in one pass, handing each site's stack to `capture`.

    The pass ends at its last site, the last block's `gelu_out`
    (`model.capture_forward`): the sink gets every site that
    `model_forward(acts, blocks, cfg, capture=...)` hands it, bit for bit,
    and the last block's output product, which no site reads, is never
    computed. Each capture keeps axis 0. `capture` None collects every site
    into a new dict, which is returned; any other sink gets each site once,
    as the forward reaches it, and is returned as it is.
    """
    capture = {} if capture is None else capture
    capture_forward(_check_acts(cfg, acts), blocks, cfg, capture)
    return capture


def _site_of(key):
    return key.partition(".")[2]


def _fit_site(key, x, qcfg):
    """The calibrated quantizer of activation site `key` from its captured stack `x`.

    Channel-wise affine after LayerNorm, log-sqrt2 after Softmax, layer-wise
    affine everywhere else.
    """
    site = _site_of(key)
    if site == "attn_a":
        return calibrate_tensor(x, qcfg.bits_a, scheme=Scheme.LOG_SQRT2)
    return calibrate_tensor(x, qcfg.bits_a, CLIP_PERCENTILE, per_channel=site in LN_SITES)


def _fit_weight(w, qcfg):
    """A weight site's quantizer: channel-wise min/max over its output columns."""
    return calibrate_tensor(w, qcfg.bits_w, per_channel=True)


def _layer_wise_from_json(d, where):
    """Per-layer sites from the manifest table at key path `where`.

    A table that is not an object raises ContainerError naming `where`; a
    malformed entry, or one holding more than one scale, names `where`.key.
    """
    if not isinstance(d, dict):
        raise ContainerError(f"{where} is a {type(d).__name__}, not a table of sites")
    sites = {}
    for key, value in d.items():
        try:
            sites[key] = QuantParams.from_json(value)
        except ValueError as e:
            raise ContainerError(f"{where}.{key}: {e}") from None
        if sites[key].scale.size != 1:
            raise ContainerError(f"{where}.{key} holds {sites[key].scale.size} scales; a "
                                 "manifest site is per layer")
    return sites


def _site_keys(cfg, names):
    return sorted(f"block{i}.{site}" for i in range(cfg.blocks) for site in names)


def _quantize_config(container):
    _require(container, [("quantize_config",)])
    try:
        return QuantizeConfig.from_json(container.meta["quantize_config"])
    except ValueError as e:
        raise PipelineError(f"quantize_config: {e}") from None


def _channel_bits(container):
    """Bit width of each site whose quantizer ships as tensors, by key.

    These are the per-channel sites: before the fold the LayerNorm sites,
    whose channel-wise quantizers the fold makes layer-wise, and from the
    fold on every weight, which the fold is the first to fit.
    """
    cfg, qcfg = container.config(), _quantize_config(container)
    if container.stage == "calibrated":
        return dict.fromkeys(_site_keys(cfg, LN_SITES), qcfg.bits_a)
    return dict.fromkeys(_site_keys(cfg, WEIGHT_SITES), qcfg.bits_w)


def _store_sites(container, sites):
    """Write the site table: per-channel quantizers as tensors, the rest to the manifest."""
    channel = _channel_bits(container)
    container.meta["sites"] = {k: qp.to_json() for k, qp in sites.items() if k not in channel}
    for key in channel:
        container.tensors.update(channel_tensors(key, sites[key]))


def _channels(cfg, site):
    """Channel count of per-channel site `site`: a weight's output columns, else dim."""
    return {"w_qkv": 3 * cfg.dim, "w_1": cfg.mlp_dim}.get(site, cfg.dim)


def _channel_site(container, key, bits, want):
    """`key`'s per-channel quantizer from its tensors; ContainerError unless `want` channels."""
    qp = channel_params(container, key, bits)
    if qp.scale.size != want:
        raise ContainerError(f"quantizer tensors {key}.scale and {key}.zero hold "
                             f"{qp.scale.size} channels, the model {want}")
    return qp


def load_sites(container):
    """The whole site table of a calibrated, folded or quantized container.

    Per-layer sites come from the manifest, per-channel ones from their
    tensors. A manifest entry that is malformed or holds more than one
    scale, a table that is not an object, a missing or malformed tensor,
    and per-channel vectors whose length is not the site's channel count (a
    weight's output columns, a LayerNorm site's dim) raise ContainerError
    naming the site. A missing or malformed quantize config, a missing site
    table, a table lacking an activation site of the model and one naming a
    site the model lacks raise PipelineError naming what is wrong.
    """
    bits = _channel_bits(container)
    _require(container, [("sites",)])
    cfg = container.config()
    channel = {key: _channel_site(container, key, b, _channels(cfg, _site_of(key)))
               for key, b in bits.items()}
    sites = {**_layer_wise_from_json(container.meta["sites"], "sites"), **channel}
    _require(container, [("sites", key) for key in _site_keys(cfg, ACTIVATION_SITES)
                         if key not in sites])
    return hooks_from_sites(cfg, sites)


def load_records(container, sites):
    """The fold record of every LayerNorm site, read back from its source's tensors.

    A source is a `quantize_config.bits_a`-bit quantizer with one channel
    per model dim, and the container's site, in `sites` (the table
    `load_sites(container)` returns), must be the record's layer-wise
    target. A missing or malformed source tensor, or one of another length,
    raises ContainerError naming it; a source whose derived target is not a
    valid quantizer, and a site that is not its record's target, raise
    PipelineError naming the record.
    """
    cfg, qcfg = container.config(), _quantize_config(container)
    records = {}
    for key in _site_keys(cfg, LN_SITES):
        name = f"reparam_records.{key}"
        records[key] = ReparamRecord(_channel_site(container, name, qcfg.bits_a, cfg.dim))
        try:
            target = records[key].target_params()
        except ValueError as e:
            raise PipelineError(f"fold record {name}: target {e}") from None
        if sites[key].to_json() != target.to_json():
            raise PipelineError(f"site {key} is not the target of fold record {name}")
    return records


def _require(container, paths):
    """Raise PipelineError naming every key path absent from the container's metadata.

    A path is a tuple of keys into nested objects, for example
    ("sites", "block0.gelu_out").
    """
    def present(path):
        node = container.meta
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return False
            node = node[key]
        return True

    missing = [".".join(path) for path in paths if not present(path)]
    if missing:
        raise PipelineError(f"{container.stage} container lacks {', '.join(missing)}")


def _require_floats(container, role):
    """A quantized container holds codes, not the float weights that `role` needs."""
    if container.stage == "quantized":
        raise PipelineError(f"{role} needs float weights, got a quantized container")


def calibrate_model(model_c, acts, qcfg=None):
    """Stage 1: fit every activation quantizer from calibration data.

    One forward over the calibration stack, ending at the last block's
    `gelu_out` (`capture_activations`), hands each activation site to
    `_fit_site` as it reaches it, so no site's stack outlives its fit. Also
    fits naive layer-wise affine parameters for the LayerNorm sites
    (`ablation.ln_layer_wise`), which `evaluate`'s layer-wise arm runs.
    """
    qcfg = qcfg or QuantizeConfig()
    _require_floats(model_c, "calibration")
    cfg, blocks = blocks_from_container(model_c)
    sites, naive = {}, {}

    def fit(key, x):
        sites[key] = _fit_site(key, x, qcfg)
        if _site_of(key) in LN_SITES:
            naive[key] = calibrate_tensor(x, qcfg.bits_a, CLIP_PERCENTILE)

    capture_activations(blocks, cfg, acts, capture=_SiteObserver(fit))

    out = container_from_model(cfg, blocks, stage="calibrated")
    out.meta["quantize_config"] = qcfg.to_json()
    _store_sites(out, sites)
    out.meta["ablation"] = {"ln_layer_wise": {k: qp.to_json() for k, qp in naive.items()}}
    return out


def reparameterize_model(calib_c, acts=None):
    """Stage 2: fold channel-wise LayerNorm quantizers into layer-wise ones.

    Each LayerNorm site independently gets its variation factors folded into
    the affine parameters and the consuming projection, and its site becomes
    the fold's layer-wise target. x~ @ W~ + b~ equals x @ W + b, so every
    other activation site keeps its calibrated quantizer. All four weight
    sites of every block are fitted here, on the folded weights (calibration
    fits none): the fold reads no data, and `acts` is ignored. Each fold
    record ships as its channel-wise source's tensors.
    """
    if calib_c.stage != "calibrated":
        raise PipelineError(f"fold stage expects a calibrated container, got {calib_c.stage!r}")
    cfg, blocks = blocks_from_container(calib_c)
    qcfg = _quantize_config(calib_c)
    sites = load_sites(calib_c)

    records = {}
    for i, bw in enumerate(blocks):
        for site, names in LN_SITES.items():
            key = f"block{i}.{site}"
            try:
                *folded, records[key] = reparameterize_layernorm_site(
                    *(getattr(bw, name) for name in names), sites[key])
            except ValueError as e:
                raise PipelineError(f"site {key}: {e}") from None
            for name, value in zip(names, folded):
                setattr(bw, name, value)
            sites[key] = records[key].target_params()

    out = container_from_model(cfg, blocks, stage="reparameterized")
    out.meta = {**calib_c.meta, **out.meta}

    # the weights' first fit, on the rows the fold rescaled; the activations
    # it left unchanged keep their calibrated sites
    sites.update({f"block{i}.{site}": _fit_weight(getattr(bw, site), qcfg)
                  for i, bw in enumerate(blocks) for site in WEIGHT_SITES})

    _store_sites(out, sites)
    for key, rec in records.items():
        out.tensors.update(channel_tensors(f"reparam_records.{key}", rec.source))
    return out


def quantize_model(rep_c):
    """Stage 3: replace every weight matrix by its codes.

    `block{i}.{w}.codes`, a uint8 array that the container writes two codes
    per byte at 4 bits or fewer, takes the place of `block{i}.{w}`, and
    `weight_mse[block{i}.{w}]` records the site's quantization MSE on the
    folded floats, which the quantized container no longer holds. The
    quantizer tensors of the weights and fold records carry over whole. The
    folded container must carry its quantize config, site table and a fold
    record per LayerNorm site whose target is the site: `load_sites` and
    `load_records` name what is missing or malformed.
    """
    if rep_c.stage != "reparameterized":
        raise PipelineError(f"quantize stage expects a folded container, got {rep_c.stage!r}")
    cfg, blocks = blocks_from_container(rep_c)
    sites = load_sites(rep_c)
    load_records(rep_c, sites)
    out = container_from_model(cfg, blocks, stage="quantized")
    out.meta = {**rep_c.meta, **out.meta}
    out.tensors = {**rep_c.tensors, **out.tensors}
    weight_mse = {}
    for key in _site_keys(cfg, WEIGHT_SITES):
        w = out.tensors.pop(key)
        codes = uniform_quantize(w, sites[key])
        out.tensors[key + ".codes"] = codes.astype(np.uint8)
        weight_mse[key] = _mse(uniform_dequantize(codes, sites[key]), w)
    out.meta["weight_mse"] = weight_mse
    return out


def run_pipeline(model_c, acts, qcfg=None):
    """All three stages in order on in-memory containers."""
    return quantize_model(reparameterize_model(calibrate_model(model_c, acts, qcfg)))


def hooks_from_sites(cfg, sites):
    """The flat site table `sites` itself, checked to name only sites of a `cfg` model.

    `model_forward` takes the table as its hooks, so it comes back unchanged;
    a key that is not a `block{i}.{site}` of the model raises PipelineError
    naming every such key.
    """
    unknown = sorted(set(sites) - set(_site_keys(cfg, ACTIVATION_SITES + WEIGHT_SITES)))
    if unknown:
        raise PipelineError(f"site table names sites the model lacks: {', '.join(unknown)}")
    return sites


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

    def to_json(self):
        return asdict(self)


def _config_match(fp_c, q_c):
    a, b = fp_c.config().to_json(), q_c.config().to_json()
    for key in sorted(a):
        if a[key] != b[key]:
            raise PipelineError(f"model config mismatch at {key!r}: {a[key]} != {b[key]}")


def _mse(a, b):
    return float(np.mean((as_tensor(a) - as_tensor(b)) ** 2))


def _add_squared_error(acc, recon, x):
    """Add the sum of (recon - x)**2 and its element count to acc = [sum, count]."""
    err = recon - x
    acc[0] += float(np.sum(err ** 2))
    acc[1] += err.size


def evaluate(fp_c, q_c, acts):
    """Compare the quantized container against the float model on held-out data.

    Reports per-site quantization MSE, end-to-end output MSE and cosine
    similarity, the integer-code-equality rate at every folded site, and
    two ablations: end-to-end MSE with naive layer-wise / channel-wise /
    folded LayerNorm quantizers, and post-Softmax reconstruction MSE under
    log2 / log-sqrt2 / the base-changed integer shift path. Each model runs
    once over the whole held-out stack, and an observer on each of the two
    main forwards measures every site as the forward reaches it (the per-site
    MSE on the quantized one; code equality and the Softmax ablation on the
    float one), so no capture outlives its site. The two LayerNorm ablation arms run
    the float model on the container's activation sites, with each LayerNorm
    site replaced by its fold record's `source` (channel-wise) or by
    `ablation.ln_layer_wise` (layer-wise). Both arms multiply one list of
    `CodeBlock`s: `w_o` and `w_2`, which the fold leaves as they are, are the
    shipped codes, and `w_qkv` and `w_1`, which it rescales, are `fp_c`'s
    unfolded weights fitted by the fold's channel-wise min/max and quantized
    once. A quantized container lacking
    its `quantize_config`, a weight site's `weight_mse` or
    `ablation.ln_layer_wise` raises PipelineError naming what is missing, as
    does a malformed weight MSE or an ablation table naming a site the model
    lacks; the site table and fold records fail as `load_sites` and
    `load_records` say. All of this is checked before any forward runs.
    """
    _config_match(fp_c, q_c)
    if q_c.stage != "quantized":
        raise PipelineError(f"evaluate expects a quantized container, got stage {q_c.stage!r}")
    _require_floats(fp_c, "the float reference of evaluate")
    cfg, fp_blocks = blocks_from_container(fp_c)
    acts = _check_acts(cfg, acts)
    weight_keys = _site_keys(cfg, WEIGHT_SITES)
    _require(q_c, [("quantize_config",)]
             + [("weight_mse", key) for key in weight_keys]
             + [("ablation", "ln_layer_wise")])
    qcfg = _quantize_config(q_c)
    sites = load_sites(q_c)
    # the forward runs each LayerNorm site, the audit and the channel-wise
    # arm its fold record; `load_records` checks the site is the record's target
    records = load_records(q_c, sites)
    weight_mse = {}
    for key in weight_keys:
        value = q_c.meta["weight_mse"][key]
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 0:
            raise PipelineError(f"weight_mse.{key} is {value!r}, not a nonnegative number")
        weight_mse[key] = float(value)
    # the arms' weights are CodeBlocks, which multiply with their own params
    chan_sites = {**{key: qp for key, qp in sites.items() if key not in weight_keys},
                  **{key: rec.source for key, rec in records.items()}}
    layer_sites = hooks_from_sites(cfg, {**chan_sites, **_layer_wise_from_json(
        q_c.meta["ablation"]["ln_layer_wise"], "ablation.ln_layer_wise")})
    _, q_blocks = blocks_from_container(q_c)

    # each forward hands every activation site to an observer that reduces
    # it on the spot, so neither holds its captures
    act_mse = {}

    def site_error(name, x):
        # (fake_quantize(x) - x)**2 in fake_quantize's own buffer
        err = fake_quantize(x, sites[name])
        err -= x
        np.square(err, out=err)
        act_mse[name] = float(np.mean(err))

    # code equality at the folded sites, computed from the audit records at
    # full float64 precision on the float model's activations; the
    # post-Softmax quantizer families (ablation 2) on the float attn_a
    equal = {}
    sq = {"log2": [0.0, 0], "log_sqrt2": [0.0, 0], "base_changed": [0.0, 0]}

    def audit(name, x):
        if name in records:
            rec = records[name]
            codes_chan = uniform_quantize(x, rec.source)
            adjusted = (x + rec.source.scale * rec.r2) / rec.r1
            eq = uniform_quantize(adjusted, rec.target_params()) == codes_chan
            equal[name] = (float(np.mean(eq)), int(eq.sum()), eq.size)
        elif _site_of(name) == "attn_a":
            s, bits = float(sites[name].scale[0]), sites[name].bits

            _add_squared_error(sq["log2"], log2_dequantize(log2_quantize(x, s, bits), s, bits), x)
            codesq = logsqrt2_quantize(x, s, bits)
            _add_squared_error(sq["log_sqrt2"], logsqrt2_dequantize(codesq, s, bits), x)
            # inference route: parity-adjusted scales on the integer shift path
            _add_squared_error(sq["base_changed"], logsqrt2_dequantize_shift(codesq, s, bits), x)

    fp_out = model_forward(acts, fp_blocks, cfg, capture=_SiteObserver(audit))
    q_out = model_forward(acts, q_blocks, cfg, hooks=sites, capture=_SiteObserver(site_error))

    per_site_mse = dict(sorted({**act_mse, **weight_mse}.items()))
    output_mse = _mse(q_out, fp_out)
    va, vb = q_out.ravel(), fp_out.ravel()
    output_cosine = float(np.sum(va * vb)) / (math.sqrt(float(np.sum(va * va)))
                                             * math.sqrt(float(np.sum(vb * vb))))

    code_equality = {name: equal[name][0] for name in records}
    code_equality_rate = float(sum(v[1] for v in equal.values())
                               / sum(v[2] for v in equal.values()))

    # ablation 1: LayerNorm-site granularity, end to end. The fold rescales
    # only the LayerNorm consumers, so w_o and w_2 keep their shipped codes
    consumers = {w_name for _, _, w_name, _ in LN_SITES.values()}

    def unfolded(w):
        qp = _fit_weight(w, qcfg)
        return CodeBlock.from_codes(uniform_quantize(w, qp), qp)

    arm_blocks = [replace(fp, **{site: unfolded(getattr(fp, site)) if site in consumers
                                 else getattr(q, site) for site in WEIGHT_SITES})
                  for fp, q in zip(fp_blocks, q_blocks)]
    del q_blocks
    ln_ablation = {}
    for label, table in (("layer_wise", layer_sites), ("channel_wise", chan_sites)):
        ln_ablation[label] = _mse(model_forward(acts, arm_blocks, cfg, hooks=table), fp_out)
    ln_ablation["reparam"] = output_mse

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
