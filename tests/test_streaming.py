"""Calibration and evaluation stream each activation site instead of holding the stack's captures.

`model_forward` hands every site to its `capture` sink once, as the forward
reaches it. A plain dict keeps them all, which is the reference here: the
streamed stages must give exactly what a fit or a measurement over the
whole-stack capture gives, while their traced peak stays below that
capture's size.
"""

import math
import tracemalloc

import numpy as np
import pytest

from scalefold.calibration import calibrate_tensor
from scalefold.container import blocks_from_container, container_from_model
from scalefold.model import ACTIVATION_SITES, ModelConfig, model_forward
from scalefold.pipeline import (CLIP_PERCENTILE, LN_SITES, QuantizeConfig, _fit_site,
                                calibrate_model, capture_activations, evaluate, load_records,
                                load_sites, quantize_model, reparameterize_model)
from scalefold.quantizers import (fake_quantize, log2_dequantize, log2_quantize,
                                  logsqrt2_dequantize, logsqrt2_dequantize_shift,
                                  logsqrt2_quantize, uniform_quantize)
from scalefold.synth import SynthSpec, gen_activations, gen_model

# model, bits, calibration and held-out samples; 16 is the benchmark's
# 64x128 calibration count
SHAPES = {
    "16x64-w4a4": (ModelConfig(), 4, 8, 4),
    "64x128-w8a8": (ModelConfig(patches=64, dim=128, heads=4, head_dim=32, mlp_dim=512),
                    8, 16, 16),
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def staged(request):
    cfg, bits, n_calib, n_held = SHAPES[request.param]
    spec = SynthSpec(seed=2)
    qcfg = QuantizeConfig(bits_w=bits, bits_a=bits)
    model_c = container_from_model(cfg, gen_model(cfg, spec))
    calib = gen_activations(cfg, spec, n_calib)
    held_out = gen_activations(cfg, spec, n_held, stream=1)
    calib_c = calibrate_model(model_c, calib, qcfg)
    q_c = quantize_model(reparameterize_model(calib_c))
    return request.param, qcfg, model_c, calib, held_out, calib_c, q_c


class _Recorder:
    def __init__(self):
        self.seen = []

    def __setitem__(self, name, tensor):
        self.seen.append((name, tensor.copy()))


def test_a_sink_gets_each_site_once_in_forward_order(staged):
    """A sink sees every site once, block by block in forward order, with the dict's tensors."""
    model_c, calib = staged[2], staged[3]
    cfg, blocks = blocks_from_container(model_c)
    sink = _Recorder()
    assert capture_activations(blocks, cfg, calib[:2], capture=sink) is sink
    caps = capture_activations(blocks, cfg, calib[:2])
    order = [f"block{i}.{s}" for i in range(cfg.blocks) for s in
             ("ln1_out", "attn_q", "attn_k", "attn_v", "attn_a", "msa_proj_in",
              "ln2_out", "gelu_out")]
    assert [name for name, _ in sink.seen] == order
    assert sorted(caps) == sorted(f"block{i}.{s}" for i in range(cfg.blocks)
                                  for s in ACTIVATION_SITES)
    for name, tensor in sink.seen:
        np.testing.assert_array_equal(tensor, caps[name], err_msg=name)


def test_streamed_calibration_equals_a_whole_capture_fit(staged):
    """Each fitted site, and each naive LayerNorm fit, is the fit of the plain-dict capture."""
    qcfg, model_c, calib, calib_c = staged[1], staged[2], staged[3], staged[5]
    cfg, blocks = blocks_from_container(model_c)
    caps = capture_activations(blocks, cfg, calib)
    want = {key: _fit_site(key, x, qcfg) for key, x in caps.items()}
    got = load_sites(calib_c)
    assert sorted(got) == sorted(want)
    for key, qp in want.items():
        assert got[key].to_json() == qp.to_json(), key
    naive = {key: calibrate_tensor(caps[key], qcfg.bits_a, CLIP_PERCENTILE).to_json()
             for key in caps if key.partition(".")[2] in LN_SITES}
    assert calib_c.meta["ablation"]["ln_layer_wise"] == naive


def _reference_report(fp_c, q_c, acts):
    """The report figures `evaluate` streams, from whole-stack plain-dict captures."""
    cfg, fp_blocks = blocks_from_container(fp_c)
    _, q_blocks = blocks_from_container(q_c)
    sites = load_sites(q_c)
    records = load_records(q_c, sites)
    fp_caps, q_caps = {}, {}
    fp_out = model_forward(acts, fp_blocks, cfg, capture=fp_caps)
    q_out = model_forward(acts, q_blocks, cfg, hooks=sites, capture=q_caps)

    def mse(a, b):
        return float(np.mean((a - b) ** 2))

    per_site = {name: mse(fake_quantize(x, sites[name]), x) for name, x in q_caps.items()}
    per_site.update(q_c.meta["weight_mse"])
    equal, hits, total = {}, 0, 0
    for name, rec in records.items():
        x = fp_caps[name]
        adjusted = (x + rec.source.scale * rec.r2) / rec.r1
        eq = uniform_quantize(x, rec.source) == uniform_quantize(adjusted, rec.target_params())
        equal[name] = float(np.mean(eq))
        hits, total = hits + int(eq.sum()), total + eq.size
    sq = {"log2": [0.0, 0], "log_sqrt2": [0.0, 0], "base_changed": [0.0, 0]}
    for i in range(cfg.blocks):
        a, qp = fp_caps[f"block{i}.attn_a"], sites[f"block{i}.attn_a"]
        s, bits = float(qp.scale[0]), qp.bits
        codes = logsqrt2_quantize(a, s, bits)
        for label, recon in (("log2", log2_dequantize(log2_quantize(a, s, bits), s, bits)),
                             ("log_sqrt2", logsqrt2_dequantize(codes, s, bits)),
                             ("base_changed", logsqrt2_dequantize_shift(codes, s, bits))):
            sq[label][0] += float(np.sum((recon - a) ** 2))
            sq[label][1] += a.size
    va, vb = q_out.ravel(), fp_out.ravel()

    def dot(u, v):
        return math.fsum((u * v).tolist())

    return {
        "per_site_mse": dict(sorted(per_site.items())),
        "output_mse": mse(q_out, fp_out),
        "output_cosine": dot(va, vb) / (math.sqrt(dot(va, va)) * math.sqrt(dot(vb, vb))),
        "code_equality": equal,
        "code_equality_rate": hits / total,
        "softmax_ablation": {k: v[0] / v[1] for k, v in sq.items()},
    }


def test_streamed_report_equals_a_whole_capture_reference(staged):
    """Per-site, code-equality, Softmax-ablation and output figures equal the reference's bits."""
    model_c, held_out, q_c = staged[2], staged[4], staged[6]
    got = evaluate(model_c, q_c, held_out).to_json()
    want = _reference_report(model_c, q_c, held_out)
    for field, value in want.items():
        assert got[field] == value, field
    assert list(got["per_site_mse"]) == list(want["per_site_mse"])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("staged", ["64x128-w8a8"], indirect=True)
def test_stages_hold_no_whole_stack_capture(staged):
    """Calibration and evaluation of the 64x128 model peak below one forward's captures.

    Holding every site of the stack at once, as a capture dict does, costs
    the summed bytes of all captures on its own; with such dicts calibration
    peaked at about 1.3x that sum and evaluation, which held two, at 3.3x.
    """
    _, qcfg, model_c, calib, held_out, _, q_c = staged
    cfg, blocks = blocks_from_container(model_c)
    for stage, acts, peak in (
        ("calibrate_model", calib, _traced_peak(calibrate_model, model_c, calib, qcfg)),
        ("evaluate", held_out, _traced_peak(evaluate, model_c, q_c, held_out)),
    ):
        captured = sum(x.nbytes for x in capture_activations(blocks, cfg, acts).values())
        assert peak < captured, f"{stage} peaked at {peak} B, the captures take {captured} B"
