"""Acceptance gate: one test per shipped guarantee.

Run with -v to get a single pass/fail line per criterion. Every test pins
its own tolerances, and the ones with a runtime budget assert it inline,
so a pass here certifies both the math and the cost.
"""

import dataclasses
import json
import time

import mpmath as mp
import numpy as np
import pytest

from scalefold import pipeline
from scalefold.calibration import calibrate_tensor, percentile_bounds
from scalefold.cli import cli_main
from scalefold.container import (container_from_model, read_container,
                                 to_bytes, write_container)
from scalefold.model import ModelConfig, model_forward
from scalefold.pipeline import (calibrate_model, capture_activations,
                                evaluate, quantize_model,
                                reparameterize_model, run_pipeline)
from scalefold.quantizers import (QuantParams, Scheme,
                                  fake_quantize, log2_dequantize, logsqrt2_dequantize,
                                  logsqrt2_dequantize_shift, uniform_quantize)
from scalefold.reparam import ReparamRecord, reparameterize_layernorm_site
from scalefold.synth import SynthSpec, gen_activations, gen_model

mp.mp.dps = 60


def channel_params(rng, channels, bits=4):
    qmax = 2 ** bits - 1
    return QuantParams(
        scheme=Scheme.UNIFORM, bits=bits,
        scale=np.exp(rng.uniform(np.log(0.05), np.log(4.0), size=channels)),
        zero_point=rng.integers(0, qmax + 1, size=channels),
    )


def draw_off_ties(rng, qp, rows, margin=1e-6):
    """In- and out-of-range values whose code pre-image sits away from ties."""
    qmax = 2 ** qp.bits - 1
    k = rng.integers(-2, qmax + 3, size=(rows, qp.scale.size))
    frac = rng.uniform(-0.5 + margin, 0.5 - margin, size=k.shape)
    return qp.scale * (k + frac)


@pytest.fixture(scope="module")
def default_chain():
    """Default-seed model, calibrated on 64 batches, evaluated on 32 held out."""
    cfg = ModelConfig()
    spec = SynthSpec()
    blocks = gen_model(cfg, spec)
    model_c = container_from_model(cfg, blocks)
    calib = gen_activations(cfg, spec, 64)
    held_out = gen_activations(cfg, spec, 32, stream=1)
    q_c = run_pipeline(model_c, calib)
    report = evaluate(model_c, q_c, held_out)
    return cfg, blocks, calib, report


def test_criterion_1_code_equality_at_scale():
    """Folded layer-wise codes match channel-wise codes on 128k draws, < 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    qp = channel_params(rng, channels=64)
    rec = ReparamRecord(qp)
    x = draw_off_ties(rng, qp, rows=2000)
    assert x.size >= 10 ** 5

    codes_chan = uniform_quantize(x, qp)
    adjusted = (x + qp.scale * rec.r2) / rec.r1
    codes_layer = uniform_quantize(adjusted, rec.target_params())

    assert np.array_equal(codes_chan, codes_layer)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_linear_output_alignment():
    """Adjusted affine + compensated weights reproduce the linear output, < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(220)
    for dim in (8, 64, 512):
        for _ in range(100):
            gamma = rng.normal(size=dim)
            beta = rng.normal(size=dim)
            weight = rng.normal(size=(dim, dim))
            bias = rng.normal(size=dim)
            x_norm = rng.normal(size=(16, dim))
            res = reparameterize_layernorm_site(
                gamma, beta, weight, bias, channel_params(rng, dim))

            original = (gamma * x_norm + beta) @ weight + bias
            folded = (res.gamma * x_norm + res.beta) @ res.weight + res.bias
            deviation = np.max(np.abs(folded - original))
            assert deviation <= 1e-9 * np.max(np.abs(original))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_block_fold_invariance():
    """A block with folded parameters matches the original on 32 fresh inputs."""
    cfg = ModelConfig()
    spec = SynthSpec(seed=0)
    w = gen_model(cfg, spec)[0]

    cap = {}
    model_forward(gen_activations(cfg, spec, 8), [w], cfg, capture=cap)
    fold1 = reparameterize_layernorm_site(
        w.gamma1, w.beta1, w.w_qkv, w.b_qkv,
        calibrate_tensor(cap["block0.ln1_out"], 4, 99.99, per_channel=True))
    fold2 = reparameterize_layernorm_site(
        w.gamma2, w.beta2, w.w_1, w.b_1,
        calibrate_tensor(cap["block0.ln2_out"], 4, 99.99, per_channel=True))
    w_folded = dataclasses.replace(
        w, gamma1=fold1.gamma, beta1=fold1.beta, w_qkv=fold1.weight, b_qkv=fold1.bias,
        gamma2=fold2.gamma, beta2=fold2.beta, w_1=fold2.weight, b_1=fold2.bias)

    x = gen_activations(cfg, spec, 32, stream=1)
    y0 = model_forward(x, [w], cfg)
    y1 = model_forward(x, [w_folded], cfg)
    # the bound holds for each input on its own
    per_input = (1, 2)
    assert np.all(np.max(np.abs(y1 - y0), axis=per_input)
                  <= 1e-9 * np.max(np.abs(y0), axis=per_input))


def test_criterion_4_halfpower_dequant_exactness():
    """Parity-scale dequantization is within 1 ulp of s*(sqrt 2)^-code; the shift
    path reproduces the float path bit for bit, for every code and width."""
    rng = np.random.default_rng(440)
    powers = [mp.power(mp.sqrt(2), -c) for c in range(256)]
    for bits in range(2, 9):
        codes = np.arange(2 ** bits)
        scales = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=100))
        for s in scales:
            got = logsqrt2_dequantize(codes, float(s), bits)
            exact = np.array([float(mp.mpf(float(s)) * powers[c]) for c in codes])
            ulp = np.abs(got.view(np.int64) - exact.view(np.int64))
            assert ulp.max() <= 1

            np.testing.assert_array_equal(
                logsqrt2_dequantize_shift(codes, float(s), bits), got)


def test_criterion_5_softmax_family_ordering(default_chain):
    """Half-power reconstruction equals its shift-path rewrite exactly and
    beats the whole-power grid by at least 1% relative on the default seed."""
    report = default_chain[3]
    sq = report.softmax_ablation
    assert sq["log_sqrt2"] == sq["base_changed"]
    assert sq["log_sqrt2"] < sq["log2"]
    assert (sq["log2"] - sq["log_sqrt2"]) / sq["log2"] >= 0.01


def test_criterion_6_layernorm_fold_ablation(default_chain):
    """On data with the reference channel-range spread, folding beats the
    naive layer-wise fit and stays within 1.25x of the channel-wise arm."""
    cfg, blocks, calib, report = default_chain

    caps = capture_activations(blocks, cfg, calib)
    rows = caps["block0.ln1_out"].reshape(-1, cfg.dim)
    spans = rows.max(axis=0) - rows.min(axis=0)
    for got, want in ((spans.min(), 3.94), (spans.mean(), 7.11), (spans.max(), 22.2)):
        assert abs(got - want) <= 0.30 * want

    ln = report.ln_ablation
    assert ln["layer_wise"] > ln["reparam"]
    assert ln["reparam"] <= 1.25 * ln["channel_wise"]


def test_criterion_7_quantizer_unit_properties():
    """Round-trip bound, exact grid fixed points, percentile nesting, and a
    safe degenerate fit; exhaustive over codes, 10^4+ randomized otherwise."""
    rng = np.random.default_rng(770)

    qp = channel_params(rng, channels=16)
    qmax = 2 ** qp.bits - 1
    lo, hi = -qp.scale * qp.zero_point, qp.scale * (qmax - qp.zero_point)
    x = lo + rng.uniform(size=(1000, 16)) * (hi - lo)
    assert x.size >= 10 ** 4
    err = np.abs(fake_quantize(x, qp) - x)
    assert np.all(err <= qp.scale / 2 * (1 + 1e-12))

    for bits in range(2, 9):
        qmax = 2 ** bits - 1
        for s, z in ((0.37, 3), (1.0, 0), (5.5, qmax)):
            grid_qp = QuantParams(scheme=Scheme.UNIFORM, bits=bits,
                                  scale=np.array([s]), zero_point=np.array([z]))
            grid = s * (np.arange(qmax + 1) - z)
            np.testing.assert_array_equal(fake_quantize(grid, grid_qp), grid)

    data = rng.normal(size=5000)
    bounds = [percentile_bounds(data, p) for p in (90.0, 99.0, 99.9, 100.0)]
    for (lo_a, hi_a), (lo_b, hi_b) in zip(bounds, bounds[1:]):
        assert lo_b <= lo_a and hi_a <= hi_b

    flat = calibrate_tensor(np.full(256, 3.0), 4)
    assert np.all(np.isfinite(flat.scale)) and np.all(flat.scale > 0)
    assert np.all(np.isfinite(fake_quantize(np.full(256, 3.0), flat)))


def test_criterion_8_determinism_and_round_trip(tmp_path):
    """Two identical CLI runs emit byte-identical containers end to end, and
    a container survives read-write-read untouched."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"calib_batches": 8, "eval_batches": 4}))

    def run(root):
        root.mkdir()
        data = root / "data"
        assert cli_main(["gen", "--out", str(data), "--config", str(cfg_path)]) == 0
        stages = {name: str(root / f"{name}.rvq")
                  for name in ("calibrated", "folded", "quantized")}
        assert cli_main(["calibrate", "--model", str(data / "model_fp.rvq"),
                         "--data", str(data / "calib.rvq"),
                         "--out", stages["calibrated"]]) == 0
        assert cli_main(["reparam", "--model", stages["calibrated"],
                         "--data", str(data / "calib.rvq"),
                         "--out", stages["folded"]]) == 0
        assert cli_main(["quantize", "--model", stages["folded"],
                         "--out", stages["quantized"]]) == 0
        files = [data / n for n in ("model_fp.rvq", "calib.rvq", "eval.rvq")]
        files += [root / f"{n}.rvq" for n in ("calibrated", "folded", "quantized")]
        return files

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    for fa, fb in zip(first, second):
        assert fa.read_bytes() == fb.read_bytes(), fa.name

    quantized = first[-1]
    copy1, copy2 = tmp_path / "copy1.rvq", tmp_path / "copy2.rvq"
    write_container(read_container(quantized), copy1)
    write_container(read_container(copy1), copy2)
    assert copy1.read_bytes() == quantized.read_bytes()
    assert copy2.read_bytes() == copy1.read_bytes()


def test_criterion_9_pipeline_speed_single_pass(monkeypatch):
    """The staged pipeline finishes in < 10 s on 32 calibration batches and
    runs every pass exactly once: there is no fitting loop to converge. The
    whole chain makes one float capture pass over the calibration stack, no
    other forward, and one fold per LayerNorm site."""
    cfg = ModelConfig()
    spec = SynthSpec()
    model_c = container_from_model(cfg, gen_model(cfg, spec))
    calib = gen_activations(cfg, spec, 32)

    forwards, captures, folds = [], [], []

    def spy(calls, fn):
        def wrapped(*args, **kwargs):
            calls.append(kwargs)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pipeline, "model_forward", spy(forwards, pipeline.model_forward))
    monkeypatch.setattr(pipeline, "capture_forward", spy(captures, pipeline.capture_forward))
    monkeypatch.setattr(pipeline, "reparameterize_layernorm_site",
                        spy(folds, pipeline.reparameterize_layernorm_site))
    t0 = time.perf_counter()
    q_c = quantize_model(reparameterize_model(calibrate_model(model_c, calib), calib))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    assert len(captures) == 1 and not forwards
    assert len(folds) == 2 * cfg.blocks
    assert to_bytes(q_c) == to_bytes(run_pipeline(model_c, calib))
