"""Staged pipeline tests: stage gating, manifest keys, determinism, evaluation."""

import json
import re

import numpy as np
import pytest

from scalefold.calibration import calibrate_tensor
from scalefold.container import (ContainerError, ModelContainer, blocks_from_container,
                                 container_from_model, from_bytes, to_bytes)
from scalefold import model as model_mod
from scalefold import pipeline
from scalefold.model import (ACTIVATION_SITES, ModelConfig, WEIGHT_SITES, capture_forward,
                             model_forward)
from scalefold.pipeline import (
    LN_SITES,
    PipelineError,
    QuantizeConfig,
    _fit_site,
    calibrate_model,
    capture_activations,
    evaluate,
    hooks_from_sites,
    load_records,
    load_sites,
    quantize_model,
    reparameterize_model,
    run_pipeline,
)
from scalefold.quantizers import QuantParams, Scheme, fake_quantize
from scalefold.synth import SynthSpec, gen_activations, gen_model

CFG = ModelConfig()


@pytest.fixture(scope="module")
def chain():
    """One full calibrate/fold/quantize chain on small synthetic batches."""
    spec = SynthSpec(seed=11)
    blocks = gen_model(CFG, spec)
    model_c = container_from_model(CFG, blocks)
    calib = gen_activations(CFG, spec, 8)
    held_out = gen_activations(CFG, spec, 4, stream=1)
    calib_c = calibrate_model(model_c, calib)
    rep_c = reparameterize_model(calib_c, calib)
    q_c = quantize_model(rep_c)
    return model_c, calib, held_out, calib_c, rep_c, q_c


class TestQuantizeConfig:
    def test_defaults(self):
        qcfg = QuantizeConfig()
        assert (qcfg.bits_w, qcfg.bits_a) == (4, 4)

    @pytest.mark.parametrize("kw", [{"bits_w": 1}, {"bits_w": 9}, {"bits_a": 0}])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            QuantizeConfig(**kw)

    def test_json_round_trip(self):
        qcfg = QuantizeConfig(bits_w=3, bits_a=5)
        assert QuantizeConfig.from_json(qcfg.to_json()) == qcfg

    def test_json_keys_must_equal_fields(self):
        d = QuantizeConfig().to_json()
        with pytest.raises(ValueError, match="bits_w"):
            QuantizeConfig.from_json({**d, "bits": 8})
        # an older file's config, which held the clip percentile
        with pytest.raises(ValueError, match="percentile"):
            QuantizeConfig.from_json({**d, "percentile": 99.99})
        del d["bits_w"]
        with pytest.raises(ValueError, match="bits_w"):
            QuantizeConfig.from_json(d)


class TestStageGating:
    def test_fold_requires_calibrated(self, chain):
        model_c, calib = chain[0], chain[1]
        with pytest.raises(PipelineError, match="calibrated"):
            reparameterize_model(model_c, calib)

    def test_quantize_requires_folded(self, chain):
        calib_c = chain[3]
        with pytest.raises(PipelineError, match="folded"):
            quantize_model(calib_c)

    @pytest.mark.parametrize("key", ["quantize_config", "sites"])
    def test_fold_requires_config_and_sites(self, chain, key):
        calib, calib_c = chain[1], chain[3]
        meta = {k: v for k, v in calib_c.meta.items() if k != key}
        with pytest.raises(PipelineError, match=f"lacks {key}"):
            reparameterize_model(ModelContainer(meta=meta, tensors=calib_c.tensors), calib)

    # ids kept from when the fold records were a manifest table
    @pytest.mark.parametrize("drop, named", [
        pytest.param((".scale", ".zero"), "reparam_records.block0.ln1_out.scale", id="None"),
        pytest.param((".zero",), "reparam_records.block0.ln1_out.zero", id="records1"),
        pytest.param(("block0.ln2_out.", "block1."), "reparam_records.block0.ln2_out.scale",
                     id="records2"),
    ])
    def test_quantize_requires_fold_records(self, chain, drop, named):
        """A folded container without a fold record's source tensors is refused, named."""
        rep_c = chain[4]
        tensors = {k: v for k, v in rep_c.tensors.items()
                   if not (k.startswith("reparam_records.") and any(d in k for d in drop))}
        with pytest.raises(ContainerError, match=f"missing tensor '{re.escape(named)}'"):
            quantize_model(ModelContainer(meta=rep_c.meta, tensors=tensors))

    def test_evaluate_requires_quantized(self, chain):
        model_c, held_out, rep_c = chain[0], chain[2], chain[4]
        with pytest.raises(PipelineError, match="quantized"):
            evaluate(model_c, rep_c, held_out)

    def test_calibrate_and_reference_need_float_weights(self, chain):
        model_c, calib, held_out, q_c = chain[0], chain[1], chain[2], chain[5]
        with pytest.raises(PipelineError, match="calibration needs float weights"):
            calibrate_model(q_c, calib)
        with pytest.raises(PipelineError, match="reference of evaluate needs float weights"):
            evaluate(q_c, q_c, held_out)

    def test_config_mismatch_names_the_key(self, chain):
        q_c = chain[5]
        other_cfg = ModelConfig(dim=32, heads=4, head_dim=8, mlp_dim=64)
        other = container_from_model(other_cfg, gen_model(other_cfg, SynthSpec()))
        with pytest.raises(PipelineError, match="dim"):
            evaluate(other, q_c, gen_activations(other_cfg, SynthSpec(), 1))

    def test_bad_activation_shape(self, chain):
        model_c = chain[0]
        with pytest.raises(PipelineError, match="do not fit"):
            calibrate_model(model_c, np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_activations_are_refused_before_any_forward(self, chain, monkeypatch,
                                                                   bad):
        """An inf or NaN in one sample fails the stage by name; no forward runs."""
        model_c, calib, held_out, q_c = chain[0], chain[1], chain[2], chain[5]
        monkeypatch.setattr("scalefold.pipeline.capture_forward", None)
        monkeypatch.setattr("scalefold.pipeline.model_forward", None)
        calib, held_out = calib.copy(), held_out.copy()
        calib[-1, 3, 5] = held_out[-1, 0, 0] = bad
        with pytest.raises(PipelineError, match="^calibration activations hold non-finite"):
            calibrate_model(model_c, calib)
        with pytest.raises(PipelineError, match="^held-out activations hold non-finite"):
            evaluate(model_c, q_c, held_out)


class TestCalibrateStage:
    def test_stage_and_site_table(self, chain):
        """The manifest holds the per-layer sites, the tensors the LayerNorm ones.

        Calibration fits no weight site: the fold is the first to fit them,
        so a calibrated container ships no weight quantizer tensor.
        """
        calib_c = chain[3]
        assert calib_c.stage == "calibrated"
        sites = load_sites(calib_c)
        assert sorted(sites) == sorted(f"block{i}.{s}" for i in range(CFG.blocks)
                                       for s in ACTIVATION_SITES)
        assert len(sites) == 8 * CFG.blocks
        assert len(calib_c.meta["sites"]) == 6 * CFG.blocks
        for i in range(CFG.blocks):
            for site in WEIGHT_SITES:
                assert f"block{i}.{site}.scale" not in calib_c.tensors
                assert f"block{i}.{site}.zero" not in calib_c.tensors
        ln = sites["block0.ln1_out"]
        assert ln.scale.shape == (CFG.dim,)
        assert ln.scheme == Scheme.UNIFORM
        assert calib_c.tensors["block0.ln1_out.scale"] is ln.scale
        att = sites["block1.attn_a"]
        assert att.scheme == Scheme.LOG_SQRT2
        plain = sites["block0.gelu_out"]
        assert plain.scale.shape == (1,)

    def test_ablation_snapshot(self, chain):
        calib_c = chain[3]
        abl = calib_c.meta["ablation"]
        # the naive LayerNorm fits only: the fold records keep the channel-wise
        # sources, and the other activation sites carry through the fold
        assert set(abl) == {"ln_layer_wise"}
        assert set(abl["ln_layer_wise"]) == {
            f"block{i}.{s}" for i in range(CFG.blocks) for s in ("ln1_out", "ln2_out")
        }
        naive = QuantParams.from_json(abl["ln_layer_wise"]["block0.ln1_out"])
        assert naive.scale.shape == (1,)

    def test_meta_records_inputs(self, chain):
        calib_c = chain[3]
        assert QuantizeConfig.from_json(calib_c.meta["quantize_config"]) == QuantizeConfig()

    def test_capture_covers_every_site(self, chain):
        model_c, calib = chain[0], chain[1]
        cfg, blocks = blocks_from_container(model_c)
        caps = capture_activations(blocks, cfg, calib[:2])
        # eight activation sites per block; weights are read off the container
        assert len(caps) == 8 * cfg.blocks
        assert caps["block0.ln1_out"].shape == (2, cfg.patches, cfg.dim)


def assert_same_captures(got, want):
    """The same sites in the same order, each with the same shape and bits."""
    assert list(got) == list(want)
    for key, x in want.items():
        assert got[key].shape == x.shape, key
        np.testing.assert_array_equal(got[key].view(np.int64), x.view(np.int64), err_msg=key)


class TestCapturePass:
    """Calibration's capture pass ends at the last block's gelu_out."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("n_blocks", [2, 3])
    def test_captures_are_a_full_forwards_bit_for_bit(self, n_blocks, n):
        cfg = ModelConfig(blocks=n_blocks)
        spec = SynthSpec(seed=n_blocks)
        blocks = gen_model(cfg, spec)
        acts = gen_activations(cfg, spec, n)
        full = {}
        model_forward(acts, blocks, cfg, capture=full)
        assert_same_captures(capture_activations(blocks, cfg, acts), full)
        assert list(full)[-1] == f"block{n_blocks - 1}.gelu_out"

    def test_calibration_never_multiplies_the_last_w_2(self, chain, monkeypatch):
        """No float product of calibration takes the last block's w_2; block 0's still does."""
        model_c, calib = chain[0], chain[1]
        loaded, operands = [], []
        real_load, real_matmul = pipeline.blocks_from_container, model_mod.matmul

        def load(container):
            loaded.append(real_load(container))
            return loaded[-1]

        def spy(a, b):
            operands.append(b)
            return real_matmul(a, b)

        monkeypatch.setattr(pipeline, "blocks_from_container", load)
        monkeypatch.setattr(model_mod, "matmul", spy)
        calibrate_model(model_c, calib)
        blocks = loaded[0][1]
        assert any(b is blocks[0].w_2 for b in operands)
        assert not any(b is blocks[-1].w_2 for b in operands)


class TestFoldStage:
    @pytest.mark.parametrize("index, extra", [(3, set()), (4, set()), (5, {"weight_mse"})],
                             ids=["calibrated", "reparameterized", "quantized"])
    def test_stage_manifest_keys(self, chain, index, extra):
        """Each stage's manifest holds exactly the keys that some reader reads."""
        keys = {"kind", "stage", "model_config", "quantize_config", "sites", "ablation"}
        assert set(chain[index].meta) == keys | extra

    def test_stage_records_and_dequant_marker(self, chain):
        """Each fold record ships as its source's two tensors, and the manifest holds neither
        records nor a dequantizer marker, which nothing reads."""
        rep_c = chain[4]
        assert rep_c.stage == "reparameterized"
        assert not {"softmax_dequant", "reparam_records"} & set(rep_c.meta)
        recs = {k for k in rep_c.tensors if k.startswith("reparam_records.")}
        assert recs == {f"reparam_records.block{i}.{s}.{t}" for i in range(CFG.blocks)
                        for s in ("ln1_out", "ln2_out") for t in ("scale", "zero")}
        assert set(load_records(rep_c, load_sites(rep_c))) == {
            f"block{i}.{s}" for i in range(CFG.blocks) for s in ("ln1_out", "ln2_out")
        }

    def test_ln_sites_become_layer_wise(self, chain):
        rep_c = chain[4]
        for i in range(CFG.blocks):
            qp = QuantParams.from_json(rep_c.meta["sites"][f"block{i}.ln1_out"])
            assert qp.scale.shape == (1,)

    def test_ablation_carried_forward(self, chain):
        calib_c, rep_c = chain[3], chain[4]
        assert rep_c.meta["ablation"] == calib_c.meta["ablation"]

    def test_activation_sites_carry_through_the_fold(self, chain):
        """The fold replaces each LayerNorm site by its target and keeps every other activation site."""
        calib_c, rep_c = chain[3], chain[4]
        read = from_bytes(to_bytes(rep_c))
        records, calibrated = load_records(read, load_sites(read)), load_sites(calib_c)
        for i in range(CFG.blocks):
            for site in ACTIVATION_SITES:
                key = f"block{i}.{site}"
                if site in LN_SITES:
                    rec = records[key]
                    assert rep_c.meta["sites"][key] == rec.target_params().to_json()
                    assert rec.source.to_json() == calibrated[key].to_json()
                else:
                    assert rep_c.meta["sites"][key] == calib_c.meta["sites"][key]

    def test_fold_reads_no_data(self, chain, monkeypatch):
        """No forward runs in the fold, and whatever is passed as `acts` is ignored."""
        calib_c, rep_c = chain[3], chain[4]
        monkeypatch.setattr("scalefold.pipeline.model_forward", None)
        monkeypatch.setattr("scalefold.pipeline.capture_forward", None)
        monkeypatch.setattr("scalefold.pipeline.capture_activations", None)
        assert to_bytes(reparameterize_model(calib_c)) == to_bytes(rep_c)
        assert to_bytes(reparameterize_model(calib_c, np.zeros((1, 2, 3)))) == to_bytes(rep_c)


# the benchmark's two model shapes and bit widths, with its calibration sample counts
FOLD_SHAPES = {
    "16x64-w4a4": (ModelConfig(), 4, 64),
    "64x128-w8a8": (ModelConfig(patches=64, dim=128, heads=4, head_dim=32, mlp_dim=512), 8, 16),
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("shape", sorted(FOLD_SHAPES))
def test_carried_sites_match_a_refit_of_the_folded_model(shape, seed):
    """The fold leaves the activations it carries sites for unchanged.

    Capturing the folded float model over the calibration stack and
    refitting gives each carried site's zero points exactly and its scales
    to 1e-12 relative, so no recapture is needed after the fold.
    """
    cfg, bits, samples = FOLD_SHAPES[shape]
    qcfg = QuantizeConfig(bits_w=bits, bits_a=bits)
    spec = SynthSpec(seed=seed)
    model_c = container_from_model(cfg, gen_model(cfg, spec))
    calib = gen_activations(cfg, spec, samples)
    rep_c = reparameterize_model(calibrate_model(model_c, calib, qcfg))
    _, folded = blocks_from_container(rep_c)
    refit = {key: _fit_site(key, x, qcfg)
             for key, x in capture_activations(folded, cfg, calib).items()}
    carried = [f"block{i}.{s}" for i in range(cfg.blocks)
               for s in ACTIVATION_SITES if s not in LN_SITES]
    for key in carried:
        got = QuantParams.from_json(rep_c.meta["sites"][key])
        want = refit[key]
        assert (got.scheme, got.scale.size, got.bits) == (want.scheme, want.scale.size,
                                                          want.bits), key
        if want.zero_point is not None:
            np.testing.assert_array_equal(got.zero_point, want.zero_point, err_msg=key)
        np.testing.assert_allclose(got.scale, want.scale, rtol=1e-12, atol=0, err_msg=key)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("shape", sorted(FOLD_SHAPES))
def test_fold_records_read_back_their_targets_bit_exact(shape, seed):
    """A record read from the file derives the very target the fold computed in memory.

    The file ships only each record's source, as exact f64 scales and
    integer zero points, so the target derived on load must equal the
    layer-wise LayerNorm site the in-memory fold wrote, to the last bit.
    """
    cfg, bits, samples = FOLD_SHAPES[shape]
    spec = SynthSpec(seed=seed)
    model_c = container_from_model(cfg, gen_model(cfg, spec))
    rep_c = reparameterize_model(calibrate_model(model_c, gen_activations(cfg, spec, samples),
                                                 QuantizeConfig(bits_w=bits, bits_a=bits)))
    read = from_bytes(to_bytes(rep_c))
    records = load_records(read, load_sites(read))
    assert len(records) == 2 * cfg.blocks
    for key, rec in records.items():
        site = QuantParams.from_json(rep_c.meta["sites"][key])
        assert rec.target_params().bits == site.bits == bits
        assert rec.target_scale.hex() == float(site.scale[0]).hex(), key
        assert rec.target_zero == site.zero_point[0], key


class TestQuantizeStage:
    def test_codes_emitted_for_every_weight(self, chain):
        q_c = chain[5]
        assert q_c.stage == "quantized"
        for i in range(CFG.blocks):
            for site in WEIGHT_SITES:
                codes = q_c.tensors[f"block{i}.{site}.codes"]
                assert np.issubdtype(codes.dtype, np.integer)
                assert codes.min() >= 0 and codes.max() <= 15

    def test_ships_u8_codes_and_weight_mse_in_place_of_float_weights(self, chain):
        """No float weight matrix is left; each site's MSE is taken on the folded floats."""
        rep_c, q_c = chain[4], chain[5]
        _, folded = blocks_from_container(rep_c)
        sites = load_sites(q_c)
        assert sorted(q_c.meta["weight_mse"]) == sorted(
            f"block{i}.{s}" for i in range(CFG.blocks) for s in WEIGHT_SITES)
        for i, bw in enumerate(folded):
            for site in WEIGHT_SITES:
                key = f"block{i}.{site}"
                assert key not in q_c.tensors
                assert q_c.tensors[key + ".codes"].dtype == np.uint8
                w = getattr(bw, site)
                err = np.mean((fake_quantize(w, sites[key]) - w) ** 2)
                assert q_c.meta["weight_mse"][key] == err > 0
        assert sorted(q_c.tensors) == sorted(
            [k for k in rep_c.tensors if k.rpartition(".")[2] not in WEIGHT_SITES]
            + [f"block{i}.{s}.codes" for i in range(CFG.blocks) for s in WEIGHT_SITES])

    def test_codes_survive_serialization(self, chain):
        q_c = chain[5]
        back = from_bytes(to_bytes(q_c))
        np.testing.assert_array_equal(back.tensors["block0.w_qkv.codes"],
                                      q_c.tensors["block0.w_qkv.codes"])


class TestDeterminism:
    def test_byte_identical_reruns(self):
        def build():
            spec = SynthSpec(seed=3)
            model_c = container_from_model(CFG, gen_model(CFG, spec))
            return to_bytes(run_pipeline(model_c, gen_activations(CFG, spec, 4)))

        assert build() == build()

    def test_later_stages_carry_metadata_whole(self, chain):
        model_c, calib, calib_c = chain[0], chain[1], chain[3]
        tagged = ModelContainer(meta={**calib_c.meta, "origin": {"run": 7}},
                                tensors=calib_c.tensors)
        rep_c = reparameterize_model(tagged, calib)
        assert rep_c.meta["origin"] == {"run": 7}
        assert quantize_model(rep_c).meta["origin"] == {"run": 7}

    def test_run_pipeline_matches_staged_calls(self, chain):
        model_c, calib, q_c = chain[0], chain[1], chain[5]
        assert to_bytes(run_pipeline(model_c, calib)) == to_bytes(q_c)

    def test_run_pipeline_runs_one_float_forward(self, chain, monkeypatch):
        """Calibration's capture pass is the only forward; the fold reads no data."""
        model_c, calib = chain[0], chain[1]
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr("scalefold.pipeline.model_forward", counting(model_forward))
        monkeypatch.setattr("scalefold.pipeline.capture_forward", counting(capture_forward))
        run_pipeline(model_c, calib)
        assert calls == ["capture_forward"]


@pytest.fixture(scope="module")
def report(chain):
    model_c, held_out, q_c = chain[0], chain[2], chain[5]
    return evaluate(model_c, q_c, held_out)


class TestEvaluate:
    def test_code_equality_is_total(self, report):
        assert report.code_equality_rate == 1.0
        assert set(report.code_equality) == {
            f"block{i}.{s}" for i in range(CFG.blocks) for s in ("ln1_out", "ln2_out")
        }
        assert all(rate == 1.0 for rate in report.code_equality.values())

    def test_output_metrics_sane(self, report):
        assert 0.0 <= report.output_mse
        assert 0.5 < report.output_cosine <= 1.0
        assert len(report.per_site_mse) == 12 * CFG.blocks
        assert all(v >= 0 for v in report.per_site_mse.values())

    def test_ln_ablation_arms(self, report):
        assert set(report.ln_ablation) == {"layer_wise", "channel_wise", "reparam"}
        assert report.ln_ablation["reparam"] == report.output_mse
        # folding channel-wise statistics into the layer-wise quantizer must
        # beat fitting that quantizer naively
        assert report.ln_ablation["reparam"] < report.ln_ablation["layer_wise"]

    def test_softmax_shift_path_matches_float_dequant(self, report):
        sq = report.softmax_ablation
        assert sq["log_sqrt2"] == sq["base_changed"]
        assert sq["log_sqrt2"] < sq["log2"]

    def test_weight_mse_is_the_quantize_stage_figure(self, chain, report):
        q_c = chain[5]
        for key, value in q_c.meta["weight_mse"].items():
            assert report.per_site_mse[key] == value

    @pytest.mark.parametrize("value", ["0.1", -1.0, None, True, [0.1]])
    def test_malformed_weight_mse_is_named(self, chain, value):
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        meta = {**q_c.meta, "weight_mse": {**q_c.meta["weight_mse"], "block1.w_o": value}}
        with pytest.raises(PipelineError, match="weight_mse.block1.w_o"):
            evaluate(model_c, ModelContainer(meta=meta, tensors=q_c.tensors), held_out)

    def test_ablation_arms_refit_the_pre_fold_weight_sites(self, chain, monkeypatch):
        """Both LayerNorm ablation arms quantize the unfolded float weights, fitted as the fold fits.

        No container holds the pre-fold sites of the LayerNorm consumers
        w_qkv and w_1, so evaluate fits them, and only them, by channel-wise
        min/max on the float model and quantizes each once. The fold leaves
        w_o and w_2 as they are, so the arms take the quantized container's
        own codes for them. Both arms multiply one list of `CodeBlock`s. The
        channel-wise arm takes its LayerNorm sites from the fold records'
        sources, the layer-wise arm from the naive fits, and both take every
        other activation site from the carried site table.
        """
        model_c, held_out, calib_c, q_c = chain[0], chain[2], chain[3], chain[5]
        runs, fitted = [], []

        def spy(x, blocks, cfg, hooks=None, capture=None):
            if hooks is not None:
                runs.append((blocks, hooks))
            return model_forward(x, blocks, cfg, hooks=hooks, capture=capture)

        def fit_spy(x, *args, **kwargs):
            fitted.append(np.array(x))
            return calibrate_tensor(x, *args, **kwargs)

        monkeypatch.setattr("scalefold.pipeline.model_forward", spy)
        monkeypatch.setattr("scalefold.pipeline.calibrate_tensor", fit_spy)
        evaluate(model_c, q_c, held_out)
        _, (layer_blocks, layer_wise), (chan_blocks, channel_wise) = runs
        assert layer_blocks is chan_blocks
        fp_blocks, q_blocks = blocks_from_container(model_c)[1], blocks_from_container(q_c)[1]
        consumers = [w for fp in fp_blocks for w in (fp.w_qkv, fp.w_1)]
        assert len(fitted) == len(consumers)
        for got, want in zip(fitted, consumers):
            np.testing.assert_array_equal(got, want)
        shipped = {k: v.to_json() for k, v in load_sites(q_c).items()}
        bits_w = q_c.meta["quantize_config"]["bits_w"]
        for i, (arm, fp, q) in enumerate(zip(chan_blocks, fp_blocks, q_blocks)):
            for site in ("w_o", "w_2"):
                np.testing.assert_array_equal(getattr(arm, site).centred,
                                              getattr(q, site).centred)
            for site in WEIGHT_SITES:
                block, w = getattr(arm, site), getattr(fp, site)
                want = (shipped[f"block{i}.{site}"] if site in ("w_o", "w_2")
                        else calibrate_tensor(w, bits_w, per_channel=True).to_json())
                assert block.params.to_json() == want, (i, site)
                np.testing.assert_array_equal(block.dequantize(), fake_quantize(w, block.params))
        calibrated = {k: v.to_json() for k, v in load_sites(calib_c).items()}
        naive = calib_c.meta["ablation"]["ln_layer_wise"]
        assert {k: v.to_json() for k, v in channel_wise.items()} == calibrated
        assert {k: v.to_json() for k, v in layer_wise.items()} == {**calibrated, **naive}

    @pytest.mark.parametrize("change", ["scale", "zero_point", "bits", "channel_wise"])
    def test_ln_site_that_is_not_its_fold_target_is_named(self, chain, change, monkeypatch):
        """The forward runs the site and the audit the record, so the two must agree."""
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        monkeypatch.setattr("scalefold.pipeline.model_forward", None)
        site = q_c.meta["sites"]["block0.ln1_out"]
        site = {
            "scale": {**site, "scale": [3 * site["scale"][0]], "zero_point": [0]},
            "zero_point": {**site, "zero_point": [(site["zero_point"][0] + 1) % 16]},
            "bits": {**site, "bits": 5},
            "channel_wise": load_records(q_c, load_sites(q_c))["block0.ln1_out"].source.to_json(),
        }[change]
        meta = {**q_c.meta, "sites": {**q_c.meta["sites"], "block0.ln1_out": site}}
        # a channel-wise entry is no manifest site at all, so loading the table rejects it
        error, named = ((ContainerError, "sites.block0.ln1_out holds 64 scales")
                        if change == "channel_wise"
                        else (PipelineError, "site block0.ln1_out is not the target"))
        with pytest.raises(error, match=named):
            evaluate(model_c, ModelContainer(meta=meta, tensors=q_c.tensors), held_out)

    @pytest.mark.parametrize("table", ["sites", "ablation.ln_layer_wise"])
    def test_extra_site_keys_are_named(self, chain, table, monkeypatch):
        """A site entry with a key `QuantParams.to_json` does not write is a ContainerError.

        The `granularity` and `channel_axis` keys of earlier writers are such
        keys: no writer emits them, and the format version that carried them
        is refused on read.
        """
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        monkeypatch.setattr("scalefold.pipeline.model_forward", None)
        meta = json.loads(json.dumps(q_c.meta))
        entries = meta["sites"] if table == "sites" else meta["ablation"]["ln_layer_wise"]
        entries["block1.ln2_out"].update(granularity="per_layer", channel_axis=None)
        with pytest.raises(ContainerError, match=f"{re.escape(table)}.block1.ln2_out: "
                                                 "QuantParams expects keys"):
            evaluate(model_c, from_bytes(to_bytes(ModelContainer(meta=meta, tensors=q_c.tensors))),
                     held_out)

    def test_report_round_trips_to_json(self, report):
        d = report.to_json()
        assert d["output_mse"] == report.output_mse
        assert d["code_equality_rate"] == 1.0

    @pytest.mark.parametrize("top, key", [
        ("reparam_records", None), ("reparam_records", "block1.ln2_out"),
        ("ablation", "ln_layer_wise"),
        ("weight_mse", "block1.w_2"), ("sites", "block0.gelu_out"), ("sites", "block1.attn_a"),
        ("quantize_config", None),
    ])
    def test_missing_fold_data_is_named(self, chain, top, key, monkeypatch):
        """A container stripped of what evaluate reads fails before any forward runs.

        It must not pass vacuously: without `block0.gelu_out`, say, the
        quantized forward would run that site unquantized.
        """
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        monkeypatch.setattr("scalefold.pipeline.model_forward", None)
        meta, tensors, error = {**q_c.meta}, q_c.tensors, PipelineError
        if top == "reparam_records":
            # the fold records are their source tensors; a missing one is a container error
            prefix = f"{top}.{key or ''}"
            tensors = {k: v for k, v in tensors.items() if not k.startswith(prefix)}
            named, error = f"missing tensor '{top}.{key or 'block0.ln1_out'}.scale'", ContainerError
        elif key is None:
            del meta[top]
            # a table's first key names it; the quantize config is one entry
            named = top if top == "quantize_config" else f"{top}.block0.ln1_out"
        else:
            meta[top] = {k: v for k, v in meta[top].items() if k != key}
            named = f"{top}.{key}"
        stripped = ModelContainer(meta=meta, tensors=tensors)
        with pytest.raises(error, match=named):
            evaluate(model_c, stripped, held_out)

    @pytest.mark.parametrize("value", [
        None, {"bits_w": 4}, {**QuantizeConfig().to_json(), "bits_w": 9},
    ])
    def test_malformed_quantize_config_is_named(self, chain, value):
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        meta = {**q_c.meta, "quantize_config": value}
        with pytest.raises(PipelineError, match="quantize_config"):
            evaluate(model_c, ModelContainer(meta=meta, tensors=q_c.tensors), held_out)

    def test_fold_record_of_wrong_width_is_named(self, chain):
        """A fold source one channel short fails the channel check that `load_sites` makes."""
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        key = "reparam_records.block0.ln2_out"
        stripped = ModelContainer(meta=q_c.meta, tensors={
            **q_c.tensors, key + ".scale": q_c.tensors[key + ".scale"][:-1],
            key + ".zero": q_c.tensors[key + ".zero"][:-1]})
        with pytest.raises(ContainerError, match=rf"{key}\.scale and {key}\.zero hold 63 "
                                                 "channels, the model 64"):
            evaluate(model_c, stripped, held_out)

    @pytest.mark.parametrize("stage", ["reparameterized", "quantized"])
    def test_fold_source_whose_target_is_no_quantizer_is_named(self, chain, monkeypatch, stage):
        """64 scales of 1.7e308 are each valid, but their mean overflows to inf.

        `load_records` derives the target and names the record before the
        next stage runs anything.
        """
        model_c, held_out, rep_c, q_c = chain[0], chain[2], chain[4], chain[5]
        monkeypatch.setattr("scalefold.pipeline.model_forward", None)
        c = {"reparameterized": rep_c, "quantized": q_c}[stage]
        key = "reparam_records.block1.ln2_out"
        damaged = ModelContainer(meta=c.meta, tensors={
            **c.tensors, key + ".scale": np.full(CFG.dim, 1.7e308)})
        named = f"fold record {re.escape(key)}: target scales must be positive and finite"
        with pytest.raises(PipelineError, match=named):
            load_records(damaged, load_sites(damaged))
        with pytest.raises(PipelineError, match=named):
            if stage == "quantized":
                evaluate(model_c, damaged, held_out)
            else:
                quantize_model(damaged)

    def test_missing_site_table_is_named(self, chain):
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        meta = {k: v for k, v in q_c.meta.items() if k != "sites"}
        with pytest.raises(PipelineError, match="lacks sites"):
            evaluate(model_c, ModelContainer(meta=meta, tensors=q_c.tensors), held_out)

    # ids kept from when ablation.precalib_sites ran as path1
    @pytest.mark.parametrize("path", [
        pytest.param(("sites",), id="path0"),
        pytest.param(("ablation", "ln_layer_wise"), id="path2"),
    ])
    def test_unknown_site_name_is_named(self, chain, path):
        """A site table naming a site the model lacks fails before any forward runs."""
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        meta = json.loads(json.dumps(q_c.meta))
        table = meta
        for key in path:
            table = table[key]
        table["block9.attn_q"] = next(iter(table.values()))
        with pytest.raises(PipelineError, match="block9.attn_q"):
            evaluate(model_c, ModelContainer(meta=meta, tensors=q_c.tensors), held_out)


class TestHooksFromSites:
    def test_returns_the_site_table(self, chain):
        q_c = chain[5]
        sites = {k: QuantParams.from_json(v) for k, v in q_c.meta["sites"].items()}
        assert hooks_from_sites(CFG, sites) is sites

    def test_missing_sites_stay_none(self, chain):
        """A partial table comes back as it is, and the forward bypasses what it lacks.

        With only block0.gelu_out hooked, every capture up to it equals the
        unhooked forward's, and everything after it differs.
        """
        model_c, held_out = chain[0], chain[2]
        _, blocks = blocks_from_container(model_c)
        sites = {"block0.gelu_out": QuantParams(
            scheme=Scheme.UNIFORM, bits=4, scale=np.array([1.0]), zero_point=np.array([0]))}
        hooks = hooks_from_sites(CFG, sites)
        assert hooks is sites
        clean, hooked = {}, {}
        model_forward(held_out, blocks, CFG, capture=clean)
        model_forward(held_out, blocks, CFG, hooks=hooks, capture=hooked)
        for name in clean:
            same = np.array_equal(hooked[name], clean[name])
            assert same == name.startswith("block0."), name

    def test_unknown_names_raise(self, chain):
        sites = {k: QuantParams.from_json(v) for k, v in chain[5].meta["sites"].items()}
        qp = sites["block0.attn_q"]
        bad = {**sites, "block2.attn_q": qp, "block0.attn_x": qp, "attn_q": qp}
        with pytest.raises(PipelineError, match="attn_q, block0.attn_x, block2.attn_q$"):
            hooks_from_sites(CFG, bad)


def _damaged(c, key, damage):
    """A copy of container `c` with the per-channel quantizer tensors of `key` damaged."""
    tensors = dict(c.tensors)
    scale, zero = tensors[key + ".scale"].copy(), tensors[key + ".zero"].copy()
    if damage in ("nan", "zero", "negative"):
        scale[3] = {"nan": np.nan, "zero": 0.0, "negative": -scale[3]}[damage]
    elif damage == "zero-past-qmax":
        zero[3] = 16
    elif damage == "short":
        scale, zero = scale[:-1], zero[:-1]
    tensors[key + ".scale"], tensors[key + ".zero"] = scale, zero
    if damage.startswith("no-"):
        del tensors[f"{key}.{damage[3:]}"]
    return ModelContainer(meta=c.meta, tensors=tensors)


class TestQuantizerTensors:
    """Per-channel quantizers ship as `.scale` and `.zero` tensors, and a damaged one is named."""

    @pytest.mark.parametrize("damage", ["nan", "zero", "negative", "zero-past-qmax", "short",
                                        "no-scale", "no-zero"])
    @pytest.mark.parametrize("stage, key", [
        ("calibrated", "block0.ln2_out"), ("reparameterized", "block1.w_1"),
        ("quantized", "block0.w_o"), ("quantized", "reparam_records.block1.ln1_out"),
    ])
    def test_damaged_vector_is_a_clean_error(self, chain, monkeypatch, stage, key, damage):
        """Each stage that reads the vectors fails with a named error before any forward runs."""
        model_c, held_out, calib_c, rep_c, q_c = chain[0], chain[2], *chain[3:]
        monkeypatch.setattr("scalefold.pipeline.model_forward", None)
        run = {
            "calibrated": lambda c: reparameterize_model(c),
            "reparameterized": lambda c: quantize_model(c),
            "quantized": lambda c: evaluate(model_c, c, held_out),
        }[stage]
        damaged = _damaged({"calibrated": calib_c, "reparameterized": rep_c,
                            "quantized": q_c}[stage], key, damage)
        with pytest.raises((ContainerError, PipelineError), match=key.rpartition(".")[2]):
            run(damaged)

    @pytest.mark.parametrize("stage, key, channels", [
        ("calibrated", "block0.ln2_out", 64), ("reparameterized", "block1.w_qkv", 192),
        ("quantized", "block0.w_1", 256),
    ])
    def test_vectors_of_the_wrong_length_are_named(self, chain, stage, key, channels):
        """A per-channel site one entry short is named with both lengths when its table loads.

        The fold used to read a 63-entry `block0.ln2_out` as it was and then
        blame the LayerNorm's gamma and beta, which have the right length.
        """
        damaged = _damaged({c.stage: c for c in chain[3:]}[stage], key, "short")
        named = rf"{key}\.scale and {key}\.zero hold {channels - 1} channels, the model {channels}"
        with pytest.raises(ContainerError, match=named):
            load_sites(damaged)
        if stage == "calibrated":
            with pytest.raises(ContainerError, match=named):
                reparameterize_model(damaged)

    @pytest.mark.parametrize("path", ["sites.block0.attn_q",
                                      "ablation.ln_layer_wise.block1.ln2_out"])
    def test_manifest_site_with_many_scales_is_named(self, chain, monkeypatch, path):
        """A manifest site is per layer: one with 64 scales and zero points is rejected, named."""
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        monkeypatch.setattr("scalefold.pipeline.model_forward", None)
        meta = json.loads(json.dumps(q_c.meta))
        *parents, key = path.split(".", path.count(".") - 1)
        table = meta
        for name in parents:
            table = table[name]
        table[key] = {**table[key], "scale": [1.0] * 64, "zero_point": [0] * 64}
        with pytest.raises(ContainerError, match=rf"{re.escape(path)} holds 64 scales"):
            evaluate(model_c, ModelContainer(meta=meta, tensors=q_c.tensors), held_out)

    def test_vectors_read_back_bit_exact(self, chain):
        """The f64 scales and integer zero points of every stage survive the file unchanged."""
        for c in chain[3:]:
            back = from_bytes(to_bytes(c))
            for name in c.tensors:
                if name.endswith((".scale", ".zero")):
                    np.testing.assert_array_equal(back.tensors[name], c.tensors[name])
                    assert back.tensors[name].dtype == (
                        np.float64 if name.endswith(".scale") else np.uint8)
        q_c = chain[5]
        for key, qp in load_sites(from_bytes(to_bytes(q_c))).items():
            assert qp.to_json() == load_sites(q_c)[key].to_json()

    def test_manifest_holds_no_vector(self, chain):
        """No manifest value but a tensor shape is a list of more than one number."""
        def vectors(node, path):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield from vectors(v, f"{path}.{k}")
            elif isinstance(node, list):
                if sum(isinstance(v, (int, float)) for v in node) > 1:
                    yield path
                for j, v in enumerate(node):
                    yield from vectors(v, f"{path}[{j}]")

        for c in chain[3:]:
            raw = to_bytes(c)
            manifest = json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])
            found = [p for p in vectors(manifest, c.stage)
                     if not re.fullmatch(rf"{c.stage}\.tensors\[\d+\]\.shape", p)]
            assert found == []

    def test_older_layout_with_vectors_in_json_is_a_clean_error(self, chain):
        """A q container that keeps its weight sites and fold sources in JSON does not load."""
        model_c, held_out, q_c = chain[0], chain[2], chain[5]
        sites = load_sites(q_c)
        records = load_records(q_c, sites)
        meta = json.loads(json.dumps(q_c.meta))
        meta["sites"] = {k: qp.to_json() for k, qp in sites.items()}
        meta["reparam_records"] = {key: {"target_scale": rec.target_scale,
                                         "target_zero": rec.target_zero,
                                         "source": rec.source.to_json()}
                                   for key, rec in records.items()}
        old = from_bytes(to_bytes(ModelContainer(meta=meta, tensors={
            k: v for k, v in q_c.tensors.items() if not k.endswith((".scale", ".zero"))})))
        with pytest.raises(ContainerError, match="missing tensor 'block0.w_1.scale'"):
            evaluate(model_c, old, held_out)
        with pytest.raises(ContainerError, match="missing tensor"):
            blocks_from_container(old)


def test_default_quantized_container_fits_its_size_budget():
    """The default 16x64 4/4 quantized container at seed 0 stays within 74,000 bytes.

    It is the benchmark's small-lib artifact (64 calibration samples). Its
    per-channel vectors as decimal JSON made it 93.0 kB; as f64 and u4
    tensors it was about 75.0 kB, and without the stored byte offsets,
    lengths, fold-record targets, pass log, calibration count and clip
    percentile it is 72,968 B, so a re-inflated manifest fails here.
    """
    spec = SynthSpec(seed=0)
    model_c = container_from_model(CFG, gen_model(CFG, spec), stage="fp")
    q_c = run_pipeline(model_c, gen_activations(CFG, spec, 64))
    assert len(to_bytes(q_c)) <= 74_000
