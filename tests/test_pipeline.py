"""Staged pipeline tests: stage gating, pass trail, determinism, evaluation."""

import numpy as np
import pytest

from scalefold.container import (blocks_from_container, container_from_model,
                                 from_bytes, to_bytes)
from scalefold.model import ModelConfig, WEIGHT_SITES
from scalefold.pipeline import (
    EvalReport,
    PipelineError,
    QuantizeConfig,
    calibrate_model,
    capture_activations,
    evaluate,
    hooks_from_sites,
    quantize_model,
    reparameterize_model,
    run_pipeline,
)
from scalefold.quantizers import Granularity, QuantParams, Scheme
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
        assert (qcfg.bits_w, qcfg.bits_a, qcfg.percentile) == (4, 4, 99.99)

    @pytest.mark.parametrize("kw", [
        {"bits_w": 1}, {"bits_w": 9}, {"bits_a": 0},
        {"percentile": 50.0}, {"percentile": 101.0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            QuantizeConfig(**kw)

    def test_json_round_trip(self):
        qcfg = QuantizeConfig(bits_w=3, bits_a=5, percentile=99.0)
        assert QuantizeConfig.from_json(qcfg.to_json()) == qcfg


class TestStageGating:
    def test_fold_requires_calibrated(self, chain):
        model_c, calib = chain[0], chain[1]
        with pytest.raises(PipelineError, match="calibrated"):
            reparameterize_model(model_c, calib)

    def test_quantize_requires_folded(self, chain):
        calib_c = chain[3]
        with pytest.raises(PipelineError, match="folded"):
            quantize_model(calib_c)

    def test_evaluate_requires_quantized(self, chain):
        model_c, held_out, rep_c = chain[0], chain[2], chain[4]
        with pytest.raises(PipelineError, match="quantized"):
            evaluate(model_c, rep_c, held_out)

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


class TestCalibrateStage:
    def test_stage_and_site_table(self, chain):
        calib_c = chain[3]
        assert calib_c.stage == "calibrated"
        sites = calib_c.meta["sites"]
        assert len(sites) == 12 * CFG.blocks
        ln = QuantParams.from_json(sites["block0.ln1_out"])
        assert ln.granularity == Granularity.PER_CHANNEL
        assert ln.scheme == Scheme.UNIFORM
        att = QuantParams.from_json(sites["block1.attn_a"])
        assert att.scheme == Scheme.LOG_SQRT2
        plain = QuantParams.from_json(sites["block0.gelu_out"])
        assert plain.granularity == Granularity.PER_LAYER
        w = QuantParams.from_json(sites["block0.w_1"])
        assert w.granularity == Granularity.PER_CHANNEL

    def test_ablation_snapshot(self, chain):
        calib_c = chain[3]
        abl = calib_c.meta["ablation"]
        assert set(abl) == {"ln_layer_wise", "precalib_sites"}
        assert set(abl["ln_layer_wise"]) == {
            f"block{i}.{s}" for i in range(CFG.blocks) for s in ("ln1_out", "ln2_out")
        }
        naive = QuantParams.from_json(abl["ln_layer_wise"]["block0.ln1_out"])
        assert naive.granularity == Granularity.PER_LAYER

    def test_meta_records_inputs(self, chain):
        calib_c = chain[3]
        assert calib_c.meta["calib"] == {"samples": 8}
        assert QuantizeConfig.from_json(calib_c.meta["quantize_config"]) == QuantizeConfig()

    def test_capture_covers_every_site(self, chain):
        model_c, calib = chain[0], chain[1]
        cfg, blocks = blocks_from_container(model_c)
        caps = capture_activations(blocks, cfg, calib[:2])
        # eight activation sites per block; weights are read off the container
        assert len(caps) == 8 * cfg.blocks
        assert caps["block0.ln1_out"].shape == (2, cfg.patches, cfg.dim)


class TestFoldStage:
    def test_stage_records_and_dequant_marker(self, chain):
        rep_c = chain[4]
        assert rep_c.stage == "reparameterized"
        assert rep_c.meta["softmax_dequant"] == "base-changed-shift"
        recs = rep_c.meta["reparam_records"]
        assert set(recs) == {
            f"block{i}.{s}" for i in range(CFG.blocks) for s in ("ln1_out", "ln2_out")
        }

    def test_ln_sites_become_layer_wise(self, chain):
        rep_c = chain[4]
        for i in range(CFG.blocks):
            qp = QuantParams.from_json(rep_c.meta["sites"][f"block{i}.ln1_out"])
            assert qp.granularity == Granularity.PER_LAYER
            assert qp.scale.shape == (1,)

    def test_pass_trail_order(self, chain):
        rep_c = chain[4]
        names = [p["name"] for p in rep_c.meta["passes"]]
        steps = [p["step"] for p in rep_c.meta["passes"]]
        assert steps == list(range(1, len(names) + 1))
        assert names[0] == "fit-quantizers"
        assert names.index("weight-recalibrate") > names.index("weight-compensate")
        assert names.index("weight-compensate") > names.index("affine-adjust")
        assert "softmax-base-change" in names

    def test_ablation_carried_forward(self, chain):
        rep_c = chain[4]
        assert "precalib_sites" in rep_c.meta["ablation"]


class TestQuantizeStage:
    def test_codes_emitted_for_every_weight(self, chain):
        q_c = chain[5]
        assert q_c.stage == "quantized"
        names = [p["name"] for p in q_c.meta["passes"]]
        assert names[-1] == "emit-codes"
        for i in range(CFG.blocks):
            for site in WEIGHT_SITES:
                codes = q_c.tensors[f"block{i}.{site}.codes"]
                assert np.issubdtype(codes.dtype, np.integer)
                assert codes.min() >= 0 and codes.max() <= 15

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

    def test_run_pipeline_matches_staged_calls(self, chain):
        model_c, calib, q_c = chain[0], chain[1], chain[5]
        assert to_bytes(run_pipeline(model_c, calib)) == to_bytes(q_c)


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

    def test_report_round_trips_to_json(self, report):
        d = report.to_json()
        assert d["output_mse"] == report.output_mse
        assert d["code_equality_rate"] == 1.0

    def test_report_validation(self):
        with pytest.raises(ValueError, match="negative"):
            EvalReport(per_site_mse={"x": -1.0}, output_mse=0.0, output_cosine=1.0,
                       code_equality={}, code_equality_rate=1.0,
                       ln_ablation={}, softmax_ablation={})
        with pytest.raises(ValueError, match="rate"):
            EvalReport(per_site_mse={}, output_mse=0.0, output_cosine=1.0,
                       code_equality={"x": 1.5}, code_equality_rate=1.0,
                       ln_ablation={}, softmax_ablation={})


class TestHooksFromSites:
    def test_builds_per_block_hooks(self, chain):
        q_c = chain[5]
        sites = {k: QuantParams.from_json(v) for k, v in q_c.meta["sites"].items()}
        hooks = hooks_from_sites(CFG, sites)
        assert len(hooks) == CFG.blocks
        assert hooks[0].ln1_out is sites["block0.ln1_out"]
        assert hooks[1].w_2 is sites["block1.w_2"]

    def test_missing_sites_stay_none(self):
        sites = {"block0.gelu_out": QuantParams(
            scheme=Scheme.UNIFORM, bits=4, granularity=Granularity.PER_LAYER,
            scale=np.array([1.0]), zero_point=np.array([0]))}
        hooks = hooks_from_sites(CFG, sites)
        assert hooks[0].gelu_out is not None
        assert hooks[0].ln1_out is None
        assert hooks[1].gelu_out is None
