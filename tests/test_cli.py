"""CLI tests: exit codes, the staged chain on disk, inspect output."""

import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import numpy as np

import scalefold.model
from scalefold.cli import cli_main
from scalefold.container import (ModelContainer, activations_from_container,
                                 blocks_from_container, payload_size, read_container,
                                 write_container)
from scalefold.model import WEIGHT_SITES, model_forward
from scalefold.pipeline import hooks_from_sites, load_sites, run_pipeline

SMALL = {"calib_batches": 6, "eval_batches": 4}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen -> calibrate -> reparam -> quantize, all through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL))
    data = root / "data"
    assert cli_main(["gen", "--out", str(data), "--seed", "5",
                     "--config", str(cfg_path)]) == 0
    paths = {
        "config": cfg_path,
        "fp": data / "model_fp.rvq",
        "calib_data": data / "calib.rvq",
        "eval_data": data / "eval.rvq",
        "calibrated": root / "calibrated.rvq",
        "folded": root / "folded.rvq",
        "quantized": root / "quantized.rvq",
    }
    assert cli_main(["calibrate", "--model", str(paths["fp"]),
                     "--data", str(paths["calib_data"]),
                     "--out", str(paths["calibrated"])]) == 0
    assert cli_main(["reparam", "--model", str(paths["calibrated"]),
                     "--data", str(paths["calib_data"]),
                     "--out", str(paths["folded"])]) == 0
    assert cli_main(["quantize", "--model", str(paths["folded"]),
                     "--out", str(paths["quantized"])]) == 0
    return paths


class TestChain:
    def test_gen_writes_three_containers(self, workspace):
        for key in ("fp", "calib_data", "eval_data"):
            assert workspace[key].exists()
        assert read_container(workspace["fp"]).stage == "fp"
        assert read_container(workspace["calib_data"]).kind == "activations"

    def test_stages_on_disk(self, workspace):
        assert read_container(workspace["calibrated"]).stage == "calibrated"
        assert read_container(workspace["folded"]).stage == "reparameterized"
        assert read_container(workspace["quantized"]).stage == "quantized"

    def test_eval_prints_report(self, workspace, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = cli_main(["eval", "--fp", str(workspace["fp"]),
                       "--q", str(workspace["quantized"]),
                       "--data", str(workspace["eval_data"]),
                       "--out", str(report_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "output mse:" in out
        assert "code equality:     1.000000" in out
        assert "base_changed:" in out
        report = json.loads(report_path.read_text())
        assert report["code_equality_rate"] == 1.0
        assert report["softmax_ablation"]["log_sqrt2"] == report["softmax_ablation"]["base_changed"]

    def test_inspect_summarizes(self, workspace, capsys):
        """The summary names the stage and accounts for every byte of the file."""
        path = workspace["quantized"]
        assert cli_main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind:  model" in out
        assert "stage: quantized" in out
        assert "block0.w_qkv.codes  shape=[64, 192]  dtype=u4  bytes=6144" in out
        assert "block0.b_qkv  shape=[192]  dtype=f32  bytes=768" in out
        assert ("\nfold records: block0.ln1_out, block0.ln2_out, block1.ln1_out, "
                "block1.ln2_out\n") in out
        assert "emit-codes" in out
        # the label follows the scale count: one per output column, read from
        # the site's tensors, or one from the manifest
        assert "  block0.w_qkv  uniform  b=4  per_channel  channels=192\n" in out
        assert "  block1.w_1  uniform  b=4  per_channel  channels=256\n" in out
        assert "block0.w_qkv.scale  shape=[192]  dtype=f64  bytes=1536" in out
        assert "block0.w_qkv.zero  shape=[192]  dtype=u4  bytes=96" in out
        assert "reparam_records.block0.ln1_out.scale  shape=[64]  dtype=f64" in out
        assert re.search(r"^sites \(24\):$", out, re.M)
        assert "  block0.ln1_out  uniform  b=4  per_layer\n" in out
        assert "  block1.attn_a  log_sqrt2  b=4  per_layer\n" in out
        total, manifest = re.search(r"^bytes: (\d+)  manifest=(\d+)$", out, re.M).groups()
        tensor_bytes = sum(int(b) for b in re.findall(r"  bytes=(\d+)$", out, re.M))
        assert int(total) == path.stat().st_size == 16 + int(manifest) + tensor_bytes

    @pytest.mark.parametrize("stage", ["calibrated", "folded", "quantized"])
    def test_inspect_lists_the_fold_records_a_container_ships(self, workspace, capsys, stage):
        """The `fold records:` line names each record whose source tensors the file holds."""
        assert cli_main(["inspect", str(workspace[stage])]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("fold records:")]
        assert lines == ([] if stage == "calibrated" else [
            "fold records: block0.ln1_out, block0.ln2_out, block1.ln1_out, block1.ln2_out"])

    def test_reparam_reads_no_data(self, workspace, tmp_path, capsys):
        """`reparam --data` is optional and never opened: the folded bytes are the same without it."""
        absent = tmp_path / "absent.rvq"
        for extra in ([], ["--data", str(absent)]):
            out = tmp_path / "folded.rvq"
            assert cli_main(["reparam", "--model", str(workspace["calibrated"]),
                             "--out", str(out)] + extra) == 0
            assert out.read_bytes() == workspace["folded"].read_bytes()
            out.unlink()
        assert not absent.exists()
        capsys.readouterr()

    def test_gen_is_deterministic(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert cli_main(["gen", "--out", str(again), "--seed", "5",
                         "--config", str(workspace["config"])]) == 0
        for name in ("model_fp.rvq", "calib.rvq", "eval.rvq"):
            assert (again / name).read_bytes() == (workspace["fp"].parent / name).read_bytes()

    def test_seed_changes_output(self, workspace, tmp_path):
        other = tmp_path / "other"
        assert cli_main(["gen", "--out", str(other), "--seed", "6",
                         "--config", str(workspace["config"])]) == 0
        assert (other / "model_fp.rvq").read_bytes() != workspace["fp"].read_bytes()


@pytest.mark.parametrize("chain", ["library", "cli"])
def test_forward_multiplies_the_shipped_weight_codes(workspace, monkeypatch, chain):
    """The quantized container holds only u8 codes, and the forward multiplies them.

    Each loaded weight is a CodeBlock whose centred codes plus the zero
    point are the stored codes, and the container holds no float weight
    matrix. Spies on the three quantizer kernels that `model` calls record the
    params of every call: no weight site's params (the hook's or the code
    block's) reach any, while each weight product's activation takes the
    integer route, `gelu_out`'s from the pre-GELU tensor since no sink is
    attached.
    """
    calib = activations_from_container(read_container(workspace["calib_data"]))
    if chain == "library":
        q_c = run_pipeline(read_container(workspace["fp"]), calib)
    else:
        q_c = read_container(workspace["quantized"])
    cfg, blocks = blocks_from_container(q_c)
    hooks = hooks_from_sites(cfg, load_sites(q_c))
    seen = {"uniform_centred": set(), "gelu_centred": set(), "fake_quantize": set()}

    def spy(name):
        kernel = getattr(scalefold.model, name)

        def call(x, qp):
            seen[name].add(id(qp))
            return kernel(x, qp)
        return call

    for name in seen:
        monkeypatch.setattr(scalefold.model, name, spy(name))
    model_forward(calib[:1], blocks, cfg, hooks=hooks)
    for i, bw in enumerate(blocks):
        for site in WEIGHT_SITES:
            key = f"block{i}.{site}"
            block, shipped = getattr(bw, site), q_c.tensors[key + ".codes"]
            assert key not in q_c.tensors and shipped.dtype == np.uint8
            assert block.shape == shipped.shape
            np.testing.assert_array_equal(block.centred + block.params.zero_point, shipped)
            for ids in seen.values():
                assert id(hooks[key]) not in ids and id(block.params) not in ids
        for site in ("ln1_out", "msa_proj_in", "ln2_out"):
            assert id(hooks[f"block{i}.{site}"]) in seen["uniform_centred"]
        assert id(hooks[f"block{i}.gelu_out"]) in seen["gelu_centred"]


# a CLI chain in a fresh process: the unhooked forward of the eval data, then q.rvq,
# then eval's report.json; the digests are all it prints
_THREADS_SCRIPT = textwrap.dedent("""
    import contextlib, hashlib, io, json, os, sys
    from scalefold.cli import cli_main
    from scalefold.container import activations_from_container, blocks_from_container, read_container
    from scalefold.model import model_forward
    out, config, bits = sys.argv[1], sys.argv[2], sys.argv[3]
    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(list(argv)) == 0
    run("gen", "--out", out, "--seed", "3", "--config", config)
    data = activations_from_container(read_container(os.path.join(out, "eval.rvq")))
    cfg, blocks = blocks_from_container(read_container(os.path.join(out, "model_fp.rvq")))
    print(hashlib.sha256(model_forward(data, blocks, cfg).tobytes()).hexdigest())
    paths = {s: os.path.join(out, s + ".rvq") for s in ("model_fp", "calib", "c", "r", "q")}
    run("calibrate", "--model", paths["model_fp"], "--data", paths["calib"], "--out", paths["c"],
        "--bits-w", bits, "--bits-a", bits)
    run("reparam", "--model", paths["c"], "--data", paths["calib"], "--out", paths["r"])
    run("quantize", "--model", paths["r"], "--out", paths["q"])
    report = os.path.join(out, "report.json")
    run("eval", "--fp", paths["model_fp"], "--q", paths["q"], "--data",
        os.path.join(out, "eval.rvq"), "--out", report)
    for path in (paths["q"], report):
        with open(path, "rb") as fh:
            print(hashlib.sha256(fh.read()).hexdigest())
""")


@pytest.mark.parametrize("model, bits", [
    ({}, 4),
    ({"patches": 64, "dim": 128, "heads": 4, "head_dim": 32, "mlp_dim": 512}, 8),
], ids=["16x64-w4a4", "64x128-w8a8"])
def test_float_forward_and_artifact_are_the_same_at_any_blas_thread_count(tmp_path, model, bits):
    """The unhooked forward, q.rvq and report.json are byte-equal at 1 and 2 BLAS threads.

    Every float product runs as exact slice GEMMs and every hooked one as
    exact integer GEMMs, and the report's sums are numpy reductions, which
    call no BLAS, so BLAS blocking and threading change no bit anywhere in
    the chain.
    """
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model, "calib_batches": 4, "eval_batches": 2}))
    src = os.path.dirname(os.path.dirname(scalefold.model.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(tmp_path / threads),
                               str(config), str(bits)],
                              env=env, check=True, capture_output=True, text=True)
        digests.append([line for line in done.stdout.split() if len(line) == 64])
    assert len(digests[0]) == 3 and digests[0] == digests[1]


def _strip(c, path):
    """A copy of container `c` without the metadata entry at key path `path`.

    The path ("reparam_records",) strips the fold records, which are tensors.
    """
    if path == ("reparam_records",):
        return ModelContainer(meta=c.meta, tensors={
            k: v for k, v in c.tensors.items() if not k.startswith("reparam_records.")})
    meta = json.loads(json.dumps(c.meta))
    node = meta
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return ModelContainer(meta=meta, tensors=c.tensors)


def _with(c, path, value):
    """A copy of container `c` whose metadata holds `value` at key path `path`."""
    meta = json.loads(json.dumps(c.meta))
    node = meta
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return ModelContainer(meta=meta, tensors=c.tensors)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli_main(["calibrate", "--model", "x.rvq"]) == 2
        capsys.readouterr()

    def test_missing_file_is_data_error(self, workspace, tmp_path, capsys):
        rc = cli_main(["calibrate", "--model", str(tmp_path / "absent.rvq"),
                       "--data", str(workspace["calib_data"]),
                       "--out", str(tmp_path / "o.rvq")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_stage_is_data_error(self, workspace, tmp_path, capsys):
        rc = cli_main(["reparam", "--model", str(workspace["fp"]),
                       "--data", str(workspace["calib_data"]),
                       "--out", str(tmp_path / "o.rvq")])
        assert rc == 1
        assert "calibrated" in capsys.readouterr().err

    def test_quantize_rejects_unfolded(self, workspace, tmp_path, capsys):
        rc = cli_main(["quantize", "--model", str(workspace["calibrated"]),
                       "--out", str(tmp_path / "o.rvq")])
        assert rc == 1
        capsys.readouterr()

    def test_bad_bit_width_is_data_error(self, workspace, tmp_path, capsys):
        rc = cli_main(["calibrate", "--model", str(workspace["fp"]),
                       "--data", str(workspace["calib_data"]),
                       "--out", str(tmp_path / "o.rvq"), "--bits-w", "99"])
        assert rc == 1
        assert "bits_w" in capsys.readouterr().err

    def test_truncated_container_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.rvq"
        bad.write_bytes(b"junkjunk")
        assert cli_main(["inspect", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {**SMALL, "calib_batch": 6},
        {**SMALL, "model": {"dims": 32}},
        {**SMALL, "synth": {"sed": 1}},
        {**SMALL, "model": [32]},
        [SMALL],
        {**SMALL, "model": {"eps": "1e-5"}},
        {**SMALL, "synth": {"batch": 4.0}},
        {**SMALL, "calib_batches": [1]},
        {**SMALL, "eval_batches": None},
        {**SMALL, "calib_batches": 2.7},
        {**SMALL, "eval_batches": True},
        {**SMALL, "calib_batches": 0},
        {**SMALL, "eval_batches": "4"},
    ])
    def test_gen_rejects_unknown_config_keys(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = cli_main(["gen", "--out", str(tmp_path / "out"), "--config", str(cfg_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_config_mismatch_names_key(self, workspace, tmp_path, capsys):
        small_model = tmp_path / "small"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {**SMALL, "model": {"dim": 32, "heads": 4, "head_dim": 8, "mlp_dim": 64}}))
        assert cli_main(["gen", "--out", str(small_model), "--seed", "5",
                         "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        rc = cli_main(["eval", "--fp", str(small_model / "model_fp.rvq"),
                       "--q", str(workspace["quantized"]),
                       "--data", str(small_model / "eval.rvq")])
        assert rc == 1
        assert "dim" in capsys.readouterr().err

    # ids kept from when a fold record's target_zero was a manifest entry (path1)
    @pytest.mark.parametrize("command, stage, path, named", [
        ("eval", "quantized", ("sites",), "sites"),
        ("quantize", "folded", ("reparam_records",), "reparam_records"),
        ("eval", "quantized", ("weight_mse",), "weight_mse"),
        ("eval", "quantized", ("sites", "block0.gelu_out"), "sites.block0.gelu_out"),
        ("eval", "quantized", ("quantize_config",), "quantize_config"),
    ], ids=["eval-quantized-path0-sites", "quantize-folded-path2-reparam_records",
            "eval-quantized-path3-weight_mse", "eval-quantized-path4-sites.block0.gelu_out",
            "eval-quantized-path5-quantize_config"])
    def test_missing_metadata_is_data_error(self, workspace, tmp_path, capsys,
                                            command, stage, path, named):
        bad = tmp_path / "bad.rvq"
        write_container(_strip(read_container(workspace[stage]), path), bad)
        if command == "eval":
            argv = ["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                    "--data", str(workspace["eval_data"])]
        else:
            argv = ["quantize", "--model", str(bad), "--out", str(tmp_path / "q.rvq")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "q.rvq").exists()

    @pytest.mark.parametrize("path", [("sites",), ("ablation", "ln_layer_wise")])
    def test_unknown_site_name_is_data_error(self, workspace, tmp_path, capsys, path):
        q_c = read_container(workspace["quantized"])
        meta = json.loads(json.dumps(q_c.meta))
        table = meta
        for key in path:
            table = table[key]
        table["block9.attn_q"] = next(iter(table.values()))
        bad = tmp_path / "bad.rvq"
        write_container(ModelContainer(meta=meta, tensors=q_c.tensors), bad)
        assert cli_main(["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                         "--data", str(workspace["eval_data"])]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "block9.attn_q" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("path, named", [
        pytest.param(("sites", "block0.gelu_out", "bits"), "malformed quantizer params",
                     id="block0.gelu_out"),
        pytest.param(("quantize_config", "bits_w"), "bits_w must be int", id="block0.w_1"),
    ])
    def test_fractional_bit_width_is_data_error(self, workspace, tmp_path, capsys, path, named):
        """A bit width of 4.7 fails eval and inspect; it must not load as a 4-bit quantizer.

        A manifest site carries its own bits; a weight site such as block0.w_1
        ships its vectors as tensors and takes `quantize_config.bits_w`.
        """
        q_c = read_container(workspace["quantized"])
        meta = json.loads(json.dumps(q_c.meta))
        node = meta
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 4.7
        bad = tmp_path / "bad.rvq"
        write_container(ModelContainer(meta=meta, tensors=q_c.tensors), bad)
        assert cli_main(["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                         "--data", str(workspace["eval_data"])]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert cli_main(["inspect", str(bad)]) == 1
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    @pytest.mark.parametrize("stage", ["calibrated", "quantized"])
    @pytest.mark.parametrize("damage", ["negative-scale", "zero-past-qmax", "short-scale",
                                        "no-zero"])
    def test_malformed_vector_is_data_error(self, workspace, tmp_path, capsys, stage, damage):
        """A damaged per-channel vector fails inspect and the next stage: exit 1, no traceback."""
        c = read_container(workspace[stage])
        key = "block0.ln1_out" if stage == "calibrated" else "block1.w_2"
        tensors = dict(c.tensors)
        scale, zero = tensors[key + ".scale"].copy(), tensors[key + ".zero"].copy()
        if damage == "negative-scale":
            scale[0] = -scale[0]
        elif damage == "zero-past-qmax":
            zero[0] = 16
        elif damage == "short-scale":
            scale = scale[:-1]
        tensors[key + ".scale"], tensors[key + ".zero"] = scale, zero
        if damage == "no-zero":
            del tensors[key + ".zero"]
        bad = tmp_path / "bad.rvq"
        write_container(ModelContainer(meta=c.meta, tensors=tensors), bad)
        if stage == "calibrated":
            argv = ["reparam", "--model", str(bad), "--out", str(tmp_path / "out.rvq")]
        else:
            argv = ["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                    "--data", str(workspace["eval_data"])]
        for args in (argv, ["inspect", str(bad)]):
            assert cli_main(args) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and key in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out.rvq").exists()

    @pytest.mark.parametrize("flag", ["--fp", "--q"])
    def test_model_config_that_is_no_object_is_data_error(self, workspace, tmp_path, capsys,
                                                          flag):
        """`model_config: []` in either file fails eval naming model_config, not a traceback."""
        bad = tmp_path / "bad.rvq"
        stage = "fp" if flag == "--fp" else "quantized"
        write_container(_with(read_container(workspace[stage]), ("model_config",), []), bad)
        files = {"--fp": str(workspace["fp"]), "--q": str(workspace["quantized"]), flag: str(bad)}
        assert cli_main(["eval", "--fp", files["--fp"], "--q", files["--q"],
                         "--data", str(workspace["eval_data"])]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad model_config")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_layer_wise_table_that_is_no_object_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.rvq"
        write_container(_with(read_container(workspace["quantized"]),
                              ("ablation", "ln_layer_wise"), []), bad)
        assert cli_main(["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                         "--data", str(workspace["eval_data"])]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ablation.ln_layer_wise is a list")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("passes", [5, None, "ab", "x", [1], [{}]],
                             ids=["int", "null", "ab", "x", "list-of-int", "empty-object"])
    @pytest.mark.parametrize("command, stage", [("reparam", "calibrated"),
                                                ("quantize", "folded"),
                                                ("inspect", "quantized")])
    def test_malformed_pass_log_is_data_error(self, workspace, tmp_path, capsys,
                                              command, stage, passes):
        """A pass log that is not a list of step/name objects is named; none is extended."""
        bad, out = tmp_path / "bad.rvq", tmp_path / "out.rvq"
        write_container(_with(read_container(workspace[stage]), ("passes",), passes), bad)
        argv = ([command, str(bad)] if command == "inspect"
                else [command, "--model", str(bad), "--out", str(out)])
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: passes must be a list")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_ln_site_off_its_fold_target_is_data_error(self, workspace, tmp_path, capsys):
        """A LayerNorm site that is not its fold record's target fails eval before any forward."""
        q_c = read_container(workspace["quantized"])
        meta = json.loads(json.dumps(q_c.meta))
        site = meta["sites"]["block0.ln1_out"]
        site.update(scale=[3 * site["scale"][0]], zero_point=[0])
        bad = tmp_path / "bad.rvq"
        write_container(ModelContainer(meta=meta, tensors=q_c.tensors), bad)
        assert cli_main(["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                         "--data", str(workspace["eval_data"])]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "block0.ln1_out" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("stage", ["folded", "quantized"])
    def test_fold_source_whose_target_is_no_quantizer_is_data_error(self, workspace, tmp_path,
                                                                     capsys, stage):
        """Scales of 1.7e308 load, but their mean overflows: the next stage names the record."""
        c = read_container(workspace[stage])
        key = "reparam_records.block0.ln1_out"
        bad = tmp_path / "bad.rvq"
        write_container(ModelContainer(meta=c.meta, tensors={
            **c.tensors, key + ".scale": np.full(64, 1.7e308)}), bad)
        if stage == "folded":
            argv = ["quantize", "--model", str(bad), "--out", str(tmp_path / "q.rvq")]
        else:
            argv = ["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                    "--data", str(workspace["eval_data"])]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: fold record {key}: target scales must be "
                                       "positive and finite")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "q.rvq").exists()

    def test_version_1_file_is_data_error(self, workspace, tmp_path, capsys):
        """A file in the version-1 layout, with byte offsets and lengths, fails inspect and eval."""
        raw = workspace["quantized"].read_bytes()
        doc_len = int.from_bytes(raw[8:16], "little")
        manifest = json.loads(raw[16:16 + doc_len])
        tensors, offset = read_container(workspace["quantized"]).tensors, 0
        for entry in manifest["tensors"]:
            length = payload_size(entry["name"], tensors[entry["name"]])[1]
            entry.update(offset=offset, length=length)
            offset += length
        doc = json.dumps({**manifest, "format_version": 1}).encode()
        bad = tmp_path / "v1.rvq"
        bad.write_bytes(raw[:8] + len(doc).to_bytes(8, "little") + doc + raw[16 + doc_len:])
        for argv in (["inspect", str(bad)],
                     ["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                      "--data", str(workspace["eval_data"])]):
            assert cli_main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: unsupported format version 1\n"
            assert captured.out == ""

    @pytest.mark.parametrize("damage", ["trailing", "short"])
    def test_blob_of_the_wrong_length_is_data_error(self, workspace, tmp_path, capsys, damage):
        """One byte more or less than the tensors' payloads fails inspect and eval cleanly."""
        raw = workspace["quantized"].read_bytes()
        bad = tmp_path / "bad.rvq"
        bad.write_bytes(raw + b"\x00" if damage == "trailing" else raw[:-1])
        named = "blob is" if damage == "trailing" else "extends past the blob"
        for argv in (["inspect", str(bad)],
                     ["eval", "--fp", str(workspace["fp"]), "--q", str(bad),
                      "--data", str(workspace["eval_data"])]):
            assert cli_main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and named in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
