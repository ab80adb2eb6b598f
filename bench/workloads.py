"""The benchmark's workloads and the two ways of driving scalefold through them.

A workload is fixed by its model shape, bit widths and sample counts; the
seed only picks the generated model and activations. `Library` calls the
public Python API on in-memory containers, `Staged` runs the `scalefold`
CLI entry point in-process on .rvq files. Both expose the same stages, so
the runner times them the same way.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import scalefold as sf
import scalefold.cli
from scalefold.pipeline import hooks_from_sites


@dataclass(frozen=True)
class Workload:
    model: dict = field(default_factory=dict)
    bits: int = 4
    calib: int = 64
    held_out: int = 32
    staged: bool = False


# why each workload exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {
    "small-lib": Workload(),
    "wide-w8a8": Workload(
        model=dict(patches=64, dim=128, heads=4, head_dim=32, mlp_dim=512, blocks=2),
        bits=8, calib=16, held_out=8),
    "small-staged": Workload(staged=True),
}


def _null_span(name):
    return contextlib.nullcontext()


def _sites(container):
    return {k: sf.QuantParams.from_json(v) for k, v in container.meta["sites"].items()}


class Library:
    """The acceptance-test chain on in-memory containers."""

    def __init__(self, wl, seed, workdir):
        self.cfg = sf.ModelConfig(**wl.model)
        self.qcfg = sf.QuantizeConfig(bits_w=wl.bits, bits_a=wl.bits)
        self.spec = sf.SynthSpec(seed=seed)
        self.wl = wl
        self.span = _null_span
        self.exit_codes = []

    def setup(self):
        blocks = sf.gen_model(self.cfg, self.spec)
        self.calib = sf.gen_activations(self.cfg, self.spec, self.wl.calib, stream=0)
        self.held_out = sf.gen_activations(self.cfg, self.spec, self.wl.held_out, stream=1)
        self.fp = sf.container_from_model(self.cfg, blocks, stage="fp",
                                          meta_extra={"synth_spec": self.spec.to_json()})

    def ptq(self):
        calibrated = sf.calibrate_model(self.fp, self.calib, self.qcfg)
        self.q = sf.quantize_model(sf.reparameterize_model(calibrated, self.calib))

    def evaluate(self):
        self.report = sf.evaluate(self.fp, self.q, self.held_out)

    def inspect(self):
        pass

    def result(self):
        """(output_mse, code_equality_rate, artifact bytes) of the last stages."""
        return (self.report.output_mse, self.report.code_equality_rate,
                sf.container.to_bytes(self.q))

    def float_model(self):
        return sf.blocks_from_container(self.fp)[1]

    def quantized(self):
        """(blocks, sites, hooks) of the quantized artifact."""
        sites = _sites(self.q)
        return (sf.blocks_from_container(self.q)[1], sites,
                hooks_from_sites(self.cfg, sites))

    def held_out_acts(self):
        return self.held_out


class Staged:
    """gen, calibrate, reparam, quantize, eval and inspect through `cli_main`.

    Every call appends (command, exit code, stderr) to `exit_codes`.
    """

    def __init__(self, wl, seed, workdir):
        self.cfg = sf.ModelConfig(**wl.model)
        self.wl = wl
        self.seed = seed
        self.dir = workdir
        self.span = _null_span
        self.exit_codes = []
        self.config_path = self._path("config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({"model": self.cfg.to_json(), "calib_batches": wl.calib,
                       "eval_batches": wl.held_out}, fh)

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with self.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = scalefold.cli.cli_main(list(argv))
        self.exit_codes.append((argv[0], code, err.getvalue().strip()))

    def setup(self):
        self._cli("gen", "--out", self.dir, "--config", self.config_path,
                  "--seed", str(self.seed))

    def ptq(self):
        p = self._path
        bits = str(self.wl.bits)
        self._cli("calibrate", "--model", p("model_fp.rvq"), "--data", p("calib.rvq"),
                  "--out", p("calibrated.rvq"), "--bits-w", bits, "--bits-a", bits)
        self._cli("reparam", "--model", p("calibrated.rvq"), "--data", p("calib.rvq"),
                  "--out", p("folded.rvq"))
        self._cli("quantize", "--model", p("folded.rvq"), "--out", p("q.rvq"))

    def evaluate(self):
        p = self._path
        self._cli("eval", "--fp", p("model_fp.rvq"), "--q", p("q.rvq"),
                  "--data", p("eval.rvq"), "--out", p("report.json"))

    def inspect(self):
        self._cli("inspect", self._path("q.rvq"))

    def result(self):
        with open(self._path("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        with open(self._path("q.rvq"), "rb") as fh:
            data = fh.read()
        return report["output_mse"], report["code_equality_rate"], data

    def float_model(self):
        return sf.blocks_from_container(sf.read_container(self._path("model_fp.rvq")))[1]

    def quantized(self):
        q = sf.read_container(self._path("q.rvq"))
        sites = _sites(q)
        return sf.blocks_from_container(q)[1], sites, hooks_from_sites(self.cfg, sites)

    def held_out_acts(self):
        return sf.activations_from_container(sf.read_container(self._path("eval.rvq")))


def make(name, seed, workdir):
    wl = WORKLOADS[name]
    return (Staged if wl.staged else Library)(wl, seed, workdir)
