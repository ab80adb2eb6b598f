"""Golden sha256 digests of the pipeline's outputs, per numpy/scipy version and SIMD target.

Each chain runs calibrate -> reparam -> quantize -> evaluate at one config
and seed and digests the calibrated, folded and quantized containers' bytes
and the report's sorted-key JSON; the CLI chain digests every file it
writes. numpy's `exp` and `log` give different bits with and without its
X86_V4 (AVX-512) dispatch, so the digests are keyed by the numpy and scipy
versions and that dispatch. `tests/test_golden.py` compares the running
host's entry; regenerate both of a host's entries after a change that is
meant to move bytes:

    PYTHONPATH=src python tests/golden.py --write

The second entry comes from a subprocess with numpy's AVX-512 targets
disabled (`NPY_DISABLE_CPU_FEATURES`), which numpy ignores on a host
without them.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from scalefold import (ModelConfig, QuantizeConfig, SynthSpec, calibrate_model,
                       container_from_model, evaluate, gen_activations, gen_model,
                       quantize_model, reparameterize_model)
from scalefold.cli import cli_main
from scalefold.container import to_bytes

GOLDEN = Path(__file__).with_name("golden.json")
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

# name -> (model, bits of weights and activations, calibration and held-out samples)
CONFIGS = {
    "small-w4a4": (ModelConfig(), 4, 64, 32),
    "wide-w8a8": (ModelConfig(patches=64, dim=128, heads=4, head_dim=32, mlp_dim=512), 8, 16, 8),
    "3block-w4a4": (ModelConfig(blocks=3), 4, 64, 32),
}
SEEDS = (0, 2)
CHAINS = [f"{name} seed {seed}" for name in CONFIGS for seed in SEEDS] + ["cli small-w4a4 seed 0"]


def host_key():
    from numpy._core._multiarray_umath import __cpu_features__
    return (f"numpy {np.__version__} scipy {scipy.__version__} "
            f"X86_V4 {bool(__cpu_features__.get('X86_V4'))}")


def blas_core():
    """The OpenBLAS kernel numpy's BLAS runs, or None where numpy links no scipy-openblas64."""
    try:
        from numpy._core import _multiarray_umath
        name = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return None
    name.restype = ctypes.c_char_p
    return name().decode()


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def library_digests(name, seed):
    """stage -> sha256 of the library chain of config `name` at `seed`."""
    cfg, bits, n_calib, n_eval = CONFIGS[name]
    spec = SynthSpec(seed=seed)
    fp = container_from_model(cfg, gen_model(cfg, spec))
    calib = gen_activations(cfg, spec, n_calib)
    calibrated = calibrate_model(fp, calib, QuantizeConfig(bits_w=bits, bits_a=bits))
    folded = reparameterize_model(calibrated)
    quantized = quantize_model(folded)
    report = evaluate(fp, quantized, gen_activations(cfg, spec, n_eval, stream=1))
    out = {stage: _sha(to_bytes(c)) for stage, c in
           (("calibrated", calibrated), ("folded", folded), ("quantized", quantized))}
    out["report"] = _sha(json.dumps(report.to_json(), sort_keys=True).encode())
    return out


def cli_digests():
    """file -> sha256 of every file the default CLI chain writes, at seed 0."""
    with tempfile.TemporaryDirectory() as d:
        p = lambda name: os.path.join(d, name)  # noqa: E731
        steps = [["gen", "--out", d, "--seed", "0"],
                 ["calibrate", "--model", p("model_fp.rvq"), "--data", p("calib.rvq"),
                  "--out", p("calibrated.rvq")],
                 ["reparam", "--model", p("calibrated.rvq"), "--out", p("folded.rvq")],
                 ["quantize", "--model", p("folded.rvq"), "--out", p("quantized.rvq")],
                 ["eval", "--fp", p("model_fp.rvq"), "--q", p("quantized.rvq"),
                  "--data", p("eval.rvq"), "--out", p("report.json")]]
        for argv in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv) != 0:
                    raise RuntimeError(f"scalefold {argv[0]} failed")
        return {name: _sha(Path(p(name)).read_bytes()) for name in sorted(os.listdir(d))}


def chain_digests(chain):
    """The digests of one entry of `CHAINS`."""
    if chain.startswith("cli "):
        return cli_digests()
    name, _, seed = chain.split(" ")
    return library_digests(name, int(seed))


def host_entry():
    return host_key(), {chain: chain_digests(chain) for chain in CHAINS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="write this host's two entries to golden.json")
    args = parser.parse_args()
    entries = [host_entry()]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512}
    script = (f"import json, sys; sys.path.insert(0, {str(GOLDEN.parent)!r}); import golden; "
              "json.dump(golden.host_entry(), sys.stdout)")
    run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    entries.append(tuple(json.loads(run.stdout)))
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table.update(dict(entries))
    text = json.dumps(dict(sorted(table.items())), indent=1, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
