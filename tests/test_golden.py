"""Outputs against committed digests, and against another BLAS kernel.

`golden.json` holds the sha256 of every chain in `golden.CHAINS`, keyed by
the numpy and scipy versions and numpy's X86_V4 dispatch; regenerate it
with `python tests/golden.py --write` (see there). A host whose key has no
entry skips, naming the key.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from golden import CHAINS, GOLDEN, blas_core, chain_digests, host_key, library_digests

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def golden():
    table = json.loads(GOLDEN.read_text())
    key = host_key()
    if key not in table:
        pytest.skip(f"golden.json has no digests for {key!r}")
    return table[key]


@pytest.mark.parametrize("chain", CHAINS)
def test_digests_equal_the_golden_file(golden, chain):
    want = golden[chain]
    got = chain_digests(chain)
    assert sorted(got) == sorted(want), f"{chain}: files {sorted(got)} != {sorted(want)}"
    for stage in want:
        assert got[stage] == want[stage], f"{chain}, {stage}: sha256 moved"


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_default_chain_is_the_same_under_another_blas_kernel(core):
    """The default chain (16x64, 4/4 bits, seed 0) with OpenBLAS's `core` kernel forced.

    Every product that reaches a container or the report runs on exact
    GEMMs, so the AVX2 (Haswell) and AVX (Sandybridge) kernels give the
    quantized container and the report the bits of the host's own kernel.
    """
    native = blas_core()
    if native is None:
        pytest.skip("numpy links no scipy-openblas64 whose kernel can be chosen")
    if native == core:
        pytest.skip(f"{core} is this host's own kernel")
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from golden import blas_core, library_digests
        print(json.dumps([blas_core(), library_digests("small-w4a4", 0)]))
    """)
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    ran, got = json.loads(run.stdout)
    if ran != core:
        pytest.skip(f"OpenBLAS ran {ran!r} under OPENBLAS_CORETYPE={core}")
    want = library_digests("small-w4a4", 0)
    for stage in ("quantized", "report"):
        assert got[stage] == want[stage], f"{stage}: the {core} and {native} kernels differ"
