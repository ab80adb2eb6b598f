"""The benchmark's self-tests pass on the package in this source tree.

The benchmark imports `hooks_from_sites` and wraps functions by name, so an
API change that breaks it fails here rather than at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_self_tests_pass(tmp_path):
    done = subprocess.run([sys.executable, "-m", "pytest", str(BENCH), "-q",
                           "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
