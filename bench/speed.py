"""Scale wall times to a fixed CPU speed with a reference kernel timed alongside.

On a shared host the speed of one core changes, by up to a factor of two,
both within a second and from one minute to the next, and every timing
moves with it. The reference kernel is fixed work in the style of
scalefold's hot loop (rank-1 matmul updates on a small and a wide shape),
written here with numpy alone so that no change to scalefold can change
it. Times are expressed on a core where the kernel takes
REFERENCE_NOMINAL_S:

- an operation of milliseconds (one set-up, one forward) is paired with a
  reference timed right before it, and scaled by nominal / the median of
  that reference and the four before it, because the host's speed changes
  between such operations;
- a stage of seconds (PTQ, evaluate) averages over many such changes, so
  a few references next to it are noisier than the stage itself; it is
  scaled by nominal / median of the hundreds of references of the run.
"""

import statistics
import time

import numpy as np

# Median reference-kernel time on one vCPU of a shared 2-vCPU Intel Xeon
# host (Python 3.11, numpy 2.4). It only sets the scale: scaled times are
# seconds on a core of that speed.
REFERENCE_NOMINAL_S = 0.010
REFERENCE_REPEATS = 3
PAIRED_WINDOW = 5

_rng = np.random.default_rng(12345)
_OPERANDS = ([(_rng.normal(size=(16, 64)), _rng.normal(size=(64, 256)))] * 4
             + [(_rng.normal(size=(64, 128)), _rng.normal(size=(128, 512)))])


def reference_kernel():
    for a, b in _OPERANDS:
        out = np.zeros((a.shape[0], b.shape[1]))
        for k in range(a.shape[1]):
            out += a[:, k, np.newaxis] * b[k]


def reference_seconds():
    """Median of REFERENCE_REPEATS timings of the reference kernel."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Reference:
    """Reference timings taken all through one run."""

    def __init__(self):
        self.times = []

    def sample(self):
        self.times.append(reference_seconds())
        return self.times[-1]

    def paired(self, fn):
        """Run fn right after a reference timing; return (raw, scaled) seconds.

        The scale uses the median of the last PAIRED_WINDOW references, which
        span well under a second, so it follows the host's speed with less of
        a single reference timing's own noise.
        """
        self.sample()
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        return raw, raw * REFERENCE_NOMINAL_S / statistics.median(self.times[-PAIRED_WINDOW:])

    def factor(self):
        """Nominal over the median of all references of the run."""
        return REFERENCE_NOMINAL_S / statistics.median(self.times)
