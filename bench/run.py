"""scalefold benchmark: PTQ time, quantized-forward latency and checked outputs.

    python3 bench/run.py --workload small-lib --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from anywhere inside a checkout; scalefold is imported from the
checkout's `src/`. Each workload is a closed loop with one caller that
repeats, for about --seconds: set up the model and data, PTQ (calibrate +
reparam + quantize), evaluate, and single-sample quantized forwards.
Timings are medians over the repeats, scaled to a fixed CPU speed (see
speed.py). Every repeat is checked outside the timed regions (see
checks.py).

With --trace 0 the last stdout line is the end-to-end result; with
--trace 1 the run does one untraced and one traced pass of fixed size and
reports the per-layer metrics (see spans.py). `--workload all` runs every
workload, each in its own process, and prints a table.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# numpy, scalefold and the modules next to this file that import them are
# imported inside functions: the BLAS thread cap must be set first, and
# scalefold must come from this checkout's src/.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# names and units of the end-to-end metrics, in report order
E2E_UNITS = {
    "setup_s": "s",
    "ptq_s": "s",
    "eval_s": "s",
    "qfwd_ms_p50": "ms",
    "qfwd_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "artifact_bytes": "bytes",
}

SETUP_PER_REPEAT = 10
# share of each repeat's time spent on single-sample quantized forwards
QFWD_SHARE = 0.4
MIN_REPEATS = 3
# at least ten samples beyond p90, with margin for interpolation
MIN_QFWD_SAMPLES = 120


def import_scalefold():
    """Import scalefold from this checkout's src/, never from elsewhere."""
    if not (SRC / "scalefold" / "__init__.py").is_file():
        raise SystemExit(f"error: no scalefold source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import scalefold
    if Path(scalefold.__file__).resolve().parent != SRC / "scalefold":
        raise SystemExit(f"error: scalefold imported from {scalefold.__file__}, not {SRC}")
    return scalefold


def cap_blas_threads():
    """Cap BLAS and OpenMP pools at the CPUs this process may use (before numpy loads)."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(nproc):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


class Checks:
    """Counts the correctness checks and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.first_digest = None

    def add(self, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def after_repeat(self, run, index):
        """Check one repeat's outputs; returns (output_mse, artifact size)."""
        import checks
        for cmd, code, err in run.exit_codes:
            self.add(f"scalefold {cmd} exits 0", code == 0, f"exit {code} {err}")
        run.exit_codes.clear()
        output_mse, rate, data = run.result()
        self.add(*checks.check_code_equality(rate))
        self.first_digest = self.first_digest or hashlib.sha256(data).hexdigest()
        self.add(*checks.check_same_artifact(data, self.first_digest))
        acts = run.held_out_acts()
        x = acts[index % len(acts)]
        blocks, sites, hooks = run.quantized()
        for check in checks.check_shift_path(x, blocks, run.cfg, sites, hooks):
            self.add(*check)
        self.add(*checks.check_reference_forward(x, run.float_model(), run.cfg))
        return output_mse, len(data)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def time_qfwd(run, ref, min_count, until=0.0):
    """(raw, scaled) latencies in s of single-sample quantized forwards.

    Cycles the held-out set; runs at least min_count forwards, and more until
    perf_counter() reaches `until`. Each forward is paired with a reference.
    """
    import scalefold as sf
    blocks, _, hooks = run.quantized()
    acts = run.held_out_acts()
    lat = []
    while len(lat) < min_count or time.perf_counter() < until:
        x = acts[len(lat) % len(acts)]
        lat.append(ref.paired(lambda: sf.model_forward(x, blocks, run.cfg, hooks=hooks)))
    return lat


def _summary(setup, ptq, ev, lat):
    import numpy as np
    p50, p90 = np.percentile(np.array(lat) * 1e3, [50, 90])
    return {"setup_s": statistics.median(setup), "ptq_s": statistics.median(ptq),
            "eval_s": statistics.median(ev), "qfwd_ms_p50": float(p50),
            "qfwd_ms_p90": float(p90)}


def measure(run, seconds, min_repeats=MIN_REPEATS, min_samples=MIN_QFWD_SAMPLES):
    """End-to-end metrics of one workload run, plus its record.

    Every repeat runs each timed stage (set-up SETUP_PER_REPEAT times, then
    PTQ, evaluate, then quantized forwards for QFWD_SHARE of the repeat), so
    each metric samples the whole run rather than one phase of it. A repeat
    starts only if it is expected to end within `seconds`, once min_repeats
    are done. Times are scaled to the reference speed (speed.py): set-up and
    forwards each by the references just before it, PTQ and evaluate by all
    references of the run. The raw figures go into the record.
    """
    import speed
    chk = Checks()
    ref = speed.Reference()
    start = time.perf_counter()
    setup, ptq, ev, lat = [], [], [], []
    last = 0.0
    while len(ptq) < min_repeats or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        setup += [ref.paired(run.setup) for _ in range(SETUP_PER_REPEAT)]
        ref.sample()
        ptq.append(_timed(run.ptq))
        ref.sample()
        ev.append(_timed(run.evaluate))
        ref.sample()
        run.inspect()
        output_mse, size = chk.after_repeat(run, len(ptq) - 1)
        stages = time.perf_counter() - t0
        lat += time_qfwd(run, ref, 1, time.perf_counter() + stages * QFWD_SHARE / (1 - QFWD_SHARE))
        last = time.perf_counter() - t0
    lat += time_qfwd(run, ref, min_samples - len(lat))
    factor = ref.factor()
    raw = _summary([r for r, _ in setup], ptq, ev, [r for r, _ in lat])
    metrics = {
        **_summary([s for _, s in setup], [t * factor for t in ptq],
                   [t * factor for t in ev], [s for _, s in lat]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_bytes": size,
    }
    record = {
        "samples": {"setup_s": len(setup), "ptq_s": len(ptq), "eval_s": len(ev),
                    "qfwd_ms": len(lat), "reference": len(ref.times)},
        "raw_wall": raw,
        "reference_s": {"median": statistics.median(ref.times), "min": min(ref.times),
                        "max": max(ref.times), "nominal": speed.REFERENCE_NOMINAL_S},
        "output_mse": output_mse,
        "measured_s": time.perf_counter() - start,
    }
    return metrics, chk, record


def one_pass(run, qfwd_samples):
    """Set-up, PTQ, evaluate, inspect and a fixed number of quantized forwards."""
    import scalefold as sf
    with run.span("bench.setup"):
        run.setup()
    with run.span("bench.ptq"):
        run.ptq()
    with run.span("bench.eval"):
        run.evaluate()
    with run.span("bench.inspect"):
        run.inspect()
    blocks, _, hooks = run.quantized()
    acts = run.held_out_acts()
    for i in range(qfwd_samples):
        with run.span("bench.qfwd"):
            sf.model_forward(acts[i % len(acts)], blocks, run.cfg, hooks=hooks)


def traced(run, spans_path):
    """Per-layer metrics from one traced pass; overhead against an untraced one."""
    import spans
    chk = Checks()
    run.setup()
    qfwd_samples = len(run.held_out_acts())
    untraced = [_timed(lambda: one_pass(run, qfwd_samples))]
    chk.after_repeat(run, 0)
    tracer = spans.Tracer()
    plain_span, run.span = run.span, tracer.span
    try:
        with spans.install(tracer):
            traced_s = _timed(lambda: one_pass(run, qfwd_samples))
    finally:
        run.span = plain_span
    output_mse, size = chk.after_repeat(run, 1)
    # untraced passes on both sides of the traced one, so drift cancels
    untraced.append(_timed(lambda: one_pass(run, qfwd_samples)))
    chk.after_repeat(run, 2)
    metrics = spans.layer_metrics(tracer.spans)
    metrics["pipeline.evaluate.output_mse"] = output_mse
    metrics["trace.untraced_s"] = statistics.mean(untraced)
    metrics["trace.overhead_s"] = traced_s - metrics["trace.untraced_s"]
    metrics = {k: metrics[k] for k in spans.LAYER_METRICS}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([sp._asdict() for sp in tracer.spans], fh)
    record = {"samples": {"traced_passes": 1, "untraced_passes": len(untraced),
                          "qfwd_per_pass": qfwd_samples},
              "output_mse": output_mse, "artifact_bytes": size, "spans": len(tracer.spans)}
    return metrics, chk, record


def run_one(args, nproc):
    import workloads
    import spans
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as workdir:
        run = workloads.make(args.workload, args.seed, workdir)
        if args.trace:
            path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, chk, record = traced(run, path)
            record["spans_file"] = str(path.relative_to(ROOT))
            units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
        else:
            metrics, chk, record = measure(run, args.seconds)
            units = E2E_UNITS
    record.update({
        "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(nproc),
        "checks": {"attempted": chk.attempted, "failed": len(chk.failures),
                   "failed_share": len(chk.failures) / chk.attempted,
                   "failures": chk.failures},
    })
    for name, value in metrics.items():
        print(f"{args.workload:13s} {name:45s} {value:>16.6g} {units[name]}")
    print(f"{args.workload:13s} {'failed_share':45s} {len(chk.failures):>9d}/{chk.attempted} checks")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not chk.failures, "attempted": chk.attempted,
        "failed": len(chk.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is that workload's."""
    import workloads
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    nproc = cap_blas_threads()
    import_scalefold()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
