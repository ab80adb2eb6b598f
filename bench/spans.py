"""Span tracing around scalefold's public functions, from outside the package.

`install` replaces each wrapped function in every scalefold module that binds
it (for example `scalefold.model.matmul` and `scalefold.pipeline.calibrate_tensor`)
with a wrapper that records a span, and puts the originals back on exit.
Spans live in memory and are written once, by the caller, after the run.
`layer_metrics` turns them into the per-layer metrics of BENCHMARK.json.
"""

import contextlib
import sys
import time
from collections import namedtuple

# parent is the index of the enclosing span, or -1; run numbers the top-level
# spans, and every span nested inside one shares its run; amount is the count
# recorded at the boundary (flop, elements or bytes; 0 where none is defined)
Span = namedtuple("Span", "name start end parent run amount")


def _flop(args, result):
    a, b = args[0], args[1]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _elements(args, result):
    return int(getattr(args[0], "size", 0))


def _bytes_out(args, result):
    return len(result)


def _bytes_in(args, result):
    return len(args[0])


# (span name, defining module, function, caller modules, count at the boundary)
# Caller modules None means every scalefold module that binds the function,
# the defining one included. fake_quantize is split by caller: called from
# the model it is the quantization hook, called from the pipeline it is the
# evaluation's per-site error measurement.
WRAPPED = (
    ("tensors.matmul", "scalefold.tensors", "matmul", None, _flop),
    ("tensors.rowwise_softmax", "scalefold.tensors", "rowwise_softmax", None, None),
    ("tensors.gelu", "scalefold.tensors", "gelu", None, None),
    ("model.model_forward", "scalefold.model", "model_forward", None, None),
    ("model.layernorm_forward", "scalefold.model", "layernorm_forward", None, None),
    ("model.hook", "scalefold.quantizers", "fake_quantize", ("scalefold.model",), _elements),
    ("quantizers.fake_quantize", "scalefold.quantizers", "fake_quantize",
     ("scalefold.pipeline",), _elements),
    ("quantizers.uniform_quantize", "scalefold.quantizers", "uniform_quantize",
     ("scalefold.pipeline",), _elements),
    ("calibration.calibrate_tensor", "scalefold.calibration", "calibrate_tensor", None, _elements),
    ("reparam.reparameterize_layernorm_site", "scalefold.reparam",
     "reparameterize_layernorm_site", None, None),
    ("pipeline.capture_activations", "scalefold.pipeline", "capture_activations", None, None),
    ("pipeline.calibrate_model", "scalefold.pipeline", "calibrate_model", None, None),
    ("pipeline.reparameterize_model", "scalefold.pipeline", "reparameterize_model", None, None),
    ("pipeline.quantize_model", "scalefold.pipeline", "quantize_model", None, None),
    ("pipeline.evaluate", "scalefold.pipeline", "evaluate", None, None),
    ("container.to_bytes", "scalefold.container", "to_bytes", None, _bytes_out),
    ("container.from_bytes", "scalefold.container", "from_bytes", None, _bytes_in),
    ("synth.gen_model", "scalefold.synth", "gen_model", None, None),
    ("synth.gen_activations", "scalefold.synth", "gen_activations", None, None),
)

CLI_COMMANDS = ("gen", "calibrate", "reparam", "quantize", "eval", "inspect")

# per-layer metric name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "tensors.matmul.calls": ("count", "lower"),
    "tensors.matmul.s": ("s", "lower"),
    "tensors.matmul.flop": ("flop", "lower"),
    "tensors.matmul.gflops": ("GFLOP/s", "higher"),
    "tensors.rowwise_softmax.s": ("s", "lower"),
    "tensors.gelu.s": ("s", "lower"),
    "model.model_forward.calls": ("count", "lower"),
    "model.model_forward.self_s": ("s", "lower"),
    "model.layernorm_forward.s": ("s", "lower"),
    "model.hook.calls": ("count", "lower"),
    "model.hook.s": ("s", "lower"),
    "model.hook.elements": ("count", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.capture_activations.calls": ("count", "lower"),
    "pipeline.evaluate.forward_passes": ("count", "lower"),
    "pipeline.evaluate.recalibrate_s": ("s", "lower"),
    "pipeline.evaluate.output_mse": ("mse", "lower"),
    "calibration.calibrate_tensor.calls": ("count", "lower"),
    "calibration.calibrate_tensor.s": ("s", "lower"),
    "calibration.calibrate_tensor.elements": ("count", "lower"),
    "reparam.reparameterize_layernorm_site.calls": ("count", "lower"),
    "reparam.reparameterize_layernorm_site.s": ("s", "lower"),
    "quantizers.uniform_quantize.s": ("s", "lower"),
    "quantizers.fake_quantize.s": ("s", "lower"),
    "container.to_bytes.s": ("s", "lower"),
    "container.from_bytes.s": ("s", "lower"),
    "container.bytes_written": ("bytes", "lower"),
    "container.bytes_read": ("bytes", "lower"),
    **{f"cli.{cmd}.s": ("s", "lower") for cmd in CLI_COMMANDS},
    "synth.gen_model.s": ("s", "lower"),
    "synth.gen_activations.s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# per-layer metrics that count work; they must repeat exactly run to run
COUNT_METRICS = (
    "tensors.matmul.calls", "tensors.matmul.flop", "model.model_forward.calls",
    "model.hook.calls", "model.hook.elements", "pipeline.capture_activations.calls",
    "pipeline.evaluate.forward_passes", "calibration.calibrate_tensor.calls",
    "calibration.calibrate_tensor.elements", "reparam.reparameterize_layernorm_site.calls",
    "container.bytes_written", "container.bytes_read",
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._runs = 0

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        if parent == -1:
            self._runs += 1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, end, amount):
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent, self._runs, amount)

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the body of a `with` block."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, time.perf_counter(), 0)

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, parent, name, start, time.perf_counter(), 0)
                raise
            end = time.perf_counter()
            self._close(idx, parent, name, start, end,
                        count(args, result) if count is not None else 0)
            return result
        traced.__wrapped__ = fn
        return traced


def _scalefold_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "scalefold" or name.startswith("scalefold."))]


@contextlib.contextmanager
def install(tracer):
    """Wrap every function in WRAPPED where it is imported; restore on exit."""
    patched = []
    try:
        for name, home, attr, callers, count in WRAPPED:
            original = getattr(sys.modules[home], attr)
            wrapper = tracer.wrap(name, original, count)
            for mod in _scalefold_modules():
                if callers is not None and mod.__name__ not in callers:
                    continue
                if mod.__dict__.get(attr) is original:
                    patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, sp.start), min(spans[c].end, sp.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans):
    """Per-layer metrics from a finished span list (trace.* are the caller's)."""
    calls, total, own, amount = {}, {}, {}, {}
    for sp, self_s in zip(spans, self_times(spans)):
        calls[sp.name] = calls.get(sp.name, 0) + 1
        total[sp.name] = total.get(sp.name, 0.0) + (sp.end - sp.start)
        own[sp.name] = own.get(sp.name, 0.0) + self_s
        amount[sp.name] = amount.get(sp.name, 0) + sp.amount

    m = {}
    for key in LAYER_METRICS:
        if key.startswith("trace.") or key == "pipeline.evaluate.output_mse":
            continue
        layer, _, measure = key.rpartition(".")
        if measure == "calls":
            m[key] = calls.get(layer, 0)
        elif measure == "s":
            m[key] = total.get(layer, 0.0)
        elif measure == "self_s":
            m[key] = own.get(layer, 0.0)
        elif measure in ("flop", "elements"):
            m[key] = amount.get(layer, 0)
    m["pipeline.self_s"] = sum(v for k, v in own.items() if k.startswith("pipeline."))
    matmul_s = total.get("tensors.matmul", 0.0)
    m["tensors.matmul.gflops"] = m["tensors.matmul.flop"] / matmul_s / 1e9 if matmul_s else 0.0
    m["pipeline.evaluate.forward_passes"] = sum(
        1 for i, sp in enumerate(spans)
        if sp.name == "model.model_forward" and _has_ancestor(spans, i, "pipeline.evaluate"))
    m["pipeline.evaluate.recalibrate_s"] = sum(
        sp.end - sp.start for i, sp in enumerate(spans)
        if sp.name == "pipeline.calibrate_model" and _has_ancestor(spans, i, "pipeline.evaluate"))
    m["container.bytes_written"] = amount.get("container.to_bytes", 0)
    m["container.bytes_read"] = amount.get("container.from_bytes", 0)
    return m
