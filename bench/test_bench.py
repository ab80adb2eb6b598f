"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_scalefold()
import checks  # noqa: E402
import scalefold as sf  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, 1, 0)


def test_self_time_on_hand_built_tree():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),      # overlaps a: [1, 6] is covered once
        span("a.leaf", 2.0, 3.0, parent=1),
        span("late", 9.0, 12.0, parent=0),  # sticks out: only [9, 10] counts
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_follow_the_span_tree():
    tree = [
        span("pipeline.evaluate", 0.0, 10.0),
        span("model.model_forward", 0.0, 2.0, parent=0),
        span("pipeline.calibrate_model", 3.0, 7.0, parent=0),
        span("model.model_forward", 3.0, 5.0, parent=2),
        span("pipeline.calibrate_model", 11.0, 12.0),
        span("model.model_forward", 11.0, 11.5, parent=4),
    ]
    m = spans.layer_metrics(tree)
    assert m["model.model_forward.calls"] == 3
    assert m["pipeline.evaluate.forward_passes"] == 2
    assert m["pipeline.evaluate.recalibrate_s"] == pytest.approx(4.0)
    # evaluate keeps 10 - 2 - 4, calibrate_model 2 inside evaluate and 0.5 outside
    assert m["pipeline.self_s"] == pytest.approx(4.0 + 2.0 + 0.5)


def test_metric_names_are_valid_and_match_the_runner():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layer == spans.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = list(e2e) + list(layer) + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(spans.COUNT_METRICS) <= set(layer)


def test_another_seed_changes_inputs_not_metric_set(tmp_path):
    seen = {}
    for seed in (0, 1):
        wl = workloads.make("small-lib", seed, str(tmp_path))
        metrics, chk, record = run.measure(wl, 0.0, min_repeats=1, min_samples=12)
        assert chk.failures == [] and chk.attempted > 0
        assert list(metrics) == list(run.E2E_UNITS)
        assert all(v > 0 for v in metrics.values())
        seen[seed] = record["output_mse"]
    assert seen[0] != seen[1]


def _attribute_snapshot():
    return {(name, attr): value for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "scalefold" or name.startswith("scalefold."))
            for attr, value in vars(mod).items() if callable(value)}


def test_traced_run_restores_wrappers_and_repeats_counts(tmp_path):
    before = _attribute_snapshot()
    results = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        wl = workloads.make("small-staged", 0, str(workdir))
        metrics, chk, _ = run.traced(wl, workdir / "spans.json")
        assert chk.failures == []
        assert _attribute_snapshot() == before
        assert list(metrics) == list(spans.LAYER_METRICS)
        results.append(metrics)
    counts = [{k: m[k] for k in spans.COUNT_METRICS} for m in results]
    assert counts[0] == counts[1]
    assert all(counts[0][k] > 0 for k in spans.COUNT_METRICS)
    assert all(results[0][f"cli.{cmd}.s"] > 0 for cmd in spans.CLI_COMMANDS)
    written = json.loads((tmp_path / "0" / "spans.json").read_text(encoding="utf-8"))
    assert {s["name"] for s in written} >= {w[0] for w in spans.WRAPPED}


def test_install_restores_originals_when_the_run_raises():
    before = _attribute_snapshot()
    with pytest.raises(RuntimeError):
        with spans.install(spans.Tracer()):
            assert sf.model.matmul is not before[("scalefold.model", "matmul")]
            raise RuntimeError("stop")
    assert _attribute_snapshot() == before


@pytest.fixture(scope="module")
def small_artifact(tmp_path_factory):
    wl = workloads.make("small-lib", 0, str(tmp_path_factory.mktemp("art")))
    wl.setup()
    wl.ptq()
    return wl


def test_reference_forward_check_fails_on_a_wrong_forward(small_artifact, monkeypatch):
    wl = small_artifact
    x = wl.held_out_acts()[0]
    assert checks.check_reference_forward(x, wl.float_model(), wl.cfg)[1]
    real = sf.model_forward
    monkeypatch.setattr(sf, "model_forward",
                        lambda *a, **k: real(*a, **k) * (1.0 + 1e-9))
    assert not checks.check_reference_forward(x, wl.float_model(), wl.cfg)[1]


def test_shift_path_check_fails_on_a_one_ulp_error(small_artifact, monkeypatch):
    wl = small_artifact
    x = wl.held_out_acts()[0]
    blocks, sites, hooks = wl.quantized()
    assert all(c[1] for c in checks.check_shift_path(x, blocks, wl.cfg, sites, hooks))
    real = sf.logsqrt2_dequantize_shift
    monkeypatch.setattr(sf, "logsqrt2_dequantize_shift",
                        lambda *a: np.nextafter(real(*a), np.inf))
    assert not any(c[1] for c in checks.check_shift_path(x, blocks, wl.cfg, sites, hooks))
