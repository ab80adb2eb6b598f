"""A stacked forward runs as one shard of samples per CPU and changes no bit.

`model_forward` splits a stack of two or more samples into contiguous shards,
runs them on threads of their own with OpenBLAS held at one thread, and meets
them at every capture site. These tests pin the shard count by patching the
usable CPU count (and, to exercise more than two shards, the cap), so they
shard the same way on any machine, and check that:
- the output is the per-sample loop's, bit for bit, on even and uneven shards;
- a sink sees what the serial forward shows it, from one thread at a time;
- a failing shard raises what the serial forward raises, and hangs nothing;
- a per-channel attention hook raises before any shard starts;
- the BLAS thread count is one inside and restored after;
- the shard count follows the CPUs in the affinity mask and the cap, and the
  stages stay below one forward's captures at every count a host can reach.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from scalefold import model as model_mod
from scalefold.container import (blocks_from_container, container_from_model, from_bytes,
                                 to_bytes)
from scalefold.model import ACTIVATION_SITES, ModelConfig, model_forward
from scalefold.pipeline import (QuantizeConfig, calibrate_model, capture_activations, evaluate,
                                load_sites, quantize_model, reparameterize_model)
from scalefold.quantizers import QuantParams, Scheme
from scalefold.synth import SynthSpec, gen_activations, gen_model
from scalefold.tensors import _openblas, single_threaded_blas

CFG = ModelConfig(patches=8, dim=32, heads=2, head_dim=16, mlp_dim=64, blocks=2)

pytestmark = pytest.mark.skipif(_openblas() is None,
                                reason="no OpenBLAS with a settable thread count: stacks "
                                       "run serially")


@pytest.fixture(scope="module")
def chain():
    spec = SynthSpec(seed=3)
    model_c = container_from_model(CFG, gen_model(CFG, spec))
    calib_c = calibrate_model(model_c, gen_activations(CFG, spec, 4),
                              QuantizeConfig(bits_w=4, bits_a=4))
    q_c = from_bytes(to_bytes(quantize_model(reparameterize_model(calib_c))))
    return spec, model_c, calib_c, q_c


@pytest.fixture
def cpus(monkeypatch):
    """Pin the usable CPU count to what the test asks; the shard cap still holds."""
    def pin(n):
        monkeypatch.setattr(model_mod, "_usable_cpus", lambda: n)
    return pin


@pytest.fixture
def shards(monkeypatch, cpus):
    """Pin the shard count of a stack of at least n samples to n: n CPUs, the cap lifted."""
    def pin(n):
        cpus(n)
        monkeypatch.setattr(model_mod, "_MAX_SHARDS", n)
    return pin


@pytest.fixture
def shard_log(monkeypatch):
    """(thread id, samples) of every `_forward` call: one per shard of a sharded stack."""
    log, real = [], model_mod._forward

    def spy(x, *args):
        log.append((threading.get_ident(), len(x)))
        return real(x, *args)

    monkeypatch.setattr(model_mod, "_forward", spy)
    return log


def _models(chain):
    """(label, blocks, hooks): the unhooked float model, it under the calibrated
    channel-wise sites, and the quantized model loaded from its bytes."""
    _, model_c, calib_c, q_c = chain
    fp = blocks_from_container(model_c)[1]
    return [("float", fp, None), ("channel-wise", fp, load_sites(calib_c)),
            ("quantized", blocks_from_container(q_c)[1], load_sites(q_c))]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_stack_equals_its_per_sample_loop(chain, shards, shard_log, n, n_shards):
    """Even and uneven shards give the per-sample loop's output and captures, bit for bit."""
    xs = gen_activations(CFG, chain[0], n, stream=1)
    for label, blocks, hooks in _models(chain):
        singles = [model_forward(x, blocks, CFG, hooks=hooks) for x in xs]
        shards(n_shards)
        shard_log.clear()
        caps = {}
        got = model_forward(xs, blocks, CFG, hooks=hooks, capture=caps)
        want_sizes = [len(p) for p in np.array_split(np.arange(n), min(n, n_shards))]
        assert sorted(size for _, size in shard_log) == sorted(want_sizes), label
        assert len({thread for thread, _ in shard_log}) == len(want_sizes), label
        np.testing.assert_array_equal(got, np.stack(singles), err_msg=label)
        shards(1)
        serial = {}
        model_forward(xs, blocks, CFG, hooks=hooks, capture=serial)
        assert list(caps) == list(serial), label
        for key, value in serial.items():
            np.testing.assert_array_equal(caps[key], value, err_msg=f"{label} {key}")


def test_a_sharded_capture_pass_gives_the_serial_forwards_sites(chain, shards, shard_log):
    """Calibration's capture pass on 2 shards hands over every site of a serial full
    forward, bit for bit, though it stops at the last block's gelu_out."""
    xs = gen_activations(CFG, chain[0], 5, stream=1)
    blocks = blocks_from_container(chain[1])[1]
    shards(1)
    serial = {}
    model_forward(xs, blocks, CFG, capture=serial)
    shards(2)
    shard_log.clear()
    got = capture_activations(blocks, CFG, xs)
    assert sorted(size for _, size in shard_log) == [2, 3]
    assert list(got) == list(serial)
    for key, value in serial.items():
        np.testing.assert_array_equal(got[key].view(np.int64), value.view(np.int64),
                                      err_msg=key)


class _Keeper:
    """Each site's tensor as handed over, beside a copy taken at the time."""

    def __init__(self):
        self.kept = []

    def __setitem__(self, name, tensor):
        self.kept.append((name, tensor, tensor.copy()))


@pytest.mark.parametrize("n_shards", [1, 2])
def test_no_capture_changes_after_the_sink_gets_it(chain, shards, n_shards):
    """The forward edits its buffers in place, but never one it has handed to the sink.

    Single samples and stacks, serial and sharded, under no hooks, the
    channel-wise sites and the quantized model: once the forward returns,
    every tensor the sink was given still holds its bits at delivery.
    """
    xs = gen_activations(CFG, chain[0], 3, stream=1)
    shards(n_shards)
    for label, blocks, hooks in _models(chain):
        for x in (xs, xs[0]):
            sink = _Keeper()
            model_forward(x, blocks, CFG, hooks=hooks, capture=sink)
            assert len(sink.kept) == CFG.blocks * len(ACTIVATION_SITES), label
            for name, tensor, at_delivery in sink.kept:
                assert tensor.tobytes() == at_delivery.tobytes(), f"{label} {name} {x.shape}"


class _Recorder:
    """Each site's (name, copy); fails if two threads are ever inside at once."""

    def __init__(self):
        self.seen, self.inside, self.overlaps = [], 0, 0
        self._lock = threading.Lock()

    def __setitem__(self, name, tensor):
        with self._lock:
            self.inside += 1
            self.overlaps += self.inside > 1
        self.seen.append((name, tensor.copy()))
        with self._lock:
            self.inside -= 1


def _check_sink(chain, shards, shard_log, n_shards):
    """`n_shards` shards of n_shards + 1 samples, one of them two samples long."""
    spec, model_c = chain[0], chain[1]
    blocks = blocks_from_container(model_c)[1]
    n = n_shards + 1
    xs = gen_activations(CFG, spec, n, stream=1)
    shards(1)
    serial = {}
    model_forward(xs, blocks, CFG, capture=serial)
    shards(n_shards)
    shard_log.clear()
    sink = _Recorder()
    _bounded(lambda: model_forward(xs, blocks, CFG, capture=sink))
    assert len(shard_log) == n_shards
    assert sink.overlaps == 0
    order = [f"block{i}.{s}" for i in range(CFG.blocks) for s in
             ("ln1_out", "attn_q", "attn_k", "attn_v", "attn_a", "msa_proj_in",
              "ln2_out", "gelu_out")]
    assert [name for name, _ in sink.seen] == order == list(serial)
    assert sorted(order) == sorted(f"block{i}.{s}" for i in range(CFG.blocks)
                                   for s in ACTIVATION_SITES)
    for name, tensor in sink.seen:
        assert tensor.shape[0] == n
        np.testing.assert_array_equal(tensor, serial[name], err_msg=name)


def test_sink_gets_each_whole_stack_site_once_in_order_from_one_thread(chain, shards,
                                                                       shard_log):
    _check_sink(chain, shards, shard_log, 2)


def test_sink_contract_holds_under_rapid_thread_switching(chain, shards, shard_log):
    """The same contract with more shards than CPUs, switching threads every microsecond."""
    n_shards = len(os.sched_getaffinity(0)) + 2 if hasattr(os, "sched_getaffinity") else 4
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _check_sink(chain, shards, shard_log, n_shards)
    finally:
        sys.setswitchinterval(before)


def test_a_sink_that_runs_a_stacked_forward_gets_the_serial_result(chain, cpus, shard_log):
    """A stacked forward started inside a sharded one runs serially instead of waiting."""
    blocks = blocks_from_container(chain[1])[1]
    xs = gen_activations(CFG, chain[0], 3, stream=1)
    cpus(1)
    want = model_forward(xs, blocks, CFG)
    cpus(2)
    shard_log.clear()
    inner = []

    class Nested:
        def __setitem__(self, name, tensor):
            if name == "block0.ln1_out":
                inner.append(model_forward(xs, blocks, CFG))

    got = _bounded(lambda: model_forward(xs, blocks, CFG, capture=Nested()))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(inner[0], want)
    # the outer forward's two shards, and the inner forward whole
    assert sorted(size for _, size in shard_log) == [1, 2, 3]


def _bounded(fn, timeout=60.0):
    """fn() on a thread of its own; fails if it has not finished within `timeout` s."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:       # handed to the caller below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s: a shard hangs"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_nan_in_a_held_out_sample_raises_what_the_serial_forward_raises(chain, cpus):
    """A NaN in held-out sample 3 of 4 fails one shard's matmul, not a broken rendezvous.

    With a dict sink the shards meet at every site, so the other shard is
    waiting at the next one when the NaN's shard fails. `evaluate` rejects
    the NaN sooner, in its sink: its code audit quantizes `block0.ln1_out`.
    """
    spec, model_c, _, q_c = chain
    held_out = gen_activations(CFG, spec, 4, stream=1)
    held_out[3, 0, 0] = np.nan
    cpus(2)
    blocks = blocks_from_container(model_c)[1]
    with pytest.raises(ValueError, match="^matmul operands must be finite$"):
        _bounded(lambda: model_forward(held_out, blocks, CFG, capture={}))
    with pytest.raises(ValueError, match="^uniform_quantize got NaN inputs$"):
        _bounded(lambda: evaluate(model_c, q_c, held_out))


def test_nan_in_a_calibration_sample_raises_what_the_serial_forward_raises(chain, cpus):
    """A NaN in calibration sample 6 of 8 reaches the sink's fit, which names it."""
    spec, model_c = chain[0], chain[1]
    calib = gen_activations(CFG, spec, 8)
    calib[6, 3, 5] = np.nan
    cpus(2)
    with pytest.raises(ValueError, match="^calibration sample contains non-finite values$"):
        _bounded(lambda: calibrate_model(model_c, calib))


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread count's (get, set), put back as it was after the test."""
    get, put = _openblas()
    before = get()
    yield get, put
    put(before)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("fails", [False, True])
def test_blas_thread_count_is_one_inside_and_restored_after(chain, cpus, blas_threads, fails):
    """Every site of a sharded forward sees one BLAS thread; the count returns, even on error."""
    get, put = blas_threads
    put(3)
    blocks = blocks_from_container(chain[1])[1]
    xs = gen_activations(CFG, chain[0], 4, stream=1)
    if fails:
        xs[3, 0, 0] = np.inf
    seen = []

    class Counts:
        def __setitem__(self, name, tensor):
            seen.append(get())

    cpus(2)
    run = lambda: model_forward(xs, blocks, CFG, capture=Counts())  # noqa: E731
    if fails:
        with pytest.raises(ValueError, match="finite"):
            _bounded(run)
    else:
        _bounded(run)
    assert seen and set(seen) == {1}
    assert get() == 3


def test_a_second_region_runs_unheld_while_one_holds_the_count(blas_threads):
    """Regions do not nest or overlap: the count is process-wide, one holder at a time."""
    get, put = blas_threads
    put(2)
    with single_threaded_blas() as outer:
        with single_threaded_blas() as inner:
            assert (outer, inner, get()) == (True, False, 1)
        assert get() == 1
    assert get() == 2


@pytest.mark.parametrize("n_cpus, n, want", [(1, 5, 1), (2, 5, 2), (3, 2, 2), (64, 5, 2),
                                             (64, 1, 1)])
def test_shard_count_is_one_per_cpu_and_sample_up_to_two(cpus, n_cpus, n, want):
    cpus(n_cpus)
    assert model_mod._shard_count(np.zeros((n, CFG.patches, CFG.dim))) == want
    assert model_mod._shard_count(np.zeros((CFG.patches, CFG.dim))) == 1


def test_a_per_channel_attention_hook_raises_before_any_shard_starts(chain, cpus, monkeypatch):
    """The entry checks every block's attention hooks before it splits the stack."""
    spec, model_c, _, _ = chain
    blocks = blocks_from_container(model_c)[1]
    xs = gen_activations(CFG, spec, 4)
    started = []
    monkeypatch.setattr(model_mod, "_sharded_forward", lambda *args: started.append(args))
    cpus(2)
    model_forward(xs, blocks, CFG)
    assert len(started) == 1
    chan = QuantParams(Scheme.UNIFORM, 4, scale=np.full(CFG.dim, 0.1),
                       zero_point=np.full(CFG.dim, 8))
    with pytest.raises(ValueError, match=f"block1.attn_q holds {CFG.dim} scales"):
        model_forward(xs, blocks, CFG, hooks={"block1.attn_q": chan})
    assert len(started) == 1


WIDE = ModelConfig(patches=64, dim=128, heads=4, head_dim=32, mlp_dim=512)


@pytest.fixture(scope="module")
def wide_chain():
    """The 64x128 8/8 model, 16 calibration and 16 held-out samples, and its q container."""
    spec = SynthSpec(seed=2)
    qcfg = QuantizeConfig(bits_w=8, bits_a=8)
    model_c = container_from_model(WIDE, gen_model(WIDE, spec))
    calib = gen_activations(WIDE, spec, 16)
    held_out = gen_activations(WIDE, spec, 16, stream=1)
    q_c = quantize_model(reparameterize_model(calibrate_model(model_c, calib, qcfg)))
    return qcfg, model_c, calib, held_out, q_c


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_cpus", [1, 2, 64])
def test_stages_stay_below_one_forwards_captures_at_any_cpu_count(wide_chain, cpus, shard_log,
                                                                  n_cpus):
    """`test_stages_hold_no_whole_stack_capture`'s bound, with the CPU count pinned.

    Each shard's working set runs at once, so the traced peak grows with the
    shard count (by about 3.5 MB a shard here); the cap keeps a 64-CPU host
    at the two-shard figure.
    """
    qcfg, model_c, calib, held_out, q_c = wide_chain
    blocks = blocks_from_container(model_c)[1]
    cpus(n_cpus)
    for stage, acts, run in (("calibrate_model", calib, lambda: calibrate_model(model_c, calib,
                                                                               qcfg)),
                             ("evaluate", held_out, lambda: evaluate(model_c, q_c, held_out))):
        shard_log.clear()
        peak = _traced_peak(run)
        assert {size for _, size in shard_log} == {len(acts) // min(n_cpus, 2)}, stage
        captured = sum(x.nbytes for x in capture_activations(blocks, WIDE, acts).values())
        assert peak < captured, f"{stage} peaked at {peak} B, the captures take {captured} B"
