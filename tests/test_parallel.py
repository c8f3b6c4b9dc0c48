import sys
import threading

import numpy as np
import pytest

from ledplab import parallel
from ledplab.attack import GrayBox, default_query_count, mechanism_components, sample_query_signs
from ledplab.estimator import sample_estimates, sample_estimates_range
from ledplab.graphs import erdos_renyi
from ledplab.parallel import cpus_per_blas_thread, parallel_map
from ledplab.rng import Streams


@pytest.mark.parametrize("iterator", [True, False])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_parallel_map_keeps_order_and_workspaces_apart(monkeypatch, threads, iterator):
    # more threads than this host's 2 cores, switching often: a workspace
    # shared by two running calls would show as a changed owner; a list or
    # a one-shot iterator, its items drawn on the calling thread
    caller, made, drawn = threading.current_thread(), [], []
    carve = parallel._carve

    def traced_carve(buffer, layout):
        made.append(threading.current_thread())
        return carve(buffer, layout)

    def items():
        for i in range(60):
            drawn.append(threading.current_thread())
            yield i

    def fn(item, ws):
        ws["owner"][0] = item
        for _ in range(20):
            np.sin(ws["scratch"], out=ws["scratch"])  # releases the interpreter lock
            assert ws["owner"][0] == item
        return item, threading.current_thread()

    monkeypatch.setattr(parallel, "_carve", traced_carve)
    layout = {"owner": ((1,), np.int64), "scratch": ((1 << 12,), np.float64)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = parallel_map(fn, items() if iterator else list(items()), layout, threads)
    finally:
        sys.setswitchinterval(interval)
    assert [item for item, _ in results] == list(range(60))
    assert made == [caller] * threads
    assert drawn == [caller] * 60
    workers = {thread for _, thread in results}
    assert (workers == {caller}) == (threads == 1)
    assert len(workers) <= threads


def test_parallel_map_raises_a_block_error():
    def fn(item, ws):
        if item == 5:
            raise ValueError("block 5")
        return item

    for threads in (1, 2):
        with pytest.raises(ValueError, match="block 5"):
            parallel_map(fn, range(10), {}, threads)


def workspace_addresses(layout, threads, keep=True, hold=None):
    """Start address of each array of the `threads` workspaces of one call,
    all held at once."""
    hold = hold or threading.Barrier(threads, timeout=10)

    def fn(item, ws):
        hold.wait()  # every block thread holds its workspace at once
        return {name: array.ctypes.data for name, array in ws.items()}

    return parallel_map(fn, range(threads), layout, threads, keep)


def test_workspaces_are_carved_aligned_and_kept_between_calls(monkeypatch):
    monkeypatch.setattr(parallel, "_idle", [])
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    layout = {"a": ((3, 5), np.uint8), "b": ((7,), np.float32), "c": ((2, 3), np.float64)}
    first = workspace_addresses(layout, 2)
    for ws in first:
        assert all(address % parallel.ALIGN == 0 for address in ws.values())
        assert len(set(ws.values())) == 3
    assert first[0]["a"] != first[1]["a"]
    assert [len(buf) for buf in parallel._idle] == [parallel.workspace_bytes(layout)] * 2
    # the same buffers serve the next call, a smaller layout from their start
    assert sorted(ws["a"] for ws in workspace_addresses(layout, 2)) == sorted(ws["a"] for ws in first)
    (small,) = workspace_addresses({"a": ((3,), np.uint8)}, 1)
    assert small["a"] in {ws["a"] for ws in first}
    # a larger workspace grows a kept buffer; no more than one a usable CPU is kept
    grown = {"a": ((1 << 16,), np.float64)}
    workspace_addresses(grown, 3)
    assert [len(buf) for buf in parallel._idle] == [parallel.workspace_bytes(grown)] * 2
    # a call over its caller's budget neither takes nor keeps buffers
    idle = list(parallel._idle)
    over = workspace_addresses(grown, 2, keep=False)
    assert [id(buf) for buf in parallel._idle] == [id(buf) for buf in idle]
    assert not {ws["a"] for ws in over} & {buf.ctypes.data for buf in idle}


def test_concurrent_callers_take_buffers_of_their_own(monkeypatch):
    # two calls at once, from two Python threads, each holding two
    # workspaces on two block threads: no buffer is handed to both
    monkeypatch.setattr(parallel, "_idle", [])
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    layout = {"a": ((1 << 10,), np.float64)}
    workspace_addresses(layout, 2)  # two kept buffers for the callers to contend for
    hold, results = threading.Barrier(4, timeout=10), {}

    def caller(name):
        results[name] = workspace_addresses(layout, 2, hold=hold)

    callers = [threading.Thread(target=caller, args=(name,)) for name in "xy"]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in callers)
    x, y = ({ws["a"] for ws in results[name]} for name in "xy")
    assert len(x) == len(y) == 2 and not x & y
    assert len(parallel._idle) == 2


@pytest.mark.parametrize("env, expected", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
])
def test_cpus_per_blas_thread(monkeypatch, env, expected):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 4)
    assert cpus_per_blas_thread() == expected


def reuse_calls():
    """(label, call) pairs that share the kept buffers: rr answers at
    n = 4 and 8 and estimates at n = 5, 24 and 128. Every rr slot reads
    the operand's constant row, and the odd n = 5 graph the estimator's
    padding column, so a stale entry in either changes a result."""
    calls = []
    for n, k in ((4, 3000), (8, 2000)):
        x = (Streams(42).child(n).generator().random((n, n)) < 0.5).astype(np.uint8)
        a_signs, b_signs = sample_query_signs(n, k, Streams(43).child(n))

        def answer(x=x, a_signs=a_signs, b_signs=b_signs):
            box = GrayBox.prepare(x, *mechanism_components("rr", 1.0), Streams(44))
            return box.answer_outer_batch(a_signs, b_signs, Streams(45))

        calls.append((f"rr n={n}", answer))
    for n, trials in ((5, 300), (24, 1000), (128, 64)):
        g = erdos_renyi(n, 0.5, Streams(40).child(n).generator())
        calls.append((f"estimate n={n}", lambda g=g, trials=trials: sample_estimates(g, 1.0, trials, Streams(41))))
    return calls


@pytest.mark.parametrize("blas", ["default", "one"])
def test_kept_buffers_give_byte_identical_results_across_sizes(monkeypatch, blas):
    # each call twice, interleaved with the others, on one block thread
    # (BLAS on every CPU) and on two (one BLAS thread): a repeat reads
    # buffers the other sizes wrote, and a first call kept bytes of 0x40
    # (3.0 as float32), never zeros as fresh pages are
    monkeypatch.setattr(parallel, "_idle", [np.full(8 << 20, 0x40, dtype=np.uint8) for _ in range(2)])
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    if blas == "one":
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    else:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    calls = reuse_calls()
    first = {label: call().tobytes() for label, call in calls}
    for label, call in calls[::-1] + calls:
        assert call().tobytes() == first[label], label


def test_concurrent_callers_match_sequential_runs(monkeypatch):
    # two Python threads, each running every call at once with the other,
    # on two block threads each: the same bytes as one after the other
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    calls = reuse_calls()
    sequential = {label: call().tobytes() for label, call in calls}
    start, results = threading.Barrier(2, timeout=10), {}

    def caller(name, order):
        start.wait()
        results[name] = {label: call().tobytes() for label, call in order}

    callers = [
        threading.Thread(target=caller, args=("forward", calls)),
        threading.Thread(target=caller, args=("backward", calls[::-1])),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results == {"forward": sequential, "backward": sequential}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts minor page faults on Linux")
def test_repeated_calls_fault_in_no_workspace_pages(monkeypatch):
    # two block threads, as under one BLAS thread on two CPUs: an estimate
    # at n = 128 and a k/16 rr trial at n = 8, freed workspaces fault in
    # ~3,800 and ~2,300 pages again on every repeat; kept, under 200. The
    # third call is measured: in a fresh process the second still maps
    # heap for the calls' other temporaries (150-260 pages) as the
    # allocator's thresholds rise
    import resource

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)

    def faults(call):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    g = erdos_renyi(128, 0.5, Streams(46).generator())
    n = 8
    x = (Streams(47).generator().random((n, n)) < 0.5).astype(np.uint8)
    a_signs, b_signs = sample_query_signs(n, default_query_count(n) // 16, Streams(48))

    def estimate():
        sample_estimates_range(g, 1.0, 0, 512, Streams(49))

    def answer():
        box = GrayBox.prepare(x, *mechanism_components("rr", 2.0), Streams(50))
        box.answer_outer_batch(a_signs, b_signs, Streams(51))

    for _ in range(2):
        estimate(), answer()
    assert faults(estimate) < 200
    assert faults(answer) < 200
