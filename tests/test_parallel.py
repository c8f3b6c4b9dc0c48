import sys
import threading

import numpy as np
import pytest

from ledplab import parallel
from ledplab.parallel import cpus_per_blas_thread, parallel_map


@pytest.mark.parametrize("iterator", [True, False])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_parallel_map_keeps_order_and_workspaces_apart(threads, iterator):
    # more threads than this host's 2 cores, switching often: a workspace
    # shared by two running calls would show as a changed owner; a list or
    # a one-shot iterator, its items drawn on the calling thread
    caller, made, drawn = threading.current_thread(), [], []

    def make_workspace():
        made.append(threading.current_thread())
        return {"owner": None, "scratch": np.empty(1 << 12)}

    def items():
        for i in range(60):
            drawn.append(threading.current_thread())
            yield i

    def fn(item, ws):
        ws["owner"] = item
        for _ in range(20):
            np.sin(ws["scratch"], out=ws["scratch"])  # releases the interpreter lock
            assert ws["owner"] == item
        return item, threading.current_thread()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = parallel_map(fn, items() if iterator else list(items()), make_workspace, threads)
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
            parallel_map(fn, range(10), dict, threads)


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
