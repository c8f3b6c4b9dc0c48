"""The one block pool: blocks of numpy work on threads, each in a workspace.

The gray box's answer blocks and the estimator's trial blocks run through
``parallel_map``. numpy releases the interpreter lock in its draws, its
ufuncs and BLAS, so a few threads keep the usable CPUs busy. Callers size
their blocks and pick the thread count with ``cpus_per_blas_thread``: each
block's products already run on the BLAS threads.

The items, one a block, are drawn on the calling thread, in order, and
handed to the pool all at once; the callers build them as lists, so
everything that derives them (a block's stream generator above all) runs
there, and a worker runs only ``fn`` on an item and a workspace. The one
generator a worker may derive is a randomized-response tie generator, for
a block whose draws turn out to hold a tie (`ledplab.ledp.bernoulli_rows`):
what it reads is fixed by the tie's place in the stream, not by the
thread.

A workspace is the arrays a caller's layout names, carved at 64-byte
aligned offsets from one byte buffer. A call takes its ``threads``
buffers on the calling thread before any block starts, and a running
block holds one of its own, so at most ``threads`` workspaces are live a
call. The buffers come from a process-wide store and go back to it when
the call ends, so the pages of a repeated call are already mapped: the
store keeps at most one buffer a usable CPU, the largest, each grown to
the largest workspace it was asked for. A caller whose workspaces
exceed its byte budget passes ``keep=False``, and its buffers are made
for the call and freed after it. A second call running at the same time
on another thread takes buffers of its own. Carved memory is not
zeroed: a block sets every entry it reads, and no array a caller returns
may view a workspace.
"""

from __future__ import annotations

import math
import os
import queue
import threading

import numpy as np

__all__ = ["parallel_map", "workspace_bytes", "cpus_per_blas_thread"]

# Byte alignment of every carved array: a cache line.
ALIGN = 64

_lock = threading.Lock()
_idle: list[np.ndarray] = []  # kept uint8 buffers, smallest first


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads a BLAS product runs on, from the variables OpenBLAS reads;
    all usable CPUs when neither is set or the value is malformed."""
    value = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", ""))
    return int(value) if value.isdecimal() and int(value) > 0 else _usable_cpus()


def cpus_per_blas_thread() -> int:
    """Block threads that keep the usable CPUs busy without oversubscribing
    them: one a usable CPU per BLAS thread, at least one."""
    return max(1, _usable_cpus() // _blas_threads())


def _span(shape, dtype) -> int:
    """Bytes of a (shape, dtype) array, rounded up to ALIGN."""
    return -(-math.prod(shape) * np.dtype(dtype).itemsize // ALIGN) * ALIGN


def workspace_bytes(layout: dict) -> int:
    """Bytes of a buffer that holds a workspace of `layout` (name ->
    (shape, dtype)) wherever the buffer starts."""
    return ALIGN + sum(_span(*spec) for spec in layout.values())


def _carve(buffer: np.ndarray, layout: dict) -> dict:
    """The arrays of `layout`, in order, as views of the uint8 `buffer`."""
    at = -buffer.ctypes.data % ALIGN
    workspace = {}
    for name, (shape, dtype) in layout.items():
        size = math.prod(shape) * np.dtype(dtype).itemsize
        workspace[name] = buffer[at : at + size].view(dtype).reshape(shape)
        at += _span(shape, dtype)
    return workspace


def _take(nbytes: int, count: int, keep: bool) -> list:
    """`count` buffers of at least `nbytes`: the largest kept ones if
    `keep`, a kept one grown when it is smaller, new ones past those."""
    taken = []
    if keep:
        with _lock:
            taken = [_idle.pop() for _ in range(min(count, len(_idle)))]
    taken = [buf for buf in taken if len(buf) >= nbytes]
    return taken + [np.empty(nbytes, dtype=np.uint8) for _ in range(count - len(taken))]


def _give(buffers: list) -> None:
    """Keep the largest of the kept and returned buffers, one a usable CPU."""
    most = _usable_cpus()
    with _lock:
        _idle[:] = sorted(_idle + buffers, key=len)[-most:]


def parallel_map(fn, items, layout: dict, threads: int, keep: bool = True) -> list:
    """``[fn(item, ws) for item in items]``, on up to `threads` threads.

    Each running call of `fn` has a workspace of `layout` (name ->
    (shape, dtype)) to itself, one of `threads` carved here. With
    `keep`, they come from the kept buffers and go back to them at the
    end (module docstring). With one thread every item runs on the
    calling thread and no thread pool is started; with more, the items
    are handed to the thread pool whole.
    """
    buffers = _take(workspace_bytes(layout), max(1, threads), keep)
    try:
        if threads <= 1:
            ws = _carve(buffers[0], layout)
            return [fn(item, ws) for item in items]
        from concurrent.futures import ThreadPoolExecutor  # ~8 ms to import: one-thread runs skip it

        workspaces = queue.SimpleQueue()
        for buf in buffers:
            workspaces.put(_carve(buf, layout))

        def run(item):
            ws = workspaces.get()
            try:
                return fn(item, ws)
            finally:
                workspaces.put(ws)

        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(run, item) for item in items]
            return [future.result() for future in futures]
    finally:
        if keep:
            _give(buffers)
