"""The one block pool: blocks of numpy work on threads, each in a workspace.

The gray box's slot blocks and the estimator's trial blocks run through
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
thread. Every workspace is made on the calling thread before any block
starts, and a running block holds one of its own, so at most ``threads``
workspaces are ever live.
"""

from __future__ import annotations

import os
import queue

__all__ = ["parallel_map", "cpus_per_blas_thread"]


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


def parallel_map(fn, items, make_workspace, threads: int) -> list:
    """``[fn(item, ws) for item in items]``, on up to `threads` threads.

    ``make_workspace()`` is called `threads` times, here, and each running
    call of `fn` has one of those workspaces to itself. With one thread
    every item runs on the calling thread and no pool is started; with
    more, the items are handed to the pool whole.
    """
    if threads <= 1:
        ws = make_workspace()
        return [fn(item, ws) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # ~8 ms to import: one-thread runs skip it

    workspaces = queue.SimpleQueue()
    for _ in range(threads):
        workspaces.put(make_workspace())

    def run(item):
        ws = workspaces.get()
        try:
            return fn(item, ws)
        finally:
            workspaces.put(ws)

    with ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(run, item) for item in items]
        return [future.result() for future in futures]
