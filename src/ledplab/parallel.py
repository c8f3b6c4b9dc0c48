"""Serial map, kept in place of the retired worker pool.

Every run is one process and nothing in ledplab calls ``parallel_map``.
It stays only because the span table in ``perfbench/spans.py`` names it,
and goes with that row in the next change to the benchmark.
"""

from __future__ import annotations

__all__ = ["parallel_map"]


def parallel_map(fn, items, workers: int = 1) -> list:
    """``[fn(item) for item in items]``; `workers` is ignored."""
    return [fn(item) for item in items]
