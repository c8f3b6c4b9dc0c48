"""Reduction from private bit summation to private triangle counting.

Each party's secret bit becomes a potential matching edge inside one
part of a fixed bipartite scaffold; the scaffold makes every matching
edge close exactly n triangles, so a triangle estimate divided by n
estimates the sum. A direct randomized-response sum estimator serves as
the baseline whose error grows like sqrt(n) at fixed epsilon.
"""

from __future__ import annotations

import numpy as np

from ledplab import ledp
from ledplab.estimator import rescaled_atoms, sample_estimates
from ledplab.graphs import Graph, checked_bits, graph_stats
from ledplab.ledp import randomized_rows
from ledplab.rng import Streams

__all__ = [
    "build_sum_gadget",
    "sample_sum_baseline",
    "sample_sum_via_triangles",
    "sum_error_row",
    "sum_error_scaling",
]


def _as_bit_vector(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"input must be a 1-d bit vector, got shape {x.shape}")
    return checked_bits(x, "input")


def build_sum_gadget(x) -> tuple[Graph, dict[str, tuple[int, ...]]]:
    """Gadget graph on 3n vertices whose triangle count is sum(x) * n,
    with its vertex parts by label.

    Vertices [0, n) form the public part V1; party i owns the matched
    pair (n + 2i, n + 2i + 1) inside V2 = [n, 3n). V1 x V2 is complete
    bipartite and the matched pair is joined iff x_i = 1.
    """
    x = _as_bit_vector(x)
    n = len(x)
    a = np.zeros((3 * n, 3 * n), dtype=np.uint8)
    a[:n, n:] = 1
    a[n:, :n] = 1
    for i in range(n):
        if x[i]:
            u, v = n + 2 * i, n + 2 * i + 1
            a[u, v] = 1
            a[v, u] = 1
    return Graph(a), {"V1": tuple(range(n)), "V2": tuple(range(n, 3 * n))}


def sample_sum_baseline(x, epsilon: float, trials: int, streams: Streams) -> np.ndarray:
    """Unbiased local-model sum estimates over independent trials: each
    party's bit randomized, debiased and added, of variance
    n e^eps/(e^eps - 1)^2. Trial t is unit t of the node `streams` (stream
    layout 4, `ledplab.rng`), all drawn in order through one generator, in
    chunks of at most ledp.DRAW_BYTES of released bits (one trial's, if
    more)."""
    x = _as_bit_vector(x)
    n = len(x)
    lo, hi = rescaled_atoms(epsilon)
    gen, ties = streams.generator(), streams.child("ties")
    step = max(1, ledp.DRAW_BYTES // max(n, 1))
    released = np.empty((min(step, trials), n), np.uint8)
    ones = np.empty(trials, dtype=np.int64)
    sum_dtype = np.uint16 if n < 1 << 16 else np.int64  # a row sums to at most n
    for first in range(0, trials, step):
        chunk = released[: min(step, trials - first)]
        randomized_rows(x, epsilon, gen, ties, first, chunk)
        ones[first : first + len(chunk)] = chunk.sum(axis=1, dtype=sum_dtype)
    return ones * hi + (n - ones) * lo


def sample_sum_via_triangles(x, epsilon: float, trials: int, streams: Streams) -> np.ndarray:
    """Gadget-route estimates over independent trials: the triangle
    estimates of the gadget, divided by n."""
    x = _as_bit_vector(x)
    n = len(x)
    g, _ = build_sum_gadget(x)
    assert graph_stats(g.adjacency)[2] == int(x.sum()) * n
    return sample_estimates(g, epsilon, trials, streams) / n


def fit_log_log_exponent(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n); NaN when an error
    is not positive, so has no log, or when ns holds fewer than two
    distinct sizes, so the slope is undefined."""
    errors = np.asarray(errors, dtype=np.float64)
    if not np.all(errors > 0) or len(set(ns)) < 2:
        return float("nan")
    return float(np.polyfit(np.log(np.asarray(ns, dtype=np.float64)), np.log(errors), 1)[0])


def sum_error_row(
    n: int, epsilon: float, trials: int, streams: Streams, triangle_trials: int = 0
) -> dict:
    """Mean |estimate - sum| for one input length (both routes)."""
    x = (streams.child("input", n).generator().random(n) < 0.5).astype(np.uint8)
    s = int(x.sum())
    estimates = sample_sum_baseline(x, epsilon, trials, streams.child("baseline", n))
    err_tri = None
    if triangle_trials > 0:
        tri = sample_sum_via_triangles(
            x, epsilon, triangle_trials, streams.child("triangles", n)
        )
        err_tri = float(np.abs(tri - s).mean())
    return {
        "n": n,
        "epsilon": epsilon,
        "trials": trials,
        "mean_abs_error_baseline": float(np.abs(estimates - s).mean()),
        "mean_abs_error_via_triangles": err_tri,
    }


def sum_error_scaling(
    ns: list[int],
    epsilon: float,
    trials: int,
    streams: Streams,
    triangle_trials: int = 0,
) -> tuple[list[dict], float]:
    """Mean |estimate - sum| per input length; returns rows and the
    fitted baseline exponent.

    The gadget route multiplies every input length by 3 vertices and
    runs the full estimator, so it is only evaluated when
    triangle_trials > 0 (intended for small n).
    """
    rows = [sum_error_row(n, epsilon, trials, streams, triangle_trials) for n in ns]
    errors = [row["mean_abs_error_baseline"] for row in rows]
    exponent = fit_log_log_exponent(ns, errors)
    for row in rows:
        row["fitted_exponent"] = exponent
    return rows, exponent
