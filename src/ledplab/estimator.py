"""Noisy triangle counting from one round of randomized response.

Released pair bits are rescaled to unbiased edge indicators, lo for a 0
and hi for a 1, and T_hat sums the rescaled products over all triples:
T_hat = lo^3 t0 + lo^2 hi t1 + lo hi^2 t2 + hi^3 t3, t_j counting the
triples with j released edges. From the released edges m, wedges
W = sum_v C(d_v, 2) and triangles T: t3 = T, t2 = W - 3T,
t1 = m(n-2) - 2W + 3T, t0 = C(n,3) - t1 - t2 - t3. They are counted by
float32 (n <= 257) or float64 matmul on 0/1 entries, whose partial sums
stay integers below the mantissa bound, exact in any BLAS order. A Monte
Carlo batch is gathered through `graphs.gather_map(n)` as three (h, h)
blocks of each graph, padded to 2h = 2 ceil(n/2) vertices, and counted
by `graphs.gathered_stats` from four block products with half the
multiplies of one (n, n) product and the same integers (the
`ledplab.graphs` docstring has the identity and its exactness bound).
The closed-form variance is checked against a full flip-pattern
enumeration.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from ledplab import parallel
from ledplab.graphs import (
    Graph,
    codegree_pairs,
    complete_graph,
    count_dtype,
    empty_graph,
    erdos_renyi,
    gather_map,
    gathered_stats,
    graph_stats,
)
from ledplab.ledp import (
    RandomizedResponse,
    Transcript,
    flip_probability,
    randomized_rows,
    release_runs,
    unit_words,
)
from ledplab.rng import Streams

__all__ = [
    "rescale",
    "rescaled_atoms",
    "edge_noise_variance",
    "triangle_mix",
    "released_estimates",
    "estimate_triangles",
    "sample_estimates",
    "sample_estimates_range",
    "exact_variance",
    "variance_by_enumeration",
    "sweep_cell",
    "variance_sweep",
    "MIN_EPSILON",
]

# Below this the rescale magnitudes exceed 1e6 and float cancellation in
# the triple products dominates the estimate.
MIN_EPSILON = 1e-6

ENUMERATION_MAX_PAIRS = 24

# Bytes of (trials, n, n) count_dtype(n) counts that sample_estimates_range's
# running blocks may hold, split among its threads. A trial's gathered
# counts are the (3, h, h) blocks of graphs.gather_map and its product
# workspace one (h, h) block more, h = ceil(n/2): n^2 entries at even n,
# (n + 1)^2 at odd n. It also bounds what a process keeps between calls:
# the block workspaces, these counts with the blocks' uint8 bits and
# gathered entries (about 1.3x the counts at even n), stay mapped in the
# shared pool's buffers (`ledplab.parallel`) while one trial a block fits
# the budget; past that (n > 1448 on two threads) they are freed after
# the call.
BLOCK_BYTES = 32 << 20

# Most trials a block. Small graphs fit many trials in BLOCK_BYTES, and
# blocks past this ran slower as their workspaces outgrew the caches:
# without it 1e5 trials took 1.51x as long at n = 4, 1.34x at 8 and 1.10x
# at 12, and 32,768 trials 1.30x at n = 16 and 1.19x at 24 (one BLAS
# thread, 2 cores).
BLOCK_TRIALS = 4096

# Least work, trials * n^2, of a range that runs on threads; a smaller
# range runs as one block on the calling thread. At n = 4 to 64 two
# threads took 1.02-1.48x one thread's time on ranges of work 2^18,
# 0.74-1.01x at 2^19 and 0.68-0.83x at 2^20 (one BLAS thread, 2 cores).
THREAD_MIN_WORK = 1 << 19


def rescale(x: float, epsilon: float) -> float:
    """Map a released bit to ((e^eps + 1) x - 1)/(e^eps - 1).

    The result is an unbiased estimator of the true edge indicator when
    x came from randomized response at the same epsilon.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    denom = math.expm1(epsilon)
    if denom < 1e-300:
        raise ValueError(f"epsilon={epsilon} too small: e^eps - 1 underflows")
    return ((math.exp(epsilon) + 1.0) * x - 1.0) / denom


def rescaled_atoms(epsilon: float) -> tuple[float, float]:
    """The two values a rescaled bit can take: (for x=0, for x=1)."""
    return rescale(0, epsilon), rescale(1, epsilon)


def edge_noise_variance(epsilon: float) -> float:
    """Variance of one rescaled bit: e^eps/(e^eps - 1)^2, or past eps ~ 355,
    where (e^eps - 1)^2 overflows, the same value as
    e^-eps/(1 - e^-eps)^2."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    m = math.expm1(epsilon)
    if math.isinf(m * m):
        return math.exp(-epsilon) / math.expm1(-epsilon) ** 2
    return math.exp(epsilon) / (m * m)


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon >= MIN_EPSILON):
        raise ValueError(f"epsilon must be finite and at least {MIN_EPSILON}, got {epsilon}")


@functools.lru_cache(maxsize=32)
def _triple_types(n: int, degree_sums: bool) -> np.ndarray:
    """The read-only 4x4 map from counts [1, m, W, T] to t0..t3 (module
    docstring), t0 = C(n,3) - (n-2) m + W - T; with degree_sums, from
    [1, sum d, sum d^2, T], by m = sum d / 2 and W = (sum d^2 - sum d) / 2.
    Every entry is an integer or a half-integer."""
    types = np.array([
        [math.comb(n, 3), 2 - n, 1, -1],
        [0, n - 2, -2, 3],
        [0, 0, 1, -3],
        [0, 0, 0, 1],
    ], dtype=np.float64)
    if degree_sums:
        types = types @ [[1, 0, 0, 0], [0, 0.5, 0, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 1]]
    types.setflags(write=False)
    return types


def triangle_mix(counts, n: int, epsilon: float, degree_sums: bool = False, out=None):
    """T_hat of released n-vertex graphs from counts, a float64 block of
    rows [1, m, W, T] of their edges m, wedges W and triangles T, or with
    degree_sums [1, sum d, sum d^2, T], by the triple-type mix (module
    docstring); out, a float64 (4, N) array for N graphs, if given, holds
    the triple types.

    One constant 4x4 product maps the counts to t0..t3. Its entries and
    partial sums are integers or half-integers below 2^52 while n < 2^17,
    so it is exact in any BLAS order. The terms p0 = lo^3 t0,
    p1 = lo^2 hi t1, p2 = lo hi^2 t2 and p3 = hi^3 t3 are added by one
    axis-0 reduction in that order, ((p0 + p1) + p2) + p3, so each
    estimate has the bytes of the four-term sum over int64 counts.
    """
    types = np.matmul(_triple_types(n, degree_sums), counts.reshape(4, -1), out=out)
    lo, hi = rescaled_atoms(epsilon)
    types *= np.array([[lo**3], [lo * lo * hi], [lo * hi * hi], [hi**3]])
    return np.add.reduce(types, axis=0).reshape(counts.shape[1:])[()]


def released_estimates(released: np.ndarray, epsilon: float):
    """T_hat for a (..., n, n) stack of released symmetric 0/1 matrices."""
    m, w, t = graph_stats(released)
    return triangle_mix(np.stack((np.ones(np.shape(t)), m, w, t)), released.shape[-1], epsilon)


def estimate_triangles(g: Graph, epsilon: float, streams: Streams) -> tuple[float, Transcript]:
    """Trial 0 of sample_estimates on the same node, bit for bit, recorded.

    Vertex v releases its run of the trial's triu-ordered bits, the pairs
    (v, j > v), through randomized response; the postprocessor sums the
    rescaled triple products from the released graph's counts. Returns
    (T_hat, the one-round Transcript).
    """
    _check_epsilon(epsilon)
    outputs, released = release_runs(RandomizedResponse(epsilon), g.adjacency, streams)
    transcript = Transcript()
    transcript.append_round(outputs)
    return float(released_estimates(released | released.T, epsilon)), transcript


def sample_estimates(g: Graph, epsilon: float, trials: int, streams: Streams) -> np.ndarray:
    """Monte Carlo estimates for `trials` independent protocol runs.

    Trial t is unit t of the node `streams` (stream layout 4,
    `ledplab.rng`): its C(n,2) bits read the words [t W, (t + 1) W),
    W = ceil(C(n,2)/4), and a tie, if any, the node's "ties" child, so
    results are identical however trials are scheduled. This bulk path
    skips transcripts; estimate_triangles records trial 0.
    """
    return sample_estimates_range(g, epsilon, 0, trials, streams)


def sample_estimates_range(
    g: Graph, epsilon: float, start: int, stop: int, streams: Streams
) -> np.ndarray:
    """Estimates for the trial indices [start, stop); slicing a run into
    ranges and concatenating reproduces the full run bit for bit.

    Batches are gathered through graphs.gather_map(n) and counted at
    count_dtype(n) by graphs.gathered_stats. A range of less than
    THREAD_MIN_WORK trials * n^2 runs on the calling thread; a larger one
    on up to one thread a usable CPU per BLAS thread (`ledplab.parallel`),
    split evenly into at least one block a thread and the fewest blocks of
    at most BLOCK_TRIALS trials and BLOCK_BYTES / threads of (n, n)
    counts. Each running block fills a workspace of its own, from the
    buffers the pool keeps between calls (BLOCK_BYTES), and draws its
    trials in order from one generator, skipped to its first trial's
    words and derived on the calling thread (a tie generator is derived by
    the block that holds the tie); a trial's counts are exact integers, so
    its estimate depends on neither.
    """
    _check_epsilon(epsilon)
    if not 0 <= start <= stop:
        raise ValueError(f"trial range [{start}, {stop}) needs 0 <= start <= stop")
    n = g.n
    iu = np.triu_indices(n, k=1)
    k = len(iu[0])
    words = unit_words(k)
    ties = streams.child("ties")
    true_bits = g.adjacency[iu]
    pair_index = gather_map(n)
    dtype = count_dtype(n)
    trials = stop - start
    cpus = parallel.cpus_per_blas_thread() if trials * n * n >= THREAD_MIN_WORK else 1
    trial_bytes = np.dtype(dtype).itemsize * n * n
    cap = max(1, min(BLOCK_TRIALS, BLOCK_BYTES // (cpus * trial_bytes)))
    rows = max(1, -(-trials // max(cpus, -(-trials // cap))))
    out = np.empty(trials, dtype=np.float64)
    layout = {
        "bits": ((rows, k + 1), np.uint8),
        "released": ((rows, *pair_index.shape), np.uint8),
        "counts": ((rows, *pair_index.shape), dtype),
        "product": ((rows, *pair_index.shape[-2:]), dtype),
    }

    def estimate_block(item, ws):
        lo_t, gen = item
        b = min(rows, stop - lo_t)
        bits = ws["bits"][:b]
        bits[:, k] = 0  # the column gather_map's diagonal and padding read
        randomized_rows(true_bits, epsilon, gen, ties, lo_t, bits[:, :k])
        released = np.take(bits, pair_index, axis=1, out=ws["released"][:b], mode="clip")
        counts = ws["counts"][:b]
        np.copyto(counts, released)
        m, w, t = gathered_stats(counts, n, ws["product"][:b])
        out[lo_t - start : lo_t - start + b] = triangle_mix(np.stack((np.ones(b), m, w, t)), n, epsilon)

    items = [(lo_t, streams.generator(lo_t * words)) for lo_t in range(start, stop, rows)]
    keep = cpus * trial_bytes <= BLOCK_BYTES  # else one trial a block is over the budget
    parallel.parallel_map(estimate_block, items, layout, min(cpus, len(items)), keep)
    return out


def _pair_and_triple_index(n: int):
    pairs = list(combinations(range(n), 2))
    pair_pos = {p: i for i, p in enumerate(pairs)}
    triples = np.array(
        [
            (pair_pos[(i, j)], pair_pos[(j, k)], pair_pos[(i, k)])
            for i, j, k in combinations(range(n), 3)
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    return pairs, triples


def _enumeration_moments(g: Graph, epsilon: float, chunk: int = 1 << 16):
    """Exact (E[T_hat], E[T_hat^2]) by enumerating all 2^pairs flip patterns."""
    n = g.n
    pairs, triples = _pair_and_triple_index(n)
    k = len(pairs)
    if k > ENUMERATION_MAX_PAIRS:
        raise ValueError(f"enumeration infeasible: {k} potential edges > {ENUMERATION_MAX_PAIRS}")
    true_bits = np.array([g.adjacency[i, j] for i, j in pairs], dtype=np.uint8)
    p_flip = flip_probability(epsilon)
    lo, hi = rescaled_atoms(epsilon)
    e1 = 0.0
    e2 = 0.0
    shifts = np.arange(k, dtype=np.uint64)
    for start in range(0, 1 << k, chunk):
        stop = min(start + chunk, 1 << k)
        idx = np.arange(start, stop, dtype=np.uint64)
        flip_bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        n_flips = flip_bits.sum(axis=1)
        weights = p_flip**n_flips * (1.0 - p_flip) ** (k - n_flips)
        noisy = true_bits[None, :] ^ flip_bits
        y = np.where(noisy, hi, lo)
        if len(triples):
            t_hat = (y[:, triples[:, 0]] * y[:, triples[:, 1]] * y[:, triples[:, 2]]).sum(axis=1)
        else:
            t_hat = np.zeros(stop - start)
        e1 += float(weights @ t_hat)
        e2 += float(weights @ (t_hat * t_hat))
    return e1, e2


def exact_variance(g: Graph, epsilon: float) -> float:
    """Closed-form Var[T_hat] = s^3 C(n,3) + s^2 m(n-2) + s W + 2 s P.

    s is the rescaled-bit noise variance and m, W, P = sum_{i<j}
    C(codeg_ij, 2) are exact integer counts of the true graph (module
    docstring). A triple with true edges e1, e2, e3 has variance
    s^3 + s^2 (e1+e2+e3) + s (e1e2 + e2e3 + e1e3); two triples sharing
    a pair covary by 2 s per co-degree pair closing a 4-cycle with it.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n = g.n
    s = edge_noise_variance(epsilon)
    m, w, _ = graph_stats(g.adjacency)
    p = codegree_pairs(g.adjacency)
    return s**3 * math.comb(n, 3) + s * s * (int(m) * (n - 2)) + s * int(w) + 2.0 * s * p


def variance_by_enumeration(g: Graph, epsilon: float) -> float:
    """Var[T_hat] from the full flip-pattern enumeration (ground truth)."""
    e1, e2 = _enumeration_moments(g, epsilon)
    return e2 - e1 * e1


def _family_graph(family: str, n: int, streams: Streams) -> Graph:
    if family == "empty":
        return empty_graph(n)
    if family == "er05":
        return erdos_renyi(n, 0.5, streams.child("graph", n).generator())
    if family == "complete":
        return complete_graph(n)
    raise ValueError(f"unknown graph family {family!r}")


def sweep_cell(family: str, n: int, epsilon: float, trials: int, streams: Streams) -> dict:
    """One (family, n, epsilon) cell of the variance sweep."""
    g = _family_graph(family, n, streams)
    cell = streams.child("cell", n, int(round(epsilon * 1e9)))
    estimates = sample_estimates(g, epsilon, trials, cell)
    var_emp = float(np.var(estimates, ddof=1))
    var_oracle = exact_variance(g, epsilon)
    return {
        "n": n,
        "epsilon": epsilon,
        "family": family,
        "trials": trials,
        "t_exact": int(graph_stats(g.adjacency)[2]),
        "c4": codegree_pairs(g.adjacency) // 2,
        "var_empirical": var_emp,
        "var_oracle": var_oracle,
        "ratio": var_emp / var_oracle if var_oracle else float("nan"),
        "seed": streams.seed,
    }


def variance_sweep(
    ns: list[int],
    epsilons: list[float],
    family: str,
    trials: int,
    streams: Streams,
) -> list[dict]:
    """Empirical-vs-oracle variance table, one row per (n, epsilon) cell."""
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    return [sweep_cell(family, n, eps, trials, streams) for n in ns for eps in epsilons]
