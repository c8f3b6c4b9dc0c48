"""Tail behavior of random sign-sandwich statistics A^T M B.

For M over {-1,0,1} and uniform independent sign vectors A, B, the
statistic U = A^T M B has mean zero, variance equal to the number of
nonzero entries, and fourth moment at most 9 n^4; hence, by
Paley-Zygmund, U escapes +-sqrt(m)/2 with probability at least
gamma^2/16 once m >= gamma n^2. The kernels take a (batch, n, n) stack of
matrices: fourth_moments is exact at every n, in closed form in int64;
tail_counts is exact up to n = 12, counted over half the 4^n sign pairs
in float32 products. tail_report draws its matrices a batch at a time,
as many as fit one byte budget (TAIL_BYTES), each batch by a few whole-
array calls on one generator (_draw_matrices: a matrix's support is its
m entries of smallest random key), with a Monte Carlo tail past n = 12.
moments_exhaustive enumerates every pair (n <= 7) as the brute-force
oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ledplab.attack import _bilinear, _ternary_matrix, sample_query_signs
from ledplab.graphs import exact_float
from ledplab.rng import Streams

__all__ = [
    "DiffMatrix",
    "random_diff_matrix",
    "moments_exhaustive",
    "fourth_moments",
    "tail_counts",
    "tail_probability_exhaustive",
    "tail_probability_mc",
    "tail_row",
    "tail_report",
    "ENUMERATION_MAX_N",
]

ENUMERATION_MAX_N = 12  # 2^23 sign pairs counted a matrix
ORACLE_MAX_N = 7  # 4^7 = 16384 sign pairs held at once
# A tail batch's products and entries: a batch holds as many matrices as
# fit, and a matrix past it (n >= 10) is counted in blocks of sign rows.
TAIL_BYTES = 1 << 20
PRODUCT_BYTES = 5  # a float32 product and its comparison byte
ENTRY_BYTES = 40  # an entry in int64, and its fourth moment's int64 and float64 temporaries
# (its draw's words, keys, masks and signs take 33 bytes)


class DiffMatrix:
    """A square matrix over {-1, 0, 1} with its nonzero count cached."""

    __slots__ = ("n", "entries", "m")

    def __init__(self, entries: np.ndarray):
        e = _ternary_matrix(entries, "entries").astype(np.int64)
        e.setflags(write=False)
        self.entries = e
        self.n = e.shape[0]
        self.m = int(np.count_nonzero(e))

    def __repr__(self):
        return f"DiffMatrix(n={self.n}, m={self.m})"


def _draw_matrices(n: int, sizes, gen: np.random.Generator, ties: Streams | None = None,
                   first: int = 0) -> np.ndarray:
    """The (len(sizes), n * n) int64 flat difference matrices of units
    first, first + 1, ... of a node (stream layout 5, `ledplab.rng`), read
    through gen, a generator at unit first's words. Unit i reads n^2 words:
    word j's top 63 bits are entry j's key and its low bit its sign, and
    the m_i entries with the smallest keys are the support, each -1 if its
    low bit is set, else +1. A unit whose keys repeat is redrawn, n^2 words
    at a time, from ties.child(i) (from gen, when ties is None) until they
    are distinct, so every support of size m_i is equally likely."""
    sizes = np.asarray(sizes, dtype=np.int64)
    cells = n * n
    raw = gen.bit_generator.random_raw(len(sizes) * cells).reshape(len(sizes), cells)
    ranked = raw >> np.uint64(1)
    ranked.sort(axis=1)
    for r in np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)).tolist():
        redraw = (gen if ties is None else ties.child(first + r).generator()).bit_generator
        while np.any(ranked[r, 1:] == ranked[r, :-1]):
            raw[r] = redraw.random_raw(cells)
            ranked[r] = np.sort(raw[r] >> np.uint64(1))
    # distinct keys: the m smallest are those below the (m + 1)-th, or all of them
    bound = np.full(len(sizes), 1 << 63, dtype=np.uint64)
    short = np.flatnonzero(sizes < cells)
    bound[short] = ranked[short, sizes[short]]
    return np.where((raw >> np.uint64(1)) < bound[:, None], np.where(raw & np.uint64(1), -1, 1), 0)


def random_diff_matrix(n: int, m: int, gen: np.random.Generator) -> DiffMatrix:
    """Uniform random support of size m with uniform +-1 values: one unit
    of _draw_matrices, read from gen."""
    if not 0 <= m <= n * n:
        raise ValueError(f"m must be in [0, {n * n}], got {m}")
    return DiffMatrix(_draw_matrices(n, [m], gen).reshape(n, n))


def _all_sign_vectors(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return 1 - 2 * bits.astype(np.int64)


def _all_products(m: DiffMatrix) -> np.ndarray:
    """U = A^T M B for every sign pair, as a (2^n, 2^n) integer matrix."""
    if m.n > ORACLE_MAX_N:
        raise ValueError(f"enumeration capped at n={ORACLE_MAX_N}, got n={m.n}")
    signs = _all_sign_vectors(m.n)
    return signs @ m.entries @ signs.T


def moments_exhaustive(m: DiffMatrix) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (mean, second, fourth) moments of U over all 4^n sign pairs."""
    u = _all_products(m)
    pairs = 1 << (2 * m.n)
    u2 = u * u
    return (
        Fraction(int(u.sum()), pairs),
        Fraction(int(u2.sum()), pairs),
        Fraction(int((u2 * u2).sum()), pairs),
    )


def fourth_moments(entries: np.ndarray) -> np.ndarray:
    """Exact E[U^4] of each matrix of a (batch, n, n) stack, in O(n^3) each:
    3 ((tr G)^2 + 2 sum_{i != j} G_ij^2) - 2 sum_j (3 c2_j^2 - 2 c4_j),
    G = M M^T and c2, c4 the column sums of M^2, M^4. Given A, U = B . c
    with c = M^T A and sum c_j^2 = A^T G A, so E_B[U^4] = 3 (sum c_j^2)^2 -
    2 sum c_j^4; the rest averages over A. Zero rows and columns padding a
    matrix leave its moment unchanged."""
    e = np.asarray(entries, dtype=np.int64)
    sq = e * e
    g_diag, c2 = sq.sum(axis=2), sq.sum(axis=1)
    f = e.astype(np.float64)
    # float64 BLAS is exact: every entry of G is an integer of magnitude <= n
    g = np.matmul(f, f.transpose(0, 2, 1)).astype(np.int64)
    off_diag = np.einsum("bij,bij->b", g, g) - np.einsum("bi,bi->b", g_diag, g_diag)
    c4 = (sq * sq).sum(axis=(1, 2))
    trace = g_diag.sum(axis=1)
    return 3 * (trace * trace + 2 * off_diag) - 2 * (3 * np.einsum("bj,bj->b", c2, c2) - 2 * c4)


def tail_counts(entries: np.ndarray, thresholds, signs: np.ndarray | None = None) -> np.ndarray:
    """For each matrix of a (batch, n, n) stack, the sign pairs with |U| >
    its threshold among the a's with a_{n-1} = +1, the first half of the
    enumeration: U(-a, b) = -U(a, b), so that is half the count over all
    4^n pairs. `signs` is _all_sign_vectors(n) in float32, built once by a
    caller that counts many batches. Two stacked float32 products, the
    half sign table times the entries times the full one, are exact: every
    partial sum is an integer of magnitude at most n^2, and exact_float(n^2)
    is float32. They are taken in blocks of sign rows of at most TAIL_BYTES.
    Padding a matrix with k zero rows and columns multiplies its count by 4^k."""
    e = np.asarray(entries)
    batch, n, _ = e.shape
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"enumeration capped at n={ENUMERATION_MAX_N}, got n={n}")
    assert exact_float(n * n) is np.float32
    if signs is None:
        signs = _all_sign_vectors(n).astype(np.float32)
    # |U| <= m is an integer, so |U| > threshold iff |U| > floor(min(threshold, m))
    m = np.count_nonzero(e, axis=(1, 2))
    limits = np.floor(np.minimum(thresholds, m)).astype(np.float32)[:, None]
    full = len(signs)
    c = np.matmul(signs[: full // 2], e.astype(np.float32))
    # a power of two, so the blocks split the 2^(n-1) rows evenly
    rows = min(full // 2, 1 << (max(1, TAIL_BYTES // (PRODUCT_BYTES * batch * full)).bit_length() - 1))
    u = np.empty((batch, rows * full), dtype=np.float32)
    hit = np.empty(u.shape, dtype=bool)
    counts = np.zeros(batch, dtype=np.int64)
    for lo in range(0, full // 2, rows):
        np.matmul(c[:, lo : lo + rows].reshape(-1, n), signs.T, out=u.reshape(-1, full))
        np.greater(np.abs(u, out=u), limits, out=hit)
        counts += [np.count_nonzero(h) for h in hit]  # 4x faster than count_nonzero(axis=1)
    return counts


def tail_probability_exhaustive(m: DiffMatrix, threshold: float) -> Fraction:
    """Exact Pr[|U| > threshold] over all 4^n sign pairs (tail_counts)."""
    return Fraction(2 * int(tail_counts(m.entries[None], [threshold])[0]), 1 << (2 * m.n))


def tail_probability_mc(
    m: DiffMatrix, threshold: float, samples: int, streams: Streams
) -> tuple[float, float]:
    """Monte Carlo Pr[|U| > threshold] with its standard error. The sign
    pairs are sample_query_signs(n, samples, streams): int8 signs unpacked
    from the raw words of one stream."""
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    a, b = sample_query_signs(m.n, samples, streams)
    u = _bilinear(a, m.entries, b)  # exact: m's entries are integers
    p_hat = float(np.mean(np.abs(u) > threshold))
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    return p_hat, se


def _tail_rows(entries, gamma, mc_streams, mc_samples, signs=None) -> list[dict]:
    """Observed tail at sqrt(m)/2 vs the gamma^2/16 bound for each matrix of
    a (batch, n, n) stack; past the enumeration cap matrix j's tail is
    Monte Carlo, drawn from mc_streams[j]."""
    n = entries.shape[1]
    ms = np.count_nonzero(entries, axis=(1, 2)).tolist()
    thresholds = [math.sqrt(m) / 2.0 for m in ms]
    if n <= ENUMERATION_MAX_N:
        tails = [2 * c / (1 << (2 * n)) for c in tail_counts(entries, thresholds, signs).tolist()]
        mode = "exact"
    else:
        tails = [tail_probability_mc(DiffMatrix(e), t, mc_samples, s)[0]
                 for e, t, s in zip(entries, thresholds, mc_streams)]
        mode = "mc"
    return [{"n": n, "m": m, "gamma": gamma, "threshold": threshold, "tail": tail, "tail_mode": mode,
             "lemma_bound": gamma * gamma / 16.0, "fourth_moment": float(fourth), "fourth_bound": 9.0 * n**4}
            for m, threshold, tail, fourth in zip(ms, thresholds, tails, fourth_moments(entries).tolist())]


def tail_row(m: DiffMatrix, gamma: float, streams: Streams, mc_samples: int = 20000) -> dict:
    """Observed tail at sqrt(m)/2 vs the gamma^2/16 bound, for one matrix."""
    return _tail_rows(m.entries[None], gamma, [streams], mc_samples)[0]


def tail_report(
    n: int, count: int, gamma: float, streams: Streams, mc_samples: int = 20000
) -> list[dict]:
    """Tail rows for `count` random n x n difference matrices with at least
    gamma n^2 nonzeros. The sizes come from streams.child("sizes"), matrix i
    is unit i of streams.child("matrices") (_draw_matrices), all read in
    order through one generator, and its Monte Carlo draws come from
    streams.child("matrix", i, "mc"), so each row depends only on its own
    index. The matrices are counted in batches whose products and entries
    fit TAIL_BYTES, against one sign table."""
    m_floor = math.ceil(gamma * n * n)
    sizes = streams.child("sizes").generator().integers(m_floor, n * n + 1, size=count)
    exact = n <= ENUMERATION_MAX_N
    signs = _all_sign_vectors(n).astype(np.float32) if exact else None
    # 2^(n-1) sign rows, each 2^n products and an (n,) float32 half product
    per_matrix = (1 << (n - 1)) * (PRODUCT_BYTES * (1 << n) + 4 * n) + ENTRY_BYTES * n * n
    batch = max(1, TAIL_BYTES // per_matrix) if exact else 1
    node = streams.child("matrices")
    gen, ties = node.generator(), node.child("ties")
    rows = []
    for lo in range(0, count, batch):
        entries = _draw_matrices(n, sizes[lo : lo + batch], gen, ties, lo)
        mc_streams = None if exact else [streams.child("matrix", i, "mc") for i in range(lo, lo + len(entries))]
        rows += _tail_rows(entries.reshape(-1, n, n), gamma, mc_streams, mc_samples, signs)
    return rows
