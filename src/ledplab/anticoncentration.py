"""Tail behavior of random sign-sandwich statistics A^T M B.

For M over {-1,0,1} and uniform independent sign vectors A, B, the
statistic U = A^T M B has mean zero, variance equal to the number of
nonzero entries, and fourth moment at most 9 n^4; hence U escapes
+-sqrt(m)/2 with probability bounded below via Paley-Zygmund. The
fourth moment is exact at every n, in closed form; the tail is exact up
to n = 12, counted over half the 4^n sign pairs in float32, with a Monte
Carlo fallback above. moments_exhaustive enumerates every pair (n <= 7)
as the brute-force oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ledplab.attack import sample_query_signs
from ledplab.rng import Streams

__all__ = [
    "DiffMatrix",
    "random_diff_matrix",
    "moments_exhaustive",
    "fourth_moment",
    "tail_probability_exhaustive",
    "tail_probability_mc",
    "paley_zygmund_bound",
    "chernoff_tail_bound",
    "tail_row",
    "tail_report",
    "ENUMERATION_MAX_N",
]

ENUMERATION_MAX_N = 12  # 2^23 sign pairs counted, in blocks of TAIL_BLOCK
ORACLE_MAX_N = 7  # 4^7 = 16384 sign pairs held at once
TAIL_BLOCK = 1 << 22  # float32 products per block: 16 MiB


class DiffMatrix:
    """A square matrix over {-1, 0, 1} with its nonzero count cached."""

    __slots__ = ("n", "entries", "m")

    def __init__(self, entries: np.ndarray):
        # checked in float64, not after narrowing to int64, which truncates
        # 0.5 and wraps uint64 2^64 - 1 to -1; an integer of size >= 2 stays >= 2
        f = np.asarray(entries, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError(f"entries must be square, got shape {f.shape}")
        if not np.all((np.trunc(f) == f) & (np.abs(f) <= 1)):
            raise ValueError("entries must lie in {-1, 0, 1}")
        e = f.astype(np.int64)
        e.setflags(write=False)
        self.entries = e
        self.n = e.shape[0]
        self.m = int(np.count_nonzero(e))

    def __repr__(self):
        return f"DiffMatrix(n={self.n}, m={self.m})"


def random_diff_matrix(n: int, m: int, gen: np.random.Generator) -> DiffMatrix:
    """Uniform random support of size m with uniform +-1 values."""
    if not 0 <= m <= n * n:
        raise ValueError(f"m must be in [0, {n * n}], got {m}")
    flat = np.zeros(n * n, dtype=np.int64)
    support = gen.choice(n * n, size=m, replace=False)
    flat[support] = gen.choice((-1, 1), size=m)
    return DiffMatrix(flat.reshape(n, n))


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


def fourth_moment(m: DiffMatrix) -> int:
    """Exact E[U^4] in O(n^3): 3 ((tr G)^2 + 2 sum_{i != j} G_ij^2)
    - 2 sum_j (3 c2_j^2 - 2 c4_j), G = M M^T and c2, c4 the column sums of
    M^2, M^4. Given A, U = B . c with c = M^T A and sum c_j^2 = A^T G A, so
    E_B[U^4] = 3 (sum c_j^2)^2 - 2 sum c_j^4; the rest averages over A."""
    e = m.entries
    sq = e * e
    g_diag, c2 = sq.sum(axis=1), sq.sum(axis=0)
    f = e.astype(np.float64)
    # float64 BLAS is exact: every entry of G is an integer of magnitude <= n
    g = (f @ f.T).astype(np.int64)
    off_diag = int(np.vdot(g, g)) - int(g_diag @ g_diag)
    c4 = int((sq * sq).sum())
    return 3 * (int(g_diag.sum()) ** 2 + 2 * off_diag) - 2 * (3 * int(c2 @ c2) - 2 * c4)


def tail_probability_exhaustive(m: DiffMatrix, threshold: float) -> Fraction:
    """Exact Pr[|U| > threshold] over all 4^n sign pairs: U(-a, b) = -U(a, b),
    so the a's with a_{n-1} = +1, the first half of the enumeration, count
    half of them. float32 is exact: every partial sum is an integer of
    magnitude at most n^2 < 2^24, in any BLAS order."""
    if m.n > ENUMERATION_MAX_N:
        raise ValueError(f"enumeration capped at n={ENUMERATION_MAX_N}, got n={m.n}")
    signs = _all_sign_vectors(m.n).astype(np.float32)
    c = signs[: len(signs) // 2] @ m.entries.astype(np.float32)
    # |U| <= m is an integer, so |U| > threshold iff |U| > floor(threshold)
    limit = math.floor(min(threshold, m.m))
    rows = max(1, TAIL_BLOCK // len(signs))
    count = 0
    for lo in range(0, len(c), rows):
        u = c[lo : lo + rows] @ signs.T
        count += int(np.count_nonzero(np.abs(u, out=u) > limit))
    return Fraction(2 * count, 1 << (2 * m.n))


def tail_probability_mc(
    m: DiffMatrix, threshold: float, samples: int, streams: Streams
) -> tuple[float, float]:
    """Monte Carlo Pr[|U| > threshold] with its standard error. The sign
    pairs are sample_query_signs(n, samples, streams): int8 signs unpacked
    from the raw words of one stream."""
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    a, b = sample_query_signs(m.n, samples, streams)
    # float32 is exact: every partial sum is an integer of magnitude at most
    # n^2 < 2^24, and it halves the (samples, n) temporaries of int64
    u = np.einsum("si,si->s", a @ m.entries.astype(np.float32), b).astype(np.int64)
    p_hat = float(np.mean(np.abs(u) > threshold))
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    return p_hat, se


def paley_zygmund_bound(theta: float, ez: float, ez2: float) -> float:
    """(1 - theta)^2 ez^2 / ez2: lower bound on Pr[Z > theta E[Z]]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if ez2 <= 0:
        raise ValueError(f"second moment must be positive, got {ez2}")
    if ez < 0 or ez * ez > ez2 * (1 + 1e-12):
        raise ValueError(f"need 0 <= ez and ez^2 <= ez2, got ez={ez}, ez2={ez2}")
    return (1.0 - theta) ** 2 * ez * ez / ez2


def chernoff_tail_bound(mu: float, delta: float) -> float:
    """exp(-delta^2 mu / 2): lower-tail bound for a sum with mean mu."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return math.exp(-delta * delta * mu / 2.0)


def tail_row(m: DiffMatrix, gamma: float, streams: Streams, mc_samples: int = 20000) -> dict:
    """Observed tail at sqrt(m)/2 vs the gamma^2/16 bound, for one matrix."""
    threshold = math.sqrt(m.m) / 2.0
    if m.n <= ENUMERATION_MAX_N:
        tail = float(tail_probability_exhaustive(m, threshold))
        mode = "exact"
    else:
        tail, _ = tail_probability_mc(m, threshold, mc_samples, streams)
        mode = "mc"
    return {
        "n": m.n,
        "m": m.m,
        "gamma": gamma,
        "threshold": threshold,
        "tail": tail,
        "tail_mode": mode,
        "lemma_bound": gamma * gamma / 16.0,
        "fourth_moment": float(fourth_moment(m)),
        "fourth_bound": 9.0 * m.n**4,
    }


def tail_report(
    n: int, count: int, gamma: float, streams: Streams, mc_samples: int = 20000
) -> list[dict]:
    """Tail rows for `count` random n x n difference matrices with at least
    gamma n^2 nonzeros. The sizes come from streams.child("sizes"), matrix i
    from streams.child("matrix", i) and its Monte Carlo draws from that
    node's child("mc"), so each row depends only on its own index."""
    m_floor = math.ceil(gamma * n * n)
    sizes = streams.child("sizes").generator().integers(m_floor, n * n + 1, size=count)
    rows = []
    for idx, m in enumerate(sizes):
        node = streams.child("matrix", idx)
        matrix = random_diff_matrix(n, int(m), node.generator())
        rows.append(tail_row(matrix, gamma, node.child("mc"), mc_samples))
    return rows
