"""Tail behavior of random sign-sandwich statistics A^T M B.

For M over {-1,0,1} and uniform independent sign vectors A, B, the
statistic U = A^T M B has mean zero, variance equal to the number of
nonzero entries, and fourth moment at most 9 n^4; hence U escapes
+-sqrt(m)/2 with probability bounded below via Paley-Zygmund. The
module computes everything exactly by enumerating all 4^n sign pairs
(small n), with a Monte Carlo fallback, keeping the arithmetic in
integers until the final normalization.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ledplab.rng import Streams

__all__ = [
    "DiffMatrix",
    "random_diff_matrix",
    "moments_exhaustive",
    "tail_probability_exhaustive",
    "tail_probability_mc",
    "paley_zygmund_bound",
    "chernoff_tail_bound",
    "tail_row",
    "tail_report",
    "ENUMERATION_MAX_N",
]

ENUMERATION_MAX_N = 7  # 4^7 = 16384 sign pairs


class DiffMatrix:
    """A square matrix over {-1, 0, 1} with its nonzero count cached."""

    __slots__ = ("n", "entries", "m")

    def __init__(self, entries: np.ndarray):
        e = np.asarray(entries, dtype=np.int64)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        if not np.all(np.isin(e, (-1, 0, 1))):
            raise ValueError("entries must lie in {-1, 0, 1}")
        e = e.copy()
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
    if m.n > ENUMERATION_MAX_N:
        raise ValueError(f"enumeration capped at n={ENUMERATION_MAX_N}, got n={m.n}")
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


def tail_probability_exhaustive(m: DiffMatrix, threshold: float) -> Fraction:
    """Exact Pr[|U| > threshold]; |U| is integral so no boundary fuzz."""
    u = _all_products(m)
    count = int(np.count_nonzero(np.abs(u) > threshold))
    return Fraction(count, 1 << (2 * m.n))


def tail_probability_mc(
    m: DiffMatrix, threshold: float, samples: int, streams: Streams
) -> tuple[float, float]:
    """Monte Carlo Pr[|U| > threshold] with its standard error."""
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    gen = streams.generator()
    a = gen.choice((-1, 1), size=(samples, m.n))
    b = gen.choice((-1, 1), size=(samples, m.n))
    u = np.einsum("si,si->s", a @ m.entries, b)
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
        _, _, fourth = moments_exhaustive(m)
        fourth_val = float(fourth)
        mode = "exact"
    else:
        tail, _ = tail_probability_mc(m, threshold, mc_samples, streams)
        fourth_val = None
        mode = "mc"
    return {
        "n": m.n,
        "m": m.m,
        "gamma": gamma,
        "threshold": threshold,
        "tail": tail,
        "tail_mode": mode,
        "lemma_bound": gamma * gamma / 16.0,
        "fourth_moment": fourth_val,
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
