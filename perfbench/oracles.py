"""Independent oracles the benchmark checks the program's outputs against.

They use only numpy and integer arithmetic and share no code with
ledplab, so a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np


def _adjacency(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


def triangles(a) -> int:
    """Triangle count as trace(A^3)/6, in exact integer arithmetic."""
    a = _adjacency(a)
    return int(np.einsum("ij,ji->", a @ a, a)) // 6


def noise_variance(epsilon: float) -> float:
    """Variance of one rescaled randomized-response bit: e^eps/(e^eps - 1)^2."""
    m = math.expm1(epsilon)
    return math.exp(epsilon) / (m * m)


def estimator_variance(a, epsilon: float) -> float:
    """Closed-form Var[T_hat] of the one-round RR triangle estimator.

    Var = s^3 C(n,3) + s^2 m (n-2) + s W + 2 s sum_{i<j} C(codeg_ij, 2),
    with s the per-bit noise variance, m the edge count and
    W = sum_v C(d_v, 2) the wedge count.
    """
    a = _adjacency(a)
    n = a.shape[0]
    s = noise_variance(epsilon)
    degrees = a.sum(axis=1)
    m = int(degrees.sum()) // 2
    wedges = int((degrees * (degrees - 1) // 2).sum())
    codeg = (a @ a)[np.triu_indices(n, k=1)]
    shared = int((codeg * (codeg - 1) // 2).sum())
    return s**3 * math.comb(n, 3) + s**2 * m * (n - 2) + s * wedges + 2.0 * s * shared


def sum_baseline_variance(n: int, epsilon: float) -> float:
    """Variance of the RR sum baseline over n bits: n e^eps/(e^eps - 1)^2."""
    return n * noise_variance(epsilon)


def gadget_adjacency(bits) -> np.ndarray:
    """Adjacency of the summation gadget: V1 = [0, n) joined to all of
    V2 = [n, 3n), and party i's pair (n+2i, n+2i+1) joined iff bit i is 1."""
    bits = np.asarray(bits, dtype=np.int64)
    n = len(bits)
    a = np.zeros((3 * n, 3 * n), dtype=np.int64)
    a[:n, n:] = 1
    a[n:, :n] = 1
    for i in np.flatnonzero(bits):
        u, v = n + 2 * i, n + 2 * i + 1
        a[u, v] = a[v, u] = 1
    return a


def default_query_count(n: int, gamma: float) -> int:
    """k = ceil(128 n^2 / gamma^2), the paper's query count."""
    return math.ceil(128.0 * n * n / (gamma * gamma))


def within_sigmas(mean: float, target: float, variance: float, trials: int, sigmas: float = 4.0) -> bool:
    """Whether a Monte Carlo mean lies within `sigmas` standard errors of target."""
    return abs(mean - target) <= sigmas * math.sqrt(variance / trials)
