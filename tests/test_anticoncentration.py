import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ledplab.anticoncentration import (
    DiffMatrix,
    _all_sign_vectors,
    chernoff_tail_bound,
    moments_exhaustive,
    paley_zygmund_bound,
    random_diff_matrix,
    tail_probability_exhaustive,
    tail_probability_mc,
    tail_report,
)
from ledplab.rng import Streams


def pairwise_products_uncorrelated(n: int) -> bool:
    """Exact check that distinct entries of the sign outer product are
    uncorrelated under enumeration (n small)."""
    signs = _all_sign_vectors(n)
    count_a = signs.shape[0]
    cells = [(i, j) for i in range(n) for j in range(n)]
    for (i1, j1), (i2, j2) in combinations(cells, 2):
        total = 0
        for ai in range(count_a):
            za = signs[ai, i1] * signs[ai, i2]
            total += za * int((signs[:, j1] * signs[:, j2]).sum())
        if total != 0:
            return False
    return True


def test_diff_matrix_validation():
    DiffMatrix(np.array([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError):
        DiffMatrix(np.array([[0, 2], [0, 0]]))
    with pytest.raises(ValueError):
        DiffMatrix(np.zeros((2, 3)))


def test_mean_is_exactly_zero():
    gen = Streams(20).generator()
    for _ in range(25):
        n = int(gen.integers(1, 7))
        m = random_diff_matrix(n, int(gen.integers(0, n * n + 1)), gen)
        mean, _, _ = moments_exhaustive(m)
        assert mean == 0


def test_second_moment_equals_nonzero_count():
    gen = Streams(21).generator()
    for _ in range(200):
        n = int(gen.integers(1, 7))
        m = random_diff_matrix(n, int(gen.integers(0, n * n + 1)), gen)
        _, second, _ = moments_exhaustive(m)
        assert second == m.m


def test_fourth_moment_bound():
    gen = Streams(22).generator()
    for _ in range(100):
        n = int(gen.integers(1, 7))
        m = random_diff_matrix(n, int(gen.integers(0, n * n + 1)), gen)
        _, _, fourth = moments_exhaustive(m)
        assert fourth <= 9 * n**4


def test_all_ones_2x2_moments():
    m = DiffMatrix(np.ones((2, 2), dtype=np.int64))
    mean, second, fourth = moments_exhaustive(m)
    assert mean == 0
    assert second == 4
    assert fourth == 64  # E[(sum A)^4] * E[(sum B)^4] = 8 * 8
    assert fourth <= 9 * 2**4 * 9  # loose sanity; the tight bound is 144
    assert fourth <= 144


def test_tail_known_cases():
    all_ones = DiffMatrix(np.ones((2, 2), dtype=np.int64))
    assert tail_probability_exhaustive(all_ones, 1.0) == Fraction(1, 4)
    zero = DiffMatrix(np.zeros((3, 3), dtype=np.int64))
    assert tail_probability_exhaustive(zero, 0.5) == 0
    single = DiffMatrix(np.diag([1, 0, 0]).astype(np.int64))
    assert tail_probability_exhaustive(single, 0.5) == 1


def test_tail_lemma_instances():
    gen = Streams(23).generator()
    checked = 0
    for gamma in (Fraction(1, 9), Fraction(1, 4), Fraction(1)):
        bound = gamma * gamma / 16
        while checked < 200:
            n = int(gen.integers(2, 7))
            lo = math.ceil(float(gamma) * n * n)
            m = random_diff_matrix(n, int(gen.integers(lo, n * n + 1)), gen)
            tail = tail_probability_exhaustive(m, math.sqrt(m.m) / 2.0)
            assert tail >= bound
            checked += 1
        checked = 0


def test_tail_mc_agrees_with_exhaustive():
    gen = Streams(24).generator()
    for i in range(6):
        n = int(gen.integers(2, 7))
        m = random_diff_matrix(n, int(gen.integers(1, n * n + 1)), gen)
        threshold = math.sqrt(m.m) / 2.0
        exact = float(tail_probability_exhaustive(m, threshold))
        est, se = tail_probability_mc(m, threshold, 40000, Streams(25).child(i))
        assert abs(est - exact) <= 4 * se + 1e-12


def test_tail_mc_large_matrix_meets_bound():
    n, gamma = 30, 1.0 / 9.0
    gen = Streams(26).generator()
    m = random_diff_matrix(n, math.ceil(gamma * n * n), gen)
    est, se = tail_probability_mc(m, math.sqrt(m.m) / 2.0, 50000, Streams(27))
    assert est >= gamma**2 / 16.0 - 4 * se


def test_tail_mc_se_scaling():
    m = random_diff_matrix(10, 40, Streams(28).generator())
    _, se1 = tail_probability_mc(m, math.sqrt(40) / 2, 10000, Streams(29))
    _, se2 = tail_probability_mc(m, math.sqrt(40) / 2, 20000, Streams(30))
    assert se1 / se2 == pytest.approx(math.sqrt(2), rel=0.5)
    assert se1 / se2 <= 1.5 * math.sqrt(2)
    with pytest.raises(ValueError):
        tail_probability_mc(m, 1.0, 10, Streams(31))


def test_paley_zygmund_values():
    gamma = 1.0 / 9.0
    n = 12
    m_val = gamma * n * n
    bound = paley_zygmund_bound(0.25, m_val, 9 * n**4)
    assert bound == pytest.approx((0.75**2) * (gamma**2) / 9.0)
    assert bound == pytest.approx(gamma**2 / 16.0)
    assert paley_zygmund_bound(1.0, 3.0, 10.0) == 0.0
    assert paley_zygmund_bound(0.0, 3.0, 10.0) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        paley_zygmund_bound(0.5, 3.0, 0.0)
    with pytest.raises(ValueError):
        paley_zygmund_bound(0.5, 10.0, 3.0)


def test_chernoff_values():
    n, gamma = 5, 0.5
    k = 128 * n * n / gamma**2
    mu = gamma**2 * k / 16.0
    assert chernoff_tail_bound(mu, 0.5) == pytest.approx(math.exp(-(n**2)))
    assert chernoff_tail_bound(8.0, 1.0) == pytest.approx(math.exp(-4.0))
    assert chernoff_tail_bound(5.0, 1e-12) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        chernoff_tail_bound(0.0, 1.0)


def test_pairwise_products_uncorrelated():
    for n in (2, 3, 4):
        assert pairwise_products_uncorrelated(n)


def test_tail_report_rows():
    gamma = 1.0 / 4.0
    for n, mode in ((4, "exact"), (9, "mc")):
        rows = tail_report(n, 3, gamma, Streams(33), mc_samples=2000)
        assert len(rows) == 3
        for row in rows:
            assert row["tail_mode"] == mode
            assert row["n"] == n
            assert math.ceil(gamma * n * n) <= row["m"] <= n * n
            assert set(row) == {
                "n", "m", "gamma", "threshold", "tail", "tail_mode",
                "lemma_bound", "fourth_moment", "fourth_bound",
            }
