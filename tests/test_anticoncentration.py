import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import ledplab.anticoncentration as ac
from ledplab.anticoncentration import (
    DiffMatrix,
    _all_products,
    _draw_matrices,
    _all_sign_vectors,
    fourth_moments,
    moments_exhaustive,
    random_diff_matrix,
    tail_counts,
    tail_probability_exhaustive,
    tail_probability_mc,
    tail_report,
)
from ledplab.attack import sample_query_signs
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


def test_diff_matrix_rejects_out_of_range_entries():
    for value in (2, -2, 3, np.iinfo(np.int64).min, np.iinfo(np.int64).max):
        with pytest.raises(ValueError):
            DiffMatrix(np.array([[1, -1], [0, value]], dtype=np.int64))
    assert DiffMatrix(np.array([[1, -1], [0, 0]])).m == 2


@pytest.mark.parametrize("bad", [
    np.array([[0.5]]),
    np.array([[0.5, 1.9], [0, -1.7]]),  # once truncated to [[0, 1], [0, -1]]
    np.array([[0, 2], [0, 0]]),
    np.array([[0, -2], [0, 0]]),
    np.array([[np.iinfo(np.int64).min, 0], [0, 0]]),
    np.array([[0, 0], [0, np.iinfo(np.int64).max]]),
    np.full((2, 2), np.iinfo(np.uint64).max, dtype=np.uint64),  # once read as all -1
    np.array([[0, np.nan], [0, 0]]),
    np.array([[np.inf, 0], [0, 0]]),
    np.array([[0, 0], [-np.inf, 0]]),
])
def test_diff_matrix_rejects_entries_before_narrowing(bad):
    with pytest.raises(ValueError, match="must lie in"):
        DiffMatrix(bad)


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


def test_fourth_moment_matches_enumeration():
    gen = Streams(34).generator()
    for n in range(1, 8):
        sizes = [0, n * n, *gen.integers(0, n * n + 1, size=6).tolist()]
        for m_size in sizes:
            m = random_diff_matrix(n, int(m_size), gen)
            assert fourth_moments(m.entries[None])[0] == moments_exhaustive(m)[2]


def test_tail_matches_all_products():
    # t = sqrt(m)/2, integers, where |U| > t is strict, 0, and just below 2,
    # which float32 would round up to 2
    gen = Streams(35).generator()
    for n in range(1, 8):
        for m_size in (0, n * n, *gen.integers(1, n * n + 1, size=4).tolist()):
            m = random_diff_matrix(n, int(m_size), gen)
            u = np.abs(_all_products(m))
            thresholds = (math.sqrt(m.m) / 2.0, 0.0, 1.0, 2.0, math.nextafter(2.0, 0.0),
                          float(np.median(u)), float(u.max()))
            for threshold in thresholds:
                want = Fraction(int(np.count_nonzero(u > threshold)), 1 << (2 * n))
                assert tail_probability_exhaustive(m, threshold) == want


def test_tail_independent_of_block(monkeypatch):
    # one sign row a block against the default budget, and past the oracle's
    # cap against int64 products of all sign pairs
    gen = Streams(36).generator()
    cases = [random_diff_matrix(n, int(gen.integers(1, n * n + 1)), gen) for n in (3, 6, 8, 9)]
    threshold = [math.sqrt(m.m) / 2.0 for m in cases]
    default = [tail_probability_exhaustive(m, t) for m, t in zip(cases, threshold)]
    monkeypatch.setattr(ac, "TAIL_BYTES", 1)
    assert [tail_probability_exhaustive(m, t) for m, t in zip(cases, threshold)] == default
    for m, t, tail in zip(cases, threshold, default):
        signs = _all_sign_vectors(m.n)
        u = np.abs(signs @ m.entries @ signs.T)
        assert tail == Fraction(int(np.count_nonzero(u > t)), 1 << (2 * m.n))


def test_tail_mc_agrees_with_exact_past_oracle():
    gen = Streams(37).generator()
    for n in (8, 9, 10):
        m = random_diff_matrix(n, int(gen.integers(n, n * n + 1)), gen)
        threshold = math.sqrt(m.m) / 2.0
        exact = float(tail_probability_exhaustive(m, threshold))
        est, se = tail_probability_mc(m, threshold, 40000, Streams(38).child(n))
        assert abs(est - exact) <= 4 * se


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


def test_tail_mc_matches_integer_products():
    # the float32 products equal int64 ones on the same signs, at the
    # thresholds sqrt(m)/2 and at integers, where |U| > t is strict
    gen = Streams(32).generator()
    for n in (9, 64, 200):
        m = random_diff_matrix(n, n * n, gen)
        a, b = sample_query_signs(n, 2000, Streams(33).child(n))
        u = np.abs(np.einsum("si,ij,sj->s", a.astype(np.int64), m.entries, b.astype(np.int64)))
        for threshold in (math.sqrt(m.m) / 2.0, 0.0, float(np.median(u)), float(u.max() - 1)):
            est, _ = tail_probability_mc(m, threshold, 2000, Streams(33).child(n))
            assert est == float(np.mean(u > threshold))


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


def test_pairwise_products_uncorrelated():
    for n in (2, 3, 4):
        assert pairwise_products_uncorrelated(n)


def test_tail_report_rows():
    gamma = 1.0 / 4.0
    for n, mode in ((4, "exact"), (9, "exact"), (12, "exact"), (13, "mc")):
        rows = tail_report(n, 3, gamma, Streams(33), mc_samples=2000)
        assert len(rows) == 3
        for row in rows:
            assert row["tail_mode"] == mode
            assert row["n"] == n
            assert math.ceil(gamma * n * n) <= row["m"] <= n * n
            assert row["fourth_moment"] <= row["fourth_bound"]  # exact at every n
            assert set(row) == {
                "n", "m", "gamma", "threshold", "tail", "tail_mode",
                "lemma_bound", "fourth_moment", "fourth_bound",
            }


class ReplayedWords:
    """A stand-in generator whose bit generator serves the given words in order."""

    def __init__(self, words):
        self.words, self.at = np.asarray(words, dtype=np.uint64), 0
        self.bit_generator = self

    def random_raw(self, size):
        self.at += size
        return self.words[self.at - size : self.at].copy()


def test_repeated_keys_are_redrawn():
    # 9 words at n = 3 whose keys 2 and 5 repeat (signs differ): the matrix
    # is redrawn from the next 9 words, or, in a batch, from ties.child(i)
    words = Streams(43).generator().bit_generator.random_raw(27)
    words[5] = words[2] ^ np.uint64(1)
    alone = random_diff_matrix(3, 4, ReplayedWords(words[9:18])).entries.ravel()
    gen = ReplayedWords(words[:18])
    assert random_diff_matrix(3, 4, gen).entries.ravel().tolist() == alone.tolist()
    assert gen.at == 18
    ties = Streams(44).child("ties")
    batch = np.concatenate([words[18:27], words[:9], words[9:18]])
    gen = ReplayedWords(batch)
    got = _draw_matrices(3, [4, 4, 4], gen, ties, first=10)
    assert gen.at == 27
    assert got[0].tolist() == random_diff_matrix(3, 4, ReplayedWords(words[18:27])).entries.ravel().tolist()
    assert got[1].tolist() == random_diff_matrix(3, 4, ties.child(11).generator()).entries.ravel().tolist()
    assert got[2].tolist() == alone.tolist()


def test_supports_and_signs_are_uniform():
    # n = 2, m = 2: each of the C(4, 2) = 6 supports has probability 1/6,
    # and each nonzero entry is -1 with probability 1/2
    draws = 6000
    node = Streams(45).child("matrices")
    entries = _draw_matrices(2, np.full(draws, 2), node.generator(), node.child("ties"))
    assert np.all(np.count_nonzero(entries, axis=1) == 2)
    supports = (entries != 0) @ (1 << np.arange(4))
    se = math.sqrt(1 / 6 * 5 / 6 / draws)
    for support in (3, 5, 6, 9, 10, 12):
        assert abs(np.mean(supports == support) - 1 / 6) <= 4 * se
    negative = np.count_nonzero(entries == -1) / (2 * draws)
    assert abs(negative - 0.5) <= 4 * math.sqrt(0.25 / (2 * draws))


def exact_moments(entries: np.ndarray) -> tuple[Fraction, Fraction]:
    """(Pr[|U| > sqrt(m)/2], E[U^4]) of one matrix as Fractions, from int64
    products of all 4^n sign pairs."""
    signs = _all_sign_vectors(len(entries))
    u = signs @ entries @ signs.T
    m = int(np.count_nonzero(entries))
    pairs = 1 << (2 * len(entries))
    return (Fraction(int(np.count_nonzero(np.abs(u) > math.sqrt(m) / 2)), pairs),
            Fraction(int((u**4).sum()), pairs))


def report_entries(n: int, count: int, gamma: float, streams: Streams) -> list[np.ndarray]:
    """The matrices tail_report draws, one at a time: matrix i from its own
    generator at unit i of the "matrices" node."""
    sizes = streams.child("sizes").generator().integers(math.ceil(gamma * n * n), n * n + 1, size=count)
    node = streams.child("matrices")
    return [random_diff_matrix(n, int(m), node.generator(i * n * n)).entries for i, m in enumerate(sizes)]


@pytest.mark.parametrize("budget", ["one", "all"])
def test_batched_counts_match_fraction_oracle(monkeypatch, budget):
    # TAIL_BYTES = 1: tail_report draws one matrix a batch and tail_counts
    # takes one sign row a block; 2^40: every matrix in one batch and block
    monkeypatch.setattr(ac, "TAIL_BYTES", 1 if budget == "one" else 1 << 40)
    gen = Streams(39).generator()
    for n in range(1, 10):
        sizes = [0, n * n, *gen.integers(0, n * n + 1, size=4).tolist()]
        entries = np.stack([random_diff_matrix(n, int(m), gen).entries for m in sizes])
        thresholds = [math.sqrt(m) / 2 for m in sizes]
        want = [exact_moments(e) for e in entries]
        counts = tail_counts(entries, thresholds)
        assert [Fraction(2 * int(c), 1 << (2 * n)) for c in counts] == [tail for tail, _ in want]
        assert fourth_moments(entries).tolist() == [fourth for _, fourth in want]
        alone = [int(tail_counts(e[None], [t])[0]) for e, t in zip(entries, thresholds)]
        assert alone == counts.tolist()
        rows = tail_report(n, 5, 0.0, Streams(40 + n))
        want = [exact_moments(e) for e in report_entries(n, 5, 0.0, Streams(40 + n))]
        assert [(row["tail"], row["fourth_moment"]) for row in rows] == [
            (float(tail), float(fourth)) for tail, fourth in want]


def reference_rows(n: int, count: int, gamma: float, streams: Streams, mc_samples: int) -> list[dict]:
    """tail_report's rows, one matrix at a time through the one-matrix calls."""
    rows = []
    for i, entries in enumerate(report_entries(n, count, gamma, streams)):
        m = DiffMatrix(entries)
        threshold = math.sqrt(m.m) / 2.0
        if n <= ac.ENUMERATION_MAX_N:
            tail, mode = float(tail_probability_exhaustive(m, threshold)), "exact"
        else:
            mc = streams.child("matrix", i).child("mc")
            tail, mode = tail_probability_mc(m, threshold, mc_samples, mc)[0], "mc"
        rows.append({
            "n": n, "m": m.m, "gamma": gamma, "threshold": threshold, "tail": tail, "tail_mode": mode,
            "lemma_bound": gamma * gamma / 16.0, "fourth_moment": float(fourth_moments(m.entries[None])[0]),
            "fourth_bound": 9.0 * n**4,
        })
    return rows


@pytest.mark.parametrize("n, count", [(1, 20), (3, 40), (7, 60), (9, 6), (12, 2), (13, 2)])
def test_tail_report_matches_per_matrix_loop(n, count):
    got = tail_report(n, count, 1 / 9, Streams(41), mc_samples=2000)
    want = reference_rows(n, count, 1 / 9, Streams(41), 2000)
    assert got == want
    assert [type(v) for row in got for v in row.values()] == [type(v) for row in want for v in row.values()]


def test_tail_report_memory_is_the_budget_plus_the_rows():
    # 20,000 matrices at n = 7 fill hundreds of batches; what the call holds
    # beyond its returned rows is one batch and the drawn sizes, one int64 a row
    tail_report(7, 10, 1 / 9, Streams(42))  # imports and first-call caches
    count = 20000
    tracemalloc.start()
    try:
        rows = tail_report(7, count, 1 / 9, Streams(42))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == count
    assert peak - held <= ac.TAIL_BYTES + 8 * count
