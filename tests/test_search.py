"""The reconstruction searches against a brute-force pattern-matrix oracle.

The oracle below builds the (k, n^2) sign pattern a_li b_lj of every
query and evaluates each single-bit flip against it directly, as the
search did before it scored flips from one (n x k)(k x n) product. Both
do the same float operations on the answers, so every count, every
chosen flip and every returned dataset must match exactly.
"""

import numpy as np
import pytest

from ledplab import attack
from ledplab.attack import (
    GrayBox,
    _flip_counts,
    _hillclimb_search,
    _inaccurate_counts_for_candidates,
    accuracy_threshold,
    disagreement_budget,
    mechanism_components,
    sample_query_signs,
)
from ledplab.graphs import exact_float
from ledplab.rng import Streams

GAMMA = 1.0 / 9.0


def query_patterns(a_signs, b_signs) -> np.ndarray:
    """(k, n^2) int8 entrywise sign pattern of each query."""
    return np.einsum("li,lj->lij", a_signs, b_signs).reshape(len(a_signs), -1).astype(np.int8)


def pattern_flip_counts(diff, patterns, flat, tau, chunk=1 << 17) -> np.ndarray:
    flip_counts = np.zeros(patterns.shape[1], dtype=np.int64)
    signs = 1.0 - 2.0 * flat
    for start in range(0, len(diff), chunk):
        stop = min(start + chunk, len(diff))
        moved = diff[start:stop, None] + patterns[start:stop] * signs[None, :]
        flip_counts += (np.abs(moved) > tau).sum(axis=0)
    return flip_counts


def pattern_hillclimb(answers, a_signs, b_signs, n, tau, allowed, max_sweeps, min_improvement):
    """The pattern-matrix hill-climb; also returns the number of flips taken."""
    patterns = query_patterns(a_signs, b_signs)
    corr = np.einsum(
        "l,li,lj->ij", answers, a_signs.astype(np.float64), b_signs.astype(np.float64)
    ) / len(answers)
    flat = (corr > 0.5).astype(np.float64).reshape(-1)
    diff = patterns.astype(np.float64) @ flat - answers
    count, flips = int(np.count_nonzero(np.abs(diff) > tau)), 0
    for _ in range(max_sweeps):
        if count <= allowed:
            break
        flip_counts = pattern_flip_counts(diff, patterns, flat, tau)
        best_flip = int(np.argmin(flip_counts))
        if count - int(flip_counts[best_flip]) < min_improvement:
            break
        diff = diff + patterns[:, best_flip] * (1.0 - 2.0 * flat[best_flip])
        flat[best_flip] = 1.0 - flat[best_flip]
        count = int(flip_counts[best_flip])
        flips += 1
    return flat.astype(np.uint8).reshape(n, n), count, flips


@pytest.mark.parametrize("n", [3, 5, 8])
def test_flip_counts_match_pattern_oracle_at_threshold_edges(n):
    gen = Streams(300).child(n).generator()
    k = 3000
    tau = accuracy_threshold(n, GAMMA)
    a, b = sample_query_signs(n, k, Streams(301).child(n))
    # residuals r with r +- 1 at or one ulp either side of +-tau, plus spread-out ones
    edges = np.array([s * tau + d for s in (-1.0, 1.0) for d in (-1.0, 1.0)])
    edges = np.concatenate((edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)))
    diff = np.where(gen.random(k) < 0.5, gen.choice(edges, size=k), gen.uniform(-3 * tau, 3 * tau, size=k))
    assert np.count_nonzero(np.isin(diff, edges)) > k // 3
    patterns = query_patterns(a, b)
    for _ in range(4):
        flat = (gen.random(n * n) < 0.5).astype(np.float64)
        want = pattern_flip_counts(diff, patterns, flat, tau, chunk=701)
        # the search's float32 signs (k < 2^24) and the float64 ones above
        for dtype in (np.float32, np.float64):
            got = _flip_counts(diff, a, b, flat, tau, dtype)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "k, n, dtype",
    [
        (2**24 - 1, 8, np.float32),
        (2**24, 8, np.float64),
        (3000, 2**12 - 1, np.float32),
        (3000, 2**12, np.float64),  # residuals reach n^2 = 2^24
    ],
)
def test_sweep_dtype_switches_at_2_pow_24(k, n, dtype):
    # exact_float at the hill-climb's bound max(k, n^2), which the test below
    # pins in _hillclimb_search: it switches at 2^24 in either term
    assert exact_float(max(k, n * n)) is dtype


@pytest.mark.parametrize(
    "k, n, limit, dtype",
    [
        (10, 4, 16, np.float64),  # n^2 = 16 reaches the limit, k = 10 does not
        (10, 4, 17, np.float32),
        (10, 2, 10, np.float64),  # k reaches it, n^2 = 4 does not
        (10, 2, 11, np.float32),
    ],
)
def test_hillclimb_sizes_its_float_by_k_and_n_squared(k, n, limit, dtype, monkeypatch):
    # exact_float's 2^24 moved down to `limit`: the float the climb hands
    # _flip_counts must switch where max(k, n^2) reaches it, so a bound of
    # k alone, n^2 alone or k + n^2 fails a case
    class Stop(Exception):
        pass

    seen = []

    def flip_counts(diff, a_signs, b_signs, flat, tau, dtype):
        seen.append(dtype)
        raise Stop

    monkeypatch.setattr(attack, "exact_float", lambda bound: np.float32 if bound < limit else np.float64)
    monkeypatch.setattr(attack, "_flip_counts", flip_counts)
    a, b = sample_query_signs(n, k, Streams(350))
    with pytest.raises(Stop):  # allowed = -1, so the first sweep scores flips
        _hillclimb_search(np.zeros(k), a, b, n, 0.5, -1, 1, 1)
    assert seen == [dtype]


def _answers(mechanism, epsilon, n, k, seed):
    x = (Streams(seed).child("x").generator().random((n, n)) < 0.5).astype(np.uint8)
    box = GrayBox.prepare(x, *mechanism_components(mechanism, epsilon), Streams(seed).child("prepare"))
    a, b = sample_query_signs(n, k, Streams(seed).child("queries"))
    return box.answer_outer_batch(a, b, Streams(seed).child("answers")), a, b


@pytest.mark.parametrize("mechanism, epsilon", [("rr", 0.05), ("rr", 2.0), ("identity", None)])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_hillclimb_matches_pattern_oracle(mechanism, epsilon, n):
    # identity answers: few queries, so the correlation start is off and the
    # search has to climb; from that start alone a climb often takes no flip
    # (no seed of the first four at n = 8), so eight seeds are compared
    k = {0.05: 20000, 2.0: 4000, None: 2 * n * n}[epsilon]
    tau = accuracy_threshold(n, GAMMA)
    allowed = disagreement_budget(k, GAMMA)
    flips = 0
    for seed in range(8):
        answers, a, b = _answers(mechanism, epsilon, n, k, 310 + seed)
        args = (answers, a, b, n, tau, allowed, 4 * n * n, max(1, k // 20000))
        y, count = _hillclimb_search(*args)
        want_y, want_count, taken = pattern_hillclimb(*args)
        assert np.array_equal(y, want_y) and y.dtype == want_y.dtype
        assert count == want_count
        flips += taken
    # At eps = 0.05 almost every answer stays inaccurate whatever the flip,
    # so the first sweep mostly stops the search; its counts are still compared.
    if epsilon != 0.05:
        assert flips > 0  # the comparison covered accepted flips, not just start points


@pytest.mark.parametrize("block", [1, 7, 1 << 12])
def test_blocked_sweeps_match_pattern_oracle_at_any_block_size(block, monkeypatch):
    # the search reads the int8 signs QUERY_BLOCK queries at a time; a block
    # of 1, one that divides no k below and the default give the same counts
    monkeypatch.setattr(attack, "QUERY_BLOCK", block)
    n, k = 5, 3001
    gen = Streams(340).child(block).generator()
    tau = accuracy_threshold(n, GAMMA)
    a, b = sample_query_signs(n, k, Streams(341))
    diff = gen.uniform(-3 * tau, 3 * tau, size=k)
    flat = (gen.random(n * n) < 0.5).astype(np.float64)
    want = pattern_flip_counts(diff, query_patterns(a, b), flat, tau)
    for dtype in (np.float32, np.float64):
        assert np.array_equal(_flip_counts(diff, a, b, flat, tau, dtype), want)
    for mechanism, epsilon, k in (("identity", None, 2 * n * n), ("rr", 2.0, 700)):
        answers, a, b = _answers(mechanism, epsilon, n, k, 342)
        args = (answers, a, b, n, tau, disagreement_budget(k, GAMMA), 4 * n * n, 1)
        y, count = _hillclimb_search(*args)
        want_y, want_count, taken = pattern_hillclimb(*args)
        assert np.array_equal(y, want_y) and count == want_count
        assert taken > 0


@pytest.mark.parametrize("n, k", [(2, 1000), (3, 1300)])
def test_candidate_counts_match_pattern_oracle(n, k):
    gen = Streams(330).child(n).generator()
    a, b = sample_query_signs(n, k, Streams(331).child(n))
    tau = accuracy_threshold(n, GAMMA)
    answers = gen.integers(-n, n + 1, size=k) + gen.choice((0.0, tau, -tau, 0.25), size=k)
    candidates = (gen.random((50, n * n)) < 0.5).astype(np.uint8)
    vals = candidates.astype(np.float64) @ query_patterns(a, b).T.astype(np.float64)
    want = (np.abs(vals - answers[None, :]) > tau).sum(axis=1)
    assert np.array_equal(_inaccurate_counts_for_candidates(candidates, a, b, answers, tau), want)
