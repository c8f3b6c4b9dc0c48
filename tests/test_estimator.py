import math
import sys
import threading
from itertools import combinations, product

import numpy as np
import pytest

from ledplab import estimator, parallel
from ledplab.estimator import (
    MIN_EPSILON,
    edge_noise_variance,
    estimate_triangles,
    exact_variance,
    rescale,
    rescaled_atoms,
    released_estimates,
    sample_estimates,
    sample_estimates_range,
    sweep_cell,
    triangle_mix,
    variance_by_enumeration,
    variance_sweep,
)
from ledplab.graphs import (
    complete_graph,
    count_four_cycles,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    graph_stats,
    path_graph,
    star_graph,
)
from ledplab.ledp import PrivacyParams, flip_probability
from ledplab.rng import Streams
from stream_reference import reference_bits, tie_count, unit_words


def expectation_by_direct_enumeration(g, epsilon):
    """Test-local oracle: average T_hat over all flip patterns by brute force."""
    pairs = list(combinations(range(g.n), 2))
    p = flip_probability(epsilon)
    lo, hi = rescaled_atoms(epsilon)
    total = 0.0
    for flips in product((0, 1), repeat=len(pairs)):
        weight = 1.0
        y = {}
        for (i, j), f in zip(pairs, flips):
            weight *= p if f else 1 - p
            noisy = g.adjacency[i, j] ^ f
            y[(i, j)] = hi if noisy else lo
        t_hat = sum(
            y[(i, j)] * y[(j, k)] * y[(i, k)] for i, j, k in combinations(range(g.n), 3)
        )
        total += weight * t_hat
    return total


def estimates_by_scatter(g, epsilon, start, stop, streams):
    """Test-local oracle: the scatter-plus-float64 batch builder that the
    pair-index gather replaced, with its float64 counts, in one block.
    Trial t flips by the bits of unit t of the node."""
    n = g.n
    iu = np.triu_indices(n, k=1)
    true_bits = g.adjacency[iu].astype(np.uint8)
    k = len(true_bits)
    b = stop - start
    flips = reference_bits(flip_probability(epsilon), streams, start, b, k)
    noisy = np.zeros((b, n, n), dtype=np.float64)
    noisy[:, iu[0], iu[1]] = true_bits[None, :] ^ flips
    noisy += noisy.transpose(0, 2, 1)
    deg = noisy.sum(axis=-1)
    m = (deg.sum(axis=-1) / 2).astype(np.int64)
    w = ((deg * (deg - 1)).sum(axis=-1) / 2).astype(np.int64)
    t3 = (np.einsum("...ij,...ij->...", noisy @ noisy, noisy) / 6).astype(np.int64)
    t2 = w - 3 * t3
    t1 = m * (n - 2) - 2 * w + 3 * t3
    t0 = math.comb(n, 3) - t1 - t2 - t3
    lo, hi = rescaled_atoms(epsilon)
    return lo**3 * t0 + lo * lo * hi * t1 + lo * hi * hi * t2 + hi**3 * t3


def test_rescale_atoms():
    assert rescale(1, math.log(3)) == pytest.approx(1.5)
    assert rescale(0, math.log(3)) == pytest.approx(-0.5)
    assert rescale(1, math.log(2)) == pytest.approx(2.0)


def test_rescale_rejects_degenerate_epsilon():
    with pytest.raises(ValueError):
        rescale(1, 0.0)
    with pytest.raises(ValueError):
        rescale(1, -2.0)
    with pytest.raises(ValueError):
        rescale(1, 1e-305)


def test_estimator_rejects_tiny_epsilon():
    with pytest.raises(ValueError):
        estimate_triangles(complete_graph(3), 1e-8, Streams(0))
    with pytest.raises(ValueError):
        sample_estimates(complete_graph(3), 1e-8, 10, Streams(0))


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
def test_estimator_rejects_non_finite_epsilon(eps):
    with pytest.raises(ValueError):
        estimate_triangles(complete_graph(3), eps, Streams(0))
    with pytest.raises(ValueError):
        sample_estimates_range(complete_graph(3), eps, 0, 10, Streams(0))


def test_expectation_k3_by_direct_enumeration():
    k3 = complete_graph(3)
    assert expectation_by_direct_enumeration(k3, math.log(3)) == pytest.approx(1.0)
    assert expectation_by_direct_enumeration(k3, math.log(2)) == pytest.approx(1.0)
    assert expectation_by_direct_enumeration(empty_graph(3), 1.0) == pytest.approx(0.0)


def test_exact_expectation_routes_agree():
    # the flip-pattern enumeration's mean of T_hat is the kernel's triangle count
    for g, eps in ((complete_graph(4), 1.7), (complete_graph(3), math.log(2)), (empty_graph(4), 0.5)):
        t = int(graph_stats(g.adjacency)[2])
        assert abs(estimator._enumeration_moments(g, eps)[0] - t) <= 1e-9 * max(1, t)
    # beyond the enumeration cap only the kernel answers
    assert graph_stats(complete_graph(12).adjacency)[2] == 220
    with pytest.raises(ValueError):
        estimator._enumeration_moments(complete_graph(12), 1.0)


def test_no_triples_gives_zero():
    t_hat, _ = estimate_triangles(path_graph(2), 1.0, Streams(1))
    assert t_hat == 0.0


def test_estimate_deterministic_and_records_metadata():
    g = erdos_renyi(8, 0.5, Streams(2).generator())
    e1, t1 = estimate_triangles(g, 1.0, Streams(42).child("run"))
    e2, t2 = estimate_triangles(g, 1.0, Streams(42).child("run"))
    assert e1 == e2
    assert t1.round_count == 1
    assert t1.dumps() == t2.dumps()
    outputs = list(t1.invocations())
    assert [out.vertex for out in outputs] == list(range(8))
    assert all(out.end == 8 and not out.public for out in outputs)
    assert t1.ledger() == PrivacyParams(1.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 8, 80])
def test_estimate_triangles_is_trial_zero_of_sample_estimates(n):
    g = erdos_renyi(n, 0.5, Streams(5).child(n).generator())
    node = Streams(6).child("trials", n)
    t_hat, _ = estimate_triangles(g, 0.9, node)
    bulk = sample_estimates(g, 0.9, 3, node)
    assert np.float64(t_hat).tobytes() == bulk[0].tobytes()


def test_released_values_rescale_to_atoms():
    g = erdos_renyi(7, 0.5, Streams(3).generator())
    eps = 1.3
    _, transcript = estimate_triangles(g, eps, Streams(4))
    lo, hi = rescaled_atoms(eps)
    for inv in transcript.invocations():
        for bit in inv.payload:
            assert rescale(int(bit), eps) in (lo, hi)


def four_term_mix(m, w, t3, n, epsilon):
    """The triple-type mix as four terms over int64 counts, added left to
    right: the oracle of triangle_mix's bytes."""
    t2 = w - 3 * t3
    t1 = m * (n - 2) - 2 * w + 3 * t3
    t0 = math.comb(n, 3) - t1 - t2 - t3
    lo, hi = rescaled_atoms(epsilon)
    return lo**3 * t0 + lo * lo * hi * t1 + lo * hi * hi * t2 + hi**3 * t3


@pytest.mark.parametrize("n", [3, 24, 255, 10_000])
def test_triangle_mix_keeps_its_bytes(n):
    # random counts in their ranges, from the edges, wedges and triangles
    # and from the degree sums sum d = 2m and sum d^2 = 2W + 2m
    gen = Streams(440).child(n).generator()
    for epsilon in (MIN_EPSILON, 0.05, 1, 2, 300):
        for shape in ((), (1,), (3, 5)):
            m = gen.integers(0, math.comb(n, 2), shape, endpoint=True)
            w = gen.integers(0, n * math.comb(n - 1, 2), shape, endpoint=True)
            t3 = gen.integers(0, math.comb(n, 3), shape, endpoint=True)
            want = np.asarray(four_term_mix(m, w, t3, n, epsilon)).tobytes()
            ones = np.ones(shape)
            got = triangle_mix(np.stack((ones, m, w, t3)), n, epsilon)
            assert np.asarray(got).tobytes() == want and np.shape(got) == shape
            sums = triangle_mix(np.stack((ones, 2 * m, 2 * w + 2 * m, t3)), n, epsilon, degree_sums=True)
            assert np.asarray(sums).tobytes() == want


def test_variance_known_values():
    # one triple, no edges: each rescaled bit has variance 2 at eps=ln 2
    assert exact_variance(empty_graph(3), math.log(2)) == pytest.approx(8.0)
    assert variance_by_enumeration(empty_graph(3), math.log(2)) == pytest.approx(8.0)
    v_k4 = exact_variance(complete_graph(4), math.log(3))
    assert v_k4 == pytest.approx(variance_by_enumeration(complete_graph(4), math.log(3)), rel=1e-9)


def test_variance_oracle_matches_enumeration_on_random_graphs():
    gen = Streams(5).generator()
    for _ in range(12):
        n = int(gen.integers(3, 7))
        g = erdos_renyi(n, gen.random(), gen)
        eps = float(gen.uniform(0.3, 2.5))
        v_dec = exact_variance(g, eps)
        v_enum = variance_by_enumeration(g, eps)
        assert v_dec == pytest.approx(v_enum, rel=1e-9, abs=1e-9)


def test_variance_nonnegative_and_decreasing_in_epsilon():
    gen = Streams(6).generator()
    for _ in range(5):
        g = erdos_renyi(7, 0.5, gen)
        values = [exact_variance(g, eps) for eps in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(v >= 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_variance_theta_bracket_on_er_graphs():
    # oracle / (C4 * s + n^3 * s^3) stays inside a narrow multiplicative window
    from ledplab.estimator import edge_noise_variance

    ratios = []
    for n in range(8, 21, 4):
        g = erdos_renyi(n, 0.5, Streams(7).child("theta", n).generator())
        c4 = count_four_cycles(g)
        for eps in (0.5, 1.0, 2.0):
            s = edge_noise_variance(eps)
            denom = c4 * s + n**3 * s**3
            ratios.append(exact_variance(g, eps) / denom)
    lo, hi = min(ratios), max(ratios)
    assert lo > 0
    assert hi / lo <= 50


def test_edge_noise_variance_keeps_its_bits_and_stays_positive_past_overflow():
    # e^eps/(e^eps - 1)^2 bit for bit wherever (e^eps - 1)^2 is finite
    for eps in [*np.linspace(1e-6, 354, 2001).tolist(), 0.5, 1.5, 4.0, 354.0]:
        m = math.expm1(eps)
        assert edge_noise_variance(eps) == math.exp(eps) / (m * m)
    # past it e^-eps, as (1 - e^-eps)^2 rounds to 1: finite and positive up
    # to the largest epsilon the command line takes
    for eps in (356.0, 500.0, 700.0):
        s = edge_noise_variance(eps)
        assert math.isfinite(s) and s > 0
        assert s == pytest.approx(math.exp(-eps), rel=1e-15)
    assert edge_noise_variance(700.0) == pytest.approx(9.85967654375977e-305, rel=1e-14)
    row = sweep_cell("complete", 8, 700.0, 1000, Streams(12))
    assert row["var_empirical"] == 0.0  # no bit flips
    assert row["var_oracle"] > 0 and row["ratio"] == 0.0


def test_unbiasedness_statistical():
    cases = [
        (complete_graph(4), 1.0),
        (cycle_graph(5), 2.0),
        (star_graph(10), 0.5),
    ]
    trials = 20000
    for g, eps in cases:
        t = int(graph_stats(g.adjacency)[2])
        est = sample_estimates(g, eps, trials, Streams(8).child("unbiased", g.n))
        tol = 4.0 * math.sqrt(exact_variance(g, eps) / trials)
        assert abs(est.mean() - t) <= tol


def test_sample_estimates_range_split_matches_full_run():
    g = erdos_renyi(6, 0.5, Streams(9).generator())
    streams = Streams(10).child("blk")
    full = sample_estimates(g, 1.0, 100, streams)
    split = np.concatenate(
        [sample_estimates_range(g, 1.0, 0, 37, streams), sample_estimates_range(g, 1.0, 37, 100, streams)]
    )
    assert np.array_equal(split, full)


@pytest.mark.parametrize("start, stop", [(-3, 5), (5, 2)])
def test_sample_estimates_range_rejects_bad_ranges(start, stop):
    with pytest.raises(ValueError, match=rf"\[{start}, {stop}\)"):
        sample_estimates_range(complete_graph(4), 1.0, start, stop, Streams(10))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 64, 130])
def test_gathered_batches_match_scatter_builder(n, monkeypatch):
    import ledplab.estimator as estimator
    import ledplab.ledp as ledp

    # three trials a block, so every range below spans several blocks, and
    # two trials a draw chunk, so every block spans two chunks
    monkeypatch.setattr(estimator, "BLOCK_BYTES", 3 * 4 * n * n)
    monkeypatch.setattr(ledp, "DRAW_BYTES", 2 * (8 * unit_words(n * (n - 1) // 2) + n * (n - 1) // 2))
    g = erdos_renyi(n, 0.5, Streams(13).child("gather", n).generator())
    streams = Streams(14).child("gather")
    for eps in (0.05, 1.0, 3.0):
        for start, stop in ((0, 10), (7, 20)):
            got = sample_estimates_range(g, eps, start, stop, streams)
            assert np.array_equal(got, estimates_by_scatter(g, eps, start, stop, streams))


def check_range_over_blocks_and_threads(monkeypatch, n, g, streams):
    """Trials [5, 105) the same for every block size and thread count, and
    equal to the scatter builder's."""
    # blocks of 1 to 1000 trials a thread on 1 to 3 threads (more than
    # this host's 2 cores), switching often: a shared write would show
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one block thread a CPU
    monkeypatch.setattr(estimator, "THREAD_MIN_WORK", 1)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trials, cpus in product((1, 3, 7, 1000), (1, 2, 3)):
            monkeypatch.setattr(estimator, "BLOCK_BYTES", trials * 4 * n * n)
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
            runs.append(sample_estimates_range(g, 1.0, 5, 105, streams))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(runs[0], estimates_by_scatter(g, 1.0, 5, 105, streams))
    for run in runs[1:]:
        assert run.tobytes() == runs[0].tobytes()


def test_sample_estimates_range_independent_of_blocks_and_threads(monkeypatch):
    g = erdos_renyi(9, 0.5, Streams(15).generator())
    check_range_over_blocks_and_threads(monkeypatch, 9, g, Streams(16))


def test_sample_estimates_range_with_ties_independent_of_blocks_and_threads(monkeypatch):
    # 3 of the 78,000 bits of trials [5, 105) at n = 40 are ties, settled
    # by tie generators of the blocks that hold them, on the workers
    n, streams = 40, Streams(24).child("trials")
    assert tie_count(flip_probability(1.0), streams, 5, 100, n * (n - 1) // 2) == 3
    g = erdos_renyi(n, 0.5, Streams(24).generator())
    check_range_over_blocks_and_threads(monkeypatch, n, g, streams)


def test_sample_estimates_range_split_layout_independent_of_blocks_and_threads(monkeypatch):
    # a large odd n, counted from (43, 43) blocks padded with a zero vertex
    n = 85
    g = erdos_renyi(n, 0.5, Streams(25).generator())
    check_range_over_blocks_and_threads(monkeypatch, n, g, Streams(26))


def test_trial_generators_derived_on_calling_thread(monkeypatch):
    # one generator a block, at its first trial's words, in block order, all
    # on the calling thread; with two threads only the workers run blocks;
    # no trial holds a tie, so no block derives a tie generator
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    n = 6
    k = n * (n - 1) // 2
    monkeypatch.setattr(estimator, "THREAD_MIN_WORK", 1)
    monkeypatch.setattr(estimator, "BLOCK_BYTES", 8 * 4 * n * n)  # 4 trials a block
    g = erdos_renyi(n, 0.5, Streams(17).generator())
    assert tie_count(flip_probability(1.0), Streams(18), 3, 37, k) == 0
    caller, derived, block_threads = threading.current_thread(), [], set()
    generator, randomized_rows = Streams.generator, estimator.randomized_rows

    def traced_generator(self, skip=0):
        derived.append((threading.current_thread(), skip))
        return generator(self, skip)

    def traced_rows(*args):
        block_threads.add(threading.current_thread())
        return randomized_rows(*args)

    monkeypatch.setattr(Streams, "generator", traced_generator)
    monkeypatch.setattr(estimator, "randomized_rows", traced_rows)
    sample_estimates_range(g, 1.0, 3, 40, Streams(18))
    assert derived == [(caller, lo_t * unit_words(k)) for lo_t in range(3, 40, 4)]
    assert block_threads and caller not in block_threads and len(block_threads) <= 2


@pytest.mark.parametrize("cpus, trials, block_trials, floor_trials, threads, rows", [
    (2, 3, 4096, 6, 1, [3]),  # below the work floor: the calling thread alone
    (2, 4, 4096, 6, 1, [4]),
    (2, 8, 4096, 6, 2, [4, 4]),
    (2, 9, 4096, 6, 2, [3, 3, 3]),  # three blocks of at most 4, split evenly
    (4, 3, 4096, 3, 3, [1, 1, 1]),  # at least one block a thread, a trial each
    (4, 40, 4096, 6, 4, [2] * 20),
    (1, 20, 4096, 6, 1, [7, 7, 6]),
    (1, 20, 5, 6, 1, [5] * 4),  # BLOCK_TRIALS binds before the bytes
    (2, 10, 3, 6, 2, [3, 3, 3, 1]),
    (4, 40, 4096, 41, 1, [8] * 5),  # below the work floor: one thread, all bytes
    (2, 4, 4096, 4, 2, [2, 2]),  # fits one block but at the floor: two threads
])
def test_pool_sizing(monkeypatch, cpus, trials, block_trials, floor_trials, threads, rows):
    # a range of at least THREAD_MIN_WORK = floor_trials * n^2 splits into
    # at least one block a thread; blocks hold at most BLOCK_TRIALS trials
    # and BLOCK_BYTES / threads of counts, 8 trials over the usable CPUs of a
    # 6-vertex graph; at most one workspace a thread, made by the caller
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    n = 6
    monkeypatch.setattr(estimator, "BLOCK_BYTES", 8 * 4 * n * n)
    monkeypatch.setattr(estimator, "BLOCK_TRIALS", block_trials)
    monkeypatch.setattr(estimator, "THREAD_MIN_WORK", floor_trials * n * n)
    caller, calls = threading.current_thread(), []
    parallel_map, carve = parallel.parallel_map, parallel._carve

    def recording_map(fn, items, layout, threads, keep):
        call = {"threads": threads, "made": [], "firsts": [item[0] for item in items], "ran": set()}
        calls.append(call)

        def traced(item, ws):
            call["ran"].add(threading.current_thread())
            return fn(item, ws)

        return parallel_map(traced, items, layout, threads, keep)

    def counted_carve(buffer, layout):
        calls[-1]["made"].append(threading.current_thread())
        return carve(buffer, layout)

    monkeypatch.setattr(parallel, "parallel_map", recording_map)
    monkeypatch.setattr(parallel, "_carve", counted_carve)
    g = erdos_renyi(n, 0.5, Streams(19).generator())
    got = sample_estimates_range(g, 1.0, 0, trials, Streams(20))
    assert np.array_equal(got, estimates_by_scatter(g, 1.0, 0, trials, Streams(20)))
    (call,) = calls
    assert call["threads"] == threads
    assert call["made"] == [caller] * threads
    assert np.diff(call["firsts"] + [trials]).tolist() == rows
    assert (call["ran"] == {caller}) == (threads == 1)


def test_kernel_estimates_match_explicit_loop():
    gen = Streams(11).generator()
    for eps in (0.05, 0.3, 1.0, 3.0):
        lo, hi = rescaled_atoms(eps)
        for n in (3, 5, 7, 9):
            released = np.triu(gen.random((n, n)) < gen.random(), k=1).astype(np.uint8)
            released |= released.T
            y = np.where(released != 0, hi, lo)
            explicit = math.fsum(
                y[i, j] * y[j, k] * y[i, k] for i, j, k in combinations(range(n), 3)
            )
            assert released_estimates(released, eps) == pytest.approx(explicit, rel=1e-12)


def test_variance_sweep_rows():
    rows = variance_sweep([6], [1.0], "empty", 2000, Streams(12))
    (row,) = rows
    assert set(row) == {
        "n", "epsilon", "family", "trials", "t_exact", "c4",
        "var_empirical", "var_oracle", "ratio", "seed",
    }
    assert row["t_exact"] == 0
    assert row["c4"] == 0
    # empty-graph oracle collapses to (n choose 3) * s^3
    from ledplab.estimator import edge_noise_variance

    s = edge_noise_variance(1.0)
    assert row["var_oracle"] == pytest.approx(20 * s**3)
    assert 0.8 < row["ratio"] < 1.2
    with pytest.raises(ValueError):
        variance_sweep([6], [1.0], "empty", 10, Streams(12))
