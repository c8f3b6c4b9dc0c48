import math
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest

from ledplab.estimator import edge_noise_variance, exact_variance, rescaled_atoms
from ledplab.gadget import (
    build_sum_gadget,
    fit_log_log_exponent,
    sample_sum_baseline,
    sample_sum_via_triangles,
    sum_error_scaling,
)
from ledplab.graphs import count_triangles
from ledplab.ledp import flip_probability
from ledplab.rng import Streams
from stream_reference import reference_bits, tie_count


def triangles_per_triple(g):
    """Yield every triangle as its sorted vertex triple."""
    a = g.adjacency
    for i, j, k in combinations(range(g.n), 3):
        if a[i, j] and a[j, k] and a[i, k]:
            yield (i, j, k)


def test_gadget_identity_exhaustive_small():
    # n = 8 is covered exhaustively by the acceptance battery
    for n in range(1, 8):
        for bits in product((0, 1), repeat=n):
            x = np.array(bits, dtype=np.uint8)
            g, _ = build_sum_gadget(x)
            assert count_triangles(g) == int(x.sum()) * n


def test_gadget_known_values():
    g, _ = build_sum_gadget(np.array([1, 0, 1], dtype=np.uint8))
    assert count_triangles(g) == 6
    g, _ = build_sum_gadget(np.ones(4, dtype=np.uint8))
    assert count_triangles(g) == 16
    g, _ = build_sum_gadget(np.zeros(5, dtype=np.uint8))
    assert count_triangles(g) == 0


@pytest.mark.parametrize("bad", [256, 0.5])
def test_gadget_bits_checked_before_narrowing(bad):
    # a uint8 cast would wrap 256 to 0 and truncate 0.5 to 0
    x = [1, bad, 0]
    with pytest.raises(ValueError, match="input entries must be 0 or 1"):
        build_sum_gadget(x)
    with pytest.raises(ValueError, match="input entries must be 0 or 1"):
        sample_sum_baseline(x, 1.0, 10, Streams(60))
    with pytest.raises(ValueError, match="input entries must be 0 or 1"):
        sample_sum_via_triangles(x, 1.0, 10, Streams(61))


def test_gadget_partition_layout():
    x = np.array([1, 1], dtype=np.uint8)
    g, part = build_sum_gadget(x)
    assert tuple(part) == ("V1", "V2")
    assert part["V1"] == (0, 1)
    assert part["V2"] == (2, 3, 4, 5)
    # matched pair of party 0 is (n+0, n+1) = (2, 3)
    assert g.has_edge(2, 3)
    assert g.has_edge(4, 5)


def test_every_triangle_uses_a_matching_edge():
    gen = Streams(40).generator()
    for n in (3, 4, 5, 6):
        x = (gen.random(n) < 0.5).astype(np.uint8)
        g, part = build_sum_gadget(x)
        v1 = set(part["V1"])
        v2 = set(part["V2"])
        for tri in triangles_per_triple(g):
            in_v2 = [v for v in tri if v in v2]
            assert len(in_v2) == 2
            assert len([v for v in tri if v in v1]) == 1
            a, b = sorted(in_v2)
            party = (a - n) // 2
            assert (a, b) == (n + 2 * party, n + 2 * party + 1)
            assert x[party] == 1


def test_single_bit_touches_only_its_party_rows():
    gen = Streams(41).generator()
    n = 6
    x = (gen.random(n) < 0.5).astype(np.uint8)
    g0, _ = build_sum_gadget(x)
    for i in range(n):
        flipped = x.copy()
        flipped[i] ^= 1
        g1, _ = build_sum_gadget(flipped)
        changed = np.argwhere(g0.adjacency != g1.adjacency)
        rows = set(changed[:, 0].tolist())
        assert rows == {n + 2 * i, n + 2 * i + 1}


def test_baseline_unbiased_zero_input():
    n, eps, trials = 16, math.log(3), 20000
    x = np.zeros(n, dtype=np.uint8)
    est = sample_sum_baseline(x, eps, trials, Streams(43))
    s_noise = edge_noise_variance(eps)
    assert s_noise == pytest.approx(0.75)
    tol = 4 * math.sqrt(n * s_noise / trials)
    assert abs(est.mean()) <= tol


def test_baseline_unbiased_all_ones_and_variance():
    n, eps, trials = 32, 1.0, 20000
    x = np.ones(n, dtype=np.uint8)
    est = sample_sum_baseline(x, eps, trials, Streams(44))
    s_noise = edge_noise_variance(eps)
    tol = 4 * math.sqrt(n * s_noise / trials)
    assert abs(est.mean() - n) <= tol
    assert est.var(ddof=1) == pytest.approx(n * s_noise, rel=0.1)


def test_baseline_std_scales_like_sqrt_n():
    eps, trials = 1.0, 4000
    stds = []
    ns = [64, 256, 1024]
    for n in ns:
        x = (Streams(45).child("x", n).generator().random(n) < 0.5).astype(np.uint8)
        est = sample_sum_baseline(x, eps, trials, Streams(45).child("mc", n))
        stds.append(est.std(ddof=1))
    for i in range(len(ns) - 1):
        ratio = stds[i + 1] / stds[i]
        assert ratio == pytest.approx(2.0, rel=0.2)  # sqrt(4) per 4x step


def test_baseline_single_run_and_validation():
    x = np.array([1, 0, 1, 1], dtype=np.uint8)
    v1 = sample_sum_baseline(x, 1.0, 1, Streams(46))[0]
    v2 = sample_sum_baseline(x, 1.0, 1, Streams(46))[0]
    assert v1 == v2
    with pytest.raises(ValueError):
        sample_sum_baseline(x, 0.0, 1, Streams(46))
    with pytest.raises(ValueError):
        sample_sum_baseline(np.array([0, 2]), 1.0, 1, Streams(46))


def test_sample_sum_baseline_trials_are_stream_slices(monkeypatch):
    import ledplab.ledp as ledp

    n, eps, trials = 7, 0.8, 25
    x = (Streams(48).child("x").generator().random(n) < 0.5).astype(np.uint8)
    streams = Streams(48).child("mc")
    full = sample_sum_baseline(x, eps, trials, streams)
    assert full[0] == sample_sum_baseline(x, eps, 1, streams)[0]
    # trial t is unit t of the node
    lo, hi = rescaled_atoms(eps)
    ones = (x ^ reference_bits(flip_probability(eps), streams, 0, trials, n)).sum(axis=1)
    assert np.array_equal(full, ones * hi + (n - ones) * lo)
    # released 3 rows at a time (drawn one at a time), the chunks
    # concatenate bit for bit
    monkeypatch.setattr(ledp, "DRAW_BYTES", 3 * n)
    assert sample_sum_baseline(x, eps, trials, streams).tobytes() == full.tobytes()
    # 64 parties released 1,024 trials at a time: the run's only ties are in
    # its last chunk, and each reads the tie word of its own trial
    n, trials, p = 64, 4096, flip_probability(eps)
    x = (Streams(48).child("x").generator().random(n) < 0.5).astype(np.uint8)
    assert tie_count(p, streams, 0, 3072, n) == 0 < tie_count(p, streams, 3072, 1024, n)
    monkeypatch.setattr(ledp, "DRAW_BYTES", 1024 * n)
    ones = (x ^ reference_bits(p, streams, 0, trials, n)).sum(axis=1)
    assert np.array_equal(sample_sum_baseline(x, eps, trials, streams), ones * hi + (n - ones) * lo)


def test_sample_sum_baseline_holds_a_chunk_of_released_bits():
    # 20,000 trials of 256 parties would release 5 MB at once; in chunks of
    # DRAW_BYTES the peak is a chunk, its draws and the per-trial outputs
    import ledplab.ledp as ledp

    n, trials = 256, 20_000
    x = (Streams(49).child("x").generator().random(n) < 0.5).astype(np.uint8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample_sum_baseline(x, 1.0, trials, Streams(49).child("mc"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * ledp.DRAW_BYTES + 8 * 8 * trials < trials * n


def test_end_to_end_sum_unbiased():
    n, eps, trials = 6, 1.0, 4000
    gen = Streams(47).generator()
    x = (gen.random(n) < 0.5).astype(np.uint8)
    s = int(x.sum())
    g, _ = build_sum_gadget(x)
    est = sample_sum_via_triangles(x, eps, trials, Streams(48))
    tol = 4 * math.sqrt(exact_variance(g, eps) / n**2 / trials)
    assert abs(est.mean() - s) <= tol


def test_end_to_end_near_noiseless_at_huge_epsilon():
    x = np.zeros(5, dtype=np.uint8)
    vals = [sample_sum_via_triangles(x, 20.0, 1, Streams(49).child(t))[0] for t in range(50)]
    close = sum(1 for v in vals if abs(v) < 0.01)
    assert close >= 49


def test_fit_log_log_exponent():
    ns = [10, 100, 1000]
    errors = [math.sqrt(n) * 3.7 for n in ns]
    assert fit_log_log_exponent(ns, errors) == pytest.approx(0.5, abs=1e-9)


def test_fit_log_log_exponent_zero_error_is_nan_without_warning():
    # an error of 0, as every error is at eps = 700, has no log
    ns = [10, 100, 1000]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fit_log_log_exponent(ns, [0.0, 1.0, 2.0]))
        assert math.isnan(fit_log_log_exponent([8, 16], [0.0, 0.0]))


def test_fit_log_log_exponent_one_distinct_size_is_nan_without_warning():
    # a log-log slope over a single n is undefined, repeated or not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fit_log_log_exponent([64, 64], [1.0, 2.0]))
        assert math.isnan(fit_log_log_exponent([64], [1.0]))


def test_sum_error_scaling_rows():
    rows, exponent = sum_error_scaling(
        [32, 128], 1.0, 2000, Streams(50), triangle_trials=200
    )
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {
            "n", "epsilon", "trials",
            "mean_abs_error_baseline", "mean_abs_error_via_triangles",
            "fitted_exponent",
        }
        assert row["mean_abs_error_via_triangles"] is not None
    assert 0.3 <= exponent <= 0.7
