"""The benchmark's oracles against the program's brute-force enumerations,
and its tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import itertools

import numpy as np
import pytest

import oracles
import spans
from ledplab.attack import default_query_count
from ledplab.estimator import rescaled_atoms, variance_by_enumeration
from ledplab.gadget import build_sum_gadget
from ledplab.graphs import Graph, count_triangles
from ledplab.ledp import flip_probability


def random_graph(gen, n):
    upper = np.triu((gen.random((n, n)) < gen.random()).astype(np.uint8), k=1)
    return Graph(upper | upper.T)


def test_triangles_match_enumeration():
    gen = np.random.default_rng(1)
    for _ in range(60):
        g = random_graph(gen, int(gen.integers(1, 14)))
        assert oracles.triangles(g.adjacency) == count_triangles(g)


@pytest.mark.parametrize("epsilon", [0.3, 1.0, 2.5])
def test_closed_form_variance_matches_enumeration(epsilon):
    gen = np.random.default_rng(2)
    for _ in range(12):
        g = random_graph(gen, int(gen.integers(3, 7)))  # at most 15 pairs
        expect = variance_by_enumeration(g, epsilon)
        assert oracles.estimator_variance(g.adjacency, epsilon) == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("n", [1, 5, 9])
def test_sum_baseline_variance_matches_enumeration(n):
    epsilon = 0.7
    x = np.random.default_rng(n).random(n) < 0.5
    p, (lo, hi) = flip_probability(epsilon), rescaled_atoms(epsilon)
    first = second = 0.0
    for flips in itertools.product((0, 1), repeat=n):
        flips = np.array(flips, dtype=bool)
        weight = p ** flips.sum() * (1 - p) ** (n - flips.sum())
        total = np.where(x ^ flips, hi, lo).sum()
        first += weight * total
        second += weight * total * total
    assert oracles.sum_baseline_variance(n, epsilon) == pytest.approx(second - first**2, rel=1e-9)


def test_gadget_adjacency_matches_program():
    for bits in itertools.product((0, 1), repeat=4):
        a = oracles.gadget_adjacency(bits)
        g, _ = build_sum_gadget(np.array(bits, dtype=np.uint8))
        assert np.array_equal(a, g.adjacency)
        assert oracles.triangles(a) == sum(bits) * len(bits)


def test_default_query_count():
    assert oracles.default_query_count(8, 1 / 9) == 663_552
    for n in range(1, 12):
        assert oracles.default_query_count(n, 1 / 9) == default_query_count(n, 1 / 9)


def test_tracer_lists_absent_targets_and_restores_originals(monkeypatch):
    from ledplab import estimator, graphs
    from ledplab.rng import Streams

    gone = [
        ("gone.function", "ledplab.graphs", "no_such_function", None, False),
        ("gone.module", "ledplab.no_such_module", "f", None, False),
    ]
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + gone)
    original = graphs.count_triangles
    tracer = spans.Tracer()
    tracer.install()
    try:
        estimator.sample_estimates(graphs.complete_graph(4), 1.0, 10, Streams(1))
        graphs.count_triangles(graphs.complete_graph(4))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["ledplab.graphs.no_such_function", "ledplab.no_such_module.f"]
    assert graphs.count_triangles is original
    metrics = tracer.per_layer(tracer.totals(), 1, 0.0)
    assert [name for name in metrics] == [name for name, _ in spans.PER_LAYER]
    assert metrics["rng.generator.calls"]["value"] == 10
    assert metrics["graphs.count_triangles.self_s"]["value"] > 0
    parent = metrics["estimator.sample_estimates_range.self_s"]["value"]
    assert 0 < parent < tracer.end[0] - tracer.start[0]  # children's time excluded
