from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledplab.graphs import (
    Graph,
    GraphFormatError,
    codegree_pairs,
    complete_graph,
    count_dtype,
    count_four_cycles,
    count_triangles,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    gather_map,
    gathered_stats,
    graph_from_text,
    graph_stats,
    graph_to_text,
    star_graph,
)
from ledplab.graphs import _graph_from_lines
from ledplab.rng import Streams


def triangles_by_trace(g: Graph) -> int:
    """Independent oracle: trace(A^3) counts each triangle 6 times."""
    a = g.adjacency.astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


def four_cycles_by_subsets(g: Graph) -> int:
    """Independent oracle: check the 3 cyclic pairings of every 4-subset."""
    a = g.adjacency
    arrangements = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
    total = 0
    for quad in combinations(range(g.n), 4):
        for order in arrangements:
            w, x, y, z = (quad[t] for t in order)
            if a[w, x] and a[x, y] and a[y, z] and a[z, w]:
                total += 1
    return total


def test_triangles_known_graphs():
    assert count_triangles(complete_graph(4)) == 4
    assert count_triangles(Graph.from_edges(3, [(0, 1), (1, 2)])) == 0  # a path
    assert count_triangles(complete_graph(5)) == 10
    assert count_triangles(empty_graph(6)) == 0
    assert count_triangles(star_graph(10)) == 0


def test_four_cycles_known_graphs():
    assert count_four_cycles(cycle_graph(4)) == 1
    assert count_four_cycles(complete_graph(4)) == 3
    # K_{3,3}: derived by 4-subset enumeration, equals C(3,2)^2
    k33 = Graph(np.kron([[0, 1], [1, 0]], np.ones((3, 3), dtype=np.uint8)))
    assert four_cycles_by_subsets(k33) == 9
    assert count_four_cycles(k33) == 9


def test_triangles_agree_with_trace_formula():
    gen = Streams(11).child("graphs").generator()
    for n in range(3, 13):
        for _ in range(5):
            g = erdos_renyi(n, gen.random(), gen)
            assert count_triangles(g) == triangles_by_trace(g)


def test_four_cycles_agree_with_subset_enumeration():
    gen = Streams(12).child("graphs").generator()
    for n in range(4, 11):
        for _ in range(5):
            g = erdos_renyi(n, gen.random(), gen)
            assert count_four_cycles(g) == four_cycles_by_subsets(g)


def test_graph_stats_batch_matches_per_graph_oracles():
    gen = Streams(14).child("stats").generator()
    for n in range(1, 13):
        graphs = [erdos_renyi(n, gen.random(), gen) for _ in range(6)]
        m, w, t = graph_stats(np.stack([g.adjacency for g in graphs]))
        assert m.dtype == w.dtype == t.dtype == np.int64
        degrees = [g.adjacency.sum(axis=1).astype(int) for g in graphs]
        assert m.tolist() == [g.edge_count() for g in graphs]
        assert w.tolist() == [sum(int(d) * (int(d) - 1) // 2 for d in deg) for deg in degrees]
        assert t.tolist() == [count_triangles(g) for g in graphs]


def test_codegree_pairs_are_twice_the_four_cycles():
    gen = Streams(15).child("pairs").generator()
    for n in range(1, 11):
        for _ in range(4):
            g = erdos_renyi(n, gen.random(), gen)
            p = codegree_pairs(g.adjacency)
            assert p % 2 == 0
            assert p // 2 == count_four_cycles(g) == four_cycles_by_subsets(g)


@pytest.mark.parametrize("n, dtype", [(257, np.float32), (258, np.float64)])
def test_counting_kernel_exact_at_dtype_boundary(n, dtype):
    # 257 * 256 * 255 < 2^24 <= 258 * 257 * 256: the last float32 size and
    # the first float64 size
    assert count_dtype(n) is dtype
    k = complete_graph(n).adjacency
    assert [int(v) for v in graph_stats(k)] == [comb(n, 2), n * comb(n - 1, 2), comb(n, 3)]
    assert codegree_pairs(k) == comb(n, 2) * comb(n - 2, 2)
    g = erdos_renyi(n, 0.9, Streams(16).child("dense", n).generator())
    deg = g.adjacency.sum(axis=1).astype(np.int64)
    m, w, t = graph_stats(g.adjacency)
    assert int(m) == g.edge_count()
    assert int(w) == int((deg * (deg - 1) // 2).sum())
    assert int(t) == count_triangles(g)
    assert codegree_pairs(g.adjacency) == 2 * count_four_cycles(g)


def gathered_counts(g: Graph) -> tuple[int, int, int]:
    """m = sum d / 2, W = (sum d^2 - sum d) / 2 and T from gathered_stats'
    rows for one graph, its triu pair bits gathered as the estimator
    gathers a released row, with the zero column after them."""
    bits = np.append(g.adjacency[np.triu_indices(g.n, k=1)], 0)
    rows = gathered_stats(bits[gather_map(g.n)][None].astype(count_dtype(g.n)), g.n)
    assert rows.dtype == np.float64 and rows.shape == (3, 1)
    sum_d, sum_d2, t = (int(v) for v in rows[:, 0])
    assert rows[:, 0].tolist() == [sum_d, sum_d2, t]  # whole numbers
    return sum_d // 2, (sum_d2 - sum_d) // 2, t


@pytest.mark.parametrize("n", [1, 2, 3, 4, 85, 257, 258])
def test_gathered_counts_match_oracles_on_both_layouts(n):
    # the (3, h, h) blocks at every n, padded with a zero vertex at odd n;
    # 257 and 258 are the last float32 and the first float64 sizes
    h = -(-n // 2)
    assert gather_map(n).shape == (3, h, h)
    for g in (complete_graph(n), erdos_renyi(n, 0.9, Streams(19).child("dense", n).generator())):
        m, w, _ = graph_stats(g.adjacency)
        assert gathered_counts(g) == (int(m), int(w), count_triangles(g))
    assert gathered_counts(complete_graph(n)) == (comb(n, 2), n * comb(n - 1, 2), comb(n, 3))


def gathered_rows(graphs, out=None):
    """gathered_stats of a batch of n-vertex graphs, as the estimator
    gathers and counts a block, into out if given."""
    n = graphs[0].n
    iu = np.triu_indices(n, k=1)
    bits = np.zeros((len(graphs), len(iu[0]) + 1), dtype=np.uint8)
    bits[:, :-1] = [g.adjacency[iu] for g in graphs]
    gathered = np.take(bits, gather_map(n), axis=1).astype(count_dtype(n))
    product = np.empty((len(graphs), *gather_map(n).shape[-2:]), dtype=count_dtype(n))
    return gathered_stats(gathered, n, product, out)


def test_gathered_batches_match_graph_stats_per_graph():
    # a batch of graphs of every density counts each graph on its own, its
    # rows [sum d, sum d^2, T] = [2m, 2W + 2m, T] written into a float64
    # block's rows, as the estimator's stats block takes them
    n = 87
    gen = Streams(20).child("batch").generator()
    graphs = [erdos_renyi(n, p, gen) for p in (0.0, 0.1, 0.5, 0.9, 1.0)]
    block = np.full((4, len(graphs)), -1.0)
    gathered_rows(graphs, block[1:])
    m, w, t = graph_stats(np.stack([g.adjacency for g in graphs]))
    assert block.tolist() == [[-1.0] * len(graphs), (2 * m).tolist(), (2 * w + 2 * m).tolist(), t.tolist()]


def test_gathered_sum_of_squared_degrees_past_float32_at_257():
    # n = 257, the last float32 size: sum d^2 of the complete graph is
    # 257 * 256^2 = 2^24 + 2^16 and, with one edge gone, 2^24 + 64,514, past
    # the integers float32 holds (the next odd integer rounds), so the row
    # is summed in float64; every row stays exact
    n = 257
    assert count_dtype(n) is np.float32
    gone = 1 - np.eye(n, dtype=np.uint8)
    gone[0, 1] = gone[1, 0] = 0
    graphs = [complete_graph(n), Graph(gone)]
    rows = gathered_rows(graphs)
    m, w, t = graph_stats(np.stack([g.adjacency for g in graphs]))
    assert rows[1].tolist() == (2 * w + 2 * m).tolist() == [(1 << 24) + (1 << 16), (1 << 24) + 64_514]
    assert all(float(np.float32(v + 1)) != v + 1 for v in rows[1].tolist())  # float32 rounds here
    assert rows.tolist() == [(2 * m).tolist(), (2 * w + 2 * m).tolist(), t.tolist()]


def test_erdos_renyi_extremes_and_determinism():
    gen = Streams(13).generator()
    assert erdos_renyi(5, 0.0, gen) == empty_graph(5)
    assert erdos_renyi(5, 1.0, gen) == complete_graph(5)
    g1 = erdos_renyi(20, 0.5, Streams(77).generator())
    g2 = erdos_renyi(20, 0.5, Streams(77).generator())
    assert g1 == g2
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, gen)
    with pytest.raises(ValueError):
        erdos_renyi(5, -0.1, gen)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 16), p=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_generated_graphs_are_valid(n, p, seed):
    g = erdos_renyi(n, p, Streams(seed).generator())
    a = g.adjacency
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert np.all((a == 0) | (a == 1))


def test_graph_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Graph(np.array([[0, 1], [0, 0]], dtype=np.uint8))  # asymmetric
    with pytest.raises(ValueError):
        Graph(np.array([[1, 0], [0, 0]], dtype=np.uint8))  # self-loop
    with pytest.raises(ValueError):
        Graph(np.array([[0, 2], [2, 0]], dtype=np.uint8))  # non-bit
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


@pytest.mark.parametrize("bad", [256, 0.5])
def test_graph_bits_checked_before_narrowing(bad):
    # a uint8 cast would wrap 256 to 0 and truncate 0.5 to 0: an edgeless graph
    a = np.array([[0, bad, bad], [bad, 0, 1], [bad, 1, 0]])
    with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
        Graph(a)
    with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
        Graph(a.tolist())


def test_text_format_round_trip():
    gen = Streams(14).generator()
    for _ in range(10):
        g = erdos_renyi(7, 0.4, gen)
        assert graph_from_text(graph_to_text(g)) == g
    k3_text = graph_to_text(complete_graph(3))
    assert k3_text == "3\n0 1\n0 2\n1 2\n"


def test_text_format_load_errors():
    with pytest.raises(GraphFormatError):
        graph_from_text("")
    with pytest.raises(GraphFormatError):
        graph_from_text("3\n0 1\n0 1\n")  # duplicate
    with pytest.raises(GraphFormatError):
        graph_from_text("3\n1 0\n")  # i >= j
    with pytest.raises(GraphFormatError):
        graph_from_text("3\n0 3\n")  # out of range
    with pytest.raises(GraphFormatError):
        graph_from_text("3\n0 1 2\n")
    with pytest.raises(GraphFormatError):
        graph_from_text("x\n")


def _edit_line(lines, draw, edit):
    """lines with the line of a drawn index passed through edit."""
    k = draw(st.integers(0, len(lines) - 1))
    return lines[:k] + [edit(lines[k])] + lines[k + 1 :]


@st.composite
def edited_graph_texts(draw):
    """graph_to_text of a random graph on at most 9 vertices, with one edit
    that either reader may accept or reject, and a vertex limit."""
    n = draw(st.integers(1, 9))
    bits = draw(st.lists(st.booleans(), min_size=comb(n, 2), max_size=comb(n, 2)))
    a = np.zeros((n, n), dtype=np.uint8)
    a[np.triu_indices(n, k=1)] = bits
    lines = graph_to_text(Graph(a + a.T)).splitlines()
    edges = lines[1:]
    edit = draw(st.sampled_from([
        "none", "duplicate", "swap", "self-loop", "out-of-range", "zero-n", "crlf",
        "blank-line", "blank-runs", "plus", "leading-zero", "third-field", "no-count",
    ]))
    if edit == "duplicate" and edges:
        lines.append(draw(st.sampled_from(edges)))
    elif edit == "swap" and edges:
        lines = [lines[0]] + _edit_line(edges, draw, lambda ln: " ".join(ln.split()[::-1]))
    elif edit == "self-loop":
        v = draw(st.integers(0, n - 1))
        lines.append(f"{v} {v}")
    elif edit == "out-of-range":
        lines.append(f"{draw(st.integers(0, n - 1))} {draw(st.integers(n, n + 2))}")
    elif edit == "zero-n":
        lines[0] = "0"
    elif edit == "blank-line":
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, draw(st.sampled_from(["", " ", "\t"])))
    elif edit == "blank-runs":
        lines = _edit_line(lines, draw, lambda ln: f" {ln.replace(' ', '  ')} ")
    elif edit == "plus":
        lines = _edit_line(lines, draw, lambda ln: "+" + ln)
    elif edit == "leading-zero":
        lines = _edit_line(lines, draw, lambda ln: "0" + ln)
    elif edit == "third-field" and edges:
        lines = [lines[0]] + _edit_line(edges, draw, lambda ln: ln + " 0")
    elif edit == "no-count":
        lines = lines[1:]
    text = "\r\n".join(lines) + "\r\n" if edit == "crlf" else "\n".join(lines) + "\n"
    return text, draw(st.one_of(st.none(), st.integers(0, 10)))


def _read(reader, text, max_n):
    """Adjacency bytes of reader's graph, or its GraphFormatError message."""
    try:
        return reader(text, max_n).adjacency.tobytes()
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


@settings(max_examples=300, deadline=None)
@given(case=edited_graph_texts())
def test_one_pass_reader_agrees_with_line_reader(case):
    # graph_from_text's one-pass path accepts only what the line reader
    # accepts, and gives the same graph; anything else it hands over
    text, max_n = case
    assert _read(graph_from_text, text, max_n) == _read(_graph_from_lines, text, max_n)


def test_adjacency_is_immutable():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0
