"""Graph representation, the exact counting kernel, oracles, and generators.

Graphs are undirected, simple, on vertices 0..n-1, stored as a dense
symmetric 0/1 matrix with zero diagonal. `graph_stats` and
`codegree_pairs` are the exact counting kernel; `count_triangles` and
`count_four_cycles` are enumerations kept as its oracles.

Batches of graphs given as rows of C(n,2) triu-ordered pair bits, each
row followed by a zero column k = C(n,2), are gathered through
`gather_map(n)` and counted by `gathered_stats`; graphs owns that
layout. It lays each graph, padded to 2h = 2 ceil(n/2) vertices by a
zero vertex (column k) when n is odd, out as three contiguous (h, h)
blocks A11, A12 and A22 of A = [[A11, A12], [A12^T, A22]]. One (n, n)
product does every multiply twice, since A is symmetric; four (h, h)
products, half its multiplies, give the triangles, with
tr(A11 A12 A12^T) = sum(A12 o A11 A12) and
tr(A22 A12^T A12) = sum(A12 o A12 A22) so that no operand is transposed:

    6T = tr(A11^3) + tr(A22^3) + 3 sum(A11 o A12 A12^T) + 3 sum(A22 o A12^T A12)

The degrees are the blocks' row sums and A12's column sums. Every term
is a non-negative integer, so every partial sum of 6T, 2m and
2W = sum d(d - 1) is an integer at most n(n-1)(n-2), exact at
count_dtype(n) in any BLAS order, and the blocks give the same int64 m,
W and T as graph_stats of the (n, n) adjacency.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Graph",
    "checked_bits",
    "exact_float",
    "count_dtype",
    "graph_stats",
    "gather_map",
    "gathered_stats",
    "codegree_pairs",
    "count_triangles",
    "count_four_cycles",
    "erdos_renyi",
    "empty_graph",
    "complete_graph",
    "complete_bipartite",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "graph_to_text",
    "graph_from_text",
]


class GraphFormatError(ValueError):
    """Raised when graph text input violates the edge-list format."""


def checked_bits(values, what: str) -> np.ndarray:
    """values as uint8, once every entry as given is 0 or 1, else
    ValueError("<what> entries must be 0 or 1"). Checking before narrowing
    keeps 256 from wrapping to 0 and 0.5 from truncating to 0."""
    v = np.asarray(values)
    if not np.all((v == 0) | (v == 1)):
        raise ValueError(f"{what} entries must be 0 or 1")
    return v.astype(np.uint8, copy=False)


class Graph:
    """Undirected simple graph with an explicit adjacency matrix.

    The adjacency matrix is frozen after construction, so instances can
    be shared across workers without copying.
    """

    __slots__ = ("n", "adjacency")

    def __init__(self, adjacency: np.ndarray):
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValueError("graph must have at least one vertex")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency diagonal must be zero")
        a = checked_bits(a, "adjacency").copy()
        a.setflags(write=False)
        self.n = a.shape[0]
        self.adjacency = a

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        a = np.zeros((n, n), dtype=np.uint8)
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{j}) not allowed")
            a[i, j] = 1
            a[j, i] = 1
        return cls(a)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i, j])

    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        idx = np.argwhere(np.triu(self.adjacency, k=1))
        for i, j in idx:
            yield int(i), int(j)

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self.adjacency, other.adjacency)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def exact_float(bound: int):
    """float32 while bound < 2^24, else float64: the narrowest float that
    holds every integer up to bound, so a kernel whose partial sums are
    integers of size at most bound is exact in it in any BLAS order. The
    one place 2^24 is written: each exact kernel takes its float from here
    or checks its fixed float against it."""
    return np.float32 if bound < 1 << 24 else np.float64


def count_dtype(n: int):
    """exact_float of n(n-1)(n-2), the bound on every partial sum of
    graph_stats: float32 up to n = 257, else float64."""
    return exact_float(n * (n - 1) * (n - 2))


def graph_stats(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Int64 edges m, wedges W = sum_v C(d_v, 2) and triangles T of each
    symmetric 0/1 zero-diagonal matrix in a (..., n, n) stack. T is
    trace(A^3)/6 by matmul at count_dtype(n), exact in any BLAS order."""
    a = np.asarray(a, dtype=count_dtype(np.shape(a)[-1]))
    deg = a.sum(axis=-1)
    m = deg.sum(axis=-1) / 2
    w = (deg * (deg - 1)).sum(axis=-1) / 2
    t = np.einsum("...ij,...ij->...", a @ a, a) / 6
    return m.astype(np.int64), w.astype(np.int64), t.astype(np.int64)


def gather_map(n: int) -> np.ndarray:
    """Column of a pair-bit row (module docstring) that each entry of the
    gathered layout reads: the (3, h, h) blocks A11, A12, A22 of the
    graph padded to 2h vertices."""
    iu = np.triu_indices(n, k=1)
    k = len(iu[0])
    h = -(-n // 2)
    index = np.full((2 * h, 2 * h), k)  # the diagonal and the padding read column k, left 0
    index[iu] = index[iu[::-1]] = np.arange(k)
    return np.stack([index[:h, :h], index[:h, h:], index[h:, h:]])


def gathered_stats(gathered, n: int, product=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """graph_stats of a (b, 3, h, h) stack of gather_map(n) blocks at
    count_dtype(n), for n-vertex graphs; `product`, (b, h, h) at the same
    dtype, is the products' workspace."""
    gathered = np.asarray(gathered, dtype=count_dtype(n))
    b, _, h, _ = gathered.shape
    rows = (gathered.reshape(-1, h) @ np.ones(h, gathered.dtype)).reshape(b, 3, h)  # one BLAS call
    a11, a12, a22 = gathered[:, 0], gathered[:, 1], gathered[:, 2]
    deg = np.concatenate([rows[:, 0] + rows[:, 1], rows[:, 2] + a12.sum(axis=-2)], axis=-1)
    m = deg.sum(axis=-1) / 2
    w = (deg * (deg - 1)).sum(axis=-1) / 2
    six_t = 0  # sum(against o left right), weighted: the module docstring's four terms
    for left, right, against, weight in (
        (a11, a11, a11, 1), (a22, a22, a22, 1), (a11, a12, a12, 3), (a12, a22, a12, 3)
    ):
        prod = np.matmul(left, right, out=product)
        six_t = six_t + weight * np.einsum("...ij,...ij->...", prod, against)
    return m.astype(np.int64), w.astype(np.int64), (six_t / 6).astype(np.int64)


def codegree_pairs(a) -> int:
    """P = sum_{i<j} C(codeg_ij, 2) of one 0/1 matrix, twice its 4-cycle
    count (each cycle has two diagonals); A^2 is exact as in graph_stats."""
    a = np.asarray(a, dtype=count_dtype(np.shape(a)[-1]))
    c = np.triu(a @ a, k=1).astype(np.int64)
    return int((c * (c - 1) // 2).sum())


def count_triangles(g: Graph) -> int:
    """Exact number of unordered vertex triples forming a triangle.

    Enumerates edges and counts common neighbors beyond the edge's top
    endpoint; each triangle is found exactly once at its lowest pair.
    """
    a = g.adjacency
    total = 0
    for i in range(g.n - 2):
        row_i = a[i]
        for j in range(i + 1, g.n - 1):
            if row_i[j]:
                total += int(np.count_nonzero(row_i[j + 1 :] & a[j, j + 1 :]))
    return total


def count_four_cycles(g: Graph) -> int:
    """Exact number of distinct 4-cycles (each cycle counted once).

    For every vertex pair, choosing two of their common neighbors fixes
    a 4-cycle with that pair as a diagonal; each cycle has two diagonals,
    hence the halving.
    """
    a = g.adjacency.astype(np.int64)
    codeg = a @ a
    total = 0
    for i in range(g.n - 1):
        for j in range(i + 1, g.n):
            c = int(codeg[i, j])
            total += c * (c - 1) // 2
    assert total % 2 == 0
    return total // 2


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p): each possible edge present independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    a = np.zeros((n, n), dtype=np.uint8)
    iu = np.triu_indices(n, k=1)
    bits = (rng.random(len(iu[0])) < p).astype(np.uint8)
    a[iu] = bits
    a += a.T
    return Graph(a)


def empty_graph(n: int) -> Graph:
    return Graph(np.zeros((n, n), dtype=np.uint8))


def complete_graph(n: int) -> Graph:
    a = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(a, 0)
    return Graph(a)


def complete_bipartite(n1: int, n2: int) -> Graph:
    a = np.zeros((n1 + n2, n1 + n2), dtype=np.uint8)
    a[:n1, n1:] = 1
    a[n1:, :n1] = 1
    return Graph(a)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Hub vertex 0 joined to `leaves` leaf vertices."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def graph_to_text(g: Graph) -> str:
    """Serialize as: first line n, then one 'i j' pair per edge, i < j."""
    lines = [str(g.n)]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


# graph_to_text's spelling: the vertex count, then one "i j" line an edge,
# single-spaced, with no blank line; at most 18 digits a number, so every
# endpoint fits an int64
_CANONICAL_TEXT = re.compile(r"([0-9]{1,18})((?:\n[0-9]{1,18} [0-9]{1,18})*)\n?")


def graph_from_text(text: str, max_n: int | None = None) -> Graph:
    """Parse graph_to_text's format, rejecting more than max_n vertices
    before the adjacency is allocated. Text spelled as graph_to_text writes
    it is checked by one regular expression, its endpoints are parsed by
    one numpy call, and their ranges and repeats are checked on whole
    arrays. Any other spelling (blank lines, runs of blanks, CRLF, signs),
    and a text that fails a check, is read line by line, which names the
    first bad line."""
    match = _CANONICAL_TEXT.fullmatch(text)
    if match:
        n = int(match[1])
        ends = np.fromstring(match[2], dtype=np.int64, sep=" ")
        i, j = ends[0::2], ends[1::2]
        if 0 < n and (max_n is None or n <= max_n) and np.all(i < j) and np.all(j < n):
            a = np.zeros((n, n), dtype=np.uint8)
            a[i, j] = 1
            if np.count_nonzero(a) == len(i):  # no edge repeats
                a[j, i] = 1
                return Graph(a)
    return _graph_from_lines(text, max_n)


def _graph_from_lines(text: str, max_n: int | None) -> Graph:
    """graph_from_text, one line at a time."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise GraphFormatError("empty graph text")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphFormatError(f"first line must be the vertex count, got {lines[0]!r}")
    if n <= 0:
        raise GraphFormatError(f"vertex count must be positive, got {n}")
    if max_n is not None and n > max_n:
        raise GraphFormatError(f"vertex count {n} is above the limit {max_n}")
    a = np.zeros((n, n), dtype=np.uint8)
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 2:
            raise GraphFormatError(f"edge line must be 'i j', got {ln!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"edge endpoints must be integers, got {ln!r}")
        if not (0 <= i < j < n):
            raise GraphFormatError(f"edge ({i},{j}) violates 0 <= i < j < {n}")
        if a[i, j]:
            raise GraphFormatError(f"duplicate edge ({i},{j})")
        a[i, j] = 1
        a[j, i] = 1
    return Graph(a)


def load_graph(path, max_n: int | None = None) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_text(fh.read(), max_n)


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(graph_to_text(g))
