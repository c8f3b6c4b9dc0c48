"""Reconstruction attack against noninteractive local mechanisms.

A secret bit matrix is embedded as the bipartite part of a tripartite
graph. Linear queries on the matrix translate to triangle counts of
query-dependent completions of that graph, so a noisy triangle counter
can be driven as a gray box: each secret-holding vertex's randomizer
runs exactly twice (once per possible completion of its neighborhood),
and every query afterwards mixes the two stored outputs with fresh
outputs from the public vertices. Accurate answers to enough random
queries pin down most of the secret matrix.

Vertex layout of the 3n-vertex graphs: rows of the secret matrix own
vertices [0, n), columns own [n, 2n), and the public completion block
W is [2n, 3n).

A randomized-response slot's answer is the estimator's triple-type mix
(estimator.triangle_mix) of sum d, sum d^2 and the triangles T of its
assembled released graph, so batched answers need only those integers.
Vertex v releases only its pairs (v, j > v), so of the three pairs of a
triangle i < j < k, two come from row i and one from row j. Let r0, r1
be the stored 0/1 rows of the 2n secret vertices (zero outside each
row's released span), s in {0,1}^(2n) the slot's selection and w its
fresh public-pair bits. Triangles come in three kinds:

- i, j secret (k anywhere): row i is r_{s_i}, row j is r_{s_j}, and the
  count over k is F_ab[i, j] = r_a[i, j] (r_a r_b^T)[i, j] for a = s_i,
  b = s_j. Interpolating the four F_ab gives c0 + c^T s + s^T C s with
  c0 = sum F00, c_i = sum_j (F10 - F00)[i, j] + sum_j (F01 - F00)[j, i]
  and C = F11 - F10 - F01 + F00 (strictly upper, since s_i^2 = s_i).
- i secret, j < k public: r_ij r_ik comes from row i, so the triangle
  adds (h0 + dH^T s) . w, where h0[jk] = sum_i r0_ij r0_ik and
  dH[i, jk] = r1_ij r1_ik - r0_ij r0_ik.
- all public: t_WWW(w), the public block's triangle count. With each
  public pair's bits packed 8 slots a byte, a chunk of triangles gathers
  and ANDs the rows of its three pairs, and the ANDed bits are summed per
  slot in 4-bit lanes (`_public_triangles`), in the workspace bytes of
  the operand x once T's first term is taken.

Degrees are linear in (s, w): row v adds its bits to the degrees of
their columns and their count to v's, and each public pair adds one to
both ends; one more row sums them, and m = sum d / 2 and
W = (sum d^2 - sum d) / 2. Every coefficient is an integer fixed at
prepare time, O(n^2) wide in the selection, so the batched answers
equal the assembled graph's estimate bit for bit.

The hill-climb never builds the (k, n^2) sign patterns a_li b_lj. A
flip of bit ij moves residual r_l = a_l^T Y b_l - answer_l by
a_li b_lj s_ij = +-1, s_ij = 1 - 2 y_ij. With P_l = [|r_l + 1| > tau] and
M_l = [|r_l - 1| > tau], the inaccurate count after the flip is
(sum P + sum M + s_ij (A^T diag(P - M) B)_ij) / 2, so one (n x k)(k x n)
product scores all n^2 flips. Only the queries with P_l != M_l, those a
flip can carry across tau, have a nonzero weight, so only they enter it.
Its entries and partial sums are integers of magnitude at most k, and
those of the start residuals a_l^T Y b_l at most n^2, so BLAS computes
both exactly in any order at graphs.exact_float(max(k, n^2)): in float32
while k and n^2 are below 2^24, in float64 above. Both products read the
int8 signs QUERY_BLOCK queries at a time, cast to that float as each
block is used, and sum their blocks; the search holds no (k, n) float
copy of the signs. And r_l +- 1.0 is the float operation a pattern
matrix would do, so the counts match a pattern-matrix sweep bit for bit.

The hill-climb climbs once, from y_ij = [S_ij > k/2] with
S = A^T diag(answers) B, decided exactly, and draws nothing: its dataset
is a function of the answers and the signs alone. Each term +-answer_l
is exact in float64, so any summation order of the k terms (blocked,
threaded or with FMA) returns S within
gamma_k sum_l |answer_l| <= k 2^-52 sum_l |answer_l| of the true sum.
Where |S_ij - k/2| exceeds twice that, 2 k 2^-52 sum_l |answer_l|, which
also covers the rounding of that sum and of the subtraction, the float
sign is the true one; the entries inside are re-summed with
math.fsum. So y is the real-number decision whatever the BLAS thread
count, block size or CPU.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ledplab import parallel
from ledplab.estimator import released_estimates, triangle_mix
from ledplab.graphs import Graph, checked_bits, count_dtype, exact_float, graph_stats
from ledplab.ledp import (
    IdentityRelease,
    PrivacyParams,
    RandomizedResponse,
    RandomizerOutput,
    Transcript,
    bernoulli_rows,
    compose_ledger,
    flip_probability,
    release_runs,
    unit_words,
)
from ledplab.rng import Streams

__all__ = [
    "OuterProductQuery",
    "SubmatrixQuery",
    "AttackReport",
    "GrayBox",
    "TrianglePost",
    "ExactCountPost",
    "mechanism_components",
    "outer_product_answer",
    "submatrix_answer",
    "split_outer_product",
    "build_secret_graph",
    "build_query_graph",
    "secret_input_rows",
    "sample_query_signs",
    "default_query_count",
    "accuracy_threshold",
    "disagreement_budget",
    "catch_threshold",
    "catches",
    "attacker_reconstruct",
    "run_attack",
    "privacy_distance_diagnostic",
]

DEFAULT_GAMMA = 1.0 / 9.0

# Queries per product of the per-query sign forms (identity answers,
# catches, the correlation start, the hill-climb): a block's operands stay
# in cache.
QUERY_BLOCK = 1 << 12

# QUERY_BLOCKs a hill-climb sweep sizes and counts residuals over at once
# (`_flip_counts`): fewer numpy calls a sweep, in a buffer that stays in cache.
SPAN_BLOCKS = 4

# Randomized-response queries answered per block, one reused workspace:
# 8,184 slots, the three of each query, so a block combines its own
# answers. A multiple of 8, so each full block packs its public bits into
# whole bytes and the recorded payload does not depend on the block size.
ANSWER_BLOCK = 2728

# Groups of up to 15 public triangles, the most a 4-bit lane counts, that
# one chunk of `_public_triangles` takes: a chunk's count of a slot, at most
# 120, fits a byte, and its shifted planes (480 KiB at the full block) stay
# in cache.
TRIANGLE_GROUPS = 8
_NIBBLE_SHIFTS = np.arange(4, dtype=np.uint64)[:, None]
_NIBBLE_BIT = np.uint64(0x1111111111111111)  # bit 0 of each 4-bit lane

# Bytes of answer workspaces live at once. The answer threads are the
# fewest of the usable CPUs per BLAS thread, the blocks and the workspaces
# this budget holds (at least one). A workspace is 3.8 MiB at n = 8,
# 10 MiB at n = 16 and 31 MiB at n = 32; from n = 33 the blocks run one
# at a time, and from n = 48 one workspace is over the budget. It also
# bounds what a process keeps between calls: the workspaces of a call
# within it stay mapped in the shared pool's buffers (`ledplab.parallel`),
# and one over it is freed after the call.
WORKSPACE_BYTES = 64 << 20

# Most dataset bits n^2 the exhaustive search enumerates: 2^20 candidates.
EXHAUSTIVE_MAX_BITS = 20

# Signs unpacked per raw draw, a whole number of 64-bit words. The 64 KiB
# temporaries stay on the heap: freeing a larger mapped one raises the
# allocator's mmap threshold, which added ~1.5 MB to an attack's peak RSS.
SIGN_CHUNK = 1 << 16


def _as_bits(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"dataset must be a square bit matrix, got shape {x.shape}")
    return checked_bits(x, "dataset")


def _as_signs(v) -> np.ndarray:
    # validate before narrowing, so 257 cannot wrap to 1; int8 input is not
    # copied, and integer input is checked by its range and zero count, with
    # no temporary of its size
    v = np.asarray(v)
    if v.dtype.kind in "iu" and v.size:
        valid = v.min() >= -1 and v.max() <= 1 and np.count_nonzero(v) == v.size
    else:
        valid = np.all(np.abs(v) == 1)
    if not valid:
        raise ValueError("sign vector entries must be -1 or 1")
    return v.astype(np.int8, copy=False)


@dataclass(frozen=True)
class OuterProductQuery:
    """Sign-vector pair; the query value on X is a^T X b."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_signs(self.a))
        object.__setattr__(self, "b", _as_signs(self.b))
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("a and b must be 1-d and the same length")


@dataclass(frozen=True)
class SubmatrixQuery:
    """Bit-vector pair; the query value on X is q1^T X q2."""

    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        q1, q2 = checked_bits(self.q1, "query"), checked_bits(self.q2, "query")
        if q1.shape != q2.shape or q1.ndim != 1:
            raise ValueError("q1 and q2 must be 1-d and the same length")
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)


def outer_product_answer(x, q: OuterProductQuery) -> int:
    x = _as_bits(x)
    if len(q.a) != x.shape[0]:
        raise ValueError(f"query length {len(q.a)} does not match dataset side {x.shape[0]}")
    return int(q.a @ x.astype(np.int64) @ q.b)


def submatrix_answer(x, q: SubmatrixQuery) -> int:
    x = _as_bits(x)
    if len(q.q1) != x.shape[0]:
        raise ValueError(f"query length {len(q.q1)} does not match dataset side {x.shape[0]}")
    return int(q.q1.astype(np.int64) @ x.astype(np.int64) @ q.q2.astype(np.int64))


def split_outer_product(q: OuterProductQuery):
    """Three bit-vector queries plus the affine combiner recovering a^T X b.

    With a' = (a+1)/2, a'' = (1-a)/2 (same for b), the identity is
    a^T X b = 2 (a'^T X b' + a''^T X b'') - 1^T X 1.
    """
    ones = np.ones(len(q.a), dtype=np.uint8)
    a1 = ((q.a + 1) // 2).astype(np.uint8)
    a2 = ((1 - q.a) // 2).astype(np.uint8)
    b1 = ((q.b + 1) // 2).astype(np.uint8)
    b2 = ((1 - q.b) // 2).astype(np.uint8)

    def combine(ans1, ans2, ans3):
        return 2 * (ans1 + ans2) - ans3

    return (
        SubmatrixQuery(a1, b1),
        SubmatrixQuery(a2, b2),
        SubmatrixQuery(ones, ones),
        combine,
    )


def build_secret_graph(x) -> tuple[Graph, dict[str, tuple[int, ...]]]:
    """Bipartite embedding of the dataset, with its vertex blocks by label;
    the W block stays isolated."""
    x = _as_bits(x)
    n = x.shape[0]
    a = np.zeros((3 * n, 3 * n), dtype=np.uint8)
    a[:n, n : 2 * n] = x
    a[n : 2 * n, :n] = x.T
    parts = {"U1": tuple(range(n)), "U2": tuple(range(n, 2 * n)), "W": tuple(range(2 * n, 3 * n))}
    return Graph(a), parts


def build_query_graph(x, q: SubmatrixQuery) -> Graph:
    """Secret graph completed per the query: selected row/column vertices
    connect to the whole public block."""
    x = _as_bits(x)
    n = x.shape[0]
    if len(q.q1) != n:
        raise ValueError(f"query length {len(q.q1)} does not match dataset side {n}")
    base, _ = build_secret_graph(x)
    a = base.adjacency.copy()
    a.setflags(write=True)
    for i in range(n):
        if q.q1[i]:
            a[i, 2 * n :] = 1
            a[2 * n :, i] = 1
        if q.q2[i]:
            a[n + i, 2 * n :] = 1
            a[2 * n :, n + i] = 1
    return Graph(a)


def secret_input_rows(x) -> tuple[np.ndarray, np.ndarray]:
    """The two possible randomizer inputs per secret-holding vertex.

    Returns (rows0, rows1), each (2n, 3n): rows0[v] is v's adjacency row
    in the bare secret graph, rows1[v] the same with the public block
    fully attached.
    """
    x = _as_bits(x)
    n = x.shape[0]
    base, _ = build_secret_graph(x)
    rows0 = base.adjacency[: 2 * n].copy()
    rows1 = rows0.copy()
    rows1[:, 2 * n :] = 1
    return rows0, rows1


class TrianglePost:
    """The estimator's postprocessing: rescale released bits, sum triple
    products."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon

    def __call__(self, released: np.ndarray) -> float:
        return float(released_estimates(released, self.epsilon))


class ExactCountPost:
    """Zero-error triangle counting on the assembled released graph."""

    def __call__(self, released: np.ndarray) -> float:
        return float(graph_stats(released)[2])


def mechanism_components(mechanism: str, epsilon: Optional[float] = None):
    """(randomizer family, postprocessor) pair for a named mechanism;
    "oracle" is another name for "identity"."""
    if mechanism == "rr":
        if epsilon is None:
            raise ValueError("mechanism 'rr' needs epsilon")
        return RandomizedResponse(epsilon), TrianglePost(epsilon)
    if mechanism in ("identity", "oracle"):
        return IdentityRelease(), ExactCountPost()
    raise ValueError(f"unknown mechanism {mechanism!r}")


@dataclass(frozen=True)
class _SlotForm:
    """Integer coefficients of one gray box's randomized-response slots.

    A slot's operand is x = (s', w): s' = (1, s), its selection after a
    constant 1, then its public-pair bits w in triu order. One product
    coef @ x gives g = Q^T s' + H w, then the 3n degrees d of the slot's
    assembled graph and sum d, so that T = s' . g + t_WWW(w). Q holds c0
    in its first diagonal entry and C + diag(c) after it (s_i^2 = s_i);
    H stacks h0 over dH. Every entry is an integer and every partial
    sum, and sum d^2, stays below the mantissa bound of count_dtype(3n),
    so the products are exact in any BLAS order. The module docstring
    derives the terms.
    """

    n: int
    epsilon: float
    coef: np.ndarray  # (2n + 1 + 3n + 1, 2n + 1 + n(n-1)/2): [Q^T H], the degree rows, their sum

    @classmethod
    def from_payloads(cls, r0: np.ndarray, r1: np.ndarray, epsilon: float) -> "_SlotForm":
        nu, nv = r0.shape
        n = nv - nu
        released = np.triu(np.ones((nu, nv), dtype=bool), k=1)  # row v covers columns > v
        rs = [np.where(released, r, 0).astype(np.int64) for r in (r0, r1)]
        # f[a][b][i, j]: triangles i < j < k with row i from output a, row j from output b
        f = [[rs[a][:, :nu] * (rs[a] @ rs[b].T) for b in (0, 1)] for a in (0, 1)]
        c = (f[1][0] - f[0][0]).sum(axis=1) + (f[0][1] - f[0][0]).sum(axis=0)
        q = np.zeros((nu + 1, nu + 1), dtype=np.int64)
        q[0, 0] = f[0][0].sum()
        q[1:, 1:] = f[1][1] - f[1][0] - f[0][1] + f[0][0] + np.diag(c)
        iu = np.triu_indices(n, k=1)
        w0, w1 = (r[:, nu + iu[0]] * r[:, nu + iu[1]] for r in rs)  # per-owner public-pair products
        # row v adds its bits to their columns' degrees and their count to v's
        d0, d1 = (r + np.eye(nu, nv, dtype=np.int64) * r.sum(axis=1, keepdims=True) for r in rs)
        incidence = np.zeros((len(iu[0]), nv), dtype=np.int64)
        incidence[np.arange(len(iu[0]))[:, None], nu + np.column_stack(iu)] = 1
        qh = np.hstack((q.T, np.vstack((w0.sum(axis=0), w1 - w0))))
        degrees = np.hstack((d0.sum(axis=0)[:, None], (d1 - d0).T, incidence.T))
        dtype = count_dtype(nv)
        # |F_ab[i, j]| <= 3n - j - 1 caps the first sum for any payloads,
        # at 11.4M < 2^24 for n = 85, the last float32 size; the second caps
        # each degree and sum d, and the third sum d^2, 16.45M there
        for bound in (np.abs(qh).sum() + math.comb(n, 3), np.abs(degrees).sum(), nv * (nv - 1) ** 2):
            assert exact_float(bound) in (np.float32, dtype)
        return cls(n, epsilon, np.vstack((qh, degrees, degrees.sum(axis=0))).astype(dtype))

    def layout(self, rows: int) -> dict:
        """Workspace layout (`ledplab.parallel`) for blocks of up to `rows`
        slots: the public bits, one row a slot as
        `ledplab.ledp.bernoulli_rows` fills them; then one column a slot,
        the selections and bits as uint8, the operand x, the product
        coef @ x, and triangle_mix's counts and types. Once T's first term
        is taken, the bytes of x are the public-triangle count's scratch."""
        pairs = self.n * (self.n - 1) // 2
        dtype = self.coef.dtype
        return {
            "bits": ((rows, pairs), bool),
            "sw": ((2 * self.n + pairs, rows), np.uint8),
            "x": ((self.coef.shape[1], rows), dtype),
            "product": ((self.coef.shape[0], rows), dtype),
            "counts": ((4, rows), np.float64),
            "types": ((4, rows), np.float64),
        }

    def block_sums(self, ws: dict, rows: int) -> np.ndarray:
        """Triple-product sums of the first `rows` slots of workspace ws,
        whose uint8 operand holds their selections and public bits."""
        nu = 2 * self.n + 1
        sw, x = ws["sw"][:, :rows], ws["x"][:, :rows]
        x[0] = 1
        x[1:] = sw
        g = np.matmul(self.coef, x, out=ws["product"][:, :rows])
        counts = ws["counts"][:, :rows]  # [1, sum d, sum d^2, T]
        counts[0] = 1
        counts[1] = g[-1]
        counts[2] = np.einsum("ib,ib->b", g[nu:-1], g[nu:-1])
        counts[3] = np.einsum("ib,ib->b", g[:nu], x[:nu])
        counts[3] += _public_triangles(self.n, sw[nu - 1 :], ws["x"].reshape(-1).view(np.uint8))
        return triangle_mix(counts, 3 * self.n, self.epsilon, degree_sums=True, out=ws["types"][:, :rows])


@functools.lru_cache(maxsize=8)
def _triangle_pairs(n: int, chunk: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For each run of `chunk` triangles a < b < c, in lexicographic order,
    the read-only triu-order indices of their pairs ab, and of ac then bc.

    Triangle r of pair p = (a, b) has c = b + 1 + r - start[p], start[p]
    the rank of p's first triangle, so its pair ac is p + 1 + r - start[p]
    and its pair bc is f_b + r - start[p], where pair f_b is (b, b + 1).
    """
    lo, hi = np.triu_indices(n, k=1)
    runs = n - 1 - hi
    start = np.cumsum(runs) - runs
    rank = np.arange(math.comb(n, 3))
    ab = np.searchsorted(start[1:], rank, side="right")
    local = rank - start[ab]
    ac, bc = ab + 1 + local, np.searchsorted(lo, hi)[ab] + local
    ab.setflags(write=False)  # and so its chunks, views of it
    chunks = []
    for r0 in range(0, len(rank), chunk):
        chunks.append((ab[r0 : r0 + chunk], np.concatenate((ac[r0 : r0 + chunk], bc[r0 : r0 + chunk]))))
        chunks[-1][1].setflags(write=False)
    return tuple(chunks)


def _public_triangles(n: int, wt: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """t_WWW per slot from the (n(n-1)/2, B) 0/1 public bits wt, pair-major
    in triu order, worked in the uint8 buffer scratch.

    Each pair's row is packed 8 slots a byte, slot 8j + i at bit i of byte
    j. A chunk of triangles a < b < c, in lexicographic order, gathers the
    packed rows of its pairs ab, ac and bc and ANDs them: bit i of byte j is
    then 1 where the triangle is in slot 8j + i's public graph. Shifting
    those bytes right by k < 4 as 64-bit words, which carries bits into a
    byte only above its bit 4, and keeping bit 0 of each 4-bit lane leaves
    bit k of each byte in its low lane and bit k + 4 in its high one. A
    group of up to 15 such rows sums within its lanes, and the groups' low
    and high lanes sum over a chunk of TRIANGLE_GROUPS groups within a
    byte. So a chunk takes a fixed number of calls, each over the whole
    chunk, in place of the C(n - 1, 2) pairs' calls of a loop.
    """
    pairs, b = wt.shape
    width, total = -(-b // 8), math.comb(n, 3)
    packed = np.packbits(wt, axis=1, bitorder="little")
    buf = scratch[: len(scratch) // 8 * 8]
    # c triangles take 3 c width bytes gathered, then 4 planes of c width
    # bytes in whole words
    cap = len(buf) // (7 * width + 64)
    group = max(1, min(15, cap, total))
    chunk = group * max(1, min(TRIANGLE_GROUPS, -(-total // group), cap // group))
    assert chunk <= cap or total == 0, f"{len(scratch)} scratch bytes hold no triangle"
    rows = buf[: 3 * chunk * width].reshape(3 * chunk, width)
    lanes = buf[len(buf) - 32 * -(-chunk * width // 8) :].view(np.uint64).reshape(4, -1)
    counts = np.zeros((8, width), dtype=np.min_scalar_type(total))  # [bit i, byte j]
    for ab, acbc in _triangle_pairs(n, chunk):
        c, whole = len(ab), -(-len(ab) // group) * group
        # rows [0, c) for pairs ab, [chunk, chunk + 2c) for ac then bc; the
        # indices are in range, and "clip" skips numpy's slower checked gather
        np.take(packed, ab, axis=0, out=rows[:c], mode="clip")
        np.take(packed, acbc, axis=0, out=rows[chunk : chunk + 2 * c], mode="clip")
        both = np.bitwise_and(rows[:c], rows[chunk : chunk + c], out=rows[:c])
        np.bitwise_and(both, rows[chunk + c : chunk + 2 * c], out=both)
        rows[c:whole] = 0  # the last group's missing triangles
        words = -(-whole * width // 8)
        np.right_shift(buf[: 8 * words].view(np.uint64), _NIBBLE_SHIFTS, out=lanes[:, :words])
        np.bitwise_and(lanes[:, :words], _NIBBLE_BIT, out=lanes[:, :words])
        planes = lanes.view(np.uint8)[:, : whole * width].reshape(4, -1, group, width)
        sums = np.add.reduce(planes, axis=2, dtype=np.uint8)  # [bit k, group, byte j], 4-bit lanes
        counts[:4] += np.add.reduce(sums & 15, axis=1, dtype=np.uint8)
        counts[4:] += np.add.reduce(sums >> 4, axis=1, dtype=np.uint8)
    return counts.T.reshape(-1)[:b]


class GrayBox:
    """Stored two-invocation randomizer outputs plus query answering.

    After prepare(), answering any number of queries touches the secret
    dataset only through the stored payloads; the per-vertex invocation
    count never grows.
    """

    def __init__(self, n, family, post, r0, r1, transcript, charge):
        self.n = n
        self.family = family
        self.post = post
        self.r0 = r0  # (2n, 3n) payload bits, row v valid at columns > v
        self.r1 = r1
        self.transcript = transcript
        self.charge = charge
        self._form = (
            _SlotForm.from_payloads(r0, r1, family.epsilon)
            if isinstance(family, RandomizedResponse) and isinstance(post, TrianglePost)
            else None
        )

    # -- preparation ---------------------------------------------------

    @classmethod
    def prepare(cls, x, family, post, streams: Streams) -> "GrayBox":
        """Run each secret vertex's randomizer once per round, round 0 on
        the bare secret graph and round 1 with the public block attached,
        round u unit u of the node `streams`, its 2n runs in vertex order
        (stream layout 4, `ledplab.rng`)."""
        x = _as_bits(x)
        transcript = Transcript()
        stored = []
        for unit, rows in enumerate(secret_input_rows(x)):
            outputs, released = release_runs(family, rows, streams, unit)
            transcript.append_round(outputs)
            stored.append(released)
        # every secret pair is covered once per round
        charge = transcript.ledger()
        assert charge == compose_ledger([family.params, family.params]), charge
        return cls(x.shape[0], family, post, *stored, transcript, charge)

    def _assemble(self, sel: np.ndarray, w_payloads: list[np.ndarray]) -> np.ndarray:
        """Symmetric released-bit matrix of one slot from the stored payloads
        its 0/1 selection sel picks and the public vertices' fresh runs; with
        post, the oracle of each answer_outer_batch slot."""
        n, nv = self.n, 3 * self.n
        m = np.zeros((nv, nv), dtype=np.uint8)
        for v in range(2 * n):
            source = self.r1 if sel[v] else self.r0
            m[v, v + 1 :] = source[v, v + 1 :]
        for idx, w in enumerate(range(2 * n, nv)):
            m[w, w + 1 :] = w_payloads[idx]
        return m | m.T

    # -- answering ------------------------------------------------------

    def answer_outer_batch(self, a_signs: np.ndarray, b_signs: np.ndarray, streams: Streams) -> np.ndarray:
        """Answers to k sign-vector queries, vectorized, and one public round
        recorded for them.

        Slot 3l + t is part t of query l's three-part split; its answer
        equals post of _assemble on its selection and the same public bits,
        divided by n. Slot j's P = n(n-1)/2 public-pair bits are unit j of
        the node `streams` (stream layout 4, `ledplab.rng`): they read the
        words [j W, (j + 1) W), W = ceil(P/4), and a tie, if any, the node's
        "ties" child. Each slot's estimate is mixed from its graph's exact
        integer counts. Queries are answered ANSWER_BLOCK at a time, the
        blocks in parallel on up to one thread a usable CPU per BLAS thread
        and no more threads than WORKSPACE_BYTES holds workspaces, each
        running block in a workspace of its own (`ledplab.parallel`). A
        block writes only its own queries' answers, and its generator is
        derived on the calling thread (a tie generator by the block that
        holds the tie), so the answers and the recorded public payload
        depend on neither the block size nor the thread count.
        """
        a_signs, b_signs = _sign_pair(a_signs, b_signs, self.n, "n")
        packed = []  # the public bits, one packed part a block
        if isinstance(self.family, IdentityRelease) and isinstance(self.post, ExactCountPost):
            # Identity releases make every selected released bit exact, so
            # the split recombines to a^T R b with R the stored block;
            # public-vertex "noise" is vacuous for the identity family.
            answers = _bilinear(a_signs, self.r0[: self.n, self.n : 2 * self.n], b_signs)
        elif self._form is not None:
            answers, packed = self._randomized_answers(a_signs, b_signs, streams)
        else:
            raise ValueError("no batched path for this family/postprocessor pair")
        public = RandomizerOutput(
            vertex=-1,  # stands for the whole public block
            randomizer=self.family.name,
            params=self.family.params,
            payload=np.concatenate(packed) if packed else np.zeros(0, dtype=np.uint8),
            public=True,
            count=3 * len(a_signs) * self.n,
        )
        self.transcript.append_round([public])
        return answers

    def _randomized_answers(self, a_signs, b_signs, streams) -> tuple[np.ndarray, list]:
        """Randomized-response answers and each block's packed public bits
        (answer_outer_batch); block q0 draws its slots from unit 3 q0."""
        n, k, block = self.n, len(a_signs), ANSWER_BLOCK
        assert block % 8 == 0, f"ANSWER_BLOCK must be a multiple of 8, got {block}"
        words = unit_words(n * (n - 1) // 2)
        p_flip = flip_probability(self.family.epsilon)
        ties = streams.child("ties")
        answers = np.empty(k)
        starts = range(0, k, block)
        # derived here, so a worker derives a generator only for a tie
        items = [(q0, streams.generator(3 * q0 * words)) for q0 in starts]
        layout = self._form.layout(3 * min(block, k))
        size = parallel.workspace_bytes(layout)
        threads = min(parallel.cpus_per_blas_thread(), len(starts), max(1, WORKSPACE_BYTES // size))

        def answer_block(item, ws):
            q0, gen = item
            q1 = min(q0 + block, k)
            rows = 3 * (q1 - q0)
            w_bits, sw = ws["bits"][:rows], ws["sw"][:, :rows]
            bernoulli_rows(p_flip, gen, ties, 3 * q0, w_bits)
            sw[2 * n :] = w_bits.view(np.uint8).T
            # slot 3l + t selects part t of query l: [a = 1] and [b = 1],
            # then [a = -1] and [b = -1], then all ones
            for t, compare in enumerate((np.greater, np.less)):
                compare(a_signs[q0:q1].T, 0, out=sw[:n, t::3])
                compare(b_signs[q0:q1].T, 0, out=sw[n : 2 * n, t::3])
            sw[: 2 * n, 2::3] = 1
            s = self._form.block_sums(ws, rows) / n
            answers[q0:q1] = 2.0 * (s[0::3] + s[1::3]) - s[2::3]
            # packed last, so the kept payload takes the heap chunk that the
            # block's public-triangle count freed, of the same size at a
            # full block, and kept payloads do not strand freed chunks
            # between them: packed first, a two-thread answer at n = 8 and
            # the paper's k left 3-5 MB more resident
            return np.packbits(w_bits, axis=None)

        keep = threads * size <= WORKSPACE_BYTES
        return answers, parallel.parallel_map(answer_block, items, layout, threads, keep)


def default_query_count(n: int, gamma: float = DEFAULT_GAMMA) -> int:
    return math.ceil(128.0 * n * n / (gamma * gamma))


def accuracy_threshold(n: int, gamma: float) -> float:
    return math.sqrt(gamma) * n / 4.0


def disagreement_budget(k: int, gamma: float) -> float:
    return gamma * gamma * k / 64.0


def catch_threshold(k: int, gamma: float) -> float:
    return gamma * gamma * k / 32.0


def sample_query_signs(n: int, k: int, streams: Streams) -> tuple[np.ndarray, np.ndarray]:
    """k independent uniform sign-vector pairs, as (k, n) int8 arrays.

    Each array unpacks ceil(k n / 64) raw 64-bit words of the stream of
    `streams`, a's words first, then b's; bit j, least significant first,
    is the sign 1 - 2 bit of entry j in row-major order.
    """
    if k < 1:
        raise ValueError(f"need at least one query, got k={k}")
    bit_gen = streams.generator().bit_generator

    def signs():
        out = np.empty(k * n, dtype=np.int8)
        for lo in range(0, k * n, SIGN_CHUNK):
            hi = min(lo + SIGN_CHUNK, k * n)
            words = bit_gen.random_raw(-(-(hi - lo) // 64)).astype("<u8", copy=False)
            out[lo:hi] = np.unpackbits(words.view(np.uint8), count=hi - lo, bitorder="little")
        out *= -2
        out += 1
        return out.reshape(k, n)

    return signs(), signs()


def _bilinear(a_signs, m: np.ndarray, b_signs) -> np.ndarray:
    """a_l^T m b_l for each query l as float64, from products of QUERY_BLOCK
    queries at exact_float(sum |m|); exact for integer m, whose every
    partial sum is an integer <= sum |m|, while that is below 2^53."""
    out = np.empty(len(a_signs))
    dtype = exact_float(np.abs(m).sum())
    m = m.astype(dtype)
    ones = np.ones(m.shape[1], dtype)
    for lo in range(0, len(out), QUERY_BLOCK):
        hi = lo + QUERY_BLOCK
        prod = a_signs[lo:hi].astype(dtype) @ m
        prod *= b_signs[lo:hi]
        out[lo:hi] = prod @ ones
    return out


def _sign_pair(a_signs, b_signs, n: int, field: str):
    """Both sign arrays as (k, n) int8; a shape that does not fit raises
    ValueError naming b_signs, or `field`, the name of the side n."""
    a_signs = np.atleast_2d(_as_signs(a_signs))
    b_signs = np.atleast_2d(_as_signs(b_signs))
    if b_signs.shape != a_signs.shape:
        raise ValueError(f"b_signs: shape {b_signs.shape} does not match a_signs shape {a_signs.shape}")
    if a_signs.ndim != 2 or a_signs.shape[1] != n:
        raise ValueError(f"{field}: side {n} does not match the sign arrays' shape {a_signs.shape}")
    return a_signs, b_signs


def _ternary_matrix(entries, field: str) -> np.ndarray:
    """entries as a float64 square matrix over {-1, 0, 1}; anything else
    raises ValueError naming `field`."""
    # checked in float64, not after narrowing to int64, which truncates 0.5
    # and wraps uint64 2^64 - 1 to -1; an integer of size >= 2 stays >= 2
    m = np.asarray(entries, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{field}: must be a square matrix, got shape {m.shape}")
    if not np.all((np.trunc(m) == m) & (np.abs(m) <= 1)):
        raise ValueError(f"{field}: every entry must lie in {{-1, 0, 1}}")
    return m


def catches(a_signs, b_signs, m_diff, gamma: float) -> bool:
    """Whether the query set separates a candidate from the truth often
    enough: more than gamma^2 k / 32 queries move by over sqrt(gamma) n/2."""
    m = _ternary_matrix(m_diff, "m_diff")
    n = m.shape[0]
    a_signs, b_signs = _sign_pair(a_signs, b_signs, n, "m_diff")
    k = a_signs.shape[0]
    products = _bilinear(a_signs, m, b_signs)
    separated = int(np.count_nonzero(np.abs(products) > math.sqrt(gamma) * n / 2.0))
    return separated > catch_threshold(k, gamma)


@dataclass
class AttackReport:
    n: int
    k: int
    gamma: float
    inaccurate_count: int
    feasible: bool
    thresholds: dict
    search: str
    y_star: Optional[np.ndarray] = None
    hamming: Optional[int] = None
    best_dataset: Optional[np.ndarray] = None
    best_hamming: Optional[int] = None
    seed: Optional[int] = None
    charge: Optional[PrivacyParams] = None
    mechanism: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "gamma": self.gamma,
            "inaccurate_count": self.inaccurate_count,
            "feasible": self.feasible,
            "thresholds": self.thresholds,
            "seed": self.seed,
            "search": self.search,
            "y_star": None if self.y_star is None else self.y_star.astype(int).tolist(),
            "hamming": self.hamming,
            "best_hamming": self.best_hamming,
            "charge": None
            if self.charge is None
            else {"epsilon": self.charge.epsilon, "delta": self.charge.delta},
            "mechanism": self.mechanism,
        }


def _inaccurate_counts_for_candidates(
    candidates, a_signs, b_signs, answers, tau, prune_at=None, chunk=512
):
    """Count answers inaccurate for each candidate row.

    With prune_at set, candidates stop accumulating once they exceed it;
    their returned counts are partial (still above prune_at), which is
    enough to rule them out of the feasible set.
    """
    cands = candidates.astype(np.float64)
    k = len(answers)
    counts = np.zeros(len(cands), dtype=np.int64)
    alive = np.arange(len(cands))
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        patterns = np.einsum("li,lj->lij", a_signs[start:stop], b_signs[start:stop])
        vals = cands[alive] @ patterns.reshape(stop - start, -1).T.astype(np.float64)
        counts[alive] += (np.abs(vals - answers[start:stop][None, :]) > tau).sum(axis=1)
        if prune_at is not None:
            alive = alive[counts[alive] <= prune_at]
            if len(alive) == 0:
                break
    return counts


def _exhaustive_search(answers, a_signs, b_signs, n, tau, allowed):
    n_bits = n * n
    if n_bits > EXHAUSTIVE_MAX_BITS:
        raise ValueError(f"exhaustive search infeasible for n^2 = {n_bits} > {EXHAUSTIVE_MAX_BITS}")
    idx = np.arange(1 << n_bits, dtype=np.int64)
    candidates = ((idx[:, None] >> np.arange(n_bits)[None, :]) & 1).astype(np.uint8)
    counts = _inaccurate_counts_for_candidates(
        candidates, a_signs, b_signs, answers, tau, prune_at=int(allowed)
    )
    feasible = np.flatnonzero(counts <= allowed)
    if len(feasible):
        best = int(feasible[0])  # ties broken toward first-found
        return candidates[best].reshape(n, n), int(counts[best])
    # nothing feasible: pruned counts are partial, so rescore the pick exactly
    best = int(np.argmin(counts))
    exact = _inaccurate_counts_for_candidates(
        candidates[best : best + 1], a_signs, b_signs, answers, tau
    )
    return candidates[best].reshape(n, n), int(exact[0])


def _correlation_start(answers, a_signs, b_signs) -> np.ndarray:
    """y_ij = [sum_l answers_l a_li b_lj > k/2], decided exactly (module docstring)."""
    k, n = a_signs.shape
    s = np.zeros((n, n))
    magnitude = 0.0
    for lo in range(0, k, QUERY_BLOCK):
        hi = lo + QUERY_BLOCK
        s += (answers[lo:hi, None] * a_signs[lo:hi]).T @ b_signs[lo:hi].astype(np.float64)
        magnitude += np.abs(answers[lo:hi]).sum()
    half = k / 2
    y = (s > half).astype(np.uint8)
    bound = 2.0 * k * 2.0**-52 * magnitude
    for i, j in zip(*np.nonzero(np.abs(s - half) <= bound)):
        terms = answers * (a_signs[:, i] * b_signs[:, j])
        y[i, j] = math.fsum([*terms.tolist(), -half]) > 0
    return y


def _inaccurate(diff, tau) -> int:
    """How many residuals exceed tau in size, counted QUERY_BLOCK at a time."""
    blocks = range(0, len(diff), QUERY_BLOCK)
    return sum(int(np.count_nonzero(np.abs(diff[lo : lo + QUERY_BLOCK]) > tau)) for lo in blocks)


def _flip_counts(diff, a_signs, b_signs, flat, tau, dtype) -> np.ndarray:
    """Inaccurate count after flipping each bit of flat, from residuals diff
    and int8 signs (module docstring). The sizes |r +- 1|, their counts and
    the queries that enter the product are taken SPAN_BLOCKS * QUERY_BLOCK
    residuals at a time in one reused buffer; the moved queries are gathered,
    as floats of dtype, and multiplied QUERY_BLOCK at a time."""
    cross = np.zeros((a_signs.shape[1],) * 2, dtype)
    both = 0
    span = SPAN_BLOCKS * QUERY_BLOCK
    size = np.empty(min(len(diff), span))
    for lo in range(0, len(diff), span):
        block = diff[lo : lo + span]
        t = size[: len(block)]
        up = np.abs(np.add(block, 1.0, out=t), out=t) > tau
        down = np.abs(np.subtract(block, 1.0, out=t), out=t) > tau
        both += np.count_nonzero(up) + np.count_nonzero(down)
        moved = np.flatnonzero(up != down)  # P_l - M_l = +-1, the only nonzero terms
        weight = up[moved].astype(dtype) - down[moved]
        moved += lo
        for part in range(0, len(moved), QUERY_BLOCK):
            rows = moved[part : part + QUERY_BLOCK]
            a = np.take(a_signs, rows, axis=0).astype(dtype)
            cross += a.T @ (weight[part : part + QUERY_BLOCK, None] * np.take(b_signs, rows, axis=0))
    signs = 1.0 - 2.0 * flat  # +1 to set the bit, -1 to clear it
    return (both + (signs * cross.reshape(-1)).astype(np.int64)) // 2


def _hillclimb_search(answers, a_signs, b_signs, n, tau, allowed, max_sweeps, min_improvement):
    """Climb once from the correlation start, taking the best single-bit
    flip a sweep until the dataset is feasible or no flip gains
    min_improvement; returns the dataset and its inaccurate count."""
    flat = _correlation_start(answers, a_signs, b_signs).reshape(-1).astype(np.float64)
    dtype = exact_float(max(len(answers), n * n))  # k bounds a flip product's partial sums, n^2 a residual's
    diff = _bilinear(a_signs, flat.reshape(n, n), b_signs)
    diff -= answers
    count = _inaccurate(diff, tau)
    for _ in range(max_sweeps):
        if count <= allowed:
            break
        flip_counts = _flip_counts(diff, a_signs, b_signs, flat, tau, dtype)
        best_flip = int(np.argmin(flip_counts))
        if count - int(flip_counts[best_flip]) < min_improvement:
            break
        i, j = divmod(best_flip, n)
        step = 1.0 - 2.0 * flat[best_flip]
        for lo in range(0, len(diff), QUERY_BLOCK):
            hi = lo + QUERY_BLOCK
            diff[lo:hi] += a_signs[lo:hi, i] * b_signs[lo:hi, j] * step
        flat[best_flip] = 1.0 - flat[best_flip]
        count = int(flip_counts[best_flip])
    return flat.astype(np.uint8).reshape(n, n), count


def attacker_reconstruct(
    answers,
    a_signs,
    b_signs,
    n: int,
    gamma: float = DEFAULT_GAMMA,
    search: str = "auto",
    max_sweeps: Optional[int] = None,
    x_true=None,
) -> AttackReport:
    """Find a dataset consistent with all but a small fraction of answers.

    Feasible means at most gamma^2 k / 64 answers are off by more than
    sqrt(gamma) n / 4. The exhaustive search scores every dataset; the
    hill-climb climbs once from the exact correlation start (module
    docstring), at most max_sweeps flips, and draws nothing. If no
    candidate within the search budget is feasible the attack fails; the
    best candidate found is still reported so downstream diagnostics have
    an output to score. A NaN or infinite answer raises ValueError: a NaN
    would read as accurate for every candidate.
    """
    answers = np.asarray(answers, dtype=np.float64)
    if not np.all(np.isfinite(answers)):
        bad = int(np.count_nonzero(~np.isfinite(answers)))
        raise ValueError(f"answers must be finite, got {bad} NaN or infinite")
    a_signs, b_signs = _sign_pair(a_signs, b_signs, n, "n")
    k = len(a_signs)
    if answers.shape != (k,):
        raise ValueError(f"answers: shape {answers.shape} does not match {k} queries")
    if x_true is not None:
        if np.shape(x_true) != (n, n):
            raise ValueError(f"x_true: shape {np.shape(x_true)} does not match n = {n}")
        x_true = _as_bits(x_true)
    tau = accuracy_threshold(n, gamma)
    allowed = disagreement_budget(k, gamma)
    if search == "auto":
        search = "exhaustive" if n * n <= EXHAUSTIVE_MAX_BITS else "hillclimb"
    if search == "exhaustive":
        best_y, best_count = _exhaustive_search(answers, a_signs, b_signs, n, tau, allowed)
    elif search == "hillclimb":
        sweeps = max_sweeps if max_sweeps is not None else 4 * n * n
        min_improvement = max(1, k // 20000)
        best_y, best_count = _hillclimb_search(
            answers, a_signs, b_signs, n, tau, allowed, sweeps, min_improvement
        )
    else:
        raise ValueError(f"unknown search {search!r}")
    feasible = best_count <= allowed
    report = AttackReport(
        n=n,
        k=k,
        gamma=gamma,
        inaccurate_count=best_count,
        feasible=feasible,
        thresholds={
            "accuracy": tau,
            "disagreement_budget": allowed,
            "catch": catch_threshold(k, gamma),
        },
        search=search,
        best_dataset=best_y,
    )
    if feasible:
        report.y_star = best_y
    if x_true is not None:
        report.best_hamming = int(np.count_nonzero(best_y != x_true))
        if feasible:
            report.hamming = report.best_hamming
    return report


def run_attack(
    x,
    mechanism: str,
    streams: Streams,
    epsilon: Optional[float] = None,
    gamma: float = DEFAULT_GAMMA,
    k: Optional[int] = None,
    search: str = "auto",
    max_sweeps: Optional[int] = None,
) -> AttackReport:
    """Full pipeline: prepare the gray box on x, answer k random queries,
    reconstruct, and report against the true x."""
    x = _as_bits(x)
    n = x.shape[0]
    if k is None:
        k = default_query_count(n, gamma)
    family, post = mechanism_components(mechanism, epsilon)
    box = GrayBox.prepare(x, family, post, streams.child("prepare"))
    a_signs, b_signs = sample_query_signs(n, k, streams.child("queries"))
    answers = box.answer_outer_batch(a_signs, b_signs, streams.child("answers"))
    report = attacker_reconstruct(
        answers,
        a_signs,
        b_signs,
        n,
        gamma=gamma,
        search=search,
        max_sweeps=max_sweeps,
        x_true=x,
    )
    report.seed = streams.seed
    report.charge = box.charge
    report.mechanism = mechanism
    return report


def privacy_distance_diagnostic(
    mechanism: str,
    n: int,
    trials: int,
    streams: Streams,
    epsilon: Optional[float] = None,
    gamma: float = DEFAULT_GAMMA,
    k: Optional[int] = None,
    search: str = "hillclimb",
) -> dict:
    """Mean reconstruction distance over uniform secrets vs the lower
    bound e^(-eps_charged) (1/2 - delta_charged) n^2 for private
    mechanisms.

    The attacker's best-effort output is scored even when infeasible:
    any output of a private pipeline obeys the bound.
    """
    if trials < 20:
        raise ValueError(f"need at least 20 trials, got {trials}")
    hammings = []
    charge = None
    for t in range(trials):
        trial = streams.child("trial", t)
        x = (trial.child("x").generator().random((n, n)) < 0.5).astype(np.uint8)
        report = run_attack(
            x,
            mechanism,
            trial.child("attack"),
            epsilon=epsilon,
            gamma=gamma,
            k=k,
            search=search,
        )
        hammings.append(report.best_hamming)
        charge = report.charge
    hammings = np.array(hammings, dtype=np.float64)
    mean = float(hammings.mean())
    se = float(hammings.std(ddof=1) / math.sqrt(trials))
    not_private = math.isinf(charge.epsilon)
    bound = 0.0 if not_private else math.exp(-charge.epsilon) * (0.5 - charge.delta) * n * n
    return {
        "mechanism": mechanism,
        "n": n,
        "trials": trials,
        "k": k if k is not None else default_query_count(n, gamma),
        "gamma": gamma,
        "epsilon_charged": charge.epsilon,
        "delta_charged": charge.delta,
        "mean_hamming": mean,
        "se_hamming": se,
        "bound": bound,
        "bound_applies": not not_private,
        "per_trial_hamming": [int(h) for h in hammings],
        "seed": streams.seed,
    }
