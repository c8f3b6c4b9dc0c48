import json
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ledplab import parallel
from ledplab.attack import (
    ANSWER_BLOCK,
    GrayBox,
    _as_bits,
    _as_signs,
    _correlation_start,
    _public_triangles,
    OuterProductQuery,
    SubmatrixQuery,
    accuracy_threshold,
    attacker_reconstruct,
    build_query_graph,
    build_secret_graph,
    catch_threshold,
    catches,
    default_query_count,
    disagreement_budget,
    mechanism_components,
    outer_product_answer,
    privacy_distance_diagnostic,
    run_attack,
    sample_query_signs,
    secret_input_rows,
    split_outer_product,
    submatrix_answer,
)
from ledplab.graphs import Graph, count_dtype, count_triangles
from ledplab.ledp import PrivacyParams, flip_probability
from ledplab.rng import Streams
from stream_reference import reference_bits, threshold, tie_count


def random_bits(n, gen):
    return (gen.random((n, n)) < 0.5).astype(np.uint8)


def exact_outer_answers(x, a_signs, b_signs):
    return np.einsum(
        "li,ij,lj->l", a_signs.astype(np.float64), x.astype(np.float64), b_signs.astype(np.float64)
    )


# --- direct query answering -------------------------------------------------


def test_outer_product_answer_examples():
    eye = np.eye(2, dtype=np.uint8)
    assert outer_product_answer(eye, OuterProductQuery([1, 1], [1, 1])) == 2
    zero = np.zeros((3, 3), dtype=np.uint8)
    assert outer_product_answer(zero, OuterProductQuery([1, -1, 1], [-1, -1, 1])) == 0
    x = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    assert outer_product_answer(x, OuterProductQuery([1, -1], [1, 1])) == 1


def test_submatrix_answer_examples():
    gen = Streams(200).generator()
    x = random_bits(4, gen)
    ones = np.ones(4, dtype=np.uint8)
    assert submatrix_answer(x, SubmatrixQuery(ones, ones)) == int(x.sum())
    assert submatrix_answer(x, SubmatrixQuery(np.zeros(4, dtype=np.uint8), ones)) == 0
    x2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    assert submatrix_answer(x2, SubmatrixQuery([1, 1], [1, 0])) == 2


def test_query_validation():
    with pytest.raises(ValueError):
        OuterProductQuery([1, 0], [1, 1])
    with pytest.raises(ValueError):
        OuterProductQuery([1, 1], [2, -1])
    with pytest.raises(ValueError):
        SubmatrixQuery([1, 2], [1, 1])
    with pytest.raises(ValueError):
        outer_product_answer(np.eye(3, dtype=np.uint8), OuterProductQuery([1, 1], [1, 1]))


def test_split_outer_product_identity():
    gen = Streams(201).generator()
    n = 6
    for _ in range(50):
        x = random_bits(n, gen)
        q = OuterProductQuery(gen.choice((-1, 1), n), gen.choice((-1, 1), n))
        q1, q2, q3, combine = split_outer_product(q)
        got = combine(
            submatrix_answer(x, q1), submatrix_answer(x, q2), submatrix_answer(x, q3)
        )
        assert got == outer_product_answer(x, q)


def test_split_outer_product_sign_cases():
    gen = Streams(202).generator()
    x = random_bits(5, gen)
    pop = int(x.sum())
    all_pos = OuterProductQuery(np.ones(5, int), np.ones(5, int))
    q1, q2, q3, combine = split_outer_product(all_pos)
    assert np.all(q2.q1 == 0)  # negative part empty
    assert combine(pop, 0, pop) == pop
    all_neg_a = OuterProductQuery(-np.ones(5, int), np.ones(5, int))
    q1, q2, q3, combine = split_outer_product(all_neg_a)
    assert np.all(q1.q1 == 0)
    assert combine(0, 0, pop) == -pop == outer_product_answer(x, all_neg_a)


def test_combiner_error_amplification_bound():
    # submatrix errors of at most alpha turn into at most 5 alpha
    gen = Streams(203).generator()
    n = 5
    for _ in range(100):
        x = random_bits(n, gen)
        q = OuterProductQuery(gen.choice((-1, 1), n), gen.choice((-1, 1), n))
        q1, q2, q3, combine = split_outer_product(q)
        alpha = gen.random() * 3
        noisy = combine(
            submatrix_answer(x, q1) + gen.uniform(-alpha, alpha),
            submatrix_answer(x, q2) + gen.uniform(-alpha, alpha),
            submatrix_answer(x, q3) + gen.uniform(-alpha, alpha),
        )
        assert abs(noisy - outer_product_answer(x, q)) <= 5 * alpha + 1e-12


# --- graph constructions ------------------------------------------------------


def test_build_secret_graph_layout():
    g, part = build_secret_graph(np.eye(2, dtype=np.uint8))
    assert g.n == 6
    assert sorted(g.edges()) == [(0, 2), (1, 3)]
    assert tuple(part) == ("U1", "U2", "W")
    assert part["W"] == (4, 5)
    empty, _ = build_secret_graph(np.zeros((3, 3), dtype=np.uint8))
    assert empty.edge_count() == 0


def test_secret_graph_edge_count_is_popcount():
    gen = Streams(204).generator()
    for _ in range(20):
        n = int(gen.integers(1, 7))
        x = random_bits(n, gen)
        g, _ = build_secret_graph(x)
        assert g.edge_count() == int(x.sum())
        # W isolated
        assert g.adjacency[2 * n :, :].sum() == 0


def test_query_graph_triangle_identity():
    gen = Streams(205).generator()
    for _ in range(100):
        n = int(gen.integers(2, 7))
        x = random_bits(n, gen)
        q = SubmatrixQuery(
            (gen.random(n) < 0.5).astype(np.uint8), (gen.random(n) < 0.5).astype(np.uint8)
        )
        g = build_query_graph(x, q)
        assert count_triangles(g) == n * submatrix_answer(x, q)


def test_query_graph_known_values():
    x = np.ones((2, 2), dtype=np.uint8)
    ones = np.ones(2, dtype=np.uint8)
    assert count_triangles(build_query_graph(x, SubmatrixQuery(ones, ones))) == 8
    zeros = np.zeros(2, dtype=np.uint8)
    assert count_triangles(build_query_graph(x, SubmatrixQuery(zeros, ones))) == 0


def test_query_graph_tripartite():
    gen = Streams(206).generator()
    for _ in range(10):
        n = int(gen.integers(2, 6))
        x = random_bits(n, gen)
        q = SubmatrixQuery(
            (gen.random(n) < 0.5).astype(np.uint8), (gen.random(n) < 0.5).astype(np.uint8)
        )
        a = build_query_graph(x, q).adjacency
        blocks = [slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)]
        for blk in blocks:
            assert a[blk, blk].sum() == 0


# --- gray box -----------------------------------------------------------------


def test_prepare_stores_two_outputs_per_secret_vertex():
    gen = Streams(207).generator()
    n = 4
    x = random_bits(n, gen)
    family, post = mechanism_components("rr", 1.0)
    box = GrayBox.prepare(x, family, post, Streams(208))
    assert box.transcript.round_count == 2
    per_vertex = {}
    for inv in box.transcript.invocations():
        per_vertex[inv.vertex] = per_vertex.get(inv.vertex, 0) + 1
    assert per_vertex == {v: 2 for v in range(2 * n)}
    assert box.charge == PrivacyParams(2.0, 0.0)
    # the stored outputs the answers read from are exactly the
    # transcripted payloads
    for tag, store in ((0, box.r0), (1, box.r1)):
        for inv in box.transcript.rounds[tag]:
            assert np.array_equal(store[inv.vertex, inv.vertex + 1 :], inv.payload)
    # round u's 2n payloads flip their inputs, in vertex order, by the
    # bits of unit u of the node
    for unit, rows in enumerate(secret_input_rows(x)):
        inputs = np.concatenate([rows[v, v + 1 :] for v in range(2 * n)])
        flips = reference_bits(flip_probability(1.0), Streams(208), unit, 1, len(inputs))[0]
        payloads = np.concatenate([inv.payload for inv in box.transcript.rounds[unit]])
        assert np.array_equal(payloads, inputs ^ flips)


def test_single_bit_changes_two_vertex_inputs():
    gen = Streams(209).generator()
    n = 5
    x = random_bits(n, gen)
    rows0, rows1 = secret_input_rows(x)
    for i in range(n):
        for j in range(n):
            y = x.copy()
            y[i, j] ^= 1
            alt0, alt1 = secret_input_rows(y)
            changed0 = set(np.argwhere((rows0 != alt0).any(axis=1)).ravel().tolist())
            changed1 = set(np.argwhere((rows1 != alt1).any(axis=1)).ravel().tolist())
            assert changed0 == changed1 == {i, n + j}


def submatrix_via_outer(box, q, streams):
    """1_S^T X 1_T from four sign queries: with a = 2 1_S - 1 and b = 2 1_T - 1,
    4 1_S^T X 1_T = a^T X b + a^T X 1 + 1^T X b + 1^T X 1."""
    a = 2 * q.q1.astype(np.int8) - 1
    b = 2 * q.q2.astype(np.int8) - 1
    ones = np.ones_like(a)
    answers = box.answer_outer_batch(np.stack([a, a, ones, ones]), np.stack([b, ones, b, ones]), streams)
    return answers.sum() / 4


def test_identity_graybox_matches_exact_answers():
    gen = Streams(210).generator()
    for trial in range(15):
        n = int(gen.integers(2, 7))
        x = random_bits(n, gen)
        family, post = mechanism_components("identity")
        box = GrayBox.prepare(x, family, post, Streams(211).child(trial))
        q = SubmatrixQuery(
            (gen.random(n) < 0.5).astype(np.uint8), (gen.random(n) < 0.5).astype(np.uint8)
        )
        assert submatrix_via_outer(box, q, Streams(212).child(trial)) == submatrix_answer(x, q)
        zeros = SubmatrixQuery(np.zeros(n, np.uint8), np.zeros(n, np.uint8))
        assert submatrix_via_outer(box, zeros, Streams(213).child(trial)) == 0
        oq = OuterProductQuery(gen.choice((-1, 1), n), gen.choice((-1, 1), n))
        answers = box.answer_outer_batch(oq.a, oq.b, Streams(214).child(trial))
        assert answers.tolist() == [outer_product_answer(x, oq)]


def test_oracle_graybox_matches_exact_answers():
    gen = Streams(215).generator()
    n = 4
    x = random_bits(n, gen)
    family, post = mechanism_components("oracle")
    box = GrayBox.prepare(x, family, post, Streams(216))
    a_signs, b_signs = np.ones((1, n), np.int8), gen.choice((-1, 1), (1, n))
    answers = box.answer_outer_batch(a_signs, b_signs, Streams(217))
    assert np.array_equal(answers, exact_outer_answers(x, a_signs, b_signs))


def test_oracle_is_identity_under_another_name():
    assert [type(part) for part in mechanism_components("oracle")] == [
        type(part) for part in mechanism_components("identity")
    ]
    x = random_bits(8, Streams(291).generator())
    reports = [
        run_attack(x, m, Streams(292), k=3000, search="hillclimb").to_dict() for m in ("oracle", "identity")
    ]
    assert [r.pop("mechanism") for r in reports] == ["oracle", "identity"]
    assert reports[0] == reports[1]


def test_identity_batch_matches_exact_answers():
    gen = Streams(218).generator()
    for n in (6, 8, 32):
        x = random_bits(n, gen)
        family, post = mechanism_components("identity")
        box = GrayBox.prepare(x, family, post, Streams(219).child(n))
        a_signs, b_signs = sample_query_signs(n, 500, Streams(220).child(n))
        batch = box.answer_outer_batch(a_signs, b_signs, Streams(221))
        assert np.array_equal(batch, np.einsum("li,ij,lj->l", a_signs, x.astype(np.int64), b_signs))


def test_charge_is_derived_from_transcript():
    x = random_bits(4, Streams(268).generator())
    for eps in (0.05, 0.3, 2.0):
        box = GrayBox.prepare(x, *mechanism_components("rr", eps), Streams(269))
        assert box.charge == box.transcript.ledger() == PrivacyParams(2 * eps, 0.0)
    box = GrayBox.prepare(x, *mechanism_components("identity"), Streams(270))
    assert box.charge == box.transcript.ledger()
    assert box.charge.epsilon == math.inf and box.charge.delta == 0.0


def direct_slot_answer(box, sel, w_bits):
    """Assemble the released matrix for one slot and postprocess it."""
    n = box.n
    w_matrix = np.zeros((n, n), dtype=np.uint8)
    w_matrix[np.triu_indices(n, k=1)] = w_bits
    return box.post(box._assemble(sel, [w_matrix[i, i + 1 :] for i in range(n)])) / n


def public_graph_triangles(n, wt):
    """count_triangles of each slot's public graph, from (n(n-1)/2, B) bits
    in triu order."""
    upper = np.triu_indices(n, k=1)
    counts = []
    for bits in wt.T:
        adjacency = np.zeros((n, n), dtype=np.uint8)
        adjacency[upper] = bits
        counts.append(count_triangles(Graph(adjacency | adjacency.T)))
    return counts


def answer_scratch(n, rows, fill):
    """The bytes of the operand x in an answer workspace for blocks of
    `rows` slots, as block_sums hands them to _public_triangles, holding
    `fill` (a carved workspace is not zeroed)."""
    box = GrayBox.prepare(np.ones((n, n), dtype=np.uint8), *mechanism_components("rr", 1.0), Streams(331))
    shape, dtype = box._form.layout(rows)["x"]
    scratch = np.empty(shape, dtype).reshape(-1).view(np.uint8)
    scratch[:] = fill
    return scratch


def public_bits(gen, n, width):
    """Random (n(n-1)/2, width) public bits as a view whose rows are
    further apart than width, as sw's rows are in a partial block."""
    return (gen.random((n * (n - 1) // 2, width + 5)) < 0.5).astype(np.uint8)[:, :width]


@pytest.mark.parametrize("n", range(3, 17))
def test_public_triangles_match_brute_force(n):
    # every block width from 1 to 17 slots, so the last packed byte is
    # part-full, in a full block's scratch; and the one-query block, 3
    # slots, in a workspace of its own
    gen = Streams(330).child(n).generator()
    scratch = answer_scratch(n, 3 * ANSWER_BLOCK, 0xA5)
    for width in range(1, 18):
        wt = public_bits(gen, n, width)
        assert _public_triangles(n, wt, scratch).tolist() == public_graph_triangles(n, wt)
    wt = public_bits(gen, n, 3)
    assert _public_triangles(n, wt, answer_scratch(n, 3, 0xFF)).tolist() == public_graph_triangles(n, wt)
    # complete public graphs fill every 4-bit lane and byte the count sums in
    complete = np.ones((n * (n - 1) // 2, 17), dtype=np.uint8)
    assert _public_triangles(n, complete, scratch).tolist() == [math.comb(n, 3)] * 17


@pytest.mark.parametrize("n", [8, 16])
def test_public_triangles_full_block_match_brute_force(n):
    # 8,184 slots, every seventh public graph complete; at n = 16 the 560
    # triangles span five chunks
    gen = Streams(332).child(n).generator()
    wt = public_bits(gen, n, 3 * ANSWER_BLOCK)
    wt[:, ::7] = 1
    scratch = answer_scratch(n, 3 * ANSWER_BLOCK, 0x5A)
    assert _public_triangles(n, wt, scratch).tolist() == public_graph_triangles(n, wt)


@pytest.mark.parametrize("n, most", [(8, 3_961_216), (16, 10_442_880)])
def test_answer_workspace_does_not_grow(n, most):
    # the public-triangle count works in bytes the block already has, and
    # sum d comes from the product: a full block's workspace holds the
    # public bits, the uint8 operand, x, the product and the mix's two
    # (4, B) float64 blocks, and nothing more
    box = GrayBox.prepare(random_bits(n, Streams(333).generator()), *mechanism_components("rr", 1.0), Streams(334))
    assert parallel.workspace_bytes(box._form.layout(3 * ANSWER_BLOCK)) <= most


def test_rr_batch_matches_single_query_postprocessing():
    # same selection pattern and same public bits must give the same answer,
    # bit for bit, through the integer forms and through direct assembly
    gen = Streams(222).generator()
    for n in (3, 4, 8):
        x = random_bits(n, gen)
        for eps in (0.05, 0.8, 2.0):
            box = GrayBox.prepare(x, *mechanism_components("rr", eps), Streams(223).child(n))
            sel = (gen.random((25, 2 * n)) < 0.5).astype(np.uint8)
            w_bits = gen.random((25, n * (n - 1) // 2)) < 0.5
            # a workspace filled here; x, its constant row unset, too
            ws = {name: np.empty(shape, dtype) for name, (shape, dtype) in box._form.layout(25).items()}
            ws["sw"][: 2 * n] = sel.T
            ws["sw"][2 * n :] = w_bits.T
            via_form = box._form.block_sums(ws, 25) / n
            for t in range(25):
                direct = direct_slot_answer(box, sel[t], w_bits[t])
                assert via_form[t] == direct


def check_batch_against_direct_assembly(n, eps, k, seed):
    """answer_outer_batch against per-slot assembly on the same public bits:
    slot j's n(n-1)/2 bits are unit j of the answer node."""
    gen = Streams(seed).generator()
    x = random_bits(n, gen)
    box = GrayBox.prepare(x, *mechanism_components("rr", eps), Streams(seed).child("prepare"))
    a_signs, b_signs = sample_query_signs(n, k, Streams(seed).child("queries"))
    streams = Streams(seed).child("answers")
    answers = box.answer_outer_batch(a_signs, b_signs, streams)
    w_bits = reference_bits(flip_probability(eps), streams, 0, 3 * k, n * (n - 1) // 2)
    public = box.transcript.rounds[-1][0]
    assert public.count == 3 * k * n
    assert np.array_equal(public.payload, np.packbits(w_bits, axis=None))
    for q in range(k):
        q1, q2, q3, combine = split_outer_product(OuterProductQuery(a_signs[q], b_signs[q]))
        parts = [
            direct_slot_answer(box, np.concatenate([part.q1, part.q2]), w_bits[3 * q + t])
            for t, part in enumerate((q1, q2, q3))
        ]
        assert answers[q] == combine(*parts)
    return box


def test_bulk_public_round_dumps_its_packed_bytes():
    # the bulk record stores np.packbits output; the dump emits those bytes once
    n, k, eps = 4, 3, 1.0
    x = random_bits(n, Streams(293).generator())
    box = GrayBox.prepare(x, *mechanism_components("rr", eps), Streams(294))
    a_signs, b_signs = sample_query_signs(n, k, Streams(295))
    box.answer_outer_batch(a_signs, b_signs, Streams(296))
    w_bits = reference_bits(flip_probability(eps), Streams(296), 0, 3 * k, n * (n - 1) // 2)
    bulk = box.transcript.dump()["invocations"][-1]
    assert bulk["vertex"] == -1
    assert bulk["payload_hex"] == np.packbits(w_bits).tobytes().hex()
    assert len(bulk["payload_hex"]) == 2 * 7  # 54 bits
    box = GrayBox.prepare(x, *mechanism_components("identity"), Streams(294))
    box.answer_outer_batch(a_signs, b_signs, Streams(296))
    assert box.transcript.dump()["invocations"][-1]["payload_hex"] == ""
    # no queries: no answers and an empty public round, for both mechanisms
    none = np.zeros((0, n), dtype=np.int8)
    for mechanism in ("rr", "identity"):
        box = GrayBox.prepare(x, *mechanism_components(mechanism, eps), Streams(294))
        assert box.answer_outer_batch(none, none, Streams(296)).shape == (0,)
        public = box.transcript.rounds[-1][0]
        assert public.count == 0 and public.payload.dtype == np.uint8 and len(public.payload) == 0


def test_rr_batch_blocks_match_direct_assembly(monkeypatch):
    import ledplab.attack as attack

    # blocks of 8 queries, 24 slots; 11 queries end in a partial block
    monkeypatch.setattr(attack, "ANSWER_BLOCK", 8)
    for n, eps in ((3, 0.05), (4, 0.8), (8, 2.0)):
        check_batch_against_direct_assembly(n, eps, k=11, seed=260 + n)


def test_rr_batch_large_n_matches_direct_assembly():
    # 3n = 255 vertices count in float32, 258 in float64
    for n, eps, k in ((11, 2.0, 6), (16, 2.0, 6), (85, 0.05, 2), (86, 0.05, 2)):
        box = check_batch_against_direct_assembly(n, eps, k=k, seed=264 + n)
        assert box._form.coef.dtype == count_dtype(3 * n)


def test_rr_batch_complete_public_graphs_at_last_float32_size(monkeypatch):
    import ledplab.attack as attack

    # 3n = 255, the last float32 size, where sum d^2 comes closest to 2^24:
    # every public bit is 1, and at eps = 300 each payload is its true row,
    # here all ones; each slot against its assembly, then whole answers
    n, k = 85, 2
    box = GrayBox.prepare(np.ones((n, n), dtype=np.uint8), *mechanism_components("rr", 300.0), Streams(340))
    assert box._form.coef.dtype == np.float32
    complete = np.ones(n * (n - 1) // 2, dtype=np.uint8)
    sel = np.vstack([np.ones(2 * n), np.zeros(2 * n), Streams(341).generator().random((4, 2 * n)) < 0.5])
    ws = {name: np.empty(shape, dtype) for name, (shape, dtype) in box._form.layout(len(sel)).items()}
    ws["sw"][: 2 * n] = sel.T
    ws["sw"][2 * n :] = 1
    via_form = box._form.block_sums(ws, len(sel)) / n
    for t, slot in enumerate(sel.astype(np.uint8)):
        assert via_form[t] == direct_slot_answer(box, slot, complete)
    monkeypatch.setattr(attack, "bernoulli_rows", lambda p, gen, ties, first, out: out.fill(1))
    a_signs, b_signs = sample_query_signs(n, k, Streams(342))
    answers = box.answer_outer_batch(a_signs, b_signs, Streams(343))
    for q in range(k):
        q1, q2, q3, combine = split_outer_product(OuterProductQuery(a_signs[q], b_signs[q]))
        parts = [direct_slot_answer(box, np.concatenate([p.q1, p.q2]), complete) for p in (q1, q2, q3)]
        assert answers[q] == combine(*parts)


def check_batch_over_blocks_and_threads(monkeypatch, n, seed):
    """Answers and public payload of one rr batch, 1001 queries in 3003
    slots, the same for every answer block and thread count; returns the
    payload."""
    import ledplab.attack as attack

    # blocks of 8 and 16 queries end in a partial block, and 2728 is one
    # block; 3 threads is more than a 2-core host has
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one answer thread a CPU
    x = random_bits(n, Streams(seed).child(n).generator())
    a_signs, b_signs = sample_query_signs(n, 1001, Streams(seed + 1).child(n))
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a shared write would show
    try:
        for block, threads in product((8, 16, 2728), (1, 2, 3)):
            monkeypatch.setattr(attack, "ANSWER_BLOCK", block)
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: threads)
            box = GrayBox.prepare(x, *mechanism_components("rr", 0.8), Streams(seed + 2).child(n))
            answers = box.answer_outer_batch(a_signs, b_signs, Streams(seed + 3).child(n))
            runs.append((answers, box.transcript.rounds[-1][0].payload))
    finally:
        sys.setswitchinterval(interval)
    for answers, payload in runs[1:]:
        assert answers.tobytes() == runs[0][0].tobytes()
        assert payload.tobytes() == runs[0][1].tobytes()
    return runs[0][1]


@pytest.mark.parametrize("n", [3, 5, 12])
def test_rr_batch_independent_of_slot_block(monkeypatch, n):
    check_batch_over_blocks_and_threads(monkeypatch, n, 266)


def test_rr_batch_with_ties_independent_of_slot_block(monkeypatch):
    # 3 of the 84,084 public bits are ties, which the blocks that hold them
    # settle from tie generators of their own, on the workers
    n, seed, p = 8, 300, flip_probability(0.8)
    node = Streams(seed + 3).child(n)
    assert tie_count(p, node, 0, 3003, 28) == 3
    payload = check_batch_over_blocks_and_threads(monkeypatch, n, seed)
    assert payload.tobytes() == np.packbits(reference_bits(p, node, 0, 3003, 28)).tobytes()


def test_rr_batch_reads_each_blocks_tie_words_at_its_first_slot(monkeypatch):
    # at eps = 0.5 the tie bits c_lo / 2^37 are within 1% of 1/2, so each tie
    # is a fair coin, and 13 of the 16 ties fall past the first block even at
    # 2728 queries: a block that read its tie words from another unit would
    # differ from the reference with probability about 1 - 2^-13
    import ledplab.attack as attack

    n, k, eps = 8, 12000, 0.5
    p, node = flip_probability(eps), Streams(313)
    assert abs(threshold(p) % 2**37 / 2**37 - 0.5) < 0.01
    assert tie_count(p, node, 3 * 2728, 3 * (k - 2728), 28) >= 12
    x = random_bits(n, Streams(310).generator())
    a_signs, b_signs = sample_query_signs(n, k, Streams(311))
    want = np.packbits(reference_bits(p, node, 0, 3 * k, 28)).tobytes()
    for block in (8, 16, 2728):
        monkeypatch.setattr(attack, "ANSWER_BLOCK", block)
        box = GrayBox.prepare(x, *mechanism_components("rr", eps), Streams(312))
        box.answer_outer_batch(a_signs, b_signs, node)
        assert box.transcript.rounds[-1][0].payload.tobytes() == want


def test_rr_batch_workers_derive_no_generators(monkeypatch):
    import ledplab.attack as attack

    # every block generator comes from the calling thread, once a block,
    # and only the workers answer blocks; no slot holds a tie, so no worker
    # derives a tie generator
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one answer thread a CPU
    monkeypatch.setattr(attack, "ANSWER_BLOCK", 8)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    n, k = 4, 100  # 13 blocks
    box = GrayBox.prepare(random_bits(n, Streams(270).generator()), *mechanism_components("rr", 0.8), Streams(271))
    a_signs, b_signs = sample_query_signs(n, k, Streams(272))
    assert tie_count(flip_probability(0.8), Streams(273), 0, 3 * k, 6) == 0
    caller, generator_threads, block_threads = threading.current_thread(), [], set()
    generator, block_sums = Streams.generator, attack._SlotForm.block_sums

    def traced_generator(self, skip=0):
        generator_threads.append(threading.current_thread())
        return generator(self, skip)

    def traced_block_sums(self, ws, rows):
        block_threads.add(threading.current_thread())
        return block_sums(self, ws, rows)

    monkeypatch.setattr(Streams, "generator", traced_generator)
    monkeypatch.setattr(attack._SlotForm, "block_sums", traced_block_sums)
    box.answer_outer_batch(a_signs, b_signs, Streams(273))
    assert generator_threads == [caller] * 13
    assert block_threads and caller not in block_threads and len(block_threads) <= 2


@pytest.mark.parametrize("fits, expected", [(1, 1), (2, 2), (3, 3)])
def test_rr_batch_threads_bounded_by_workspace_bytes(monkeypatch, fits, expected):
    import ledplab.attack as attack

    # with 8 usable CPUs and 13 blocks, the budget alone caps the threads;
    # one workspace answers every block on the calling thread
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one answer thread a CPU
    monkeypatch.setattr(attack, "ANSWER_BLOCK", 8)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 8)
    n, k = 4, 100
    box = GrayBox.prepare(random_bits(n, Streams(274).generator()), *mechanism_components("rr", 0.8), Streams(275))
    size = parallel.workspace_bytes(box._form.layout(24))  # 8 queries, 24 slots
    monkeypatch.setattr(attack, "WORKSPACE_BYTES", fits * size + size - 1)
    a_signs, b_signs = sample_query_signs(n, k, Streams(276))
    caller, workspaces, block_threads = threading.current_thread(), [], set()
    carve, block_sums = parallel._carve, attack._SlotForm.block_sums

    def counted_carve(buffer, layout):
        workspaces.append(threading.current_thread())
        return carve(buffer, layout)

    def traced_block_sums(self, ws, rows):
        block_threads.add(threading.current_thread())
        return block_sums(self, ws, rows)

    monkeypatch.setattr(parallel, "_carve", counted_carve)
    monkeypatch.setattr(attack._SlotForm, "block_sums", traced_block_sums)
    box.answer_outer_batch(a_signs, b_signs, Streams(277))
    assert workspaces == [caller] * expected
    assert len(block_threads) <= expected
    assert (block_threads == {caller}) == (expected == 1)


def test_rr_batch_memory_is_the_answers_payloads_and_block_temporaries(monkeypatch):
    import ledplab.attack as attack

    # a repeated call holds no array of its slots: past the answers, the
    # joined public payload and the blocks' packed parts, only what the two
    # blocks running at once make, under 128 bytes a slot of a block; an
    # array of 8-byte slot answers alone would be 4.8 MB here
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one answer thread a CPU
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    n, k = 4, 200_000
    box = GrayBox.prepare(random_bits(n, Streams(282).generator()), *mechanism_components("rr", 0.8), Streams(283))
    a_signs, b_signs = sample_query_signs(n, k, Streams(284))
    box.answer_outer_batch(a_signs, b_signs, Streams(285))  # maps the kept workspaces
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        answers = box.answer_outer_batch(a_signs, b_signs, Streams(285))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    payload = box.transcript.rounds[-1][0].payload
    assert peak <= answers.nbytes + 2 * payload.nbytes + 2 * 128 * 3 * attack.ANSWER_BLOCK


@pytest.mark.parametrize("env, expected", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "two"}, 1),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
])
def test_rr_batch_threads_share_cpus_with_blas(monkeypatch, env, expected):
    import ledplab.attack as attack

    # 4 usable CPUs over the BLAS threads: unset or malformed, BLAS takes
    # every CPU and one thread answers; OPENBLAS_NUM_THREADS wins over OMP
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(attack, "ANSWER_BLOCK", 8)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 4)
    n, k = 4, 100  # 13 blocks
    box = GrayBox.prepare(random_bits(n, Streams(278).generator()), *mechanism_components("rr", 0.8), Streams(279))
    a_signs, b_signs = sample_query_signs(n, k, Streams(280))
    caller, workspaces, carve = threading.current_thread(), [], parallel._carve

    def counted_carve(buffer, layout):
        workspaces.append(threading.current_thread())
        return carve(buffer, layout)

    monkeypatch.setattr(parallel, "_carve", counted_carve)
    box.answer_outer_batch(a_signs, b_signs, Streams(281))
    assert workspaces == [caller] * expected


def test_rr_pipeline_unbiased_over_full_reruns():
    gen = Streams(224).generator()
    n, eps = 5, 2.0
    x = random_bits(n, gen)
    q = OuterProductQuery(gen.choice((-1, 1), n), gen.choice((-1, 1), n))
    exact = outer_product_answer(x, q)
    runs = 2000
    vals = np.empty(runs)
    family, post = mechanism_components("rr", eps)
    for t in range(runs):
        box = GrayBox.prepare(x, family, post, Streams(225).child("p", t))
        vals[t] = box.answer_outer_batch(q.a, q.b, Streams(225).child("a", t))[0]
    se = vals.std(ddof=1) / math.sqrt(runs)
    assert abs(vals.mean() - exact) <= 4 * se


def test_graybox_never_reads_dataset_after_prepare():
    gen = Streams(226).generator()
    n = 5
    x = random_bits(n, gen)
    family, post = mechanism_components("rr", 1.0)
    box = GrayBox.prepare(x, family, post, Streams(227))
    ones = np.ones((1, n), np.int8)
    before = box.answer_outer_batch(ones, ones, Streams(228))
    x[:, :] = 1 - x  # corrupt the caller's copy
    after = box.answer_outer_batch(ones, ones, Streams(228))
    assert np.array_equal(before, after)


def test_secret_invocations_fixed_regardless_of_query_count():
    gen = Streams(229).generator()
    n = 3
    x = random_bits(n, gen)
    family, post = mechanism_components("rr", 1.0)
    box = GrayBox.prepare(x, family, post, Streams(230))

    def secret_invocations():
        count = {}
        for inv in box.transcript.invocations():
            if not inv.public:
                count[inv.vertex] = count.get(inv.vertex, 0) + inv.count
        return count

    baseline = secret_invocations()
    assert baseline == {v: 2 for v in range(2 * n)}
    for t in range(7):
        a_signs, b_signs = sample_query_signs(n, t + 1, Streams(231).child("queries", t))
        box.answer_outer_batch(a_signs, b_signs, Streams(231).child(t))
    a_signs, b_signs = sample_query_signs(n, 50, Streams(232))
    box.answer_outer_batch(a_signs, b_signs, Streams(233))
    assert secret_invocations() == baseline
    # every query's public refresh is on the transcript
    assert box.transcript.round_count == 2 + 7 + 1


# --- query sampling and catching ----------------------------------------------


def test_sample_queries_distribution_and_determinism():
    n, k = 4, 100000
    a1, b1 = sample_query_signs(n, k, Streams(234))
    a2, b2 = sample_query_signs(n, k, Streams(234))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert np.all(np.abs(a1.mean(axis=0)) < 0.02)
    assert np.all(np.abs(b1.mean(axis=0)) < 0.02)


def test_sample_query_signs_are_int8_with_unchanged_draws(monkeypatch):
    import ledplab.attack as attack

    n, k = 5, 3001  # k n = 15005 bits, not a whole number of words
    a, b = sample_query_signs(n, k, Streams(234))
    monkeypatch.setattr(attack, "SIGN_CHUNK", 128)  # 118 draws an array, the last partial
    a2, b2 = sample_query_signs(n, k, Streams(234))
    assert np.array_equal(a, a2) and np.array_equal(b, b2)
    assert a.dtype == np.int8 and b.dtype == np.int8
    # oracle: bit j of raw word j // 64, least significant first; a's
    # ceil(k n / 64) words, then b's; bit 1 is the sign -1
    words = -(-k * n // 64)
    raw = Streams(234).generator().bit_generator.random_raw(2 * words)
    for signs, chunk in ((a, raw[:words]), (b, raw[words:])):
        bits = [(int(w) >> s) & 1 for w in chunk for s in range(64)][: k * n]
        assert np.array_equal(signs, 1 - 2 * np.array(bits).reshape(k, n))
    # int8 signs pass validation without a copy
    assert _as_signs(a) is a


@pytest.mark.parametrize("bad", [256, 0.5])
def test_dataset_bits_rejected_before_narrowing(bad):
    # a uint8 cast would wrap 256 to 0 and truncate 0.5 to 0, so a dataset
    # of them once attacked as all zeros and reported Hamming 0
    x = np.zeros((3, 3))
    x[1, 2] = bad
    with pytest.raises(ValueError, match="dataset entries must be 0 or 1"):
        _as_bits(x)
    with pytest.raises(ValueError, match="dataset entries must be 0 or 1"):
        _as_bits([[bad, 1], [0, 0]])
    with pytest.raises(ValueError, match="dataset entries must be 0 or 1"):
        run_attack(np.full((3, 3), bad), "identity", Streams(234), k=50)
    a, b = sample_query_signs(3, 50, Streams(235))
    with pytest.raises(ValueError, match="dataset entries must be 0 or 1"):
        attacker_reconstruct(np.zeros(50), a, b, 3, x_true=x)


@pytest.mark.parametrize("bad", [256, 0.5])
def test_submatrix_query_bits_rejected_before_narrowing(bad):
    with pytest.raises(ValueError, match="query entries must be 0 or 1"):
        SubmatrixQuery(np.array([1, bad, 0]), np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="query entries must be 0 or 1"):
        SubmatrixQuery([0, 1, 1], [1, 0, bad])


@pytest.mark.parametrize(
    "bad",
    [0, 2, 257, -255, 0.5, -1.5]
    + [
        pytest.param(np.dtype(t).type(v), id=f"{t}-{v}")
        for t, v in (("int16", 257), ("int16", -255), ("uint8", 255), ("int8", 0), ("int8", -128))
    ],
)
def test_invalid_signs_rejected_before_narrowing(bad):
    # b holds signs in bad's dtype but for bad, which narrowing to int8 would
    # wrap (257 -> 1, uint8 255 -> -1) or truncate (0.5 -> 0, -1.5 -> -1)
    a = np.array([[1, -1, 1], [-1, 1, 1]])
    b = np.ones_like(a, dtype=np.asarray(bad).dtype)
    b[1, 2] = bad
    with pytest.raises(ValueError):
        OuterProductQuery(a[0], b[1])
    with pytest.raises(ValueError):
        catches(a, b, np.eye(3, dtype=int), 1.0 / 9.0)
    with pytest.raises(ValueError):
        attacker_reconstruct(np.zeros(2), a, b, 3, search="hillclimb")
    x = np.eye(3, dtype=np.uint8)
    box = GrayBox.prepare(x, *mechanism_components("identity"), Streams(236))
    with pytest.raises(ValueError):
        box.answer_outer_batch(b, a, Streams(237))


def test_default_query_count():
    assert default_query_count(8, 1.0 / 9.0) == math.ceil(128 * 64 * 81)
    assert default_query_count(3, 1.0 / 9.0) == 93312


def test_correlation_start_matches_three_operand_einsum():
    gen = Streams(239).generator()
    for k, n in ((1000, 3), (5000, 16), (41472, 8)):
        box = GrayBox.prepare(random_bits(n, gen), *mechanism_components("rr", 0.5), Streams(240).child(n))
        a, b = sample_query_signs(n, k, Streams(241).child(k))
        answers = box.answer_outer_batch(a, b, Streams(242).child(k))
        three = np.einsum("l,li,lj->ij", answers, a.astype(np.float64), b.astype(np.float64))
        two = np.einsum("li,lj->ij", answers[:, None] * a, b.astype(np.float64))
        assert np.array_equal(two, three)
        assert np.array_equal(_correlation_start(answers, a, b), (three / k > 0.5).astype(np.uint8))


def fraction_start(answers, a, b):
    """The correlation start's decision in exact rational arithmetic."""
    k, n = a.shape
    fractions = [Fraction(float(v)) for v in answers]
    s = [[sum(f * int(a[l, i]) * int(b[l, j]) for l, f in enumerate(fractions)) for j in range(n)] for i in range(n)]
    return (np.array(s, dtype=object) > Fraction(k, 2)).astype(np.uint8)


def test_correlation_start_settles_ties_exactly(monkeypatch):
    # S_00 = 2^60 + 2 - 2^60 = k/2 exactly; float sums lose the 2 beside 2^60,
    # so one ulp of the 2 either way is decided by the exact re-sum alone
    a = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=np.int8)
    b = np.array([[1, 1], [1, 1], [1, 1], [1, -1]], dtype=np.int8)
    fsums = []
    monkeypatch.setattr(math, "fsum", lambda xs, fsum=math.fsum: fsums.append(1) or fsum(xs))
    for two, want in ((2.0, 0), (math.nextafter(2.0, 3.0), 1), (math.nextafter(2.0, 1.0), 0)):
        answers = np.array([2.0**60, two, -(2.0**60), 0.0])
        before = len(fsums)
        y = _correlation_start(answers, a, b)
        assert len(fsums) > before
        assert y[0, 0] == want
        assert np.array_equal(y, fraction_start(answers, a, b))


def test_correlation_start_matches_fraction_oracle():
    gen = Streams(262).generator()
    for trial in range(30):
        k, n = int(gen.integers(1, 60)), int(gen.integers(1, 4))
        a, b = sample_query_signs(n, k, Streams(263).child(trial))
        # answers follow a_0 b_0, so S_00 sits near k/2 and often on it
        answers = gen.integers(0, 3, size=k) / 2.0 * a[:, 0] * b[:, 0]
        if trial % 3 == 1:
            answers += gen.normal(0.0, 1e-3, size=k)
        if trial % 3 == 2 and k > 2:
            # rows 0 and k-1 cancel in every entry, but float sums taken
            # between them lose the small terms and round across k/2
            a[-1], b[-1] = a[0], b[0]
            answers[0], answers[-1] = 2.0**60, -(2.0**60)
        assert np.array_equal(_correlation_start(answers, a, b), fraction_start(answers, a, b))


def test_correlation_start_independent_of_block(monkeypatch):
    import ledplab.attack as attack

    n, k = 5, 9000
    a, b = sample_query_signs(n, k, Streams(264))
    # S_00 = k/2 exactly: k/2 terms of 1, and on rows 3 and 6 a +-2^60 pair
    # that cancels in every entry but swallows small terms in a float sum
    a[6], b[6] = a[3], b[3]
    c = (np.arange(k) < k // 2 + 2).astype(np.float64)
    c[3], c[6] = 2.0**60, -(2.0**60)
    tie = c * a[:, 0] * b[:, 0]
    up, down = tie.copy(), tie.copy()
    up[0], down[0] = np.nextafter(tie[0], 2 * tie[0]), np.nextafter(tie[0], 0.0)
    cases = [tie, up, down, Streams(265).generator().normal(0.5, 40.0, size=k)]
    want = [_correlation_start(answers, a, b).tobytes() for answers in cases]
    for block in (1, 5, 4096):
        monkeypatch.setattr(attack, "QUERY_BLOCK", block)
        ys = [_correlation_start(answers, a, b) for answers in cases]
        assert [y.tobytes() for y in ys] == want
        assert [int(y[0, 0]) for y in ys[:3]] == [0, 1, 0]


def test_sign_products_independent_of_block(monkeypatch):
    import ledplab.attack as attack

    gen = Streams(266).generator()
    n, k, gamma = 6, 9000, 1.0 / 9.0
    x = random_bits(n, gen)
    m = gen.integers(-1, 2, size=(n, n))
    box = GrayBox.prepare(x, *mechanism_components("identity"), Streams(267))
    a, b = sample_query_signs(n, k, Streams(268))

    def unblocked(matrix):
        return np.einsum("li,li->l", a.astype(np.float64) @ matrix.astype(np.float64), b)

    separated = np.count_nonzero(np.abs(unblocked(m)) > math.sqrt(gamma) * n / 2.0)
    for block in (1, 7, 1 << 12):
        monkeypatch.setattr(attack, "QUERY_BLOCK", block)
        assert np.array_equal(box.answer_outer_batch(a, b, Streams(269)), unblocked(x))
        assert np.array_equal(attack._bilinear(a, m.astype(np.float64), b), unblocked(m))
        assert catches(a, b, m, gamma) == (separated > catch_threshold(k, gamma))


@pytest.mark.parametrize("total", [2**24 - 1, 2**24, 2**24 + 1])
def test_bilinear_matches_fraction_oracle_at_float32_switch(total):
    # sum |m| = total: float32 products below 2^24, float64 from it; in
    # float32 the all-ones query's 2^24 + 1 would round to 2^24
    import ledplab.attack as attack

    m = np.array([[2**23 + 1, 2**22 + 3], [2**22 - 5, total - 2**24 + 1]], dtype=np.float64)
    assert np.abs(m).sum() == total
    a, b = sample_query_signs(2, 64, Streams(302))
    a[0] = b[0] = 1
    want = [sum(Fraction(int(a[l, i]) * int(b[l, j])) * Fraction(m[i, j]) for i in range(2) for j in range(2))
            for l in range(64)]
    got = attack._bilinear(a, m, b)
    assert got[0] == total
    assert [Fraction(v) for v in got] == want


@pytest.mark.parametrize(
    "bad",
    [
        [[0.5, 1.9, 0], [0, 0, 0], [0, 0, -1.7]],
        [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[2, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, -2, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, np.iinfo(np.int64).max]],
        [[np.iinfo(np.int64).min, 0, 0], [0, 0, 0], [0, 0, 0]],
        np.full((3, 3), np.iinfo(np.uint64).max, dtype=np.uint64),
        [[math.nan, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[math.inf, 0, 0], [0, 0, 0], [0, 0, 0]],
    ],
)
def test_catches_rejects_bad_differences(bad):
    a, b = sample_query_signs(3, 100, Streams(270))
    with pytest.raises(ValueError):
        catches(a, b, bad, 1.0 / 9.0)


def test_catches_zero_difference_never():
    a, b = sample_query_signs(5, 2000, Streams(236))
    assert not catches(a, b, np.zeros((5, 5), dtype=int), 1.0 / 9.0)


def test_catches_exhaustive_two_by_two():
    # all 16 sign pairs as the query set, difference matrix all ones
    pairs = list(product((-1, 1), repeat=2))
    a = np.array([p for p in pairs for _ in range(4)])
    b = np.array([q for _ in range(4) for q in pairs])
    assert a.shape == (16, 2)
    m = np.ones((2, 2), dtype=int)
    # 4 of 16 products exceed sqrt(1)*2/2 = 1; threshold is 16/32
    assert catches(a, b, m, 1.0)


def test_catches_random_differences_caught_overwhelmingly():
    n, gamma = 8, 1.0 / 9.0
    k = default_query_count(n, gamma)
    gen = Streams(237).generator()
    caught = 0
    reps = 100
    for rep in range(reps):
        m_count = int(gen.integers(math.ceil(gamma * n * n), n * n + 1))
        flat = np.zeros(n * n, dtype=np.int64)
        support = gen.choice(n * n, size=m_count, replace=False)
        flat[support] = gen.choice((-1, 1), size=m_count)
        a, b = sample_query_signs(n, k, Streams(238).child(rep))
        if catches(a, b, flat.reshape(n, n), gamma):
            caught += 1
    assert caught >= 0.99 * reps


# --- reconstruction -------------------------------------------------------------


def test_exhaustive_reconstruction_recovers_exactly():
    gen = Streams(239).generator()
    n = 3
    for trial in range(5):
        x = random_bits(n, gen)
        k = default_query_count(n)
        a, b = sample_query_signs(n, k, Streams(240).child(trial))
        answers = exact_outer_answers(x, a, b)
        report = attacker_reconstruct(answers, a, b, n, search="exhaustive", x_true=x)
        assert report.feasible
        assert report.hamming == 0
        assert report.inaccurate_count == 0


def test_exhaustive_reconstruction_n4_with_reduced_queries():
    gen = Streams(241).generator()
    n, gamma, k = 4, 1.0 / 9.0, 8192
    for trial in range(3):
        x = random_bits(n, gen)
        a, b = sample_query_signs(n, k, Streams(242).child(trial))
        answers = exact_outer_answers(x, a, b)
        report = attacker_reconstruct(answers, a, b, n, gamma=gamma, search="exhaustive", x_true=x)
        assert report.feasible
        assert report.best_hamming <= gamma * n * n


def test_hillclimb_identity_attack_succeeds():
    gen = Streams(243).generator()
    n = 8
    x = random_bits(n, gen)
    report = run_attack(x, "identity", Streams(244), search="hillclimb", k=80000)
    assert report.feasible
    assert report.hamming <= math.ceil(report.gamma * n * n)
    assert report.charge.epsilon == math.inf


def test_hillclimb_keeps_an_exact_start_under_gaussian_noise():
    # exact answers plus Gaussian noise of SD 3cn at the paper's k: no
    # dataset is feasible, but the correlation start is the secret at every
    # seed, so the search must end near it, not at a dataset that only wins
    # on an inaccurate count that carries no signal
    n, c = 8, 3
    k = default_query_count(n)
    assert k == 663552
    for trial in range(4):
        gen = Streams(78).child(n, c, trial).generator()
        x = random_bits(n, gen)
        a, b = sample_query_signs(n, k, Streams(77).child(n, trial))
        answers = exact_outer_answers(x, a, b) + 3 * c * n * gen.standard_normal(k)
        assert np.array_equal(_correlation_start(answers, a, b), x)
        report = attacker_reconstruct(answers, a, b, n, search="hillclimb", x_true=x)
        assert report.best_hamming <= n * n // 8


def test_reconstruction_fails_on_noise_answers():
    gen = Streams(245).generator()
    n, k = 8, 20000
    hammings = []
    for trial in range(20):
        x = random_bits(n, gen)
        a, b = sample_query_signs(n, k, Streams(246).child(trial))
        noise = gen.uniform(-(n * n), n * n, size=k)
        report = attacker_reconstruct(noise, a, b, n, search="hillclimb", x_true=x)
        hammings.append(report.best_hamming)
        assert report.y_star is None or report.inaccurate_count <= disagreement_budget(
            k, report.gamma
        )
    assert np.mean(hammings) >= 0.3 * n * n


@pytest.mark.parametrize("noise", [0.0, 2.0])
def test_reconstruct_peak_below_one_float_copy_of_the_signs(noise):
    # the search reads the int8 signs in blocks, so its traced peak stays
    # below one float32 (k, n) copy of a sign array; with noise no dataset
    # is feasible, so the climb sweeps
    n, k = 16, 1 << 17
    gen = Streams(289).generator()
    x = random_bits(n, gen)
    a, b = sample_query_signs(n, k, Streams(290))
    answers = exact_outer_answers(x, a, b) + noise * gen.standard_normal(k)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = attacker_reconstruct(answers, a, b, n, x_true=x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.search == "hillclimb" and report.feasible == (noise == 0.0)
    assert peak < 4 * k * n


@pytest.mark.parametrize("noise", [0.0, 2.0])
def test_reconstruct_holds_one_whole_length_float_array(noise):
    # the residuals are the one (k,) float64 array the search holds: their
    # sizes, counts and steps, and the start's magnitude, are taken
    # QUERY_BLOCK queries at a time; the rest is a few blocks of float64
    # signs
    import ledplab.attack as attack

    n, k = 8, 1 << 18
    gen = Streams(299).generator()
    x = random_bits(n, gen)
    a, b = sample_query_signs(n, k, Streams(300))
    answers = exact_outer_answers(x, a, b) + noise * gen.standard_normal(k)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = attacker_reconstruct(answers, a, b, n, x_true=x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.search == "hillclimb" and report.feasible == (noise == 0.0)
    assert peak < 8 * k + 3 * 8 * attack.QUERY_BLOCK * n


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reconstruct_rejects_non_finite_answers(bad):
    # all-NaN answers once read as accurate for every candidate:
    # feasible with no inaccurate answer at n = 5, k = 200
    n, k = 5, 200
    a, b = sample_query_signs(n, k, Streams(288))
    answers = np.zeros(k)
    answers[k // 2] = bad
    with pytest.raises(ValueError, match="finite"):
        attacker_reconstruct(answers, a, b, n)
    with pytest.raises(ValueError, match="finite"):
        attacker_reconstruct(np.full(k, bad), a, b, n)


def test_mismatched_shapes_rejected_before_any_work(monkeypatch):
    import ledplab.attack as attack

    def no_search(*args, **kwargs):
        raise AssertionError("searched before the shapes were checked")

    monkeypatch.setattr(attack, "_exhaustive_search", no_search)
    monkeypatch.setattr(attack, "_hillclimb_search", no_search)
    monkeypatch.setattr(attack, "_bilinear", no_search)
    a, b = sample_query_signs(4, 50, Streams(297))
    answers = np.zeros(50)
    x = random_bits(4, Streams(298).generator())
    boxes = [GrayBox.prepare(x, *mechanism_components(m, 1.0), Streams(299)) for m in ("identity", "rr")]
    cases = [
        ("n", lambda: attacker_reconstruct(answers, a, b, 3)),
        ("b_signs", lambda: attacker_reconstruct(answers, a, b[:, :3], 4)),
        ("b_signs", lambda: attacker_reconstruct(answers, a, b[:49], 4)),
        ("answers", lambda: attacker_reconstruct(answers[:49], a, b, 4)),
        ("x_true", lambda: attacker_reconstruct(answers, a, b, 4, x_true=np.zeros((3, 3)))),
        ("m_diff", lambda: catches(a, b, np.zeros((3, 3)), 1 / 9)),
        ("m_diff", lambda: catches(a, b, np.zeros((4, 3)), 1 / 9)),
        ("b_signs", lambda: catches(a, b[:, :3], np.zeros((4, 4)), 1 / 9)),
        *[("b_signs", lambda box=box: box.answer_outer_batch(a, b[:49], Streams(300))) for box in boxes],
        *[("n", lambda box=box: box.answer_outer_batch(a[:, :3], b[:, :3], Streams(300))) for box in boxes],
    ]
    for field, call in cases:
        with pytest.raises(ValueError, match=f"^{field}: "):
            call()


def test_attack_report_json():
    gen = Streams(248).generator()
    n = 3
    x = random_bits(n, gen)
    report = run_attack(x, "identity", Streams(249), k=2000, search="exhaustive")
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["thresholds"]["accuracy"] == accuracy_threshold(n, report.gamma)
    assert parsed["thresholds"]["disagreement_budget"] == disagreement_budget(2000, report.gamma)
    assert parsed["thresholds"]["catch"] == catch_threshold(2000, report.gamma)
    assert parsed["feasible"] is True


def test_run_attack_deterministic():
    gen = Streams(250).generator()
    x = random_bits(4, gen)
    r1 = run_attack(x, "rr", Streams(251), epsilon=1.0, k=3000, search="hillclimb")
    r2 = run_attack(x, "rr", Streams(251), epsilon=1.0, k=3000, search="hillclimb")
    assert r1.to_dict() == r2.to_dict()
    assert r1.charge == PrivacyParams(2.0, 0.0)


def test_privacy_diagnostic_identity_flags_sentinel():
    report = privacy_distance_diagnostic(
        "identity", 3, 20, Streams(252), k=2000, search="exhaustive"
    )
    assert not report["bound_applies"]
    assert math.isinf(report["epsilon_charged"])
    assert report["bound"] == 0.0
    assert report["mean_hamming"] <= 1.0  # exact answers reconstruct every trial


def test_privacy_diagnostic_rr_respects_bound():
    n = 4
    report = privacy_distance_diagnostic(
        "rr", n, 20, Streams(253), epsilon=0.05, k=4000, search="hillclimb"
    )
    assert report["bound_applies"]
    assert report["epsilon_charged"] == pytest.approx(0.1)
    bound = math.exp(-0.1) * 0.5 * n * n
    assert report["bound"] == pytest.approx(bound)
    assert report["mean_hamming"] >= bound - 4 * report["se_hamming"]
    with pytest.raises(ValueError):
        privacy_distance_diagnostic("rr", 4, 5, Streams(254), epsilon=0.05)
