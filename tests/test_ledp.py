import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledplab.estimator import estimate_triangles
from ledplab.graphs import complete_graph, erdos_renyi
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
)
from ledplab.rng import Streams
from stream_reference import draws, reference_bits, threshold, unit_words


def test_flip_probability_values():
    assert flip_probability(math.log(3)) == pytest.approx(0.25, abs=1e-15)
    assert flip_probability(math.log(9)) == pytest.approx(0.1, abs=1e-15)
    assert abs(flip_probability(1e-6) - 0.5) < 1e-6


def test_flip_probability_rejects_nonpositive():
    with pytest.raises(ValueError):
        flip_probability(0.0)
    with pytest.raises(ValueError):
        flip_probability(-1.0)


def test_randomized_response_empirical_flip_rate():
    bits = np.zeros(10**6, dtype=np.uint8)
    out = RandomizedResponse(math.log(3)).release(bits, Streams(100).child("rr"))
    rate = out.mean()
    assert abs(rate - 0.25) < 0.005


def test_randomized_response_marginal_within_4_se():
    # Pr[output == input] should match e^eps/(e^eps+1) for both bit values.
    n = 10**6
    for eps in (0.5, math.log(3)):
        p_keep = 1.0 - flip_probability(eps)
        se = math.sqrt(p_keep * (1 - p_keep) / n)
        for b in (0, 1):
            bits = np.full(n, b, dtype=np.uint8)
            out = RandomizedResponse(eps).release(bits, Streams(101).child("marginal", b))
            kept = (out == b).mean()
            assert abs(kept - p_keep) <= 4 * se


def test_randomized_response_flips_uncorrelated_across_positions():
    # Flip indicators at distinct positions should be independent.
    trials, width = 200000, 4
    bits = np.zeros((trials, width), dtype=np.uint8)
    out = RandomizedResponse(math.log(3)).release(bits, Streams(102))
    flips = out.astype(np.float64)
    p = 0.25
    se = math.sqrt(((p * (1 - p)) ** 2) / trials) / (p * (1 - p))  # corr SE ~ 1/sqrt(N)
    corr = np.corrcoef(flips.T)
    off_diag = corr[~np.eye(width, dtype=bool)]
    assert np.all(np.abs(off_diag) <= 4 / math.sqrt(trials) + 4 * se)


def test_randomized_response_empty_and_deterministic():
    out = RandomizedResponse(1.0).release(np.zeros(0, dtype=np.uint8), Streams(5))
    assert out.shape == (0,)
    a = RandomizedResponse(1.0).release(np.ones(64, dtype=np.uint8), Streams(6))
    b = RandomizedResponse(1.0).release(np.ones(64, dtype=np.uint8), Streams(6))
    assert np.array_equal(a, b)


def test_randomized_response_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        RandomizedResponse(0.0).release(np.zeros(3, dtype=np.uint8), Streams(7))
    with pytest.raises(ValueError):
        RandomizedResponse(-1.0)


@pytest.mark.parametrize("epsilon", [0.05, 2.0])
def test_bernoulli_rows_match_53_bit_reference(epsilon):
    # 37,450 units of 28 bits (2^20 and more): every bit equals its whole
    # 53-bit draw, read through one generator; the ties' tie words decide
    # both ways
    p, width, units, first = flip_probability(epsilon), 28, 37_450, 3
    node = Streams(103).child("kernel", str(epsilon))
    out = np.empty((units, width), dtype=bool)
    bernoulli_rows(p, node.generator(first * unit_words(width)), node.child("ties"), first, out)
    assert units * width >= 1 << 20
    assert np.array_equal(out, reference_bits(p, node, first, units, width))
    h, _ = draws(node, first, units, width)
    tied = out[h == threshold(p) >> 37]
    assert 0 < np.count_nonzero(tied) < len(tied)


@pytest.mark.parametrize("width", [0, 1, 3, 4, 6, 28])
def test_bernoulli_rows_ranges_match_full_run(width, monkeypatch):
    import ledplab.ledp as ledp

    # widths of n = 1, 2, 3, 8 among them; any range of units, through one
    # generator at its first unit's words and in draw chunks of three rows,
    # equals the same rows of the full run
    p, units = flip_probability(0.3), 600
    node = Streams(105).child("ranges", width)
    words = unit_words(width)
    full = np.empty((units, width), dtype=bool)
    bernoulli_rows(p, node.generator(), node.child("ties"), 0, full)
    assert np.array_equal(full, reference_bits(p, node, 0, units, width))
    monkeypatch.setattr(ledp, "DRAW_BYTES", 3 * (8 * words + width))
    for lo, hi in ((0, 1), (5, 17), (17, 600), (599, 600), (3, 3)):
        one = np.empty((hi - lo, width), dtype=bool)
        bernoulli_rows(p, node.generator(lo * words), node.child("ties"), lo, one)
        assert np.array_equal(one, full[lo:hi])


def test_bernoulli_rows_rejects_p_above_half():
    out = np.empty((1, 4), dtype=bool)
    for p in (0.5 + 2.0**-53, 1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="p must lie"):
            bernoulli_rows(p, Streams(106).generator(), Streams(106).child("ties"), 0, out)


def test_run_noninteractive_released_bit_counts():
    # one round of the one-round protocol: vertex v releases its run (v, j > v)
    t_hat, transcript = estimate_triangles(complete_graph(3), 1.0, Streams(8))
    assert transcript.round_count == 1
    outputs = list(transcript.invocations())
    assert [out.vertex for out in outputs] == [0, 1, 2]
    assert [len(out.payload) for out in outputs] == [2, 1, 0]
    assert [out.end for out in outputs] == [3, 3, 3]


def reference_per_bit_ledger(transcript):
    """The per-bit totals by a loop over each private output's pairs."""
    totals = {}
    for out in transcript.invocations():
        if not out.public:
            for j in range(out.vertex + 1, out.end):
                acc = totals.setdefault((out.vertex, j), [0.0, 0.0])
                acc[0] += out.params.epsilon
                acc[1] += out.params.delta
    return totals


def test_run_noninteractive_ledger_totals():
    eps = 0.7
    _, t = estimate_triangles(complete_graph(3), eps, Streams(9))
    assert t.ledger() == PrivacyParams(eps, 0.0)
    per_bit = t.per_bit_ledger()
    assert per_bit.shape == (2, 3, 3)
    assert np.array_equal(per_bit[0], np.triu(np.full((3, 3), eps), k=1))
    assert not per_bit[1].any()
    # rounds of different charges and lengths, one public: each covered
    # entry is its pair's sum, in invocation order, and the rest are 0
    node = Streams(9).child("rounds")
    rows = np.ones((6, 6), dtype=np.uint8)
    t = Transcript()
    for unit, (family, first) in enumerate(((RandomizedResponse(0.3), 0), (RandomizedResponse(0.1), 2))):
        t.append_round(release_runs(family, rows, node, unit)[0][first:])
    public = RandomizedResponse(5.0)
    t.append_round([
        RandomizerOutput(v, public.name, public.params, rows[v, v + 1 :], 6, public=True) for v in range(3, 6)
    ])
    t.append_round(release_runs(RandomizedResponse(0.2), rows[:4, :4], node, 3)[0])
    per_bit = t.per_bit_ledger()
    want = reference_per_bit_ledger(t)
    for (v, j), (e, d) in want.items():
        assert per_bit[0, v, j] == e and per_bit[1, v, j] == d
    uncovered = np.ones((6, 6), dtype=bool)
    uncovered[tuple(np.array(list(want)).T)] = False
    assert not per_bit[:, uncovered].any()
    assert t.ledger() == PrivacyParams(max(e for e, _ in want.values()), 0.0)
    assert Transcript().ledger() == PrivacyParams(0.0, 0.0)


def test_identity_release_infinite_charge():
    outputs, _ = release_runs(IdentityRelease(), complete_graph(3).adjacency, Streams(10))
    t = Transcript()
    t.append_round(outputs)
    assert t.ledger().epsilon == math.inf


def test_transcript_records_all_released_values():
    # each payload is its vertex's contiguous run of the trial's
    # triu-ordered bits, flipped by the run's bits of unit 0 of the node
    n, eps = 7, 1.0
    g = erdos_renyi(n, 0.5, Streams(11).child("g").generator())
    _, t = estimate_triangles(g, eps, Streams(11))
    iu = np.triu_indices(n, k=1)
    flips = reference_bits(flip_probability(eps), Streams(11), 0, 1, len(iu[0]))[0]
    bits = g.adjacency[iu] ^ flips
    runs = np.split(bits, np.cumsum(np.arange(n - 1, 0, -1)))
    outputs = list(t.invocations())
    assert [out.vertex for out in outputs] == list(range(n))
    for out, run in zip(outputs, runs):
        assert np.array_equal(out.payload, run)


def test_transcript_dump_format():
    k3 = complete_graph(3)
    _, t = estimate_triangles(k3, 1.5, Streams(12))
    dump = t.dump()
    assert dump == {
        "invocations": [
            {
                "round": 0,
                "vertex": v,
                "randomizer": "randomized-response",
                "epsilon": 1.5,
                "delta": 0.0,
                "payload_hex": np.packbits(out.payload).tobytes().hex(),
            }
            for v, out in enumerate(t.invocations())
        ],
        "ledger": {"epsilon_total": 1.5, "delta_total": 0.0},
    }
    assert json.loads(t.dumps()) == dump  # round-trips as JSON
    assert t.dumps() == json.dumps(dump, sort_keys=True, separators=(",", ":"))


def test_compose_ledger_examples():
    p = PrivacyParams(0.3, 0.01)
    assert compose_ledger([p, p]) == PrivacyParams(0.6, 0.02)
    assert compose_ledger([]) == PrivacyParams(0.0, 0.0)
    charges = [PrivacyParams(0.1), PrivacyParams(0.2), PrivacyParams(0.3)]
    assert compose_ledger(charges).epsilon == pytest.approx(0.6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.001, 5), st.floats(0, 0.05)).map(lambda t: PrivacyParams(*t)),
        max_size=6,
    )
)
def test_compose_ledger_order_invariant(charges):
    forward = compose_ledger(charges)
    backward = compose_ledger(list(reversed(charges)))
    assert abs(forward.epsilon - backward.epsilon) < 1e-12
    assert abs(forward.delta - backward.delta) < 1e-12
    # associativity: folding in two halves agrees with one pass
    half = len(charges) // 2
    two_step = compose_ledger(
        [compose_ledger(charges[:half]), compose_ledger(charges[half:])]
    )
    assert abs(two_step.epsilon - forward.epsilon) < 1e-12


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(-0.1)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1.0)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, -0.2)
    PrivacyParams(math.inf, 0.0)  # sentinel allowed


def test_assemble_upper_round_trip():
    # identity runs reassemble to the adjacency
    g = erdos_renyi(7, 0.5, Streams(13).generator())
    outputs, released = release_runs(IdentityRelease(), g.adjacency, Streams(13))
    assert np.array_equal(released | released.T, g.adjacency)
    for out in outputs:
        assert np.array_equal(released[out.vertex, out.vertex + 1 :], out.payload)
