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
    Transcript,
    compose_ledger,
    flip_probability,
    randomized_response,
    release_runs,
)
from ledplab.rng import Streams


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
    gen = Streams(100).child("rr").generator()
    bits = np.zeros(10**6, dtype=np.uint8)
    out = randomized_response(bits, math.log(3), gen)
    rate = out.mean()
    assert abs(rate - 0.25) < 0.005


def test_randomized_response_marginal_within_4_se():
    # Pr[output == input] should match e^eps/(e^eps+1) for both bit values.
    n = 10**6
    for eps in (0.5, math.log(3)):
        p_keep = 1.0 - flip_probability(eps)
        se = math.sqrt(p_keep * (1 - p_keep) / n)
        for b in (0, 1):
            gen = Streams(101).child("marginal", b).generator()
            bits = np.full(n, b, dtype=np.uint8)
            out = randomized_response(bits, eps, gen)
            kept = (out == b).mean()
            assert abs(kept - p_keep) <= 4 * se


def test_randomized_response_flips_uncorrelated_across_positions():
    # Flip indicators at distinct positions should be independent.
    gen = Streams(102).generator()
    trials, width = 200000, 4
    bits = np.zeros((trials, width), dtype=np.uint8)
    out = randomized_response(bits, math.log(3), gen)
    flips = out.astype(np.float64)
    p = 0.25
    se = math.sqrt(((p * (1 - p)) ** 2) / trials) / (p * (1 - p))  # corr SE ~ 1/sqrt(N)
    corr = np.corrcoef(flips.T)
    off_diag = corr[~np.eye(width, dtype=bool)]
    assert np.all(np.abs(off_diag) <= 4 / math.sqrt(trials) + 4 * se)


def test_randomized_response_empty_and_deterministic():
    out = randomized_response(np.zeros(0, dtype=np.uint8), 1.0, Streams(5).generator())
    assert out.shape == (0,)
    a = randomized_response(np.ones(64, dtype=np.uint8), 1.0, Streams(6).generator())
    b = randomized_response(np.ones(64, dtype=np.uint8), 1.0, Streams(6).generator())
    assert np.array_equal(a, b)


def test_randomized_response_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        randomized_response(np.zeros(3, dtype=np.uint8), 0.0, Streams(7).generator())
    with pytest.raises(ValueError):
        RandomizedResponse(-1.0)


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
    gen = Streams(9).child("rounds").generator()
    rows = np.ones((6, 6), dtype=np.uint8)
    t = Transcript()
    for family, first, public in (
        (RandomizedResponse(0.3), 0, False),
        (RandomizedResponse(0.1), 2, False),
        (RandomizedResponse(5.0), 3, True),
    ):
        t.append_round(release_runs(family, rows[first:], gen, first=first, public=public)[0])
    t.append_round(release_runs(RandomizedResponse(0.2), rows[:4, :4], gen)[0])
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
    outputs, _ = release_runs(IdentityRelease(), complete_graph(3).adjacency, Streams(10).generator())
    t = Transcript()
    t.append_round(outputs)
    assert t.ledger().epsilon == math.inf


def test_transcript_records_all_released_values():
    # each payload is its vertex's contiguous run of the trial's
    # triu-ordered bits, flipped by the run's doubles of the node's stream
    n, eps = 7, 1.0
    g = erdos_renyi(n, 0.5, Streams(11).child("g").generator())
    _, t = estimate_triangles(g, eps, Streams(11))
    iu = np.triu_indices(n, k=1)
    flips = Streams(11).generator().random(len(iu[0])) < flip_probability(eps)
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
    outputs, released = release_runs(IdentityRelease(), g.adjacency, Streams(13).generator())
    assert np.array_equal(released | released.T, g.adjacency)
    for out in outputs:
        assert np.array_equal(released[out.vertex, out.vertex + 1 :], out.payload)
