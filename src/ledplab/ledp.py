"""Local-model execution substrate.

Vertices release information only through local randomizers; a
Transcript records every released payload together with the privacy
parameters charged, and a ledger derives per-bit and global (epsilon,
delta) totals by plain composition arithmetic.

Vertex v releases only its run, the bits of pairs (v, j) for v < j < end,
so one round of `release_runs` charges each potential edge once. Every
randomized-response bit, here, in the estimator and in the gray box, is
drawn by `bernoulli_rows` (stream layout 4, `ledplab.rng`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PrivacyParams",
    "RandomizerOutput",
    "Transcript",
    "RandomizedResponse",
    "IdentityRelease",
    "flip_probability",
    "bernoulli_rows",
    "unit_words",
    "randomized_rows",
    "release_runs",
    "compose_ledger",
]


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) pair. epsilon may be math.inf for non-private
    release; zero appears only as the empty-composition total."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0 or math.isnan(self.epsilon):
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


def compose_ledger(charges: Iterable[PrivacyParams]) -> PrivacyParams:
    """Sequential composition: charges add up coordinatewise."""
    eps = 0.0
    delta = 0.0
    for c in charges:
        eps += c.epsilon
        delta += c.delta
    return PrivacyParams(eps, delta)


def flip_probability(epsilon: float) -> float:
    """Probability that randomized response flips a bit: 1/(e^eps + 1)."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return 1.0 / (math.exp(epsilon) + 1.0)


# Bytes of raw stream words and tie mask that bernoulli_rows holds at once.
DRAW_BYTES = 1 << 20

# A unit's uint16 draw h decides its bit alone unless h equals the top
# 16 of the 53 bits of the threshold; the other 37 come from a tie word.
TIE_BITS = 37


def unit_words(bits: int) -> int:
    """Stream words a unit of `bits` randomized-response bits reads, four
    16-bit draws a word (stream layout 4)."""
    return -(-bits // 4)


def bernoulli_rows(p: float, gen, ties, first: int, out: np.ndarray) -> np.ndarray:
    """Fill the (rows, P) bool or uint8 array out with the Bernoulli(p) bits
    of units first, first + 1, ... of a node (stream layout 4, `ledplab.rng`),
    for p at most 1/2, as every flip probability is.

    Row r reads the next W = ceil(P/4) words of `gen`, a generator at unit
    first's words, as little-endian uint16s h_0 .. h_(P-1). With
    c = ceil(p 2^53) = c_hi 2^37 + c_lo, bit i is 1 iff h_i < c_hi, or
    h_i = c_hi and the top 37 bits of word (first + r) P + i of `ties`, the
    node's "ties" child, are below c_lo: exactly the 53-bit draw
    [h_i 2^37 + top37 < c] of probability c / 2^53. A tie generator is
    derived only for a chunk of rows that holds a tie; a chunk's words and
    tie mask take at most DRAW_BYTES, or one row's, if more.
    """
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p must lie in [0, 1/2], got {p}")
    rows, width = out.shape
    words = unit_words(width)
    c = math.ceil(p * 2.0**53)
    c_hi, c_lo = c >> TIE_BITS, c & ((1 << TIE_BITS) - 1)
    step = max(1, DRAW_BYTES // max(8 * words + width, 1))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        raw = gen.bit_generator.random_raw((hi - lo) * words)
        h = raw.astype("<u8", copy=False).view("<u2").reshape(hi - lo, 4 * words)[:, :width]
        chunk = out[lo:hi]
        np.less(h, c_hi, out=chunk)
        if c_lo:
            tied = np.flatnonzero(h == c_hi)  # flat: a 2-d nonzero costs more than the draw
            if len(tied):
                chunk[np.divmod(tied, width)] = _tie_bits(ties, (first + lo) * width + tied, c_lo)
    return out


def _tie_bits(ties, words: np.ndarray, c_lo: int) -> np.ndarray:
    """[top 37 bits of word w of ties < c_lo] for the ascending word indices
    words, all read through one generator."""
    bit_gen, at = ties.generator().bit_generator, 0
    raw = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words.tolist()):
        raw[i] = bit_gen.advance(w - at).random_raw()
        at = w + 1
    return (raw >> np.uint64(64 - TIE_BITS)) < c_lo


def randomized_rows(bits: np.ndarray, epsilon: float, gen, ties, first: int, out: np.ndarray) -> np.ndarray:
    """Fill the (rows, len(bits)) uint8 array out with randomized-response
    copies of bits: row r is bits XOR the Bernoulli(1/(e^eps + 1)) bits of
    unit first + r, drawn by bernoulli_rows from gen and ties."""
    bernoulli_rows(flip_probability(epsilon), gen, ties, first, out)
    out ^= bits
    return out


class RandomizedResponse:
    """epsilon-local randomizer keeping each input bit with probability
    e^eps/(e^eps + 1)."""

    name = "randomized-response"

    def __init__(self, epsilon: float):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon
        self.params = PrivacyParams(epsilon, 0.0)

    def release(self, bits: np.ndarray, streams, unit: int = 0) -> np.ndarray:
        """A randomized-response copy of bits, in C order unit `unit` of the
        node `streams` (stream layout 4, `ledplab.rng`)."""
        bits = np.asarray(bits, dtype=np.uint8)
        out = np.empty((1, bits.size), dtype=np.uint8)
        gen = streams.generator(unit * unit_words(bits.size))
        randomized_rows(bits.ravel(), self.epsilon, gen, streams.child("ties"), unit, out)
        return out.reshape(bits.shape)


class IdentityRelease:
    """Releases input bits verbatim. Not private; ledger charge is the
    infinity sentinel."""

    name = "identity"

    def __init__(self):
        self.params = PrivacyParams(math.inf, 0.0)

    def release(self, bits: np.ndarray, streams, unit: int = 0) -> np.ndarray:
        return np.asarray(bits, dtype=np.uint8).copy()


@dataclass
class RandomizerOutput:
    """One randomizer invocation: who released what, at what charge.

    The payload depends on the input bits of pairs (vertex, j) for
    vertex < j < end, and the ledger charges this invocation against
    exactly those bits. `public` marks invocations whose inputs hold no
    secret data (their release is post-processing and charges nothing).
    `count` lets one record stand for a block of identical-shape
    invocations of the same vertex on public data; such a record (count
    > 1) holds their payloads already packed, as np.packbits output.
    """

    vertex: int
    randomizer: str
    params: PrivacyParams
    payload: np.ndarray
    end: int = 0
    public: bool = False
    count: int = 1


class Transcript:
    """Ordered record of randomizer invocations with a privacy ledger."""

    def __init__(self):
        self.rounds: list[list[RandomizerOutput]] = []

    def append_round(self, outputs: Sequence[RandomizerOutput]) -> None:
        self.rounds.append(list(outputs))

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    def invocations(self):
        for rnd in self.rounds:
            yield from rnd

    def per_bit_ledger(self) -> np.ndarray:
        """Composition totals per bit, as a (2, N, N) array for N the largest
        run end: [0, v, j] sums the epsilons and [1, v, j] the deltas of
        the private invocations whose run holds pair (v, j), v < j, added
        in invocation order. Entries of no run read 0."""
        private = [out for out in self.invocations() if not out.public]
        size = max((out.end for out in private), default=0)
        totals = np.zeros((2, size, size))
        for out in private:
            totals[:, out.vertex, out.vertex + 1 : out.end] += [[out.params.epsilon], [out.params.delta]]
        return totals

    def ledger(self) -> PrivacyParams:
        """Global charge: the worst per-bit composition total."""
        eps, delta = self.per_bit_ledger()
        return PrivacyParams(float(eps.max(initial=0.0)), float(delta.max(initial=0.0)))

    def dump(self) -> dict:
        """JSON-ready dump: one row per invocation plus the ledger summary."""
        rows = []
        for r, rnd in enumerate(self.rounds):
            for out in rnd:
                packed = out.payload if out.count > 1 else np.packbits(out.payload.astype(np.uint8))
                rows.append(
                    {
                        "round": r,
                        "vertex": int(out.vertex),
                        "randomizer": out.randomizer,
                        "epsilon": out.params.epsilon,
                        "delta": out.params.delta,
                        "payload_hex": packed.tobytes().hex(),
                    }
                )
        total = self.ledger()
        return {
            "invocations": rows,
            "ledger": {"epsilon_total": total.epsilon, "delta_total": total.delta},
        }

    def dumps(self) -> str:
        return json.dumps(self.dump(), sort_keys=True, separators=(",", ":"))


def release_runs(randomizer, rows: np.ndarray, streams, unit: int = 0):
    """One round in which each vertex v releases its run of rows[v], the
    bits of pairs (v, j) for v < j < rows.shape[1]; the round's runs, in
    vertex order, are released as unit `unit` of the node `streams`.
    Returns the round's outputs and a zero array the shape of rows holding
    each released run in place."""
    end = rows.shape[1]
    runs = np.triu(np.ones(rows.shape, dtype=bool), k=1)
    released = np.zeros(rows.shape, dtype=np.uint8)
    released[runs] = randomizer.release(rows[runs], streams, unit)
    outputs = [
        RandomizerOutput(v, randomizer.name, randomizer.params, released[v, v + 1 :].copy(), end)
        for v in range(len(rows))
    ]
    return outputs, released
