"""Local-model execution substrate.

Vertices release information only through local randomizers; a
Transcript records every released payload together with the privacy
parameters charged, and a ledger derives per-bit and global (epsilon,
delta) totals by plain composition arithmetic.

Vertex v releases only its run, the bits of pairs (v, j) for v < j < end,
so one round of `release_runs` charges each potential edge once.
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
    "randomized_response",
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


def randomized_response(bits: np.ndarray, epsilon: float, gen: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability 1/(e^eps + 1)."""
    bits = np.asarray(bits, dtype=np.uint8)
    out = np.empty((1, bits.size), dtype=np.uint8)
    return randomized_rows(bits.ravel(), epsilon, [gen], out).reshape(bits.shape)


# Bytes of the double buffer randomized_rows draws through.
DRAW_BYTES = 1 << 20


def randomized_rows(bits: np.ndarray, epsilon: float, gens, out: np.ndarray) -> np.ndarray:
    """Fill the (rows, len(bits)) uint8 array out with randomized-response
    copies of bits, row r flipped by the next len(bits) doubles of the r-th
    generator of gens, drawn through one reused buffer of at most
    DRAW_BYTES (or one row, if longer)."""
    p_flip = flip_probability(epsilon)
    gens = iter(gens)
    rows, width = out.shape
    step = max(1, DRAW_BYTES // (8 * max(width, 1)))
    draw = np.empty((min(step, rows), width))
    for lo in range(0, rows, step):
        chunk = draw[: min(step, rows - lo)]
        for row, gen in zip(chunk, gens):
            gen.random(out=row)
        np.less(chunk, p_flip, out=out[lo : lo + len(chunk)])
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

    def release(self, bits: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return randomized_response(bits, self.epsilon, gen)


class IdentityRelease:
    """Releases input bits verbatim. Not private; ledger charge is the
    infinity sentinel."""

    name = "identity"

    def __init__(self):
        self.params = PrivacyParams(math.inf, 0.0)

    def release(self, bits: np.ndarray, gen: np.random.Generator) -> np.ndarray:
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


def release_runs(randomizer, rows: np.ndarray, gen: np.random.Generator, first: int = 0, public: bool = False):
    """One round in which vertex v = first + i releases its run of rows[i],
    the bits of pairs (v, j) for v < j < rows.shape[1], all drawn from gen in
    vertex order. Returns the round's outputs and a zero array the shape of
    rows holding each released run in place."""
    end = rows.shape[1]
    released = np.zeros(rows.shape, dtype=np.uint8)
    outputs = []
    for v, row in enumerate(rows, start=first):
        payload = randomizer.release(row[v + 1 :], gen)
        released[v - first, v + 1 :] = payload
        outputs.append(RandomizerOutput(v, randomizer.name, randomizer.params, payload, end, public))
    return outputs, released
