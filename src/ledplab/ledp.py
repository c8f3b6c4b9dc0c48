"""Local-model execution substrate.

Vertices release information only through local randomizers; a
Transcript records every released payload together with the privacy
parameters charged, and a ledger derives per-bit and global (epsilon,
delta) totals by plain composition arithmetic.

Two invocation modes exist: "upper" releases only the bits for pairs
(v, j) with j > v, so one round charges each potential edge once;
"full" releases the whole adjacency row, charging shared bits at both
endpoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ledplab.graphs import Graph
from ledplab.rng import Streams

__all__ = [
    "PrivacyParams",
    "RandomizerOutput",
    "Transcript",
    "RandomizedResponse",
    "IdentityRelease",
    "flip_probability",
    "randomized_response",
    "randomized_rows",
    "run_noninteractive",
    "compose_ledger",
    "assemble_upper",
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

    `covered` lists the unordered pairs whose input bits the released
    payload depends on; the ledger charges this invocation against
    exactly those bits. `public` marks invocations whose inputs hold no
    secret data (their release is post-processing and charges nothing).
    `count` lets one record stand for a block of identical-shape
    invocations of the same vertex on public data.
    """

    vertex: int
    randomizer: str
    params: PrivacyParams
    payload: np.ndarray
    covered: tuple = ()
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

    def per_bit_ledger(self) -> dict[tuple[int, int], PrivacyParams]:
        totals: dict[tuple[int, int], list[float]] = {}
        for out in self.invocations():
            if out.public:
                continue
            for pair in out.covered:
                key = (min(pair), max(pair))
                acc = totals.setdefault(key, [0.0, 0.0])
                acc[0] += out.params.epsilon
                acc[1] += out.params.delta
        return {k: PrivacyParams(v[0], v[1]) for k, v in totals.items()}

    def ledger(self) -> PrivacyParams:
        """Global charge: the worst per-bit composition total."""
        per_bit = self.per_bit_ledger()
        if not per_bit:
            return PrivacyParams(0.0, 0.0)
        return PrivacyParams(
            max(p.epsilon for p in per_bit.values()),
            max(p.delta for p in per_bit.values()),
        )

    def dump(self) -> dict:
        """JSON-ready dump: one row per invocation plus the ledger summary."""
        rows = []
        for r, rnd in enumerate(self.rounds):
            for out in rnd:
                rows.append(
                    {
                        "round": r,
                        "vertex": int(out.vertex),
                        "randomizer": out.randomizer,
                        "epsilon": out.params.epsilon,
                        "delta": out.params.delta,
                        "payload_hex": np.packbits(out.payload.astype(np.uint8)).tobytes().hex(),
                    }
                )
        total = self.ledger()
        return {
            "invocations": rows,
            "ledger": {"epsilon_total": total.epsilon, "delta_total": total.delta},
        }

    def dumps(self) -> str:
        return json.dumps(self.dump(), sort_keys=True, separators=(",", ":"))


def _row_bits(g: Graph, v: int, mode: str) -> np.ndarray:
    if mode == "upper":
        return g.adjacency[v, v + 1 :]
    if mode == "full":
        return g.adjacency[v]
    raise ValueError(f"mode must be 'upper' or 'full', got {mode!r}")


def _covered_pairs(n: int, v: int, mode: str) -> tuple:
    if mode == "upper":
        return tuple((v, j) for j in range(v + 1, n))
    return tuple((v, j) for j in range(n) if j != v)


def run_noninteractive(
    g: Graph,
    randomizer,
    postprocess: Callable[[dict[int, np.ndarray]], object],
    streams: Streams,
    mode: str = "upper",
):
    """One round of per-vertex randomizer invocations, then postprocessing.

    Every vertex's randomizer runs exactly once on that vertex's
    adjacency bits (sliced per `mode`), in vertex order, each on its own
    derived stream. Returns (postprocess result, one-round Transcript).
    """
    outputs = []
    released: dict[int, np.ndarray] = {}
    for v in range(g.n):
        gen = streams.child(v).generator()
        payload = randomizer.release(_row_bits(g, v, mode), gen)
        released[v] = payload
        outputs.append(
            RandomizerOutput(
                vertex=v,
                randomizer=randomizer.name,
                params=randomizer.params,
                payload=payload,
                covered=_covered_pairs(g.n, v, mode),
            )
        )
    transcript = Transcript()
    transcript.append_round(outputs)
    return postprocess(released), transcript


def assemble_upper(released: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Rebuild the symmetric released-bit matrix from upper-triangle payloads."""
    m = np.zeros((n, n), dtype=np.uint8)
    for v, payload in released.items():
        m[v, v + 1 :] = payload
    return m | m.T
