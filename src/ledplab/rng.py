"""Deterministic random-stream derivation.

All randomness in the package flows from a single master seed through a
tree of named child streams. Two runs with the same seed and the same
stream paths produce identical draws regardless of execution order or
worker count.

Stream layout 5 (STREAM_LAYOUT): a Monte Carlo run draws from one node's
PCG64 stream, and unit u (a trial, a gray-box slot, a prepare round, a
random difference matrix) reads the fixed slice [u W, (u + 1) W) of its
64-bit words, for W words a unit. A block of consecutive units u, u + 1,
... reads them in turn through one generator skipped to its first,
``generator(skip=u * W)``. A unit's draws do not depend on which other
units run, so slicing a run into ranges reproduces it bit for bit. A node
hashes its SeedSequence once, so deriving a generator costs about 2 us,
not 20, and may be done on any thread.

A randomized-response unit of P bits reads W = ceil(P/4) words as P
little-endian uint16s, one a bit, and settles the bits whose uint16 ties
the threshold's top 16 bits from the node's "ties" child, word u P + i for
bit i (`ledplab.ledp.bernoulli_rows`); layout 4 brought this in.

Layout 5 moved the random difference matrices of
`ledplab.anticoncentration` onto this slicing: the matrix of n^2 entries
is a unit of W = n^2 words, each an entry's 63-bit sort key and its sign
bit, redrawn from the node's "ties" child in the rare case that two keys
repeat (`anticoncentration._draw_matrices`). Layout 4 derived one child
node a matrix and drew its support and signs by two `Generator.choice`
calls. The law of each matrix is the same, but the matrices differ, so
anticoncentration rows, the selftest's rows and the matrices that
`random_diff_matrix` draws from a given generator (the acceptance
tests' criterion 5 instances among them) differ from layout 4's.
Randomized-response bits, query signs, Monte Carlo tail signs, graphs and
datasets draw as they did in layout 4, so every other output is
unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["Streams", "DEFAULT_SEED", "STREAM_LAYOUT"]

# Fixed default so bare CLI runs are reproducible.
DEFAULT_SEED = 20240601

# Version of the mapping from (seed, path, trial) to draws; see the module docstring.
STREAM_LAYOUT = 5


def _step_to_int(step) -> int:
    if isinstance(step, (int, np.integer)):
        if step < 0:
            raise ValueError(f"stream path steps must be nonnegative, got {step}")
        return int(step)
    if isinstance(step, str):
        digest = hashlib.sha256(step.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")
    raise TypeError(f"stream path step must be int or str, got {type(step).__name__}")


class Streams:
    """A node in a deterministic tree of independent random streams.

    ``child(*steps)`` extends the path; ``generator(skip)`` yields a numpy
    Generator seeded from (master seed, path) and advanced past its first
    `skip` 64-bit words. Paths are hashed through SeedSequence, so
    distinct paths give statistically independent streams.
    """

    __slots__ = ("seed", "path", "_words")

    def __init__(self, seed: int = DEFAULT_SEED, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(_step_to_int(s) for s in path)
        self._words = None

    def child(self, *steps) -> "Streams":
        return Streams(self.seed, self.path + steps)

    def generator(self, skip: int = 0) -> np.random.Generator:
        # advance wraps modulo 2^128, so a negative skip would silently alias
        if skip < 0:
            raise ValueError(f"stream skip must be nonnegative, got {skip}")
        if self._words is None:  # two threads may both build the words; they are equal
            from ledplab.seeding import SeedWords

            self._words = SeedWords(self.seed, self.path)
        bit_gen = np.random.PCG64(self._words)
        return np.random.Generator(bit_gen.advance(skip) if skip else bit_gen)

    def __repr__(self):
        return f"Streams(seed={self.seed}, path={self.path})"
