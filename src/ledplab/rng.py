"""Deterministic random-stream derivation.

All randomness in the package flows from a single master seed through a
tree of named child streams. Two runs with the same seed and the same
stream paths produce identical draws regardless of execution order or
worker count.

Stream layout 3 (STREAM_LAYOUT): a Monte Carlo run draws from one node's
PCG64 stream, and trial t reads the fixed slice [t P, (t + 1) P) of its
64-bit words, for P words a trial (a double or a raw word takes one
word), through its own ``generator(skip=t * P)``. A trial's draws do not
depend on which other trials run, so slicing a run into ranges reproduces
it bit for bit. A node hashes its SeedSequence once, so deriving a
generator costs about 2 us, not 20. Layout 1 gave each trial a child node
of its own. Layout 2 sliced Monte Carlo runs and query signs this way,
but a gray box's prepared payloads, its blocks of public answer bits and
the recorded estimator run still drew from child nodes of their own;
layout 3 slices those too, and draws Monte Carlo tail signs as query
signs, so rr attack outputs, recorded estimator runs and Monte Carlo tail
rows differ from layout 2's.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["Streams", "DEFAULT_SEED", "STREAM_LAYOUT"]

# Fixed default so bare CLI runs are reproducible.
DEFAULT_SEED = 20240601

# Version of the mapping from (seed, path, trial) to draws; see the module docstring.
STREAM_LAYOUT = 3


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
        if self._words is None:
            from ledplab.seeding import SeedWords

            self._words = SeedWords(self.seed, self.path)
        bit_gen = np.random.PCG64(self._words)
        return np.random.Generator(bit_gen.advance(skip) if skip else bit_gen)

    def __repr__(self):
        return f"Streams(seed={self.seed}, path={self.path})"
