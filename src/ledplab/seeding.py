"""PCG64 seeding from a stream node's state words, generated once.

`ledplab.rng` imports this module on first use, not at import: importing
numpy.random takes ~14 ms.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class SeedWords(ISeedSequence):
    """The SeedSequence state of (seed, path), handed to each PCG64 built
    for the node, so the hashing runs once a node, not once a generator."""

    def __init__(self, seed: int, path: tuple):
        self.words = np.random.SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"PCG64 seeds from 4 uint64 words, asked for {n_words} {dtype}")
        return self.words
