"""Test-local reference for stream layout 4's randomized-response bits.

Each bit is decided from its whole 53-bit draw, read in full for every
bit, where the program reads the 37 tie bits only on a tie.
"""

import math
from fractions import Fraction

import numpy as np


def unit_words(width: int) -> int:
    """Stream words a unit of `width` bits reads: four uint16s a word."""
    return -(-width // 4)


def draws(streams, first: int, units: int, width: int):
    """(units, width) uint64 pairs (h, top 37 bits of the tie word) of units
    [first, first + units) of the node streams."""
    words = unit_words(width)
    raw = streams.generator(first * words).bit_generator.random_raw(units * words)
    h = raw.astype("<u8").view("<u2").reshape(units, 4 * words)[:, :width].astype(np.uint64)
    tie_words = streams.child("ties").generator(first * width).bit_generator.random_raw(units * width)
    return h, tie_words.reshape(units, width) >> np.uint64(27)


def threshold(p: float) -> int:
    """c = ceil(p 2^53), exactly."""
    return math.ceil(Fraction(p) * 2**53)


def reference_bits(p: float, streams, first: int, units: int, width: int) -> np.ndarray:
    """Bit i of unit u is [h 2^37 + top37(tie word u width + i) < c]."""
    h, low = draws(streams, first, units, width)
    return ((h << np.uint64(37)) | low) < np.uint64(threshold(p))


def tie_count(p: float, streams, first: int, units: int, width: int) -> int:
    """How many of the units' bits need their tie word: h = c >> 37."""
    h, _ = draws(streams, first, units, width)
    return int(np.count_nonzero(h == threshold(p) >> 37))
