import numpy as np
import pytest

from ledplab.rng import STREAM_LAYOUT, Streams


def test_stream_layout_version():
    assert STREAM_LAYOUT == 5


@pytest.mark.parametrize("skip", [0, 1, 37, 2**33 + 5])
def test_generator_skip_matches_long_draw(skip):
    node = Streams(5).child("skip", 3)
    # a long draw is only feasible for small skips; beyond that, skipping
    # in two steps must land on the same word
    base = skip if skip < 1000 else skip - 5
    head = skip - base
    doubles = node.generator(base).random(head + 9)[head:]
    raw = node.generator(base).bit_generator.random_raw(head + 9)[head:]
    assert np.array_equal(node.generator(skip).random(9), doubles)
    assert np.array_equal(node.generator(skip).bit_generator.random_raw(9), raw)
    if skip < 1000:
        assert np.array_equal(node.generator().random(skip + 9)[skip:], doubles)
        assert np.array_equal(node.generator().bit_generator.random_raw(skip + 9)[skip:], raw)


def test_generator_is_the_nodes_seed_sequence_stream():
    node = Streams(5).child("skip", 3)
    node.generator()  # a second call replays the node's cached seed words
    expect = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5, spawn_key=node.path)))
    assert np.array_equal(node.generator().random(9), expect.random(9))


def test_generator_rejects_negative_skip():
    with pytest.raises(ValueError, match="-1"):
        Streams(5).generator(-1)
