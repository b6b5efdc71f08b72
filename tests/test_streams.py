import numpy as np
import pytest
from numpy.random import Generator, Philox

from youngspec.streams import substream


def test_substream_reproducible():
    a = substream(42, 3).standard_normal(8)
    b = substream(42, 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_substreams_distinct_across_indices_and_seeds():
    base = substream(42, 0).standard_normal(8)
    assert not np.array_equal(base, substream(42, 1).standard_normal(8))
    assert not np.array_equal(base, substream(43, 0).standard_normal(8))


def test_substream_rejects_negative():
    with pytest.raises(ValueError):
        substream(-1, 0)
    with pytest.raises(ValueError):
        substream(1, -2)


def test_substream_keys_philox_with_the_pair_as_given():
    # the largest key still runs; one past it is refused, where it used to be masked to 0
    top = (1 << 64) - 1
    want = Generator(Philox(key=np.array([top, top], dtype=np.uint64))).standard_normal(4)
    assert np.array_equal(substream(top, top).standard_normal(4), want)
    with pytest.raises(ValueError, match="seed 18446744073709551616 is outside"):
        substream(1 << 64, 0)
    with pytest.raises(ValueError, match="substream index 18446744073709551617 is outside"):
        substream(0, (1 << 64) + 1)
