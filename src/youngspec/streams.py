"""Deterministic, splittable random streams.

Replica substreams are keyed by (master seed, replica index) through a
counter-based Philox generator, so serial and parallel ensemble runs
draw identical numbers regardless of scheduling order. The key is the
pair as given: a seed or index outside [0, 2^64) is refused, never
reduced, so no two pairs share a stream.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["substream"]


def substream(seed: int, index: int = 0) -> Generator:
    """Independent generator for replica ``index`` under master ``seed``."""
    for name, value in (("seed", seed), ("substream index", index)):
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{name} {value} is outside [0, 2^64)")
    return Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))
