"""Deterministic, splittable random streams.

Replica substreams are keyed by (master seed, replica index) through a
counter-based Philox generator, so serial and parallel ensemble runs
draw identical numbers regardless of scheduling order.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["substream"]

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int = 0) -> Generator:
    """Independent generator for replica ``index`` under master ``seed``."""
    if seed < 0:
        raise ValueError(f"seed {seed} < 0")
    if index < 0:
        raise ValueError(f"substream index {index} < 0")
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return Generator(Philox(key=key))
