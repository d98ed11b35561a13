"""Deterministic randomness utilities.

Every stochastic routine in the package draws from numpy's PCG64, seeded
from an integer seed and a substream index through a fixed splitmix-style
mix, so identical seeds give identical runs on any platform.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64's output mix of a 64-bit int."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Seed for substream ``stream`` of the run keyed by ``seed``: the
    splitmix64 counter's second output keyed by ``seed``, mixed with ``stream``."""
    return _mix((seed + 2 * _GAMMA) & _MASK64) ^ _mix((stream + 1) * _GAMMA & _MASK64)


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """numpy Generator for substream ``stream`` of the run keyed by ``seed``."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, stream)))
