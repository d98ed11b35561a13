"""Deterministic randomness utilities.

Every stochastic routine in the package draws from a generator that is
derived from a user-supplied integer seed through a fixed splitmix-style
sequence, so identical seeds give identical runs on any platform.  Gaussian
and Dirichlet variates come from numpy's PCG64 seeded with splitmix output;
where only uniforms are needed, :func:`uniforms` gives the splitmix64
counter's outputs directly, as one array.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """splitmix64's output mix of a 64-bit int, or of each entry of a
    uint64 array (array ops wrap modulo 2^64 as the masks do)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs ``start + 1`` to ``start + count`` of the splitmix64 counter
    keyed by ``seed``, each as a uniform float in [0, 1) from its top 53
    bits, so consecutive calls can walk one stream in chunks."""
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return (_mix(steps * _GAMMA + (seed & _MASK64)) >> 11) * (1.0 / (1 << 53))


def derive_seed(seed: int, stream: int) -> int:
    """Seed for substream ``stream`` of the run keyed by ``seed``: the
    counter's second output keyed by ``seed``, mixed with ``stream``."""
    return _mix((seed + 2 * _GAMMA) & _MASK64) ^ _mix((stream + 1) * _GAMMA & _MASK64)


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """numpy Generator for substream ``stream`` of the run keyed by ``seed``."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, stream)))
