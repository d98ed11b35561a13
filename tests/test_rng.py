"""Seed derivation and stream determinism."""

import numpy as np

from nlv.rng import derive_seed, generator, uniforms

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Counter-based 64-bit generator (splitmix64), one scalar step at a
    time: the reference for the array form :func:`nlv.rng.uniforms`."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 bits of the counter output."""
        return (self.next_uint64() >> 11) * (1.0 / (1 << 53))


def looped_uniforms(seed, count):
    mixer = SplitMix64(seed)
    return np.array([mixer.uniform() for _ in range(count)])


def test_splitmix_deterministic():
    assert np.array_equal(uniforms(123, 10), uniforms(123, 10))


def test_splitmix_uniform_range():
    values = uniforms(7, 1000)
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_derive_seed_streams_differ():
    seeds = {derive_seed(5, stream) for stream in range(100)}
    assert len(seeds) == 100
    assert derive_seed(5, 3) == derive_seed(5, 3)
    assert derive_seed(5, 3) != derive_seed(6, 3)


def test_generator_reproducible():
    a = generator(9, stream=2).standard_normal(8)
    b = generator(9, stream=2).standard_normal(8)
    assert np.array_equal(a, b)
    c = generator(9, stream=3).standard_normal(8)
    assert not np.array_equal(a, c)


def test_counter_offset_key_continues_the_draw():
    # Output i of the counter keyed by s + start * gamma is output
    # start + i keyed by s, so chunked draws concatenate to one draw.
    gamma = 0x9E3779B97F4A7C15
    for seed in (0, -7, 2 ** 64 - 1, 12345):
        whole = uniforms(seed, 1000)
        parts = [uniforms((seed + start * gamma) & _MASK64, size)
                 for start, size in ((0, 1), (1, 333), (334, 666))]
        assert np.array_equal(np.concatenate(parts), whole)


def test_uniforms_start_walks_one_stream_in_chunks():
    for seed in (0, -7, 2 ** 64 - 1, 12345):
        whole = uniforms(seed, 1000)
        parts = [uniforms(seed, size, start) for start, size in ((0, 1), (1, 333), (334, 666))]
        assert np.array_equal(np.concatenate(parts), whole)
