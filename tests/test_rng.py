"""Seed derivation and stream determinism."""

import numpy as np

from nlv.rng import SplitMix64, derive_seed, generator


def test_splitmix_deterministic():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]


def test_splitmix_uniform_range():
    mixer = SplitMix64(7)
    values = [mixer.uniform() for _ in range(1000)]
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

