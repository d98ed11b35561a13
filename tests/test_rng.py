"""Seed derivation and stream determinism."""

import numpy as np

from nlv.rng import derive_seed, generator


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
