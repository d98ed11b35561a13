"""Linear algebra helper checks."""

import numpy as np
import pytest

from nlv.errors import ValidationError
from nlv.linalg import as_complex, dagger, frobenius, ginibre, psd_sqrt, random_unitary
from nlv.rng import generator


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for _ in range(30):
        dim = int(rng.integers(1, 9))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        p = g @ g.conj().T
        root = psd_sqrt(p)
        assert np.allclose(root @ root, p, atol=1e-8 * max(1.0, np.max(np.abs(p))))
        assert np.allclose(root, dagger(root), atol=1e-10)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValidationError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_random_unitary_is_unitary_and_seeded():
    u1 = random_unitary(6, generator(42))
    u2 = random_unitary(6, generator(42))
    assert np.array_equal(u1, u2)
    assert np.allclose(dagger(u1) @ u1, np.eye(6), atol=1e-12)


@pytest.mark.parametrize("m, d", [(1, 1), (4, 3), (3, 5)])
def test_stacked_ginibre_is_the_sequential_draws(m, d):
    stacked = ginibre((m, d, d), generator(17))
    rng = generator(17)
    assert np.array_equal(stacked, np.array([ginibre((d, d), rng) for _ in range(m)]))


def test_frobenius():
    assert frobenius(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_as_complex_rejects_non_finite_entries():
    for bad in ([1.0, np.nan], [[1.0, 0.0], [0.0, np.inf]], [complex(0.0, np.nan)]):
        with pytest.raises(ValidationError, match="non-finite"):
            as_complex(bad)
    # Strided views are checked too, not only contiguous buffers.
    with pytest.raises(ValidationError, match="non-finite"):
        as_complex(np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=complex)[:, 0])
