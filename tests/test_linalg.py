"""Linear algebra helper checks."""

import numpy as np
import pytest

from nlv.errors import ValidationError
from nlv.linalg import as_complex, dagger, frobenius, ginibre, psd_sqrt, random_unitary
from nlv.moments import random_contractions
from nlv.rng import generator
from nlv.seesaw import random_block_families
from test_moments import reference_contractions


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
    u1 = random_unitary((6, 6), [generator(42)])[0]
    u2 = random_unitary((6, 6), [generator(42)])[0]
    assert np.array_equal(u1, u2)
    assert np.allclose(dagger(u1) @ u1, np.eye(6), atol=1e-12)


def per_matrix_unitaries(m, d, rng):
    """m Haar unitaries, one Ginibre draw and one QR each, R's diagonal
    phases folded into Q."""
    out = []
    for _ in range(m):
        q, r = np.linalg.qr(ginibre((d, d), rng))
        phases = np.diagonal(r)
        out.append(q * (phases / np.abs(phases)))
    return np.array(out)


def looped_block_families(k, n, d, rng):
    """k block PVMs, each from its own unitary draw with one product per
    column block."""
    def block_projectors(u):
        return np.array([cols @ dagger(cols) for cols in np.array_split(u, n, axis=1)])
    return np.array([block_projectors(random_unitary((d, d), [rng])[0]) for _ in range(k)])


def restart_rngs(count):
    return [generator(17, stream=r) for r in range(count)]


# Each stacked draw beside its per-item reference; both get the same
# arguments and a fresh generator(17).
STACKED_DRAWS = {
    "ginibre": (lambda m, d, rng: ginibre((m, d, d), rng),
                lambda m, d, rng: np.array([ginibre((d, d), rng) for _ in range(m)])),
    "unitary": (lambda m, d, rng: random_unitary((m, d, d), [rng])[0], per_matrix_unitaries),
    "blocks": (lambda k, n, d, rng: random_block_families(k, n, d, [rng])[0],
               looped_block_families),
    # A chunk's starts, one row per restart generator, against one draw each.
    "starts": (lambda r, k, n, d, rng: random_block_families(k, n, d, restart_rngs(r)),
               lambda r, k, n, d, rng: np.array([random_block_families(k, n, d, [one])[0]
                                                 for one in restart_rngs(r)])),
    "contractions": (lambda c, n, p, rng: random_contractions((c, n, p, p), rng),
                     lambda c, n, p, rng: np.array([reference_contractions(n, p, rng)
                                                    for _ in range(c)])),
}


@pytest.mark.parametrize("draw, args", [
    pytest.param(draw, args, id="-".join(map(str, (draw,) + args)))
    for draw, args in [("ginibre", (1, 1)), ("ginibre", (4, 3)), ("ginibre", (3, 5)),
                       ("unitary", (1, 1)), ("unitary", (4, 3)), ("unitary", (3, 5)),
                       ("blocks", (1, 2, 1)), ("blocks", (3, 3, 2)), ("blocks", (2, 5, 3)),
                       ("blocks", (4, 2, 5)), ("blocks", (2, 3, 7)),
                       ("starts", (1, 1, 2, 1)), ("starts", (3, 2, 3, 2)),
                       ("starts", (4, 4, 2, 3)), ("starts", (2, 3, 3, 5)),
                       ("contractions", (1, 1, 1)), ("contractions", (3, 2, 4)),
                       ("contractions", (5, 1, 3))]])
def test_stacked_draw_is_the_per_item_draws(draw, args):
    stacked, per_item = STACKED_DRAWS[draw]
    assert np.array_equal(stacked(*args, generator(17)), per_item(*args, generator(17)))


def test_frobenius():
    assert frobenius(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_as_complex_rejects_non_finite_entries():
    for bad in ([1.0, np.nan], [[1.0, 0.0], [0.0, np.inf]], [complex(0.0, np.nan)]):
        with pytest.raises(ValidationError, match="non-finite"):
            as_complex(bad)
    # Strided views are checked too, not only contiguous buffers.
    with pytest.raises(ValidationError, match="non-finite"):
        as_complex(np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=complex)[:, 0])
