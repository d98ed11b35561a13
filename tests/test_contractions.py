"""The einsum contractions against explicit-loop references.

The references are the loop forms of the correlation tensors and the game
operator.  Sums run in a different order, so agreement is required within
1e-12: complex128 rounding of traces at local dimension <= 4 stays orders of
magnitude below that.
"""

import numpy as np
import pytest

from nlv.game import payoff, random_game
from nlv.linalg import dagger, identity
from nlv.quantum import (COMMUTING, TENSOR, QuantumStrategySpec, _game_operator,
                         quantum_correlation, random_block_families)
from nlv.rng import generator
from nlv.synchronous import TracialPVMFamily, tracial_correlation

TOL = 1e-12
SHAPES = [(1, 2, 1, 3), (2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 4), (3, 3, 4, 3)]


def ref_quantum_correlation(spec):
    k, n = spec.k, spec.n
    p = np.zeros((k, k, n, n))
    if spec.flavor == TENSOR:
        psi = spec.state.reshape(spec.dims)
        for x in range(k):
            for y in range(k):
                for a in range(n):
                    for b in range(n):
                        window = psi @ spec.bob[y, b].T @ dagger(psi)
                        p[x, y, a, b] = np.trace(spec.alice[x, a] @ window).real
    else:
        vec = spec.state
        for x in range(k):
            for y in range(k):
                for a in range(n):
                    for b in range(n):
                        left = dagger(spec.alice[x, a]) @ vec
                        p[x, y, a, b] = np.vdot(left, spec.bob[y, b] @ vec).real
    return p


def ref_tracial_correlation(family):
    k, n, d = family.k, family.n, family.d
    p = np.zeros((k, k, n, n))
    for x in range(k):
        for y in range(k):
            for a in range(n):
                for b in range(n):
                    prod = family.families[x, a] @ family.families[y, b]
                    p[x, y, a, b] = np.trace(prod).real / d
    return p


def ref_game_operator(game, alice, bob):
    dim = alice.shape[-1] * bob.shape[-1]
    op = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(game.k):
        for y in range(game.k):
            for a in range(game.n):
                for b in range(game.n):
                    weight = game.pi[x, y] * game.wins[x, y, a, b]
                    op += weight * np.kron(alice[x, a], bob[y, b])
    return op


def random_state(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def lift(families, left, right):
    """Families acting on the middle factor of eye(left) kron . kron eye(right)."""
    return np.array([[np.kron(np.kron(identity(left), m), identity(right)) for m in fam]
                     for fam in families])


@pytest.mark.parametrize("k, n, d_a, d_b", SHAPES)
def test_tensor_correlation_matches_loops(k, n, d_a, d_b):
    rng = generator(100 * k + 10 * n + d_a, stream=d_b)
    spec = QuantumStrategySpec(
        flavor=TENSOR, state=random_state(d_a * d_b, rng),
        alice=random_block_families(k, n, d_a, rng), bob=random_block_families(k, n, d_b, rng))
    assert np.max(np.abs(quantum_correlation(spec).p - ref_quantum_correlation(spec))) <= TOL


@pytest.mark.parametrize("k, n, d_a, d_b", SHAPES[:4])
def test_commuting_correlation_matches_loops(k, n, d_a, d_b):
    rng = generator(7 * k + n, stream=d_a * d_b)
    spec = QuantumStrategySpec(
        flavor=COMMUTING, state=random_state(d_a * d_b, rng),
        alice=lift(random_block_families(k, n, d_a, rng), 1, d_b),
        bob=lift(random_block_families(k, n, d_b, rng), d_a, 1))
    assert np.max(np.abs(quantum_correlation(spec).p - ref_quantum_correlation(spec))) <= TOL


@pytest.mark.parametrize("k, n, d", [(1, 2, 1), (2, 2, 3), (3, 3, 2), (3, 2, 4)])
def test_tracial_correlation_matches_loops(k, n, d):
    family = TracialPVMFamily(families=random_block_families(k, n, d, generator(11 * k + n + d)))
    assert np.max(np.abs(tracial_correlation(family).p
                         - ref_tracial_correlation(family))) <= TOL


@pytest.mark.parametrize("k, n, d_a, d_b", SHAPES)
def test_game_operator_matches_loops(k, n, d_a, d_b):
    rng = generator(k + n, stream=d_a + 5 * d_b)
    game = random_game(k, n, seed=d_a * d_b)
    alice = random_block_families(k, n, d_a, rng)
    bob = random_block_families(k, n, d_b, rng)
    op = _game_operator(payoff(game), alice, bob)
    assert np.max(np.abs(op - ref_game_operator(game, alice, bob))) <= TOL
