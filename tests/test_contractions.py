"""The payoff-matrix and Gram products against explicit-loop references.

The references are the loop forms of the correlation tensors, the game
operator, both players' see-saw weights, and the synchronous see-saw's
weights and round score.  Sums run in a different order, so agreement is
required within 1e-12: complex128 rounding of traces at local dimension
<= 4 stays orders of magnitude below that.
"""

import numpy as np
import pytest

from nlv import synchronous
from nlv.game import correlation_values, payoff, payoff_matrix, random_game
from nlv.linalg import dagger, identity
from nlv.quantum import (COMMUTING, TENSOR, QuantumStrategySpec, _game_operator, _weights,
                         quantum_correlation)
from nlv.rng import generator
from nlv.seesaw import random_block_families, weigh
from nlv.synchronous import (SYNCHRONOUS, TracialPVMFamily, _sync_seesaw, _tracial_correlations,
                             tracial_correlation)

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
        alice=random_block_families(k, n, d_a, [rng])[0],
        bob=random_block_families(k, n, d_b, [rng])[0])
    assert np.max(np.abs(quantum_correlation(spec).p - ref_quantum_correlation(spec))) <= TOL


@pytest.mark.parametrize("k, n, d_a, d_b", SHAPES[:4])
def test_commuting_correlation_matches_loops(k, n, d_a, d_b):
    rng = generator(7 * k + n, stream=d_a * d_b)
    spec = QuantumStrategySpec(
        flavor=COMMUTING, state=random_state(d_a * d_b, rng),
        alice=lift(random_block_families(k, n, d_a, [rng])[0], 1, d_b),
        bob=lift(random_block_families(k, n, d_b, [rng])[0], d_a, 1))
    assert np.max(np.abs(quantum_correlation(spec).p - ref_quantum_correlation(spec))) <= TOL


@pytest.mark.parametrize("k, n, d", [(1, 2, 1), (2, 2, 3), (3, 3, 2), (3, 2, 4)])
def test_tracial_correlation_matches_loops(k, n, d):
    rng = generator(11 * k + n + d)
    family = TracialPVMFamily(families=random_block_families(k, n, d, [rng])[0])
    assert np.max(np.abs(tracial_correlation(family).p
                         - ref_tracial_correlation(family))) <= TOL


def ref_partial_weights(game, psi, families, player):
    """W[x, a] = sum over (y, b) of V[x, y, a, b] Tr_B[(1 kron B[y, b]) rho]
    for Alice, or W[y, b] = sum over (x, a) of V[x, y, a, b] Tr_A[(A[x, a]
    kron 1) rho] for Bob, with rho = |psi><psi|."""
    d_a, d_b = psi.shape
    rho = np.outer(psi.ravel(), psi.conj().ravel())
    size = d_a if player == "alice" else d_b
    w = np.zeros((game.k, game.n, size, size), dtype=np.complex128)
    for x in range(game.k):
        for y in range(game.k):
            for a in range(game.n):
                for b in range(game.n):
                    weight = game.pi[x, y] * game.wins[x, y, a, b]
                    if player == "alice":
                        op = np.kron(identity(d_a), families[y, b]) @ rho
                        w[x, a] += weight * np.trace(op.reshape(d_a, d_b, d_a, d_b), 0, 1, 3)
                    else:
                        op = np.kron(families[x, a], identity(d_b)) @ rho
                        w[y, b] += weight * np.trace(op.reshape(d_a, d_b, d_a, d_b), 0, 0, 2)
    return w


def game_and_families(k, n, d_a, d_b):
    rng = generator(k + n, stream=d_a + 5 * d_b)
    game = random_game(k, n, seed=d_a * d_b)
    alice = random_block_families(k, n, d_a, [rng])[0]
    bob = random_block_families(k, n, d_b, [rng])[0]
    return game, alice, bob, random_state(d_a * d_b, rng).reshape(d_a, d_b)


@pytest.mark.parametrize("k, n, d_a, d_b", SHAPES)
def test_game_operator_matches_loops(k, n, d_a, d_b):
    game, alice, bob, _ = game_and_families(k, n, d_a, d_b)
    op = _game_operator(alice[None], weigh(payoff_matrix(payoff(game)), bob[None]))[0]
    assert np.max(np.abs(op - ref_game_operator(game, alice, bob))) <= TOL


@pytest.mark.parametrize("k, n, d_a, d_b", SHAPES)
def test_seesaw_weights_match_loops(k, n, d_a, d_b):
    game, alice, bob, psi = game_and_families(k, n, d_a, d_b)
    v = payoff_matrix(payoff(game))
    got = _weights(psi[None], weigh(v, bob[None]))[0].reshape(k, n, d_a, d_a)
    assert np.max(np.abs(got - ref_partial_weights(game, psi, bob, "alice"))) <= TOL
    got = _weights(psi.T[None], weigh(v.T, alice[None]))[0].reshape(k, n, d_b, d_b)
    assert np.max(np.abs(got - ref_partial_weights(game, psi, alice, "bob"))) <= TOL


@pytest.mark.parametrize("k, n, d_a, d_b", SHAPES)
def test_sync_weights_and_round_score_match_loops(monkeypatch, k, n, d_a, d_b):
    game, f, _, _ = game_and_families(k, n, d_a, d_b)
    d = d_a
    # One round of the kernel from f, each best response keeping its family,
    # records the weights of every question against f.
    weights = []

    def keep(w, current):
        weights.append(w[0])
        return current

    monkeypatch.setattr(synchronous, "random_block_families", lambda *args: f[None].copy())
    monkeypatch.setattr(synchronous, "best_response", keep)
    _sync_seesaw(SYNCHRONOUS.prepare(game, d), [None], 1)
    score = 0.0
    for x in range(k):
        want = np.zeros((n, d, d), dtype=np.complex128)
        for a in range(n):
            want[a] = game.pi[x, x] * game.wins[x, x, a, a] * identity(d) / d
            for y in range(k):
                for b in range(n):
                    if y != x:
                        weight = (game.pi[x, y] * game.wins[x, y, a, b]
                                  + game.pi[y, x] * game.wins[y, x, b, a])
                        want[a] += weight * f[y, b] / d
                    score += (game.pi[x, y] * game.wins[x, y, a, b]
                              * np.trace(f[x, a] @ f[y, b]).real / d)
        assert np.max(np.abs(weights[x] - want)) <= TOL
    got = correlation_values(payoff(game), _tracial_correlations((f[None],), [""]))[0]
    assert abs(got - score) <= TOL
