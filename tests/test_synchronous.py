"""Tracial PVM families, their correlations, the lower-bound search, and
the almost-PVM repair."""

import itertools

import numpy as np
import pytest

from nlv.classical import DeterministicStrategy, det_to_strategy, is_synchronous
from nlv.errors import DefectTooLargeError, ValidationError
from nlv.game import Game, chsh_game, game_value, random_game, validate_strategy
from nlv.linalg import dagger, frobenius, random_unitary
from nlv.quantum import PVM, MeasurementFamily, block_projectors, validate_measurement
from nlv.rng import generator
from nlv.synchronous import (TracialPVMFamily, random_tracial_family,
                             repair_almost_pvm, scalar_family,
                             sync_value_lower_bound, tracial_correlation,
                             validate_family)


def oracle_best_scalar(game):
    """Enumerate every common answer function and score it directly."""
    best = -1.0
    for assignment in itertools.product(range(1, game.n + 1), repeat=game.k):
        value = 0.0
        for x in range(game.k):
            for y in range(game.k):
                value += game.pi[x, y] * game.wins[x, y, assignment[x] - 1, assignment[y] - 1]
        best = max(best, value)
    return best


def test_scalar_family_reproduces_deterministic_sync_strategy():
    fam = scalar_family((2, 1), n=2, d=1)
    s = tracial_correlation(fam)
    det = det_to_strategy(DeterministicStrategy(alice=(2, 1), bob=(2, 1)), 2, 2)
    assert s == det


def test_dim1_families_biject_with_functions():
    # Every answer function gives a distinct deterministic synchronous
    # strategy, and every d=1 family arises this way.
    seen = set()
    for assignment in itertools.product((1, 2, 3), repeat=2):
        s = tracial_correlation(scalar_family(assignment, n=3, d=1))
        assert is_synchronous(s)
        seen.add(s.p.tobytes())
    assert len(seen) == 9


def test_coordinate_vs_horizontal_trace():
    e = np.eye(2, dtype=complex)
    v1 = np.array([1, 1], dtype=complex) / np.sqrt(2)
    v2 = np.array([1, -1], dtype=complex) / np.sqrt(2)
    coordinate = MeasurementFamily(
        outcomes=(np.diag([1.0, 0j + 0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        flavor=PVM)
    horizontal = MeasurementFamily(
        outcomes=(np.outer(v1, v1.conj()), np.outer(v2, v2.conj())), flavor=PVM)
    fam = TracialPVMFamily(families=(coordinate, horizontal))
    s = tracial_correlation(fam)
    assert np.allclose(s.p[0, 1], 0.25, atol=1e-12)
    assert np.allclose(s.p[1, 0], 0.25, atol=1e-12)


def test_tracial_correlations_synchronous_symmetric_consistent():
    for seed in range(15):
        rng = generator(seed)
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 5))
        fam = random_tracial_family(k, n, d, seed=seed)
        assert validate_family(fam).ok
        s = tracial_correlation(fam)
        assert validate_strategy(s).ok
        assert is_synchronous(s)
        # player swap symmetry from trace cyclicity
        assert np.allclose(s.p, np.transpose(s.p, (1, 0, 3, 2)), atol=1e-9)
        # marginals depend only on the question asked, not the partner's
        marginals = s.p.sum(axis=3)
        for x in range(k):
            expected = np.array([np.trace(m).real / d for m in fam.families[x].outcomes])
            for y in range(k):
                assert np.allclose(marginals[x, y], expected, atol=1e-9)


def test_sync_lower_bound_chsh_dim1():
    value, fam = sync_value_lower_bound(chsh_game(), dim=1, restarts=2, seed=0, iters=10)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert value == pytest.approx(oracle_best_scalar(chsh_game()), abs=1e-12)
    s = tracial_correlation(fam)
    # same-question answers agree, so the (2,2) disagree round is lost
    assert s.p[1, 1, 0, 1] == pytest.approx(0.0, abs=1e-12)


def test_sync_lower_bound_always_win():
    g = chsh_game()
    always = Game(k=2, n=2, pi=g.pi, wins=np.ones((2, 2, 2, 2)))
    value, _ = sync_value_lower_bound(always, dim=2, restarts=1, seed=1, iters=5)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_sync_lower_bound_dominates_scalar_seed():
    for seed in range(6):
        g = random_game(2, 2, seed=seed)
        value, fam = sync_value_lower_bound(g, dim=2, restarts=1, seed=seed, iters=8)
        assert value >= oracle_best_scalar(g) - 1e-9
        assert value <= 1.0 + 1e-9
        # self-certification
        assert game_value(g, tracial_correlation(fam)) == pytest.approx(value, abs=1e-9)


def test_sync_lower_bound_deterministic_in_seed():
    a = sync_value_lower_bound(chsh_game(), dim=2, restarts=2, seed=4, iters=10)
    b = sync_value_lower_bound(chsh_game(), dim=2, restarts=2, seed=4, iters=10)
    assert a[0] == b[0]


def test_sync_lower_bound_changes_ranks_and_stays_exact():
    # Same-question terms are linear in each projection, so the search may
    # leave the near-equal block profile.
    g = random_game(2, 2, seed=0)
    value, fam = sync_value_lower_bound(g, dim=3, restarts=2, seed=0, iters=60,
                                        seed_scalar=False)
    ranks = [[round(float(np.trace(m).real)) for m in f.outcomes] for f in fam.families]
    assert any(r != [2, 1] for r in ranks)
    assert validate_family(fam, tol=1e-12).ok
    assert game_value(g, tracial_correlation(fam)) == pytest.approx(value, abs=1e-12)


def test_sync_lower_bound_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        sync_value_lower_bound(chsh_game(), dim=0, restarts=1, seed=0)


# -- repair_almost_pvm -------------------------------------------------------

def exact_random_pvm(d, n, seed):
    return MeasurementFamily(outcomes=block_projectors(random_unitary(d, generator(seed)), n),
                             flavor=PVM)


def test_repair_fixed_point_on_exact_pvm():
    fam = exact_random_pvm(4, 2, seed=2)
    repaired = repair_almost_pvm(list(fam.outcomes))
    for original, fixed in zip(fam.outcomes, repaired.outcomes):
        assert np.allclose(fixed, original, atol=1e-9)


def test_repair_recovers_from_small_noise():
    rng = np.random.default_rng(10)
    for seed in range(10):
        d, n = 4, 3
        fam = exact_random_pvm(d, n, seed=seed)
        noisy = []
        for m in fam.outcomes:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            noisy.append(m + 1e-3 * (g + dagger(g)) / 2)
        repaired = repair_almost_pvm(noisy)
        assert validate_measurement(repaired).ok
        distance = max(frobenius(a - b) for a, b in zip(repaired.outcomes, fam.outcomes))
        assert distance <= 1e-2


def test_repair_output_always_valid():
    rng = np.random.default_rng(20)
    for seed in range(10):
        d, n = 3, 2
        fam = exact_random_pvm(d, n, seed=seed + 50)
        noisy = []
        for m in fam.outcomes:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            noisy.append(m + 5e-3 * g)   # not even self-adjoint noise
        repaired = repair_almost_pvm(noisy)
        assert validate_measurement(repaired).ok


def test_repair_rejects_large_defect():
    with pytest.raises(DefectTooLargeError):
        repair_almost_pvm([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])


def test_family_shape_validation():
    good = exact_random_pvm(2, 2, seed=1)
    povm_flavored = MeasurementFamily(outcomes=good.outcomes, flavor="povm")
    with pytest.raises(ValidationError):
        TracialPVMFamily(families=(povm_flavored,))
