"""Measurement theory, strategy correlations, dilation, and the see-saw."""

import json

import numpy as np
import pytest

from nlv.classical import DeterministicStrategy, classical_value, det_to_strategy
from nlv.errors import DimensionMismatchError, ParseError, ValidationError
from nlv.game import Game, chsh_game, game_value, random_game, validate_strategy
from nlv.linalg import dagger, frobenius, random_unitary
from nlv.quantum import (COMMUTING, POVM, PVM, TENSOR, MeasurementFamily,
                         QuantumStrategySpec, best_response, block_projectors,
                         born_probabilities, chsh_optimal_spec, diagonal_pvm,
                         embed_deterministic,
                         embed_local, entangled_lower_bound, epr_state,
                         kron, load_spec, naimark_dilate,
                         quantum_correlation, rotated_basis_pvm, save_spec, tensor,
                         validate_measurement, validate_spec)
from nlv.rng import generator

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)


def coordinate_pvm():
    return MeasurementFamily(
        outcomes=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        flavor=PVM)


def horizontal_pvm():
    v1 = (E1 + E2) / np.sqrt(2)
    v2 = (E1 - E2) / np.sqrt(2)
    return MeasurementFamily(
        outcomes=(np.outer(v1, v1.conj()), np.outer(v2, v2.conj())), flavor=PVM)


def random_povm(dim, n, rng):
    """n random PSD matrices renormalized so they sum to the identity."""
    blocks = []
    for _ in range(n):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    inv_root = v @ np.diag(w ** -0.5) @ v.conj().T
    return MeasurementFamily(
        outcomes=tuple(inv_root @ b @ inv_root for b in blocks), flavor=POVM)


def random_state(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


# -- validate_measurement ----------------------------------------------------

def test_coordinate_projections_are_a_pvm():
    assert validate_measurement(coordinate_pvm()).ok


def test_half_identity_povm_but_not_pvm():
    halves = (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2)
    assert validate_measurement(MeasurementFamily(outcomes=halves, flavor=POVM)).ok
    report = validate_measurement(MeasurementFamily(outcomes=halves, flavor=PVM))
    assert not report.ok
    assert any("idempotent" in v for v in report.violations)
    assert report.worst == pytest.approx(0.25)


def test_completeness_residual_reported():
    doubled = (np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    report = validate_measurement(MeasurementFamily(outcomes=doubled, flavor=POVM))
    assert not report.ok
    assert any("completeness residual 1" in v for v in report.violations)
    assert report.worst == pytest.approx(1.0)


def test_negative_element_rejected():
    fam = MeasurementFamily(
        outcomes=(np.diag([1.5, 0.0]).astype(complex), np.diag([-0.5, 1.0]).astype(complex)),
        flavor=POVM)
    report = validate_measurement(fam)
    assert not report.ok
    assert any("not positive" in v for v in report.violations)


def test_every_defect_reported_in_outcome_order():
    # Non-self-adjoint, non-positive, non-idempotent and incomplete at once;
    # the lines and worst are those of the per-outcome loop this replaced.
    mats = (np.array([[1.0, 0.5], [0.0, -0.25]], dtype=complex),
            np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
            np.array([[0.25, 0.5j], [-0.5j, 0.0]], dtype=complex))
    pvm = validate_measurement(MeasurementFamily(outcomes=mats, flavor=PVM))
    assert pvm.violations == (
        "outcome 1 not self-adjoint: residual 0.5",
        "outcome 1 not positive: eigenvalue -0.25",
        "outcome 1 not idempotent: residual 0.312",
        "outcome 2 not idempotent: residual 0.25",
        "outcome 3 not positive: eigenvalue -0.39",
        "outcome 3 not idempotent: residual 0.375",
        "completeness residual 0.75")
    assert pvm.worst == 0.75
    povm = validate_measurement(MeasurementFamily(outcomes=mats, flavor=POVM))
    assert povm.violations == (
        "outcome 1 not self-adjoint: residual 0.5",
        "outcome 1 not positive: eigenvalue -0.25",
        "outcome 3 not positive: eigenvalue -0.39",
        "completeness residual 0.75")
    assert povm.worst == 0.75


@pytest.mark.parametrize("outcomes, match", [
    ((np.eye(2), np.eye(3)), "outcome 2 has dim 3, expected 2"),
    ((np.eye(2), np.ones((2, 3))), "outcome 2 is not a square matrix"),
    ((np.ones(2), np.ones(2)), "outcome 1 is not a square matrix"),
    ((), "at least one outcome"),
])
def test_family_rejects_malformed_outcomes(outcomes, match):
    with pytest.raises(ValidationError, match=match):
        MeasurementFamily(outcomes=outcomes, flavor=POVM)


def test_family_outcomes_are_one_read_only_array():
    source = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
    fam = MeasurementFamily(outcomes=source, flavor=PVM)
    assert fam.outcomes.shape == (2, 2, 2) and fam.outcomes.dtype == np.complex128
    with pytest.raises(ValueError):
        fam.outcomes[0, 0, 0] = 0.5
    source[0, 0, 0] = 0.5
    assert fam.outcomes[0, 0, 0] == 1.0


def test_diagonal_pvm_range_checks_answers():
    fam = diagonal_pvm([2, 1, 2], 2)
    assert np.array_equal(fam.outcomes[1], np.diag([1, 0, 1]))
    for bad in (0, 3):
        with pytest.raises(ValidationError, match=f"answer {bad} out of range"):
            diagonal_pvm([1, bad], 2)


# -- born_probabilities ------------------------------------------------------

def test_born_horizontal_basis_on_up_state():
    probs = born_probabilities(horizontal_pvm(), E1)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_born_eigenstate():
    probs = born_probabilities(coordinate_pvm(), E1)
    assert np.allclose(probs, [1.0, 0.0], atol=1e-15)


def test_born_sums_to_one_on_random_povms():
    rng = np.random.default_rng(4)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        fam = random_povm(dim, n, rng)
        probs = born_probabilities(fam, random_state(dim, rng))
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= -1e-9)


def test_born_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        born_probabilities(coordinate_pvm(), np.array([1, 0, 0], dtype=complex) )


# -- tensor ------------------------------------------------------------------

def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_bitflip_on_epr():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    flipped = tensor(x, np.eye(2)) @ epr_state()
    expected = (kron(E2, E1) + kron(E1, E2)) / np.sqrt(2)
    assert np.allclose(flipped, expected, atol=1e-15)


def test_tensor_mixed_product_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.allclose(tensor(a, b) @ kron(u, v), kron(a @ u, b @ v), atol=1e-12)


# -- quantum_correlation -----------------------------------------------------

def test_chsh_optimal_spec_value():
    value = game_value(chsh_game(), quantum_correlation(chsh_optimal_spec()))
    assert value == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)


def test_chsh_optimal_spec_families_are_pvms():
    spec = chsh_optimal_spec()
    for fam in spec.alice + spec.bob:
        assert validate_measurement(fam).ok
    assert validate_spec(spec).ok


def test_chsh_optimal_beats_classical_by_gap():
    quantum = game_value(chsh_game(), quantum_correlation(chsh_optimal_spec()))
    classical, _ = classical_value(chsh_game())
    assert quantum - classical > 0.10


def test_embedding_reproduces_deterministic_strategy():
    d = DeterministicStrategy(alice=(1, 2), bob=(2, 1))
    spec = embed_deterministic(d, 2, 2)
    assert validate_spec(spec).ok
    assert quantum_correlation(spec) == det_to_strategy(d, 2, 2)


def test_embedding_families_are_degenerate_povms():
    spec = embed_deterministic(DeterministicStrategy(alice=(1,), bob=(2,)), 1, 2)
    for fam in spec.alice + spec.bob:
        assert validate_measurement(fam).ok


def test_classical_value_chain_through_embedding():
    # Exercises the inclusion of deterministic strategies among quantum
    # ones: the embedded argmax reproduces the classical value exactly.
    for seed in range(20):
        g = random_game(2, 2, seed=seed)
        value, argmax = classical_value(g)
        chained = game_value(g, quantum_correlation(embed_deterministic(argmax, g.k, g.n)))
        assert chained == pytest.approx(value, abs=1e-12)


def test_tensor_spec_reexpressed_as_commuting():
    spec = chsh_optimal_spec()
    d_a, d_b = spec.dims
    eye_a = np.eye(d_a, dtype=complex)
    eye_b = np.eye(d_b, dtype=complex)
    alice = tuple(MeasurementFamily(
        outcomes=tuple(kron(m, eye_b) for m in fam.outcomes), flavor=fam.flavor)
        for fam in spec.alice)
    bob = tuple(MeasurementFamily(
        outcomes=tuple(kron(eye_a, m) for m in fam.outcomes), flavor=fam.flavor)
        for fam in spec.bob)
    commuting = QuantumStrategySpec(flavor=COMMUTING, state=spec.state, alice=alice, bob=bob)
    report = validate_spec(commuting)
    assert report.ok
    # commutators of the embedded families vanish to machine precision
    for fam_a in alice:
        for fam_b in bob:
            for ma in fam_a.outcomes:
                for mb in fam_b.outcomes:
                    assert frobenius(ma @ mb - mb @ ma) < 1e-12
    assert np.allclose(quantum_correlation(commuting).p, quantum_correlation(spec).p,
                       atol=1e-12)


def test_commutation_violation_reported_with_indices():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    alice = (MeasurementFamily(outcomes=((np.eye(2, dtype=complex) + x) / 2,
                                         (np.eye(2, dtype=complex) - x) / 2), flavor=PVM),)
    bob = (MeasurementFamily(outcomes=((np.eye(2, dtype=complex) + z) / 2,
                                       (np.eye(2, dtype=complex) - z) / 2), flavor=PVM),)
    spec = QuantumStrategySpec(flavor=COMMUTING, state=E1, alice=alice, bob=bob)
    report = validate_spec(spec)
    assert not report.ok
    assert any("commutation violation at (x=1, a=1, y=1, b=1)" in v
               for v in report.violations)
    with pytest.raises(ValidationError, match="commutation violation"):
        quantum_correlation(spec)


def test_commutation_violations_listed_in_index_order():
    alice = (rotated_basis_pvm(0.0), rotated_basis_pvm(np.pi / 4))
    bob = (rotated_basis_pvm(0.0), rotated_basis_pvm(np.pi / 8))
    report = validate_spec(QuantumStrategySpec(flavor=COMMUTING, state=E1, alice=alice, bob=bob))
    expected = [(1, a, 2, b, "0.5") for a in (1, 2) for b in (1, 2)]
    expected += [(2, a, y, b, "0.707" if y == 1 else "0.5")
                 for a in (1, 2) for y in (1, 2) for b in (1, 2)]
    assert report.violations == tuple(
        f"commutation violation at (x={x}, a={a}, y={y}, b={b}): residual {r}"
        for x, a, y, b, r in expected)
    assert report.worst == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_correlations_are_valid_strategies():
    rng = np.random.default_rng(31)
    for seed in range(10):
        d_a, d_b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k, n = 2, int(rng.integers(2, 4))
        gen = generator(seed)
        alice = tuple(MeasurementFamily(
            outcomes=random_povm(d_a, n, rng).outcomes, flavor=POVM) for _ in range(k))
        bob = tuple(MeasurementFamily(
            outcomes=random_povm(d_b, n, rng).outcomes, flavor=POVM) for _ in range(k))
        state = random_state(d_a * d_b, rng)
        spec = QuantumStrategySpec(flavor=TENSOR, state=state, alice=alice, bob=bob)
        assert validate_strategy(quantum_correlation(spec)).ok


def test_local_strategies_embed_into_quantum():
    # Inclusion chain at desk scale: every local strategy (mixture of at
    # most 4 deterministic ones) is reproduced by a block-construction spec.
    rng = np.random.default_rng(77)
    from nlv.classical import sample_local
    for _ in range(100):
        k, n = 2, 2
        m = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(m))
        dets = [DeterministicStrategy(alice=tuple(rng.integers(1, n + 1, k)),
                                      bob=tuple(rng.integers(1, n + 1, k)))
                for _ in range(m)]
        mixture = list(zip(weights, dets))
        local = sample_local(mixture, k, n)
        spec = embed_local(mixture, k, n)
        assert validate_spec(spec).ok
        assert np.allclose(quantum_correlation(spec).p, local.p, atol=1e-9)


# -- naimark_dilate ----------------------------------------------------------

def test_naimark_on_pvm_preserves_statistics():
    fam = horizontal_pvm()
    pvm, isometry = naimark_dilate(fam)
    rng = np.random.default_rng(12)
    for _ in range(100):
        state = random_state(2, rng)
        original = born_probabilities(fam, state)
        dilated = [np.real(np.vdot(isometry @ state, q @ (isometry @ state)))
                   for q in pvm.outcomes]
        assert np.allclose(original, dilated, atol=1e-8)


def trine_povm():
    vectors = [np.array([np.cos(angle), np.sin(angle)], dtype=complex)
               for angle in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
    return MeasurementFamily(
        outcomes=tuple((2.0 / 3.0) * np.outer(v, v.conj()) for v in vectors),
        flavor=POVM)


def test_naimark_trine_povm():
    fam = trine_povm()
    assert validate_measurement(fam).ok
    pvm, isometry = naimark_dilate(fam)
    assert validate_measurement(pvm).ok
    assert np.allclose(dagger(isometry) @ isometry, np.eye(2), atol=1e-9)
    rng = np.random.default_rng(13)
    for _ in range(100):
        state = random_state(2, rng)
        lifted = isometry @ state
        original = born_probabilities(fam, state)
        dilated = [np.real(np.vdot(lifted, q @ lifted)) for q in pvm.outcomes]
        assert np.allclose(original, dilated, atol=1e-8)


def test_naimark_rejects_invalid_povm():
    bad = MeasurementFamily(
        outcomes=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)), flavor=POVM)
    with pytest.raises(ValidationError):
        naimark_dilate(bad)


# -- block partition ---------------------------------------------------------

def test_block_projectors_near_equal_ranks():
    for d, n, ranks in [(5, 2, [3, 2]), (4, 2, [2, 2]), (2, 3, [1, 1, 0]), (1, 2, [1, 0])]:
        blocks = block_projectors(np.eye(d, dtype=complex), n)
        assert [round(float(np.trace(p).real)) for p in blocks] == ranks


def test_block_projectors_handles_empty_blocks():
    u = random_unitary(2, generator(5))
    fam = MeasurementFamily(outcomes=block_projectors(u, 3), flavor=PVM)
    assert validate_measurement(fam).ok
    assert np.allclose(fam.outcomes[2], 0.0)


def test_strided_outcomes_and_state_are_accepted():
    fam = MeasurementFamily(outcomes=block_projectors(random_unitary(2, generator(3)), 2),
                            flavor=PVM)
    transposed = MeasurementFamily(outcomes=tuple(m.T for m in fam.outcomes), flavor=PVM)
    state = random_unitary(4, generator(4))[:, 0]
    spec = QuantumStrategySpec(flavor=TENSOR, state=state, alice=(transposed,), bob=(fam,))
    assert validate_strategy(quantum_correlation(spec)).ok


# -- best_response -----------------------------------------------------------

def random_weights(n, d, rng):
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (g + g.conj().transpose(0, 2, 1)) / 2


def score(weights, projections):
    return float(np.real(np.einsum("aij,aji->", weights, projections)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_best_response_two_outcomes_is_global_optimum(d):
    rng = generator(d)
    for _ in range(5):
        w = random_weights(2, d, rng)
        current = block_projectors(random_unitary(d, rng), 2)
        gains = np.linalg.eigvalsh(w[0] - w[1])
        optimum = np.trace(w[1]).real + gains[gains > 0].sum()
        assert score(w, best_response(w, current)) == pytest.approx(optimum, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_best_response_three_outcomes_never_decreases(d):
    rng = generator(10 + d)
    for _ in range(20):
        w = random_weights(3, d, rng)
        current = block_projectors(random_unitary(d, rng), 3)
        assert score(w, best_response(w, current)) >= score(w, current) - 1e-12


def test_best_response_stays_a_pvm_over_60_rounds():
    rng = generator(21)
    projections = block_projectors(random_unitary(5, rng), 3)
    for _ in range(60):
        projections = best_response(random_weights(3, 5, rng), projections)
    fam = MeasurementFamily(outcomes=projections, flavor=PVM)
    assert validate_measurement(fam, tol=1e-12).ok


def test_lower_bound_search_output_is_pvm_to_rounding():
    g = random_game(3, 3, seed=4)
    _, spec = entangled_lower_bound(g, dim=3, restarts=2, seed=1, iters=60,
                                    seed_classical=False)
    for fam in spec.alice + spec.bob:
        assert validate_measurement(fam, tol=1e-12).ok


# -- entangled_lower_bound ---------------------------------------------------

def test_lower_bound_always_win_game_dim1():
    g = chsh_game()
    always = Game(k=2, n=2, pi=g.pi, wins=np.ones((2, 2, 2, 2)))
    value, spec = entangled_lower_bound(always, dim=1, restarts=1, seed=0, iters=5)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert spec.dims == (1, 1)


def test_lower_bound_chsh_reaches_tsirelson():
    value, spec = entangled_lower_bound(chsh_game(), dim=2, restarts=4, seed=1, iters=60)
    assert value >= 0.8535
    assert value <= 1.0 + 1e-9
    # self-certification: the spec re-evaluates to the reported value
    assert game_value(chsh_game(), quantum_correlation(spec)) == pytest.approx(
        value, abs=1e-9)


def test_lower_bound_deterministic_in_seed():
    a = entangled_lower_bound(chsh_game(), dim=2, restarts=2, seed=9, iters=15)
    b = entangled_lower_bound(chsh_game(), dim=2, restarts=2, seed=9, iters=15)
    assert a[0] == b[0]
    assert np.array_equal(a[1].state, b[1].state)


def test_lower_bound_dominates_classical_with_seeding():
    for seed in range(8):
        g = random_game(2, 2, seed=seed)
        classical, _ = classical_value(g)
        value, _ = entangled_lower_bound(g, dim=2, restarts=1, seed=seed, iters=8)
        assert value >= classical - 1e-6
        assert 0.0 - 1e-9 <= value <= 1.0 + 1e-9


def test_lower_bound_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        entangled_lower_bound(chsh_game(), dim=0, restarts=1, seed=0)
    with pytest.raises(ValidationError):
        entangled_lower_bound(chsh_game(), dim=2, restarts=1, seed=0, iters=0)


# -- Bell basis and spec files -----------------------------------------------

def test_bell_basis_orthonormal():
    from nlv.protocols import bell_basis
    basis = bell_basis()
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def spec_round_trips(spec):
    loaded = load_spec(save_spec(spec))
    assert loaded.flavor == spec.flavor
    assert np.array_equal(loaded.state, spec.state)
    for fam_a, fam_b in zip(loaded.alice + loaded.bob, spec.alice + spec.bob):
        assert fam_a.flavor == fam_b.flavor
        for ma, mb in zip(fam_a.outcomes, fam_b.outcomes):
            assert np.array_equal(ma, mb)
    assert np.allclose(quantum_correlation(loaded).p, quantum_correlation(spec).p, atol=0)


def test_spec_file_round_trip_tensor():
    spec_round_trips(chsh_optimal_spec())


def test_spec_file_round_trip_commuting():
    base = chsh_optimal_spec()
    d_a, d_b = base.dims
    alice = tuple(MeasurementFamily(
        outcomes=tuple(kron(m, np.eye(d_b, dtype=complex)) for m in fam.outcomes),
        flavor=fam.flavor) for fam in base.alice)
    bob = tuple(MeasurementFamily(
        outcomes=tuple(kron(np.eye(d_a, dtype=complex), m) for m in fam.outcomes),
        flavor=fam.flavor) for fam in base.bob)
    spec_round_trips(QuantumStrategySpec(flavor=COMMUTING, state=base.state,
                                         alice=alice, bob=bob))


def test_load_spec_rejects_non_numeric_fields():
    obj = json.loads(save_spec(chsh_optimal_spec()))
    for field, bad in (("dim_alice", "x"), ("state", ["x", 0.0])):
        with pytest.raises(ParseError, match="malformed field"):
            load_spec(json.dumps(dict(obj, **{field: bad})))
