"""Measurement theory, strategy correlations, dilation, and the see-saw."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nlv import data_path, moments, quantum
from nlv.classical import DeterministicStrategy, classical_value, det_to_strategy
from nlv.errors import CapExceededError, DimensionMismatchError, ParseError, ValidationError
from nlv.game import (Game, chsh_game, correlation_values, game_value, load_game, payoff,
                      random_game, save_game, validate_strategy)
from nlv.linalg import dagger, frobenius, random_unitary
from nlv.quantum import (COMMUTING, ENTANGLED, POVM, PVM, TENSOR, MeasurementFamily,
                         QuantumStrategySpec, _seesaw,
                         born_probabilities, check_state, chsh_optimal_spec, collapse_state,
                         diagonal_pvm, embed_deterministic,
                         embed_local, entangled_lower_bound, epr_state,
                         load_spec, naimark_dilate,
                         quantum_correlation, rotated_basis_pvm,
                         save_spec, stack_families,
                         validate_measurement, validate_spec)
from nlv.rng import generator
from nlv.seesaw import (MAX_RESTART_BYTES, best_response, climb, correlations,
                        random_block_families, seesaw_search)
from nlv.synchronous import (SYNCHRONOUS, TracialPVMFamily, _best_scalar_assignment,
                             scalar_family,
                             sync_value_lower_bound, tracial_correlation)

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
    assert validate_measurement(coordinate_pvm()) == ()


def test_half_identity_povm_but_not_pvm():
    halves = (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2)
    assert validate_measurement(MeasurementFamily(outcomes=halves, flavor=POVM)) == ()
    assert validate_measurement(MeasurementFamily(outcomes=halves, flavor=PVM)) == (
        "outcome 1 not idempotent: residual 0.25", "outcome 2 not idempotent: residual 0.25")


def test_completeness_residual_reported():
    doubled = (np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert validate_measurement(MeasurementFamily(outcomes=doubled, flavor=POVM)) == (
        "completeness residual 1",)


def test_negative_element_rejected():
    fam = MeasurementFamily(
        outcomes=(np.diag([1.5, 0.0]).astype(complex), np.diag([-0.5, 1.0]).astype(complex)),
        flavor=POVM)
    lines = validate_measurement(fam)
    assert lines != ()
    assert any("not positive" in v for v in lines)


def test_every_defect_reported_in_outcome_order():
    # Non-self-adjoint, non-positive, non-idempotent and incomplete at once;
    # the lines are those of the per-outcome loop this replaced.
    mats = (np.array([[1.0, 0.5], [0.0, -0.25]], dtype=complex),
            np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
            np.array([[0.25, 0.5j], [-0.5j, 0.0]], dtype=complex))
    pvm = validate_measurement(MeasurementFamily(outcomes=mats, flavor=PVM))
    assert pvm == (
        "outcome 1 not self-adjoint: residual 0.5",
        "outcome 1 not positive: eigenvalue -0.25",
        "outcome 1 not idempotent: residual 0.312",
        "outcome 2 not idempotent: residual 0.25",
        "outcome 3 not positive: eigenvalue -0.39",
        "outcome 3 not idempotent: residual 0.375",
        "completeness residual 0.75")
    povm = validate_measurement(MeasurementFamily(outcomes=mats, flavor=POVM))
    assert povm == (
        "outcome 1 not self-adjoint: residual 0.5",
        "outcome 1 not positive: eigenvalue -0.25",
        "outcome 3 not positive: eigenvalue -0.39",
        "completeness residual 0.75")


@pytest.mark.parametrize("outcomes, match", [
    ((np.eye(2), np.eye(3)), "outcome 2 has dim 3, expected 2"),
    ((np.eye(2), np.ones((2, 3))), "outcome 2 is not a square matrix"),
    ((np.ones(2), np.ones(2)), "outcome 1 is not a square matrix"),
    ((), "at least one outcome"),
    (([[1, 0], [0]],), "outcome 1 is not a square matrix"),
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
    assert np.array_equal(diagonal_pvm([2, 1, 2], 2)[1], np.diag([1, 0, 1]))
    stacked = diagonal_pvm([[2, 1, 2], [1, 1, 3]], 3)
    assert stacked.shape == (2, 3, 3, 3)
    assert np.array_equal(stacked[1], diagonal_pvm([1, 1, 3], 3))
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

def test_tensor_bitflip_on_epr():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    flipped = np.kron(x, np.eye(2)) @ epr_state()
    expected = (np.kron(E2, E1) + np.kron(E1, E2)) / np.sqrt(2)
    assert np.allclose(flipped, expected, atol=1e-15)


# -- quantum_correlation -----------------------------------------------------

def test_chsh_optimal_spec_value():
    value = game_value(chsh_game(), quantum_correlation(chsh_optimal_spec()))
    assert value == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)


def test_chsh_optimal_spec_families_are_pvms():
    spec = chsh_optimal_spec()
    assert spec.measurement == PVM
    assert validate_spec(spec) == ()


def test_chsh_optimal_beats_classical_by_gap():
    quantum = game_value(chsh_game(), quantum_correlation(chsh_optimal_spec()))
    classical, _ = classical_value(chsh_game())
    assert quantum - classical > 0.10


def test_embedding_reproduces_deterministic_strategy():
    d = DeterministicStrategy(alice=(1, 2), bob=(2, 1))
    spec = embed_deterministic(d, 2, 2)
    assert validate_spec(spec) == ()
    assert quantum_correlation(spec) == det_to_strategy(d, 2, 2)


def test_embedding_families_are_degenerate_povms():
    spec = embed_deterministic(DeterministicStrategy(alice=(1,), bob=(2,)), 1, 2)
    assert spec.measurement == PVM
    assert validate_spec(spec) == ()


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
    alice = np.array([[np.kron(m, eye_b) for m in fam] for fam in spec.alice])
    bob = np.array([[np.kron(eye_a, m) for m in fam] for fam in spec.bob])
    commuting = QuantumStrategySpec(flavor=COMMUTING, state=spec.state, alice=alice, bob=bob)
    assert validate_spec(commuting) == ()
    # commutators of the embedded families vanish to machine precision
    for fam_a in alice:
        for fam_b in bob:
            for ma in fam_a:
                for mb in fam_b:
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
    lines = validate_spec(spec)
    assert lines != ()
    assert any("commutation violation at (x=1, a=1, y=1, b=1)" in v
               for v in lines)
    with pytest.raises(ValidationError, match="commutation violation"):
        quantum_correlation(spec)


def test_commutation_violations_listed_in_index_order():
    alice = (rotated_basis_pvm(0.0), rotated_basis_pvm(np.pi / 4))
    bob = (rotated_basis_pvm(0.0), rotated_basis_pvm(np.pi / 8))
    lines = validate_spec(QuantumStrategySpec(flavor=COMMUTING, state=E1, alice=alice, bob=bob))
    expected = [(1, a, 2, b, "0.5") for a in (1, 2) for b in (1, 2)]
    expected += [(2, a, y, b, "0.707" if y == 1 else "0.5")
                 for a in (1, 2) for y in (1, 2) for b in (1, 2)]
    assert lines == tuple(
        f"commutation violation at (x={x}, a={a}, y={y}, b={b}): residual {r}"
        for x, a, y, b, r in expected)


def defective_pvms():
    """Two families flagged PVM that are not: one skewed and incomplete,
    one with a negative element."""
    skew = MeasurementFamily(outcomes=(np.array([[1.0, 0.5], [0.0, 0.0]]),
                                       np.diag([0.0, 0.5])), flavor=PVM)
    negative = MeasurementFamily(outcomes=(np.diag([1.25, 0.0]), np.diag([-0.25, 1.0])),
                                 flavor=PVM)
    return skew, negative


# Lines of the per-family validator that the batched pass
# replaced, taken from it verbatim.
TENSOR_SPEC_LINES = (
    "state norm 1.001 != 1",
    "alice family 2: outcome 1 not self-adjoint: residual 0.5",
    "alice family 2: outcome 2 not idempotent: residual 0.25",
    "alice family 2: completeness residual 0.5",
    "bob family 1: outcome 1 not idempotent: residual 0.312",
    "bob family 1: outcome 2 not positive: eigenvalue -0.25",
    "bob family 1: outcome 2 not idempotent: residual 0.312")


def test_validate_spec_lines_are_frozen_for_a_tensor_spec():
    skew, negative = defective_pvms()
    alice = (rotated_basis_pvm(0.0), skew)
    bob = (negative, rotated_basis_pvm(np.pi / 8))
    lines = validate_spec(QuantumStrategySpec(flavor=TENSOR, state=1.001 * epr_state(),
                                              alice=alice, bob=bob))
    assert lines == TENSOR_SPEC_LINES
    povm = validate_spec(QuantumStrategySpec(
        flavor=TENSOR, state=1.001 * epr_state(), measurement=POVM,
        alice=[fam.outcomes for fam in alice], bob=[fam.outcomes for fam in bob]))
    assert povm == tuple(v for v in TENSOR_SPEC_LINES if "idempotent" not in v)


def test_validate_spec_lines_are_frozen_for_a_commuting_spec():
    halves = MeasurementFamily(outcomes=(np.eye(2) / 2, np.eye(2) / 2), flavor=PVM)
    lines = validate_spec(QuantumStrategySpec(
        flavor=COMMUTING, state=E1, alice=(rotated_basis_pvm(0.0), rotated_basis_pvm(np.pi / 4)),
        bob=(rotated_basis_pvm(0.0), halves)))
    assert lines == (
        "bob family 2: outcome 1 not idempotent: residual 0.25",
        "bob family 2: outcome 2 not idempotent: residual 0.25",
        "commutation violation at (x=2, a=1, y=1, b=1): residual 0.707",
        "commutation violation at (x=2, a=1, y=1, b=2): residual 0.707",
        "commutation violation at (x=2, a=2, y=1, b=1): residual 0.707",
        "commutation violation at (x=2, a=2, y=1, b=2): residual 0.707")


def test_spec_families_take_every_stacked_form():
    spec = chsh_optimal_spec()
    for alice in (spec.alice, list(spec.alice)):
        again = QuantumStrategySpec(flavor=TENSOR, state=spec.state, alice=alice, bob=spec.bob)
        assert again.alice.dtype == np.complex128 and again.alice.shape == (2, 2, 2, 2)
        assert np.array_equal(again.alice, spec.alice)
    with pytest.raises(ValueError):
        spec.alice[0, 0, 0, 0] = 0.5
    with pytest.raises(ValidationError, match="family 2 must be flavored 'povm'"):
        QuantumStrategySpec(flavor=TENSOR, state=spec.state, measurement=POVM,
                            alice=(random_povm(2, 2, generator(0)), rotated_basis_pvm(0.0)),
                            bob=spec.bob)
    with pytest.raises(ValidationError, match="family 2 has dim 3, expected 2"):
        QuantumStrategySpec(flavor=TENSOR, state=spec.state, alice=spec.alice,
                            bob=(spec.bob[0], np.zeros((2, 3, 3))))
    with pytest.raises(ValidationError, match="family 1 is not a stack of square matrices"):
        QuantumStrategySpec(flavor=TENSOR, state=[1, 0, 0, 0], alice=[[np.eye(2), np.eye(3)]],
                            bob=[[np.eye(2)]])


@pytest.mark.parametrize("make, message", [
    (lambda spec: check_state(np.eye(2)), r"state must be a vector, got shape \(2, 2\)"),
    (lambda spec: MeasurementFamily(outcomes=spec.alice[0], flavor="x"),
     "flavor must be 'povm' or 'pvm', got 'x'"),
    (lambda spec: stack_families(spec.alice, "x"), "measurement must be 'povm' or 'pvm', got 'x'"),
    (lambda spec: stack_families([rotated_basis_pvm(0.0)], POVM),
     "family 1 must be flavored 'povm'"),
    (lambda spec: collapse_state(rotated_basis_pvm(0.0), -1, [0, 1]),
     r"outcome must be an integer in \[0, 2\), got -1"),
    (lambda spec: collapse_state(rotated_basis_pvm(0.0), -1, [1, 0]),
     r"outcome must be an integer in \[0, 2\), got -1"),
    (lambda spec: collapse_state(rotated_basis_pvm(0.0), 5, [0, 1]),
     r"outcome must be an integer in \[0, 2\), got 5"),
    (lambda spec: collapse_state(rotated_basis_pvm(0.0), True, [0, 1]),
     r"outcome must be an integer in \[0, 2\), got True"),
    (lambda spec: born_probabilities(
        MeasurementFamily(outcomes=[[[0, 1j], [0, 0]], [[1, -1j], [0, 1]]], flavor=POVM),
        np.ones(2) / np.sqrt(2)), "outcome probabilities not real: residual 0.5"),
    (lambda spec: QuantumStrategySpec(flavor="x", state=spec.state, alice=spec.alice,
                                      bob=spec.bob),
     "flavor must be 'tensor' or 'commuting', got 'x'"),
    (lambda spec: QuantumStrategySpec(flavor=TENSOR, state=spec.state.reshape(2, 2),
                                      alice=spec.alice, bob=spec.bob), "state must be a vector"),
    (lambda spec: QuantumStrategySpec(flavor=COMMUTING, state=spec.state, alice=spec.alice,
                                      bob=np.kron(spec.bob, np.eye(2))),
     "commuting flavor needs both players on one space"),
    (lambda spec: QuantumStrategySpec(flavor=TENSOR, state=spec.state, alice=spec.alice,
                                      bob=spec.bob[:1]),
     "both players need the same numbers of families and outcomes"),
    (lambda spec: QuantumStrategySpec(flavor=TENSOR, state=spec.state[:3] / np.linalg.norm(
        spec.state[:3]), alice=spec.alice, bob=spec.bob), "state dim 3 != expected 4"),
])
def test_states_families_and_specs_refuse_bad_arguments(make, message):
    with pytest.raises(ValidationError, match=message):
        make(chsh_optimal_spec())


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
        spec = QuantumStrategySpec(flavor=TENSOR, state=state, alice=alice, bob=bob,
                                   measurement=POVM)
        assert validate_strategy(quantum_correlation(spec)) == ()


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
        assert validate_spec(spec) == ()
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
    assert validate_measurement(fam) == ()
    pvm, isometry = naimark_dilate(fam)
    assert validate_measurement(pvm) == ()
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
        blocks = random_block_families(1, n, d, [generator(d)])[0][0]
        assert [round(float(np.trace(p).real)) for p in blocks] == ranks


def test_block_projectors_handles_empty_blocks():
    fam = MeasurementFamily(outcomes=random_block_families(1, 3, 2, [generator(5)])[0][0],
                            flavor=PVM)
    assert validate_measurement(fam) == ()
    assert np.allclose(fam.outcomes[2], 0.0)


def test_strided_outcomes_and_state_are_accepted():
    fam = MeasurementFamily(outcomes=random_block_families(1, 2, 2, [generator(3)])[0][0],
                            flavor=PVM)
    transposed = MeasurementFamily(outcomes=tuple(m.T for m in fam.outcomes), flavor=PVM)
    state = random_unitary((4, 4), [generator(4)])[0][:, 0]
    spec = QuantumStrategySpec(flavor=TENSOR, state=state, alice=(transposed,), bob=(fam,))
    assert validate_strategy(quantum_correlation(spec)) == ()


# -- best_response -----------------------------------------------------------

def reference_best_response(weights, current):
    """The per-pair loop on one (n, d, d) family: each pair's range from its
    own eigh, and the split from the occupied columns alone."""
    out = np.array(current, dtype=np.complex128)
    n = out.shape[0]
    for a in range(n):
        for b in range(a + 1, n):
            occupied, vectors = np.linalg.eigh(out[a] + out[b])
            basis = vectors[:, occupied > 0.5]
            if basis.shape[1] == 0:
                continue
            diff = weights[a] - weights[b]
            gains, rotation = np.linalg.eigh(dagger(basis) @ diff @ basis)
            split = basis @ rotation
            positive = gains > 1e-12 * np.linalg.norm(diff)
            up, down = split[:, positive], split[:, ~positive]
            out[a] = up @ dagger(up)
            out[b] = down @ dagger(down)
    return out


def pvm_residual(families) -> float:
    """Largest PVM defect of an (..., n, d, d) stack of families, each
    measured as validate_stack measures it: self-adjointness, negativity,
    idempotence and completeness."""
    f = np.asarray(families)
    return max(np.abs(f - dagger(f)).max(), -np.linalg.eigvalsh(f).min(),
               np.abs(f @ f - f).max(), np.abs(f.sum(axis=-3) - np.eye(f.shape[-1])).max())


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
        current = random_block_families(1, 2, d, [rng])[0][0]
        gains = np.linalg.eigvalsh(w[0] - w[1])
        optimum = np.trace(w[1]).real + gains[gains > 0].sum()
        assert score(w, best_response(w, current)) == pytest.approx(optimum, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_best_response_three_outcomes_never_decreases(d):
    rng = generator(10 + d)
    for _ in range(20):
        w = random_weights(3, d, rng)
        current = random_block_families(1, 3, d, [rng])[0][0]
        assert score(w, best_response(w, current)) >= score(w, current) - 1e-12


def test_best_response_stays_a_pvm_over_60_rounds():
    rng = generator(21)
    projections = random_block_families(1, 3, 5, [rng])[0][0]
    for _ in range(60):
        projections = best_response(random_weights(3, 5, rng), projections)
    assert pvm_residual(projections) <= 1e-12


def ranked_family(u, ranks):
    """PVM whose outcome a projects onto the next ranks[a] columns of u."""
    bounds = np.cumsum([0] + list(ranks))
    return np.array([u[:, lo:hi] @ dagger(u[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


@pytest.mark.parametrize("n, d, profiles", [
    (4, 2, [(1, 1, 0, 0), (2, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
    (3, 3, [(1, 1, 1), (3, 0, 0), (0, 2, 1), (2, 0, 1), (0, 0, 3)]),
    (2, 3, [(1, 2), (3, 0), (0, 3), (2, 1)]),
])
def test_stacked_best_response_matches_per_pair_loop(n, d, profiles):
    # Pairs of every rank from 0 to d sit in one stack.  The last family
    # holds everything in outcome 0, and its weights keep it there, so all
    # its later pairs are empty pairs and must stay exactly zero.
    rng = generator(40 + n + d)
    profiles = profiles + [(d,) + (0,) * (n - 1)]
    current = np.array([ranked_family(random_unitary((d, d), [rng])[0], ranks)
                        for ranks in profiles])
    weights = np.array([random_weights(n, d, rng) for _ in profiles])
    weights[-1, 0] += 100 * np.eye(d)
    stacked = best_response(weights[None], current[None])[0]
    for w, family, got in zip(weights, current, stacked):
        assert np.max(np.abs(got - reference_best_response(w, family))) <= 1e-12
    assert np.all(stacked[-1, 1:] == 0)


# -- batched see-saw against the serial reference ----------------------------

def einsum_game_operator(v, alice, bob):
    """sum over x, y, a, b of V[x, y, a, b] kron(A[x, a], B[y, b])."""
    dim = alice.shape[-1] * bob.shape[-1]
    return np.einsum("xyab,xaij,ybkl->ikjl", v, alice, bob).reshape(dim, dim)


def reference_seesaw(game, dim, rng, iters):
    """One restart run alone, with one best response per question: the
    serial see-saw the batched one must reproduce."""
    k, n = game.k, game.n
    v = payoff(game)
    alice = random_block_families(k, n, dim, [rng])[0]
    bob = random_block_families(k, n, dim, [rng])[0]
    last = -np.inf
    op = einsum_game_operator(v, alice, bob)
    for _ in range(iters):
        psi = np.linalg.eigh(op)[1][:, -1]
        mat = psi.reshape(dim, dim)
        weights = np.einsum("xyab,ij,ybkj,lk->xail", v, mat, bob, mat.conj())
        alice = np.array([reference_best_response(weights[x], alice[x]) for x in range(k)])
        weights = np.einsum("xyab,ij,xaik,kl->yblj", v, mat.conj(), alice, mat)
        bob = np.array([reference_best_response(weights[y], bob[y]) for y in range(k)])
        op = einsum_game_operator(v, alice, bob)
        current = float(np.real(np.vdot(psi, op @ psi)))
        if current <= last + 1e-12:
            break
        last = current
    return QuantumStrategySpec(flavor=TENSOR, state=psi, alice=alice, bob=bob)


def seesaw_specs(chunk):
    """The specs of the rows of a chunk of the entangled see-saw."""
    return [QuantumStrategySpec(flavor=TENSOR, state=state, alice=alice, bob=bob)
            for state, alice, bob in zip(*chunk)]


# (k, n, dim): n = 3 and 4, n > dim, and dim = 1 all occur.
SEARCH_SHAPES = [(k, n, dim) for k, n in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4))
                 for dim in (1, 2, 3)]


@pytest.mark.parametrize("k, n, dim", SEARCH_SHAPES)
def test_batched_seesaw_matches_serial_reference(k, n, dim):
    for seed in range(4):
        g = random_game(k, n, seed)
        batched = seesaw_specs(_seesaw(ENTANGLED.prepare(g, dim),
                                        [generator(seed, stream=r) for r in range(3)], 60))
        for r, spec in enumerate(batched):
            serial = reference_seesaw(g, dim, generator(seed, stream=r), 60)
            assert game_value(g, quantum_correlation(spec)) == pytest.approx(
                game_value(g, quantum_correlation(serial)), abs=1e-12)


def test_lower_bound_search_output_is_pvm_to_rounding():
    g = random_game(3, 3, seed=4)
    rows = _seesaw(ENTANGLED.prepare(g, 3), [generator(1, stream=r) for r in range(2)], 60)
    for spec in seesaw_specs(rows):
        assert spec.measurement == PVM
        assert abs(np.linalg.norm(spec.state) - 1.0) <= 1e-12
        assert max(pvm_residual(spec.alice), pvm_residual(spec.bob)) <= 1e-12


# -- the round loop ----------------------------------------------------------

def climb_rounds(rows, scores, iters):
    """Run :func:`climb` on the rows ``rows`` of a synthetic search whose
    row r scores scores[r, j - 1] in round j: returns, per row, the round
    whose arrays it holds, and the rows each round was given."""
    seen = []

    def step(live):
        ids, _ = live
        seen.append(ids.tolist())
        return (ids, np.full(len(ids), len(seen))), scores[ids, len(seen) - 1]

    chunk = (np.array(rows), np.zeros(len(rows), dtype=int))
    assert climb(step, chunk, iters) is chunk
    assert chunk[0].tolist() == rows
    return chunk[1].tolist(), seen


def test_climb_freezes_each_row_with_the_arrays_of_its_stopping_round():
    # Row 0 stops gaining after round 1, row 1 after round 3 (its round 4
    # gains 1e-13), row 2 never (each round gains 1e-11).
    scores = np.array([[1.0] * 8, [1.0, 2.0, 3.0, 3.0 + 1e-13] + [9.0] * 4,
                       1.0 + 1e-11 * np.arange(8)])
    rounds, seen = climb_rounds([0, 1, 2], scores, 6)
    assert rounds == [2, 4, 6]
    assert seen == [[0, 1, 2], [0, 1, 2], [1, 2], [1, 2], [2], [2]]
    # Once every row has frozen, no round runs however high the cap.
    rounds, seen = climb_rounds([0, 1], scores, 50)
    assert rounds == [2, 4]
    assert len(seen) == 4


def chained_bell(n=3):
    """Chained-Bell game: pi uniform on the pairs (x, x) and (x, x - 1 mod
    n); the players must agree, except on the wrap pair (1, n)."""
    wins = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
    wins[0, n - 1] = 1 - np.eye(2)
    return Game(k=n, n=2, pi=(np.eye(n) + np.roll(np.eye(n), -1, axis=1)) / (2 * n), wins=wins)


@pytest.mark.parametrize("game", [chained_bell(), random_game(2, 3, seed=3)],
                         ids=["chained-bell", "random-2-3"])
def test_entangled_round_scores_are_the_certified_values_of_the_rounds_rows(monkeypatch, game):
    # The round score, read off Bob's best-response weights, is the value
    # the certifier gives the candidates that round returns.
    rounds = []

    def recording(step, rows, iters):
        def recorded(live):
            new, scores = step(live)
            rounds.append((new, scores))
            return new, scores
        return climb(recorded, rows, iters)

    monkeypatch.setattr(quantum, "climb", recording)
    _seesaw(ENTANGLED.prepare(game, 3), [generator(7, stream=r) for r in range(3)], 60)
    assert len(rounds) > 2
    for rows, scores in rounds:
        names = [f"restart {r + 1}: " for r in range(len(scores))]
        values = correlation_values(payoff(game), ENTANGLED.correlate(rows, names))
        assert np.max(np.abs(scores - values)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_entangled_search_reaches_the_chained_bell_optimum(n):
    # At d = 2 the optimum is cos^2(pi / 4n) (Braunstein and Caves 1990;
    # Wehner 2006).  A certified lower bound above it would mean a wrong
    # certifier, so the value is pinned from both sides.
    optimum = np.cos(np.pi / (4 * n)) ** 2
    for seed in range(3):
        value, _ = entangled_lower_bound(chained_bell(n), dim=2, restarts=2, seed=seed)
        assert optimum - 1e-9 <= value <= optimum + 1e-9


def magic_square():
    """Mermin-Peres magic square: Alice fills row x and Bob column y of a
    3 x 3 grid of bits.  Answer a names the first two bits ((a - 1) >> 1,
    (a - 1) & 1), and parity fixes the third: even for a row, odd for a
    column.  They win iff they agree on the shared cell (x, y)."""
    bits = (np.arange(4)[:, None] >> np.array([1, 0])) & 1          # [a - 1, position]
    row = np.c_[bits, bits.sum(axis=1) % 2]
    column = np.c_[bits, 1 - bits.sum(axis=1) % 2]
    wins = row.T[None, :, :, None] == column.T[:, None, None, :]     # [x, y, a, b]
    return Game(k=3, n=4, pi=np.full((3, 3), 1 / 9), wins=wins)


def test_entangled_search_reaches_the_magic_square_optimum():
    # Value 1 at d = 4, against a classical 8/9 (Mermin 1990; Peres 1990),
    # pinned from both sides like the chained-Bell optimum.
    text = data_path("magic_square.json").read_text()
    game = load_game(text)
    assert game == magic_square() and save_game(game) == text
    assert abs(classical_value(game)[0] - 8 / 9) <= 1e-12
    for seed in range(10):
        value, _ = entangled_lower_bound(game, 4, 2, seed)
        assert 1 - 1e-9 <= value <= 1 + 1e-9


# -- restart chunks ----------------------------------------------------------

SEARCHES = {"entangled": ENTANGLED, "sync": SYNCHRONOUS}


def search_candidates(search, game, dim, restarts, iters, seeds=tuple):
    """Every row of one search, in order, as a tuple of arrays each, with
    the number of restarts in each chunk and the values certify gave each
    row."""
    candidates, chunks, values = [], [], []

    def run_chunk(record, rngs, iters):
        chunks.append(len(rngs))
        return SEARCHES[search].restart(record, rngs, iters)

    def record(chunk, names):
        candidates.extend(zip(*chunk))
        p = SEARCHES[search].correlate(chunk, names)
        values.extend(correlation_values(payoff(game), p))
        return p

    seesaw_search(game, dim, restarts, 5, iters, replace(
        SEARCHES[search], restart=run_chunk, correlate=record, seed=lambda _: seeds()))
    return candidates, chunks, values


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("k, n, dim", [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 4, 3), (3, 3, 3)])
def test_chunked_restarts_are_bit_identical_to_one_chunk(monkeypatch, chunk, search, k, n, dim):
    # On (2, 4, 3) (sync) and (3, 3, 3) (entangled) some restarts stop short
    # of a fixed point while others go on, so a restart that ran past the
    # round where it stops alone would change its bits.
    g = random_game(k, n, seed=k + n + dim)
    whole, chunks, _ = search_candidates(search, g, dim, 7, 60)
    assert chunks == [7]
    restart_bytes = SEARCHES[search].prepare(g, dim).restart_bytes
    monkeypatch.setattr(moments, "CHUNK_BYTES", chunk * restart_bytes)
    parts, chunks, _ = search_candidates(search, g, dim, 7, 60)
    assert chunks == [chunk] * (7 // chunk) + [7 % chunk] * (7 % chunk > 0)
    assert len(parts) == len(whole) == 7
    for got, want in zip(parts, whole):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("search, dim", [("entangled", 8), ("sync", 32)])
def test_many_restart_peak_stays_within_chunk_budget(monkeypatch, search, dim):
    # All 48 restarts at once would hold several times the budget; chunks
    # keep the traced peak under it plus one restart's working set.
    g = chsh_game()
    restart_bytes = SEARCHES[search].prepare(g, dim).restart_bytes
    monkeypatch.setattr(moments, "CHUNK_BYTES", 2 << 20)
    assert 48 * restart_bytes > 4 * (moments.CHUNK_BYTES + restart_bytes)
    search_fn = entangled_lower_bound if search == "entangled" else sync_value_lower_bound
    search_fn(g, dim=dim, restarts=1, seed=0, iters=1)   # one-time lazy set-up, untraced
    tracemalloc.start()
    try:
        search_fn(g, dim=dim, restarts=48, seed=0, iters=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < moments.CHUNK_BYTES + restart_bytes


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_a_search_is_prepared_once_for_all_its_chunks(monkeypatch, search):
    # The seed and every chunk read the one record prepare made, and the
    # run is bit for bit the unwrapped one.
    g = random_game(2, 3, seed=4)
    plain = SEARCHES[search]
    monkeypatch.setattr(moments, "CHUNK_BYTES", 2 * plain.prepare(g, 2).restart_bytes)
    made, read, chunks = [], [], []

    def prepare(game, dim):
        made.append(plain.prepare(game, dim))
        return made[-1]

    def restart(record, rngs, iters):
        read.append(record)
        chunks.append(len(rngs))
        return plain.restart(record, rngs, iters)

    def seed(record):
        read.append(record)
        return plain.seed(record)

    want = seesaw_search(g, 2, 7, 3, 60, plain)
    got = seesaw_search(g, 2, 7, 3, 60, replace(plain, prepare=prepare, restart=restart,
                                                 seed=seed))
    assert len(made) == 1 and chunks == [2, 2, 2, 1]
    assert len(read) == 5 and all(record is made[0] for record in read)
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)


def test_a_refused_sync_search_allocates_no_restart_sized_block():
    # Each same-question block of this game at d = 512 would be 839 MB; the
    # record holds only arrays of the game's size, so the refusal is cheap.
    g = random_game(100, 2, 0)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="exceeding cap"):
            sync_value_lower_bound(g, 512, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def seed_rows(search, game, dim):
    """The one-row chunk of the search's seed candidate."""
    if search == "entangled":
        spec = embed_deterministic(classical_value(game)[1], game.k, game.n, dim)
        return spec.state[None], spec.alice[None], spec.bob[None]
    return (scalar_family(_best_scalar_assignment(payoff(game))[1], game.n, dim).families[None],)


def certified_value(search, game, row):
    """A row's value certified alone, through its spec or family object."""
    if search == "entangled":
        state, alice, bob = row
        spec = QuantumStrategySpec(flavor=TENSOR, state=state, alice=alice, bob=bob)
        return game_value(game, quantum_correlation(spec))
    return game_value(game, tracial_correlation(TracialPVMFamily(families=row[0])))


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("k, n, dim", [(2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3)])
def test_chunk_values_are_the_per_candidate_values(monkeypatch, chunk, search, k, n, dim):
    # The seed is row 0 of the first chunk; with chunks of two restarts it
    # shares a chunk with restarts 1 and 2 only.
    g = random_game(k, n, seed=k * n + dim)
    if chunk:
        restart_bytes = SEARCHES[search].prepare(g, dim).restart_bytes
        monkeypatch.setattr(moments, "CHUNK_BYTES", chunk * restart_bytes)
    rows, _, values = search_candidates(search, g, dim, 5, 60, lambda: seed_rows(search, g, dim))
    assert len(rows) == len(values) == 6
    for row, value in zip(rows, values):
        assert value == certified_value(search, g, row)
    search_fn = entangled_lower_bound if search == "entangled" else sync_value_lower_bound
    value, found = search_fn(g, dim=dim, restarts=5, seed=5, iters=60)
    assert value == max(values)
    assert value == certified_value(search, g, [found.state, found.alice, found.bob]
                                    if search == "entangled" else [found.families])


@pytest.mark.parametrize("defect, line", [("idempotent", "family 1: outcome 1 not idempotent"),
                                          ("non-finite", "non-finite entries")])
@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_a_failing_row_fails_the_run_and_is_named(search, defect, line):
    g = random_game(2, 2, seed=3)
    restart = SEARCHES[search].restart
    player = "bob " if search == "entangled" and defect == "idempotent" else ""

    def spoil(rows, r):
        if defect == "idempotent":
            rows[-1][r, 0, 0] += 0.5 * np.eye(2)
        else:
            rows[0][r].flat[0] = np.nan
        return rows

    def broken_restarts(record, rngs, iters):
        return spoil(restart(record, rngs, iters), 1)

    def seeds():
        return seed_rows(search, g, 2)

    with pytest.raises(ValidationError, match=f"restart 2: {player}{line}"):
        seesaw_search(g, 2, 3, 0, 5, replace(SEARCHES[search], restart=broken_restarts,
                                             seed=lambda record: seeds()))
    with pytest.raises(ValidationError, match=f"seed: {player}{line}"):
        seesaw_search(g, 2, 3, 0, 5, replace(SEARCHES[search], seed=lambda record: spoil(
            tuple(arr.copy() for arr in seeds()), 0)))


def test_restart_over_byte_cap_is_refused_before_any_candidate():
    def never(*args):
        raise AssertionError("a candidate was made")

    too_big = replace(ENTANGLED, restart=never, prepare=lambda game, dim: ENTANGLED.prepare(
        game, dim)._replace(restart_bytes=MAX_RESTART_BYTES + 1))
    with pytest.raises(CapExceededError, match="exceeding cap"):
        seesaw_search(chsh_game(), 2, 1, 0, 1, replace(too_big, correlate=never, seed=never))
    # With no restarts asked for, the cap does not apply to the seeds.
    spec = chsh_optimal_spec()
    value, _ = seesaw_search(chsh_game(), 2, 0, 0, 1, replace(
        too_big, seed=lambda record: (spec.state[None], spec.alice[None], spec.bob[None])))
    assert value == pytest.approx(np.cos(np.pi / 8) ** 2)


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_a_search_with_no_restarts_and_no_seed_has_no_candidates(search):
    # 2^21 answer functions exceed SEED_ENUMERATION_CAP, so no seed joins.
    with pytest.raises(ValidationError, match="no candidates: need restarts >= 1 or a seed "
                                              "candidate"):
        seesaw_search(random_game(21, 2, 0), 1, 0, 0, 1, SEARCHES[search])


def test_correlations_refuse_an_imaginary_residual_and_name_the_row():
    left = np.ones((2, 1, 1, 1), dtype=np.complex128)
    left[1] *= 1j
    with pytest.raises(ValidationError, match="restart 2: correlation has imaginary residual 1"):
        correlations(left, np.ones_like(left), ["restart 1: ", "restart 2: "])


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
    assert (loaded.flavor, loaded.measurement) == (spec.flavor, spec.measurement)
    assert np.array_equal(loaded.state, spec.state)
    assert np.array_equal(loaded.alice, spec.alice)
    assert np.array_equal(loaded.bob, spec.bob)
    assert np.allclose(quantum_correlation(loaded).p, quantum_correlation(spec).p, atol=0)


def test_spec_file_round_trip_tensor():
    spec = chsh_optimal_spec()
    spec_round_trips(spec)
    spec_round_trips(QuantumStrategySpec(flavor=TENSOR, state=spec.state, alice=spec.alice,
                                         bob=spec.bob, measurement=POVM))


def test_spec_file_round_trip_commuting():
    base = chsh_optimal_spec()
    d_a, d_b = base.dims
    alice = np.array([[np.kron(m, np.eye(d_b, dtype=complex)) for m in fam] for fam in base.alice])
    bob = np.array([[np.kron(np.eye(d_a, dtype=complex), m) for m in fam] for fam in base.bob])
    spec_round_trips(QuantumStrategySpec(flavor=COMMUTING, state=base.state,
                                         alice=alice, bob=bob))


def test_save_spec_bytes_are_pinned():
    # Digest of the bytes the json.dumps(indent=2) writer produced.
    digest = hashlib.sha256(save_spec(chsh_optimal_spec()).encode()).hexdigest()
    assert digest == "31a4ce5302b5ae9af17bed8486934ec25f43e28c22536ee0a32ae487331d35e0"


def test_load_spec_names_the_first_bad_outcome():
    obj = json.loads(save_spec(chsh_optimal_spec()))
    obj["bob"][1]["outcomes"][1][3] = "x"
    obj["bob"][1]["outcomes"][0] = obj["bob"][1]["outcomes"][0][:-1]
    with pytest.raises(ParseError, match=r"spec file: bob\[1\] outcome 1 must be a numeric "
                                         r"array of shape \(8,\)"):
        load_spec(json.dumps(obj))


def test_load_spec_refuses_mixed_flavors():
    obj = json.loads(save_spec(chsh_optimal_spec()))
    obj["bob"][1]["flavor"] = POVM
    with pytest.raises(ParseError, match=r"spec file: families mix flavors \['povm', 'pvm'\]"):
        load_spec(json.dumps(obj))


NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999")


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("path, message", [
    (("bob", 1, "outcomes", 0, 2), r"spec file: bob\[1\] outcome 1 has a non-finite entry"),
    (("alice", 0, "outcomes", 1, 5), r"spec file: alice\[0\] outcome 2 has a non-finite entry"),
    (("state", 3), "spec file: 'state' has a non-finite entry")])
def test_load_spec_names_a_non_finite_entry(path, message, literal):
    obj = json.loads(save_spec(chsh_optimal_spec()))
    *outer, last = path
    inner = obj
    for key in outer:
        inner = inner[key]
    inner[last] = "BAD"
    with pytest.raises(ParseError, match=message):
        load_spec(json.dumps(obj).replace('"BAD"', literal))


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj["bob"].pop(), "spec file: alice has 2 families but bob has 1"),
    (lambda obj: obj["alice"].clear(), "spec file: alice has 0 families but bob has 2"),
    (lambda obj: obj.update(alice=[], bob=[]), "spec file: need at least one family")])
def test_load_spec_refuses_unequal_or_empty_sides(edit, message):
    obj = json.loads(save_spec(chsh_optimal_spec()))
    edit(obj)
    with pytest.raises(ParseError, match=message):
        load_spec(json.dumps(obj))


def test_load_spec_rejects_non_numeric_fields():
    obj = json.loads(save_spec(chsh_optimal_spec()))
    for field, bad, message in (("dim_alice", "x", "dim_alice must be an integer >= 1"),
                                ("state", ["x", 0.0], "'state' must be a numeric array")):
        with pytest.raises(ParseError, match=message):
            load_spec(json.dumps(dict(obj, **{field: bad})))


def test_load_spec_rejects_nested_interleaved_state():
    # Same 8 numbers as the flat state, but split per amplitude: a reader
    # that flattens would load a different vector.
    obj = json.loads(save_spec(chsh_optimal_spec()))
    nested = [obj["state"][i:i + 2] for i in range(0, 8, 2)]
    with pytest.raises(ParseError, match=r"spec file: 'state' must be a numeric array of shape \(8,\)"):
        load_spec(json.dumps(dict(obj, state=nested)))


@pytest.mark.parametrize("field, bad", [("dim_alice", 0), ("dim_bob", 0), ("n_outcomes", 0),
                                        ("n_outcomes", 2.7), ("dim_alice", -1),
                                        ("dim_bob", True), ("n_outcomes", None)])
def test_load_spec_requires_positive_integral_counts(field, bad):
    obj = json.loads(save_spec(chsh_optimal_spec()))
    with pytest.raises(ParseError, match=f"{field} must be an integer >= 1"):
        load_spec(json.dumps(dict(obj, **{field: bad})))


def test_load_spec_rejects_empty_spec():
    empty = {"flavor": "tensor", "dim_alice": 0, "dim_bob": 0, "n_outcomes": 2,
             "state": [], "alice": [], "bob": []}
    with pytest.raises(ParseError, match="dim_alice must be an integer >= 1, got 0"):
        load_spec(json.dumps(empty))


def test_load_spec_accepts_integral_floats():
    obj = json.loads(save_spec(chsh_optimal_spec()))
    loaded = load_spec(json.dumps(dict(obj, dim_alice=2.0, n_outcomes=2.0)))
    assert loaded.dims == chsh_optimal_spec().dims
