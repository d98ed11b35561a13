"""Superdense coding and perfect-correlation demonstrations."""

import numpy as np
import pytest

from nlv.errors import ValidationError
from nlv.linalg import kron
from nlv.protocols import (MESSAGES, TwoBitMessage, bell_basis,
                           bell_measurement, epr_correlation_demo,
                           superdense_decode, superdense_encode)
from nlv.quantum import (PVM, MeasurementFamily, born_probabilities, collapse_state,
                         block_projectors, epr_state)
from nlv.linalg import random_unitary
from nlv.rng import generator

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
SQRT2 = np.sqrt(2.0)


def test_message_validation():
    with pytest.raises(ValidationError):
        TwoBitMessage(0, 1)
    with pytest.raises(ValidationError):
        TwoBitMessage(1, 3)


def test_encode_11_is_shared_state():
    expected = (kron(E1, E1) + kron(E2, E2)) / SQRT2
    assert np.allclose(superdense_encode(TwoBitMessage(1, 1)), expected, atol=1e-15)


def test_encode_22_is_singlet():
    expected = (kron(E1, E2) - kron(E2, E1)) / SQRT2
    assert np.allclose(superdense_encode(TwoBitMessage(2, 2)), expected, atol=1e-15)


def test_encode_12_and_21():
    assert np.allclose(superdense_encode(TwoBitMessage(1, 2)),
                       (kron(E2, E1) + kron(E1, E2)) / SQRT2, atol=1e-15)
    assert np.allclose(superdense_encode(TwoBitMessage(2, 1)),
                       (kron(E1, E1) - kron(E2, E2)) / SQRT2, atol=1e-15)


def test_encodings_pairwise_orthogonal():
    states = [superdense_encode(TwoBitMessage(*m)) for m in MESSAGES]
    for i, u in enumerate(states):
        for j, v in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert abs(np.vdot(u, v) - expected) < 1e-12


def test_round_trip_all_messages_probability_one():
    for m in MESSAGES:
        msg = TwoBitMessage(*m)
        decoded, probs = superdense_decode(superdense_encode(msg))
        assert decoded == msg
        assert probs[MESSAGES.index(m)] == pytest.approx(1.0, abs=1e-12)


def test_decode_shared_state_is_11():
    decoded, _ = superdense_decode(epr_state())
    assert decoded == TwoBitMessage(1, 1)


def test_decode_superposition_probabilities():
    basis = bell_basis()
    state = (basis[0] + basis[1]) / SQRT2
    _, probs = superdense_decode(state)
    assert np.allclose(probs, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_bell_measurement_is_pvm():
    from nlv.quantum import validate_measurement
    assert validate_measurement(bell_measurement()).ok


def test_epr_agreement_exact_coordinate():
    stats = epr_correlation_demo(2000, seed=3)
    assert stats.agreement_frequency == 1.0


def test_epr_agreement_exact_horizontal():
    stats = epr_correlation_demo(2000, seed=3, basis="horizontal")
    assert stats.agreement_frequency == 1.0


def test_epr_marginal_near_uniform():
    stats = epr_correlation_demo(10_000, seed=123)
    assert abs(stats.alice_marginal[0] - 0.5) < 0.02
    assert abs(stats.alice_marginal[1] - 0.5) < 0.02


def test_epr_deterministic_in_seed():
    a = epr_correlation_demo(500, seed=9)
    b = epr_correlation_demo(500, seed=9)
    assert a == b


def test_epr_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        epr_correlation_demo(0, seed=1)
    with pytest.raises(ValidationError):
        epr_correlation_demo(10, seed=1, basis="diagonal")


def test_collapse_then_remeasure_repeats_outcome():
    # Measuring twice in the same basis gives the first outcome again
    # with probability 1, for arbitrary states and PVMs.
    rng = np.random.default_rng(6)
    for seed in range(25):
        dim = int(rng.integers(2, 6))
        n = int(rng.integers(2, min(dim, 4) + 1))
        fam = MeasurementFamily(outcomes=block_projectors(random_unitary(dim, generator(seed)), n),
                                flavor=PVM)
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        probs = born_probabilities(fam, vec)
        outcome = int(np.argmax(probs))
        collapsed = collapse_state(fam, outcome, vec)
        again = born_probabilities(fam, collapsed)
        assert again[outcome] == pytest.approx(1.0, abs=1e-10)


def test_collapse_zero_probability_outcome_rejected():
    fam = MeasurementFamily(
        outcomes=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        flavor=PVM)
    with pytest.raises(ValidationError, match="probability 0"):
        collapse_state(fam, 1, np.array([1, 0], dtype=complex))
