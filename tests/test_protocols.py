"""Superdense coding and perfect-correlation demonstrations."""

import time
import tracemalloc

import numpy as np
import pytest

from nlv import moments, protocols
from nlv.errors import CapExceededError, ValidationError
from nlv.protocols import (MESSAGES, TwoBitMessage, bell_basis,
                           bell_measurement, epr_correlation_demo,
                           superdense_decode, superdense_encode)
from nlv.quantum import PVM, MeasurementFamily, born_probabilities, collapse_state, epr_state
from nlv.rng import generator
from nlv.seesaw import random_block_families

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
SQRT2 = np.sqrt(2.0)


def test_message_validation():
    with pytest.raises(ValidationError):
        TwoBitMessage(0, 1)
    with pytest.raises(ValidationError):
        TwoBitMessage(1, 3)


def test_encode_11_is_shared_state():
    expected = (np.kron(E1, E1) + np.kron(E2, E2)) / SQRT2
    assert np.allclose(superdense_encode(TwoBitMessage(1, 1)), expected, atol=1e-15)


def test_encode_22_is_singlet():
    expected = (np.kron(E1, E2) - np.kron(E2, E1)) / SQRT2
    assert np.allclose(superdense_encode(TwoBitMessage(2, 2)), expected, atol=1e-15)


def test_encode_12_and_21():
    assert np.allclose(superdense_encode(TwoBitMessage(1, 2)),
                       (np.kron(E2, E1) + np.kron(E1, E2)) / SQRT2, atol=1e-15)
    assert np.allclose(superdense_encode(TwoBitMessage(2, 1)),
                       (np.kron(E1, E1) - np.kron(E2, E2)) / SQRT2, atol=1e-15)


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
    assert validate_measurement(bell_measurement()) == ()


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


@pytest.mark.parametrize("basis", ["coordinate", "horizontal"])
def test_epr_chunked_draw_is_the_one_chunk_draw(basis, monkeypatch):
    # One generator stream walks every chunk, so 143 chunks of 7 trials
    # give the stats of one chunk of 1,000.
    whole = epr_correlation_demo(1000, seed=21, basis=basis)
    monkeypatch.setattr(moments, "CHUNK_BYTES", 7 * protocols._UNIFORM_BYTES)
    assert len(list(moments.chunks(1000, protocols._UNIFORM_BYTES))) == 143
    assert epr_correlation_demo(1000, seed=21, basis=basis) == whole


def test_epr_memory_stays_within_the_chunk_budget():
    # One draw of 10^7 uniforms would hold ~240 MB; the chunked draw holds
    # one chunk's, and its counts are those of one unchunked draw,
    # np.bincount(generator(12345).random(10 ** 7) >= 0.5).
    epr_correlation_demo(10, seed=0)   # one-time lazy set-up, untraced
    tracemalloc.start()
    try:
        stats = epr_correlation_demo(10 ** 7, seed=12345, basis="horizontal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < moments.CHUNK_BYTES + (1 << 20)
    assert stats.agreement_frequency == 1.0
    assert stats.alice_marginal == (4998942 / 10 ** 7, 5001058 / 10 ** 7)


def test_epr_trials_past_the_cap_are_refused_before_any_draw(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(CapExceededError, match="^1000000001 trials exceeds cap 1000000000$"):
        epr_correlation_demo(protocols.MAX_TRIALS + 1, seed=0)
    assert time.perf_counter() - started < 0.1
    monkeypatch.setattr(protocols, "MAX_TRIALS", 50)
    assert epr_correlation_demo(50, seed=0).trials == 50
    with pytest.raises(CapExceededError, match="^51 trials exceeds cap 50$"):
        epr_correlation_demo(51, seed=0)


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
        fam = MeasurementFamily(outcomes=random_block_families(1, n, dim, [generator(seed)])[0][0],
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


def test_superdense_decode_refuses_a_state_that_is_not_two_qubits():
    with pytest.raises(ValidationError,
                       match="superdense decoding needs a two-qubit state, got dim 2"):
        superdense_decode(E1)
