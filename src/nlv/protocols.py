"""Executable entanglement demonstrations.

Two protocols over the maximally entangled two-qubit state: superdense
coding (two classical bits per transmitted qubit, decoded by a Bell-basis
measurement) and the perfect-correlation experiment (measuring both halves
in a common basis always agrees, even though each marginal is a coin flip).

Exact claims (round-trip identity, perfect agreement) are computed from
amplitudes; the random number stream only drives the sampled marginals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments
from .errors import CapExceededError, ValidationError
from .linalg import identity
from .quantum import (PAULI_X, PAULI_Z, PVM, MeasurementFamily, born_probabilities,
                      check_state, collapse_state, epr_state, rotated_basis_pvm)
from .rng import generator

MESSAGES = ((1, 1), (1, 2), (2, 1), (2, 2))
_UNIFORM_BYTES = 24   # peak bytes per trial of one uniform draw and its comparison
MAX_TRIALS = 1_000_000_000   # epr trials, 6-8 ns each


@dataclass(frozen=True)
class TwoBitMessage:
    """Two classical bits, each written as 1 or 2."""

    first: int
    second: int

    def __post_init__(self):
        if self.first not in (1, 2) or self.second not in (1, 2):
            raise ValidationError(
                f"message bits must be 1 or 2, got ({self.first}, {self.second})")


def _encoding_operator(msg: TwoBitMessage) -> np.ndarray:
    """Local action on the first qubit: identity, bit flip, phase flip, or
    both, indexed by the message."""
    eye = identity(2)
    table = {
        (1, 1): eye,
        (1, 2): PAULI_X,
        (2, 1): PAULI_Z,
        (2, 2): PAULI_Z @ PAULI_X,
    }
    return np.kron(table[(msg.first, msg.second)], eye)


def bell_basis() -> tuple[np.ndarray, ...]:
    """The four orthonormal states reachable from the shared state by the
    sender's local action, in message order (1,1), (1,2), (2,1), (2,2)."""
    return tuple(_encoding_operator(TwoBitMessage(*m)) @ epr_state() for m in MESSAGES)


def bell_measurement() -> MeasurementFamily:
    """PVM of projections onto the four Bell-basis states."""
    return MeasurementFamily(
        outcomes=tuple(np.outer(v, v.conj()) for v in bell_basis()),
        flavor=PVM)


def superdense_encode(msg: TwoBitMessage) -> np.ndarray:
    """State of the qubit pair after the sender applies her local action
    for ``msg`` to her half of the shared state."""
    return _encoding_operator(msg) @ epr_state()


def superdense_decode(state) -> tuple[TwoBitMessage, np.ndarray]:
    """Measure in the Bell basis and return the most likely message along
    with the four outcome probabilities (in message order).  On an exact
    encoding the winning probability is 1."""
    vec = check_state(state)
    if vec.shape[0] != 4:
        raise ValidationError(f"superdense decoding needs a two-qubit state, got dim {vec.shape[0]}")
    probs = born_probabilities(bell_measurement(), vec)
    winner = int(np.argmax(probs))
    return TwoBitMessage(*MESSAGES[winner]), probs


@dataclass(frozen=True)
class EprStats:
    """Outcome summary of the perfect-correlation experiment."""

    trials: int
    basis: str
    seed: int
    agreement_frequency: float
    alice_marginal: tuple[float, float]


def _local_pvm(basis: str) -> MeasurementFamily:
    if basis == "coordinate":
        return rotated_basis_pvm(0.0)
    if basis == "horizontal":
        return rotated_basis_pvm(np.pi / 4)
    raise ValidationError(f"basis must be 'coordinate' or 'horizontal', got {basis!r}")


def epr_correlation_demo(trials: int, seed: int, basis: str = "coordinate") -> EprStats:
    """Alice measures her half of the shared state, the state collapses,
    then Bob measures his half in the same basis.

    Agreement is decided from amplitudes (Bob's conditional probability of
    matching must be 1 up to 1e-12), so the reported frequency is exact;
    only which outcome Alice sees per trial is sampled.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise CapExceededError(f"{trials} trials exceeds cap {MAX_TRIALS}")
    local = _local_pvm(basis)
    eye = identity(2)
    alice_family = MeasurementFamily(
        outcomes=tuple(np.kron(mat, eye) for mat in local.outcomes), flavor=PVM)
    bob_family = MeasurementFamily(
        outcomes=tuple(np.kron(eye, mat) for mat in local.outcomes), flavor=PVM)
    shared = epr_state()
    alice_probs = born_probabilities(alice_family, shared)
    # Both collapses and Bob's conditional distributions are trial-independent.
    deterministic_match = []
    for outcome in range(2):
        collapsed = collapse_state(alice_family, outcome, shared)
        bob_probs = born_probabilities(bob_family, collapsed)
        deterministic_match.append(bob_probs[outcome] >= 1.0 - 1e-12)
    # Alice sees outcome 0 where a trial's uniform is below its probability;
    # the uniforms of one stream come in chunks.
    rng = generator(seed)
    counts = np.zeros(2, dtype=np.int64)
    for part in moments.chunks(trials, _UNIFORM_BYTES):
        counts += np.bincount(rng.random(len(part)) >= alice_probs[0], minlength=2)
    counts = counts.tolist()
    agreements = sum(c for c, match in zip(counts, deterministic_match) if match)
    return EprStats(
        trials=trials,
        basis=basis,
        seed=seed,
        agreement_frequency=agreements / trials,
        alice_marginal=(counts[0] / trials, counts[1] / trials))
