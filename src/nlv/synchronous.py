"""Synchronous correlations from projection families in matrix algebras.

A family of n-outcome PVMs f^1, ..., f^k in the d x d matrices defines a
correlation through the normalized trace, p(a, b | x, y) =
tr(f^x_a f^y_b) / d.  Such correlations are automatically synchronous
(same question, same answer) and symmetric under swapping the players.
The lower-bound search optimizes these families for a game objective; all
reported values are finite-dimensional lower bounds, since the search runs
over matrix algebras only and attainment there is not guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import _first_best
from .errors import CapExceededError, DefectTooLargeError, Report, ValidationError
from .game import COMPUTED_TOL, Game, Strategy, payoff
from .linalg import dagger, frobenius, identity
from .quantum import (POVM, PVM, MeasurementFamily, best_response, diagonal_pvm,
                      random_block_families, seesaw_search, stack_families, validate_stack)

REPAIR_DEFECT_CAP = 0.1
MAX_FAMILY_DIM = 1024  # d for the synchronous search: each best response is a d x d eigh


@dataclass(frozen=True, eq=False)
class TracialPVMFamily:
    """k families of n projections in a common matrix dimension d, held as
    one read-only (k, n, d, d) complex array and built by
    :func:`~nlv.quantum.stack_families` with measurement "pvm"."""

    families: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "families", stack_families(self.families, PVM))

    @property
    def d(self) -> int:
        return self.families.shape[-1]

    @property
    def k(self) -> int:
        return self.families.shape[0]

    @property
    def n(self) -> int:
        return self.families.shape[1]


def validate_family(family: TracialPVMFamily, tol: float = COMPUTED_TOL) -> Report:
    """Check every family as a PVM in one batched pass."""
    return validate_stack(family.families, PVM, "family {}: ", tol)


def tracial_correlation(family: TracialPVMFamily) -> Strategy:
    """Correlation p(a, b | x, y) = tr(f^x_a f^y_b) / d.

    The output is a valid synchronous strategy: orthogonality of the
    projections within one family kills the off-diagonal same-question
    mass, and cyclicity of the trace gives p(a, b | x, y) = p(b, a | y, x).
    """
    validate_family(family).raise_if_failed("tracial PVM family")
    f = family.families
    p = np.einsum("xaij,ybji->xyab", f, f) / family.d
    worst_imag = float(np.max(np.abs(p.imag)))
    if worst_imag > COMPUTED_TOL:
        raise ValidationError(f"trace correlation has imaginary residual {worst_imag:.3g}")
    return Strategy(k=family.k, n=family.n, p=p.real)


def scalar_family(assignment: tuple[int, ...], n: int, d: int) -> TracialPVMFamily:
    """Deterministic synchronous family: question x answers assignment[x]
    with certainty (the identity sits on that outcome, zero elsewhere)."""
    return TracialPVMFamily(
        families=diagonal_pvm(np.repeat(np.array(assignment)[:, None], d, axis=1), n))


def _best_scalar_assignment(game: Game) -> tuple[float, tuple[int, ...]]:
    """Exact best deterministic synchronous strategy (both players use the
    same answer function A) as ``(value, A)``, scoring each A by summing
    V[x, y, A[x], A[y]] in (x, y) order; ties go to the smallest A."""
    k = game.k
    v = payoff(game)

    def score(answers):
        values = np.zeros(len(answers))
        for x in range(k):
            for y in range(k):
                values += v[x, y, answers[:, x], answers[:, y]]
        return values

    # Per row: two int64 answer rows and three floats.
    value, best = _first_best(k, game.n, 8 * (2 * k + 3), score)
    return value, tuple(int(a) + 1 for a in best)


def _sync_seesaw_bytes(game: Game, d: int) -> int:
    """Bytes one restart of :func:`_sync_seesaw` holds at most: six (k, n,
    d, d) stacks' worth (its families, their live copy, one question's
    weights and best-response temporaries)."""
    return 16 * 6 * game.k * game.n * d * d


def _sync_seesaw(game: Game, d: int, rngs: list[np.random.Generator],
                 iters: int) -> list[TracialPVMFamily]:
    """One restart per generator in ``rngs``, each from random block PVMs,
    all run as one stacked pass: each round is a round-robin over the
    questions, each question one best response over the stack against the
    trace objective with the other families held fixed.  A restart leaves
    ``live`` once a round gains at most 1e-12, which freezes it as it would
    have stopped alone; all stop after ``iters`` rounds.

    Since tr(P^2) = tr(P), the same-question terms are linear too: family
    x scores tr(f^x_a) V[x, x, a, a] / d, so ranks may change."""
    k, n = game.k, game.n
    v = payoff(game)
    # coupling[x, y, a, b]: weight of tr(f^x_a f^y_b) from both orderings.
    coupling = (v + v.transpose(1, 0, 3, 2)) / d
    coupling[np.arange(k), np.arange(k)] = 0.0
    # same[x, a] = (V[x, x, a, a] / d) I, the same-question weight.
    same = np.einsum("xxaa,ij->xaij", v, identity(d)) / d
    families = np.array([random_block_families(k, n, d, rng) for rng in rngs])
    last = np.full(len(rngs), -np.inf)
    live = np.arange(len(rngs))
    for _ in range(iters):
        f = families[live]
        for x in range(k):
            weights = np.einsum("yab,rybij->raij", coupling[x], f) + same[x]
            f[:, x] = best_response(weights, f[:, x])
        current = np.einsum("xyab,rxaij,rybji->r", v, f, f).real / d
        families[live] = f
        going = current > last[live] + 1e-12
        last[live] = current
        live = live[going]
        if not live.size:
            break
    return [TracialPVMFamily(families=f) for f in families]


def sync_value_lower_bound(game: Game, dim: int, restarts: int, seed: int,
                           iters: int = 60) -> tuple[float, TracialPVMFamily]:
    """Best tracial PVM family of dimension ``dim`` found by seeded
    restarts, with its exact value via tracial_correlation + game_value.

    Self-certifying like the entangled search; all outputs are
    finite-dimensional lower bounds on the synchronous entangled value.
    The best deterministic synchronous family joins the candidate pool
    when enumeration is affordable.  Deterministic in ``seed``.
    """
    if dim > MAX_FAMILY_DIM:
        raise CapExceededError(f"dim = {dim} exceeds the synchronous search cap {MAX_FAMILY_DIM}")
    return seesaw_search(
        game, dim, restarts, seed, iters, _sync_seesaw, _sync_seesaw_bytes(game, dim),
        tracial_correlation, lambda: [scalar_family(_best_scalar_assignment(game)[1], game.n, dim)])


def repair_almost_pvm(mats) -> MeasurementFamily:
    """Project a family of near-projections with small defect onto a
    genuine PVM.

    Defect is the largest Frobenius norm among self-adjointness residuals
    f - f*, idempotence residuals f - f^2, and the completeness residual
    sum(f) - I; inputs with defect above 0.1 are rejected.  Construction:
    symmetrize each element, spread the completeness error uniformly to get
    score operators summing to the identity, diagonalize their index-
    weighted sum, and assign each eigenvector to the outcome whose score is
    largest.  The result is an exact PVM whose distance to the input is a
    small multiple of the defect.
    """
    # The family constructor only checks shapes and finiteness here.
    elements = MeasurementFamily(outcomes=mats, flavor=POVM).outcomes
    n, d = elements.shape[:2]
    defect = max(float(np.max(frobenius(elements - dagger(elements)))),
                 float(np.max(frobenius(elements - elements @ elements))),
                 float(frobenius(elements.sum(axis=0) - identity(d))))
    if defect > REPAIR_DEFECT_CAP:
        raise DefectTooLargeError(
            f"defect {defect:.3g} exceeds repair cap {REPAIR_DEFECT_CAP}")
    scores = 0.5 * (elements + dagger(elements))
    scores += (identity(d) - scores.sum(axis=0)) / n
    _, vectors = np.linalg.eigh(np.einsum("a,aij->ij", np.arange(1.0, n + 1), scores))
    # gains[c, a] = <v_c, S_a v_c>: eigenvector c goes to its best outcome.
    gains = np.einsum("ic,aij,jc->ca", vectors.conj(), scores, vectors).real
    owner = np.argmax(gains, axis=1)
    return MeasurementFamily(
        outcomes=[vectors[:, owner == a] @ dagger(vectors[:, owner == a]) for a in range(n)],
        flavor=PVM)
