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

from .errors import DefectTooLargeError, Report, ValidationError
from .game import Game, Strategy
from .linalg import dagger, frobenius, identity, random_unitary
from .quantum import (POVM, PVM, MeasurementFamily, best_response, block_projectors, diagonal_pvm,
                      family_violations, payoff, seesaw_search, stack_outcomes)
from .rng import generator

REPAIR_DEFECT_CAP = 0.1


@dataclass(frozen=True, eq=False)
class TracialPVMFamily:
    """k families of n projections in a common matrix dimension d."""

    families: tuple[MeasurementFamily, ...]

    def __post_init__(self):
        families = tuple(self.families)
        if not families:
            raise ValidationError("need at least one question family")
        d = families[0].dim
        n = families[0].n_outcomes
        for x, fam in enumerate(families):
            if fam.flavor != PVM:
                raise ValidationError(f"family {x + 1} must be flavored '{PVM}'")
            if fam.dim != d or fam.n_outcomes != n:
                raise ValidationError(
                    f"family {x + 1} has shape (dim {fam.dim}, {fam.n_outcomes} outcomes), "
                    f"expected (dim {d}, {n} outcomes)")
        object.__setattr__(self, "families", families)

    @property
    def d(self) -> int:
        return self.families[0].dim

    @property
    def k(self) -> int:
        return len(self.families)

    @property
    def n(self) -> int:
        return self.families[0].n_outcomes


def validate_family(family: TracialPVMFamily, tol: float = 1e-9) -> Report:
    violations, worst = family_violations(
        ((f"family {x + 1}", fam) for x, fam in enumerate(family.families)), tol)
    return Report(ok=not violations, violations=tuple(violations), worst=worst)


def tracial_correlation(family: TracialPVMFamily) -> Strategy:
    """Correlation p(a, b | x, y) = tr(f^x_a f^y_b) / d.

    The output is a valid synchronous strategy: orthogonality of the
    projections within one family kills the off-diagonal same-question
    mass, and cyclicity of the trace gives p(a, b | x, y) = p(b, a | y, x).
    """
    validate_family(family).raise_if_failed("tracial PVM family")
    f = stack_outcomes(family.families)
    p = np.einsum("xaij,ybji->xyab", f, f) / family.d
    worst_imag = float(np.max(np.abs(p.imag)))
    if worst_imag > 1e-9:
        raise ValidationError(f"trace correlation has imaginary residual {worst_imag:.3g}")
    return Strategy(k=family.k, n=family.n, p=p.real)


def scalar_family(assignment: tuple[int, ...], n: int, d: int) -> TracialPVMFamily:
    """Deterministic synchronous family: question x answers assignment[x]
    with certainty (the identity sits on that outcome, zero elsewhere)."""
    return TracialPVMFamily(families=tuple(diagonal_pvm([answer] * d, n)
                                           for answer in assignment))


def random_tracial_family(k: int, n: int, d: int, seed: int) -> TracialPVMFamily:
    """Test-corpus generator: each question family conjugates the near-equal
    coordinate block PVM by an independent random unitary."""
    rng = generator(seed)
    return TracialPVMFamily(families=tuple(
        MeasurementFamily(outcomes=block_projectors(random_unitary(d, rng), n), flavor=PVM)
        for _ in range(k)))


def _best_scalar_assignment(game: Game) -> tuple[float, tuple[int, ...]] | None:
    """Exact best deterministic synchronous strategy (both players use the
    same answer function), or None when enumeration is too large."""
    k, n = game.k, game.n
    if n ** k > 1_000_000:
        return None
    import itertools
    best = (-np.inf, (1,) * k)
    for assignment in itertools.product(range(1, n + 1), repeat=k):
        value = 0.0
        for x in range(k):
            for y in range(k):
                value += game.pi[x, y] * game.wins[x, y, assignment[x] - 1, assignment[y] - 1]
        if value > best[0]:
            best = (value, assignment)
    return best


def _sync_seesaw(game: Game, d: int, rng: np.random.Generator,
                 iters: int) -> TracialPVMFamily:
    """One restart from random block PVMs: round-robin best responses of
    each family against the trace objective with the others held fixed.
    It stops once a round gains at most 1e-12, or after ``iters`` rounds.

    Since tr(P^2) = tr(P), the same-question terms are linear too: family
    x scores tr(f^x_a) V[x, x, a, a] / d, so ranks may change."""
    k, n = game.k, game.n
    v = payoff(game)
    # coupling[x, y, a, b]: weight of tr(f^x_a f^y_b) from both orderings.
    coupling = (v + v.transpose(1, 0, 3, 2)) / d
    coupling[np.arange(k), np.arange(k)] = 0.0
    # same[x, a] = (V[x, x, a, a] / d) I, the same-question weight.
    same = np.einsum("xxaa,ij->xaij", v, identity(d)) / d
    f = np.array([block_projectors(random_unitary(d, rng), n) for _ in range(k)])
    last = -np.inf
    for _ in range(iters):
        for x in range(k):
            weights = np.einsum("yab,ybij->aij", coupling[x], f) + same[x]
            f[x] = best_response(weights, f[x])
        current = float(np.real(np.einsum("xyab,xaij,ybji->", v, f, f))) / d
        if current <= last + 1e-12:
            break
        last = current
    return TracialPVMFamily(families=tuple(
        MeasurementFamily(outcomes=fam, flavor=PVM) for fam in f))


def sync_value_lower_bound(game: Game, dim: int, restarts: int, seed: int,
                           iters: int = 60,
                           seed_scalar: bool = True) -> tuple[float, TracialPVMFamily]:
    """Best tracial PVM family of dimension ``dim`` found by seeded
    restarts, with its exact value via tracial_correlation + game_value.

    Self-certifying like the entangled search; all outputs are
    finite-dimensional lower bounds on the synchronous entangled value.
    When ``seed_scalar`` is set, the best deterministic synchronous family
    joins the candidate pool.  Deterministic in ``seed``.
    """
    def seeds() -> list[TracialPVMFamily]:
        best = _best_scalar_assignment(game) if seed_scalar else None
        return [] if best is None else [scalar_family(best[1], game.n, dim)]

    return seesaw_search(game, dim, restarts, seed, iters, _sync_seesaw,
                         tracial_correlation, seeds)


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
