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

from .classical import first_best
from .errors import (CapExceededError, DefectTooLargeError, ParseError, dump_json, read_count,
                     read_field, read_object, require)
from .game import Game, Strategy, correlation_values, payoff, payoff_matrix
from .linalg import dagger, frobenius, identity, interleave
from .quantum import MeasurementFamily, answer_pvms, read_outcomes, stack_families
from .seesaw import (ITERS, POVM, PVM, Prepared, Search, best_response, climb, correlations,
                     random_block_families, seesaw_search, validate_stack, weigh)

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


def save_family(family: TracialPVMFamily) -> str:
    """Serialize a tracial family to JSON: ``dim``, ``n_outcomes`` and
    ``families``, with families[x][a] = f^x_a interleaved as in spec files."""
    return dump_json({"dim": family.d, "n_outcomes": family.n,
                      "families": interleave(family.families, 2)}) + "\n"


def load_family(text: str) -> TracialPVMFamily:
    """Parse a family file written by :func:`save_family`."""
    where = "family file"
    obj = read_object(text, where)
    d, n = read_count(obj, "dim", where), read_count(obj, "n_outcomes", where)
    rows = read_field(obj, "families", list, where)
    for x, outcomes in enumerate(rows):
        if not isinstance(outcomes, list) or len(outcomes) != n:
            raise ParseError(f"{where}: families[{x}] must be a list of {n} outcomes")
    families = read_outcomes(rows, n, d, f"{where}: families")
    if not len(families):
        raise ParseError(f"{where}: need at least one family")
    return TracialPVMFamily(families=families)


def validate_family(family: TracialPVMFamily) -> tuple[str, ...]:
    """Every family's PVM violation lines, from one batched pass: a one-row
    :func:`~nlv.seesaw.validate_stack` with :data:`SYNCHRONOUS`'s label."""
    return validate_stack([""], zip(SYNCHRONOUS.labels, (family.families[None],)), PVM)


def _tracial_correlations(chunk, names) -> np.ndarray:
    """tr(f^x_a f^y_b) / d for each row of a chunk's (R, k, n, d, d)
    families, as :func:`~nlv.seesaw.correlations`: the trace of a product
    is the entrywise product of one factor with the other's transpose."""
    (f,) = chunk
    rows, k, n, d, _ = f.shape
    return correlations(f.reshape(rows, k, n, d * d),
                        np.swapaxes(f, -1, -2).reshape(rows, k, n, d * d), names) / d


def tracial_correlation(family: TracialPVMFamily) -> Strategy:
    """Correlation p(a, b | x, y) = tr(f^x_a f^y_b) / d.

    The output is a valid synchronous strategy: orthogonality of the
    projections within one family kills the off-diagonal same-question
    mass, and cyclicity of the trace gives p(a, b | x, y) = p(b, a | y, x).
    The one-row case of how :data:`SYNCHRONOUS` certifies the see-saw's
    chunks.
    """
    require(validate_family(family), "tracial PVM family")
    return Strategy(k=family.k, n=family.n,
                    p=_tracial_correlations((family.families[None],), [""])[0])


def scalar_family(assignment: tuple[int, ...], n: int, d: int) -> TracialPVMFamily:
    """Deterministic synchronous family: question x answers assignment[x]
    with certainty (the identity sits on that outcome, zero elsewhere)."""
    return TracialPVMFamily(families=answer_pvms(assignment, n, d))


def _best_scalar_assignment(v: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exact best deterministic synchronous strategy (both players use the
    same answer function A) as ``(value, A)``, scoring each A by summing the
    payoff V[x, y, A[x], A[y]] in (x, y) order; ties go to the smallest A."""
    k, n = v.shape[0], v.shape[2]

    def score(answers):
        values = np.zeros(len(answers))
        for x in range(k):
            for y in range(k):
                values += v[x, y, answers[:, x], answers[:, y]]
        return values

    # Per row: two int64 answer rows and three floats.
    value, best = first_best(k, n, 8 * (2 * k + 3), score)
    return value, tuple(int(a) + 1 for a in best)


def _prepare(game: Game, d: int) -> Prepared:
    """The synchronous record, whose matrix is the see-saw's coupling: its
    x-th entry is question x's (n, kn) block of rows C[(x, a), (y, b)], the
    weight of tr(f^x_a f^y_b) / d from both orderings (zero for y = x)."""
    k, n = game.k, game.n
    v = payoff(game)
    m = payoff_matrix(v)
    coupling = ((m + m.T) / d).reshape(k, n, k * n)
    coupling.reshape(k, n, k, n)[np.arange(k), :, np.arange(k)] = 0.0
    return Prepared(game, d, v, 16 * 6 * k * n * d * d, coupling)


def _sync_seesaw(record: Prepared, rngs: list[np.random.Generator],
                 iters: int) -> tuple[np.ndarray]:
    """The synchronous restart kernel, from random block PVMs, run by
    :func:`~nlv.seesaw.climb`.  Each round is a round-robin over the
    questions, each question one best response over the stack against the
    trace objective with the other families held fixed, its weights one
    product of its rows of the coupling matrix with the flattened families.
    A round is scored as the search certifies it, by its correlations' value.

    Since tr(P^2) = tr(P), the same-question terms are linear too: family
    x scores tr(f^x_a) V[x, x, a, a] / d, so ranks may change."""
    k, n, d = record.game.k, record.game.n, record.dim
    same = np.einsum("xxaa,ij->xaij", record.payoff, identity(d)) / d

    def step(rows):
        (f,) = rows
        for x in range(k):
            f[:, x] = best_response(weigh(record.matrix[x], f) + same[x], f[:, x])
        return rows, correlation_values(record.payoff, _tracial_correlations(rows, [""] * len(f)))

    return climb(step, (random_block_families(k, n, d, rngs),), iters)


# Chunks of (R, k, n, d, d) families; the seed is the best deterministic
# synchronous family.  A restart holds at most six (k, n, d, d) stacks'
# worth: its families, their live copy, a transposed copy for the round
# score, one question's weights and best-response temporaries, or the
# certification of its row.
SYNCHRONOUS = Search(
    prepare=_prepare, restart=_sync_seesaw, labels=("family {}: ",),
    correlate=_tracial_correlations,
    seed=lambda record: (answer_pvms(_best_scalar_assignment(record.payoff)[1],
                                     record.game.n, record.dim)[None],))


def sync_value_lower_bound(game: Game, dim: int, restarts: int, seed: int,
                           iters: int = ITERS) -> tuple[float, TracialPVMFamily]:
    """Best tracial PVM family of dimension ``dim`` found by seeded
    restarts, with its exact value via tracial_correlation + game_value.

    Self-certifying like the entangled search; all outputs are
    finite-dimensional lower bounds on the synchronous entangled value.
    The best deterministic synchronous family joins the candidate pool
    when enumeration is affordable.  Deterministic in ``seed``.
    """
    if dim > MAX_FAMILY_DIM:
        raise CapExceededError(f"dim = {dim} exceeds the synchronous search cap {MAX_FAMILY_DIM}")
    value, (families,) = seesaw_search(game, dim, restarts, seed, iters, SYNCHRONOUS)
    return value, TracialPVMFamily(families=families)


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
