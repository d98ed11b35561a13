"""Deterministic and shared-randomness (local) strategies.

The classical value of a game is the exact maximum over all n^(2k)
deterministic strategies; local strategies are convex mixtures of
deterministic ones and can never beat that maximum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError
from .game import DIST_TOL, Game, Strategy

ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class DeterministicStrategy:
    """Answer functions for both players: ``alice[x-1]`` is Alice's 1-based
    answer to question x, likewise ``bob`` for Bob."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alice", tuple(int(v) for v in self.alice))
        object.__setattr__(self, "bob", tuple(int(v) for v in self.bob))


def check_answer_range(d: DeterministicStrategy, k: int, n: int) -> None:
    for name, answers in (("alice", d.alice), ("bob", d.bob)):
        if len(answers) != k:
            raise ValidationError(f"{name} must answer all {k} questions, got {len(answers)}")
        for x, a in enumerate(answers):
            if not 1 <= a <= n:
                raise ValidationError(
                    f"{name} answer {a} to question {x + 1} out of range [1..{n}]")


def det_to_strategy(d: DeterministicStrategy, k: int, n: int) -> Strategy:
    """Point-mass strategy tensor: probability 1 on (alice[x], bob[y])."""
    check_answer_range(d, k, n)
    p = np.zeros((k, k, n, n))
    for x in range(k):
        for y in range(k):
            p[x, y, d.alice[x] - 1, d.bob[y] - 1] = 1.0
    return Strategy(k=k, n=n, p=p)


def classical_value(game: Game, cap: int = ENUMERATION_CAP) -> tuple[float, DeterministicStrategy]:
    """Exact maximum winning probability over deterministic strategies.

    Equivalent to scanning all n^(2k) pairs of answer functions with Bob's
    function varying fastest: for each Alice function the best Bob reply
    decomposes question by question, so Bob's side is maximized in closed
    form.  Ties are broken toward the lexicographically smallest
    (alice, bob) pair.  The cost is one step per Alice function, so this
    raises when n^k exceeds ``cap``; at that size use random restarts over
    deterministic strategies and report the best value found as a labeled
    lower bound.
    """
    k, n = game.k, game.n
    total = n ** k
    if total > cap:
        raise CapExceededError(
            f"{n}^{k} = {total} Alice answer functions exceeds cap {cap}; "
            "sample random deterministic strategies instead and report a lower bound")
    questions = np.arange(k)
    best_value = -np.inf
    best_alice: tuple[int, ...] = ()
    best_bob: tuple[int, ...] = ()
    for alice in itertools.product(range(n), repeat=k):
        picked = game.wins[questions, :, np.asarray(alice), :]   # [x, y, b]
        bob_scores = np.einsum("xy,xyb->yb", game.pi, picked)
        bob = np.argmax(bob_scores, axis=1)                      # first max = smallest b
        value = float(bob_scores[questions, bob].sum())
        if value > best_value:
            best_value = value
            best_alice = alice
            best_bob = tuple(int(b) for b in bob)
    argmax = DeterministicStrategy(
        alice=tuple(a + 1 for a in best_alice),
        bob=tuple(b + 1 for b in best_bob))
    return best_value, argmax


def sample_local(mixture: list[tuple[float, DeterministicStrategy]], k: int, n: int) -> Strategy:
    """Convex combination of deterministic strategies (a local strategy:
    both players deterministically follow a shared random label)."""
    if not mixture:
        raise ValidationError("mixture must contain at least one strategy")
    weights = np.array([w for w, _ in mixture], dtype=np.float64)
    if np.any(weights < 0):
        raise ValidationError("mixture weights must be nonnegative")
    mass = float(weights.sum())
    if abs(mass - 1.0) > DIST_TOL:
        raise ValidationError(f"mixture weights sum to {mass:.6g} != 1")
    p = np.zeros((k, k, n, n))
    for weight, det in mixture:
        p += weight * det_to_strategy(det, k, n).p
    return Strategy(k=k, n=n, p=p)


def is_synchronous(strategy: Strategy, tol: float = 1e-9) -> bool:
    """True iff equal questions always get equal answers: the off-diagonal
    answer mass p(a, b | x, x) with a != b never exceeds ``tol``."""
    for x in range(strategy.k):
        block = strategy.p[x, x].copy()
        np.fill_diagonal(block, 0.0)
        if float(np.max(block, initial=0.0)) > tol:
            return False
    return True
