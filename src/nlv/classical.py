"""Deterministic and shared-randomness (local) strategies.

The classical value of a game is the exact maximum over all n^(2k)
deterministic strategies; local strategies are convex mixtures of
deterministic ones and can never beat that maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments
from .errors import CapExceededError, ValidationError, excerpt
from .game import COMPUTED_TOL, DIST_TOL, Game, Strategy, payoff, payoff_matrix

ENUMERATION_CAP = 10_000_000
SEED_ENUMERATION_CAP = 1_000_000   # n^k at most this many to seed the see-saw searches


@dataclass(frozen=True)
class DeterministicStrategy:
    """Answer functions for both players: ``alice[x-1]`` is Alice's 1-based
    answer to question x, likewise ``bob`` for Bob."""

    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alice", _answers(self.alice, "alice"))
        object.__setattr__(self, "bob", _answers(self.bob, "bob"))


def _answers(values, name: str) -> tuple[int, ...]:
    """``values`` as ints: integers (numpy's too) and integral floats are
    read exactly, anything else, a bool included, is refused."""
    answers = []
    for v in values:
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValidationError(f"{name} answers must be integers, got {excerpt(v)}")
        answers.append(int(v))
    return tuple(answers)


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


def first_best(k: int, n: int, row_bytes: int, score) -> tuple[float, np.ndarray]:
    """First maximum of ``score`` over the n^k answer functions [n]^k, the
    package's one enumeration of them: ``score`` maps an (m, k) table of
    0-based answer rows to (m,) values, and sees lexicographic chunks of
    :func:`moments.chunks` of ``row_bytes`` each, ``row_bytes`` being what
    scoring a row holds.  Ties go to the smallest row."""
    place = n ** np.arange(k - 1, -1, -1)
    best_value, best = -np.inf, None
    for part in moments.chunks(n ** k, row_bytes):
        answers = np.arange(part.start, part.stop)[:, None] // place % n
        values = score(answers)
        top = int(np.argmax(values))
        if values[top] > best_value:
            best_value, best = float(values[top]), answers[top]
    return best_value, best


def classical_value(game: Game, cap: int = ENUMERATION_CAP) -> tuple[float, DeterministicStrategy]:
    """Exact maximum winning probability over deterministic strategies.

    Bob's best reply decomposes question by question, so only Alice's n^k
    functions are scanned, in chunks scored as T[m, y, b] = sum_x V[x, y,
    A[m, x], b] with Bob taking the first best b for each y.  Ties go to
    the lexicographically smallest (alice, bob) pair, as in a scan of all
    n^(2k) pairs with Bob's function varying fastest.  Raises when n^k
    exceeds ``cap``; past it, sampled strategies give only a lower bound.
    """
    k, n = game.k, game.n
    if n ** k > cap:
        raise CapExceededError(
            f"{n}^{k} = {n ** k} Alice answer functions exceeds cap {cap}; "
            "sample random deterministic strategies instead and report a lower bound")
    # w[x, a, y, b] = V[x, y, a, b]: what Alice answering a to x adds to T.
    w = payoff_matrix(payoff(game)).reshape(k, n, k, n)

    def score(answers):
        table = w[0, answers[:, 0]]
        for x in range(1, k):
            table += w[x, answers[:, x]]
        return table.max(axis=-1).sum(axis=-1)

    # Per row: two int64 answer rows, T and one gathered term, Bob's maxima, the value.
    _, alice = first_best(k, n, 8 * (2 * k * n + 3 * k + 1), score)
    questions = np.arange(k)
    bob_scores = w[questions, alice].sum(axis=0)             # T[y, b] for Alice's best row
    bob = np.argmax(bob_scores, axis=1)                      # first max = smallest b
    value = float(bob_scores[questions, bob].sum())
    return value, DeterministicStrategy(alice=tuple(alice + 1), bob=tuple(bob + 1))


def check_mixture(mixture: list[tuple[float, DeterministicStrategy]], k: int, n: int) -> np.ndarray:
    """The weights of a mixture of deterministic strategies, which must be
    nonempty, finite and nonnegative with mass within DIST_TOL of 1, after
    checking every member's answers against k questions and n answers."""
    if not mixture:
        raise ValidationError("mixture must contain at least one strategy")
    weights = np.array([w for w, _ in mixture], dtype=np.float64)
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ValidationError("mixture weights must be finite and nonnegative")
    if abs(float(weights.sum()) - 1.0) > DIST_TOL:
        raise ValidationError(f"mixture weights sum to {weights.sum():.6g} != 1")
    for _, det in mixture:
        check_answer_range(det, k, n)
    return weights


def sample_local(mixture: list[tuple[float, DeterministicStrategy]], k: int, n: int) -> Strategy:
    """Convex combination of deterministic strategies (a local strategy:
    both players deterministically follow a shared random label)."""
    check_mixture(mixture, k, n)
    p = sum(weight * det_to_strategy(det, k, n).p for weight, det in mixture)
    return Strategy(k=k, n=n, p=p)


def is_synchronous(strategy: Strategy) -> bool:
    """True iff equal questions always get equal answers: each block p(., . |
    x, x) is finite, with off-diagonal mass (a != b) at most COMPUTED_TOL;
    NaN and inf are violations.  Blocks with x != y are not inspected."""
    same = np.diagonal(strategy.p)                       # [a, b, x] = p(a, b | x, x)
    off = same[~np.eye(strategy.n, dtype=bool)]          # (n(n-1), k)
    return bool(np.all(np.isfinite(same)) and np.all(off <= COMPUTED_TOL))
