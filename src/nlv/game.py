"""Core data model for two-player nonlocal games.

A game couples a probability distribution over question pairs with a 0/1
decision predicate over (question, question, answer, answer) tuples.  A
strategy is the conditional probability tensor p(a, b | x, y) that every
strategy class in this package (deterministic, local, quantum, tracial)
eventually produces, and the value functional scores a strategy against a
game.  Questions and answers are 1-based in files and in reported results;
all internal tensors are 0-based numpy arrays laid out [x][y][a][b].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import data_path
from .errors import (CapExceededError, DimensionMismatchError, ParseError, ValidationError,
                     as_integer, dump_json, excerpt, read_array, read_count, read_field,
                     read_object, require)
from .rng import generator

DIST_TOL = 1e-12       # distributions supplied in files
COMPUTED_TOL = 1e-9    # the one rounding tolerance for computed tensors, states and families
MAX_GAME_ENTRIES = 10_000_000   # k^2 n^2 predicate entries a game file may declare (~80 MB)


def _frozen_array(values, what: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64)
    except (OverflowError, TypeError, ValueError):   # ragged, non-numeric or too large
        raise ValidationError(f"{what} must be a rectangular array of float64 numbers") from None
    arr.setflags(write=False)
    return arr


def _read_sizes(obj, what: str) -> None:
    """Replace a frozen dataclass's ``k`` and ``n`` by the ints that
    :func:`~nlv.errors.as_integer` reads from them, or refuse either field
    with one ValidationError naming it, ``what`` prefixed."""
    for name in ("k", "n"):
        value = getattr(obj, name)
        size = as_integer(value)
        if size is None:
            raise ValidationError(f"{what}{name} must be an integer, got {excerpt(value)}")
        object.__setattr__(obj, name, size)


@dataclass(frozen=True, eq=False)
class Game:
    """Nonlocal game: ``k`` questions, ``n`` answers per player,
    question-pair distribution ``pi`` (k x k) and winning predicate
    ``wins`` (k x k x n x n with entries 0 or 1)."""

    k: int
    n: int
    pi: np.ndarray
    wins: np.ndarray

    def __post_init__(self):
        _read_sizes(self, "")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        pi = _frozen_array(self.pi, "pi")
        wins = _frozen_array(self.wins, "predicate")
        if pi.shape != (self.k, self.k):
            raise ValidationError(f"pi must have shape ({self.k}, {self.k}), got {pi.shape}")
        if wins.shape != (self.k, self.k, self.n, self.n):
            raise ValidationError(
                f"predicate must have shape ({self.k}, {self.k}, {self.n}, {self.n}), "
                f"got {wins.shape}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "wins", wins)

    def __eq__(self, other):
        return (isinstance(other, Game) and self.k == other.k and self.n == other.n
                and np.array_equal(self.pi, other.pi)
                and np.array_equal(self.wins, other.wins))


@dataclass(frozen=True, eq=False)
class Strategy:
    """Conditional probability tensor ``p[x][y][a][b]`` for answering
    (a+1, b+1) on question pair (x+1, y+1)."""

    k: int
    n: int
    p: np.ndarray

    def __post_init__(self):
        _read_sizes(self, "strategy ")
        if self.k < 1 or self.n < 1:
            raise ValidationError("strategy needs k >= 1 and n >= 1")
        p = _frozen_array(self.p, "strategy tensor")
        if p.shape != (self.k, self.k, self.n, self.n):
            raise ValidationError(
                f"strategy tensor must have shape ({self.k}, {self.k}, {self.n}, {self.n}), "
                f"got {p.shape}")
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        return (isinstance(other, Strategy) and self.k == other.k and self.n == other.n
                and np.array_equal(self.p, other.p))


def validate_game(game: Game) -> tuple[str, ...]:
    """The violation lines of a game's numeric invariants, one per failed check."""
    if not (np.all(np.isfinite(game.pi)) and np.all(np.isfinite(game.wins))):
        return ("game has non-finite entries",)
    violations = []
    if np.any(game.pi < 0):
        idx = np.unravel_index(int(np.argmin(game.pi)), game.pi.shape)
        violations.append(
            f"negative question probability pi[{idx[0] + 1}][{idx[1] + 1}] = {game.pi[idx]:.6g}")
    with np.errstate(over="ignore", invalid="ignore"):   # an overflowing sum is a violation
        mass = float(np.sum(game.pi))
    if not abs(mass - 1.0) <= DIST_TOL:   # a nan mass fails too
        violations.append(f"distribution mass {mass:.6g} != 1")
    boolean = (game.wins == 0.0) | (game.wins == 1.0)
    if not np.all(boolean):
        idx = np.unravel_index(int(np.argmax(~boolean)), game.wins.shape)
        violations.append(
            "non-boolean predicate entry "
            f"D[{idx[0] + 1}][{idx[1] + 1}][{idx[2] + 1}][{idx[3] + 1}] = {game.wins[idx]:.6g}")
    return tuple(violations)


def validate_strategy(strategy: Strategy) -> tuple[str, ...]:
    """The violation lines of a strategy tensor that is not a conditional
    probability within COMPUTED_TOL, one per failed check."""
    if not np.all(np.isfinite(strategy.p)):
        return ("strategy has non-finite entries",)
    violations = []
    p = strategy.p
    low = float(np.min(p))
    high = float(np.max(p))
    if low < -COMPUTED_TOL:
        idx = np.unravel_index(int(np.argmin(p)), p.shape)
        violations.append(f"entry p{[int(i) + 1 for i in idx]} = {low:.6g} below 0")
    if high > 1.0 + COMPUTED_TOL:
        idx = np.unravel_index(int(np.argmax(p)), p.shape)
        violations.append(f"entry p{[int(i) + 1 for i in idx]} = {high:.6g} above 1")
    with np.errstate(over="ignore", invalid="ignore"):   # an overflowing sum is a violation
        sums = p.sum(axis=(2, 3))
    residual = np.abs(sums - 1.0)
    if not np.max(residual) <= COMPUTED_TOL:   # a nan sum fails too
        idx = np.unravel_index(int(np.argmax(residual)), residual.shape)
        violations.append(
            f"answers for questions ({idx[0] + 1}, {idx[1] + 1}) sum to "
            f"{sums[idx]:.9g} != 1")
    return tuple(violations)


def game_value(game: Game, strategy: Strategy) -> float:
    """Expected winning probability of ``strategy`` on ``game``:
    sum over (x, y) of pi(x, y) times the predicate-weighted answer mass.
    The one-tensor case of :func:`correlation_values`."""
    if game.k != strategy.k or game.n != strategy.n:
        raise DimensionMismatchError(
            f"game is ({game.k}, {game.n}) but strategy is ({strategy.k}, {strategy.n})")
    return float(correlation_values(payoff(game), strategy.p[None])[0])


def correlation_values(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Value of each tensor of an (R, k, k, n, n) correlation stack under the
    :func:`payoff` ``v``: the sum of v * p over its entries in row-major
    order, so a tensor scores the same bits alone as in any stack."""
    return (v * p).reshape(len(p), -1).sum(axis=-1)


def payoff(game: Game) -> np.ndarray:
    """V[x, y, a, b] = pi(x, y) D(x, y, a, b): the weight of each answer
    pair, read-only like the game's arrays."""
    v = game.pi[:, :, None, None] * game.wins
    v.setflags(write=False)
    return v


def payoff_matrix(v: np.ndarray) -> np.ndarray:
    """A :func:`payoff` V as one (kn, kn) matrix V[(x, a), (y, b)], through
    which every game-weighted trace is a two-operand product."""
    kn = v.shape[0] * v.shape[2]
    return v.transpose(0, 2, 1, 3).reshape(kn, kn)


def random_game(k: int, n: int, seed: int) -> Game:
    """Test-corpus generator: pi from a flat Dirichlet, predicate entries
    independent fair coins.  Deterministic in ``seed``."""
    if k < 1 or n < 1:
        raise ValidationError("random_game needs k >= 1 and n >= 1")
    rng = generator(seed)
    pi = rng.dirichlet(np.ones(k * k)).reshape(k, k)
    pi = pi / pi.sum()
    wins = rng.integers(0, 2, size=(k, k, n, n)).astype(np.float64)
    return Game(k=k, n=n, pi=pi, wins=wins)


def load_game(text: str) -> Game:
    """Parse a game from its JSON form and validate it before returning.

    Schema: ``{"k": int, "n": int, "pi": [[float; k]; k],
    "wins": [[x, y, a, b], ...]}`` with 1-based indices; ``wins`` lists
    exactly the tuples where the predicate is 1.
    """
    where = "game file"
    obj = read_object(text, where)
    k, n = read_count(obj, "k", where), read_count(obj, "n", where)
    if k * k * n * n > MAX_GAME_ENTRIES:
        raise CapExceededError(f"{where}: k^2 n^2 = {k * k * n * n} predicate entries "
                               f"exceeds cap {MAX_GAME_ENTRIES}")
    pi = read_array(read_field(obj, "pi", list, where), (k, k), f"{where}: 'pi'")
    wins = np.zeros((k, k, n, n))
    for pos, entry in enumerate(read_field(obj, "wins", list, where)):
        if (not isinstance(entry, list) or len(entry) != 4
                or not all(type(v) is int for v in entry)):
            raise ParseError(f"{where}: wins[{pos}] must be a list of four integers")
        x, y, a, b = entry
        if not (1 <= x <= k and 1 <= y <= k and 1 <= a <= n and 1 <= b <= n):
            i = next(i for i, top in enumerate((k, k, n, n)) if not 1 <= entry[i] <= top)
            raise ParseError(f"{where}: wins[{pos}][{i}] = {excerpt(entry[i])} out of range "
                             f"[1..{(k, k, n, n)[i]}]")
        wins[x - 1, y - 1, a - 1, b - 1] = 1.0
    game = Game(k=k, n=n, pi=pi, wins=wins)
    require(validate_game(game), "game")
    return game


def save_game(game: Game) -> str:
    """Serialize a game to canonical JSON, the inverse of :func:`load_game`.

    Winning tuples are emitted in ascending lexicographic order, so
    ``save_game(load_game(t)) == t`` for canonically formatted ``t``.
    """
    win_list = [[int(x) + 1, int(y) + 1, int(a) + 1, int(b) + 1]
                for x, y, a, b in np.argwhere(game.wins == 1.0)]
    obj = {
        "k": game.k,
        "n": game.n,
        "pi": game.pi.tolist(),
        "wins": win_list,
    }
    return dump_json(obj) + "\n"


def load_strategy(text: str) -> Strategy:
    """Parse a strategy from JSON: ``{"k": int, "n": int,
    "p": [[[[float; n]; n]; k]; k]}`` laid out [x][y][a][b]."""
    where = "strategy file"
    obj = read_object(text, where)
    k, n = read_count(obj, "k", where), read_count(obj, "n", where)
    p = read_array(read_field(obj, "p", list, where), (k, k, n, n), f"{where}: 'p'")
    strategy = Strategy(k=k, n=n, p=p)
    require(validate_strategy(strategy), "strategy")
    return strategy


def save_strategy(strategy: Strategy) -> str:
    obj = {
        "k": strategy.k,
        "n": strategy.n,
        "p": strategy.p.tolist(),
    }
    return dump_json(obj) + "\n"


@functools.cache
def chsh_game() -> Game:
    """The bundled ``chsh.json``: 2 questions and 2 answers, uniform question
    pairs, and the players must agree unless both questions are 2, in which
    case they must disagree.  Read once; every call returns the same frozen
    instance."""
    return load_game(data_path("chsh.json").read_text())
