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

import json
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, DimensionMismatchError, ParseError, Report, ValidationError
from .rng import generator

DIST_TOL = 1e-12       # distributions supplied in files
COMPUTED_TOL = 1e-9    # tensors produced by floating-point pipelines
MAX_GAME_ENTRIES = 10_000_000   # k^2 n^2 predicate entries a game file may declare (~80 MB)


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        pi = _frozen_array(self.pi)
        wins = _frozen_array(self.wins)
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
        if self.k < 1 or self.n < 1:
            raise ValidationError("strategy needs k >= 1 and n >= 1")
        p = _frozen_array(self.p)
        if p.shape != (self.k, self.k, self.n, self.n):
            raise ValidationError(
                f"strategy tensor must have shape ({self.k}, {self.k}, {self.n}, {self.n}), "
                f"got {p.shape}")
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        return (isinstance(other, Strategy) and self.k == other.k and self.n == other.n
                and np.array_equal(self.p, other.p))


def validate_game(game: Game) -> Report:
    """Check the numeric invariants of a game, reporting every violation."""
    if not (np.all(np.isfinite(game.pi)) and np.all(np.isfinite(game.wins))):
        return Report(ok=False, violations=("game has non-finite entries",), worst=np.inf)
    violations = []
    worst = 0.0
    if np.any(game.pi < 0):
        idx = np.unravel_index(int(np.argmin(game.pi)), game.pi.shape)
        worst = max(worst, float(-game.pi[idx]))
        violations.append(
            f"negative question probability pi[{idx[0] + 1}][{idx[1] + 1}] = {game.pi[idx]:.6g}")
    mass = float(np.sum(game.pi))
    if abs(mass - 1.0) > DIST_TOL:
        worst = max(worst, abs(mass - 1.0))
        violations.append(f"distribution mass {mass:.6g} != 1")
    boolean = (game.wins == 0.0) | (game.wins == 1.0)
    if not np.all(boolean):
        idx = np.unravel_index(int(np.argmax(~boolean)), game.wins.shape)
        worst = max(worst, abs(float(game.wins[idx]) - round(float(game.wins[idx]))))
        violations.append(
            "non-boolean predicate entry "
            f"D[{idx[0] + 1}][{idx[1] + 1}][{idx[2] + 1}][{idx[3] + 1}] = {game.wins[idx]:.6g}")
    return Report(ok=not violations, violations=tuple(violations), worst=worst)


def validate_strategy(strategy: Strategy, tol: float = COMPUTED_TOL) -> Report:
    """Check that a strategy tensor is a conditional probability."""
    if not np.all(np.isfinite(strategy.p)):
        return Report(ok=False, violations=("strategy has non-finite entries",), worst=np.inf)
    violations = []
    worst = 0.0
    p = strategy.p
    low = float(np.min(p))
    high = float(np.max(p))
    if low < -tol:
        idx = np.unravel_index(int(np.argmin(p)), p.shape)
        worst = max(worst, -low)
        violations.append(f"entry p{[i + 1 for i in idx]} = {low:.6g} below 0")
    if high > 1.0 + tol:
        idx = np.unravel_index(int(np.argmax(p)), p.shape)
        worst = max(worst, high - 1.0)
        violations.append(f"entry p{[i + 1 for i in idx]} = {high:.6g} above 1")
    sums = p.sum(axis=(2, 3))
    residual = np.abs(sums - 1.0)
    if np.max(residual) > tol:
        idx = np.unravel_index(int(np.argmax(residual)), residual.shape)
        worst = max(worst, float(np.max(residual)))
        violations.append(
            f"answers for questions ({idx[0] + 1}, {idx[1] + 1}) sum to "
            f"{sums[idx]:.9g} != 1")
    return Report(ok=not violations, violations=tuple(violations), worst=worst)


def game_value(game: Game, strategy: Strategy) -> float:
    """Expected winning probability of ``strategy`` on ``game``:
    sum over (x, y) of pi(x, y) times the predicate-weighted answer mass."""
    if game.k != strategy.k or game.n != strategy.n:
        raise DimensionMismatchError(
            f"game is ({game.k}, {game.n}) but strategy is ({strategy.k}, {strategy.n})")
    return float(np.einsum("xy,xyab,xyab->", game.pi, game.wins, strategy.p))


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


def _require(obj: dict, field: str, kind, where: str):
    if field not in obj:
        raise ParseError(f"{where}: missing field '{field}'")
    value = obj[field]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParseError(f"{where}: field '{field}' must be a number")
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{where}: field '{field}' must be {kind.__name__}")
    return value


def _numeric(values, field: str, where: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ParseError(f"{where}: '{field}' must be a numeric array") from err


def load_game(text: str) -> Game:
    """Parse a game from its JSON form and validate it before returning.

    Schema: ``{"k": int, "n": int, "pi": [[float; k]; k],
    "wins": [[x, y, a, b], ...]}`` with 1-based indices; ``wins`` lists
    exactly the tuples where the predicate is 1.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"game file: invalid JSON at line {err.lineno}: {err.msg}") from err
    if not isinstance(obj, dict):
        raise ParseError("game file: top level must be an object")
    k = _require(obj, "k", int, "game file")
    n = _require(obj, "n", int, "game file")
    pi = _require(obj, "pi", list, "game file")
    win_list = _require(obj, "wins", list, "game file")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if k * k * n * n > MAX_GAME_ENTRIES:
        raise CapExceededError(f"game file: k^2 n^2 = {k * k * n * n} predicate entries "
                               f"exceeds cap {MAX_GAME_ENTRIES}")
    pi_arr = _numeric(pi, "pi", "game file")
    if pi_arr.shape != (k, k):
        raise ParseError(f"game file: 'pi' must be a {k}x{k} matrix")
    wins = np.zeros((k, k, n, n))
    for pos, entry in enumerate(win_list):
        if (not isinstance(entry, list) or len(entry) != 4
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)):
            raise ParseError(f"game file: wins[{pos}] must be a list of four integers")
        x, y, a, b = entry
        if not (1 <= x <= k and 1 <= y <= k and 1 <= a <= n and 1 <= b <= n):
            raise ParseError(f"game file: wins[{pos}] = {entry} out of range for k={k}, n={n}")
        wins[x - 1, y - 1, a - 1, b - 1] = 1.0
    game = Game(k=k, n=n, pi=pi_arr, wins=wins)
    validate_game(game).raise_if_failed("game")
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
        "pi": [[float(v) for v in row] for row in game.pi],
        "wins": win_list,
    }
    return json.dumps(obj, indent=2) + "\n"


def load_strategy(text: str) -> Strategy:
    """Parse a strategy from JSON: ``{"k": int, "n": int,
    "p": [[[[float; n]; n]; k]; k]}`` laid out [x][y][a][b]."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"strategy file: invalid JSON at line {err.lineno}: {err.msg}") from err
    if not isinstance(obj, dict):
        raise ParseError("strategy file: top level must be an object")
    k = _require(obj, "k", int, "strategy file")
    n = _require(obj, "n", int, "strategy file")
    p = _numeric(_require(obj, "p", list, "strategy file"), "p", "strategy file")
    if p.shape != (k, k, n, n):
        raise ParseError(f"strategy file: 'p' must have shape ({k}, {k}, {n}, {n})")
    strategy = Strategy(k=k, n=n, p=p)
    validate_strategy(strategy).raise_if_failed("strategy")
    return strategy


def save_strategy(strategy: Strategy) -> str:
    obj = {
        "k": strategy.k,
        "n": strategy.n,
        "p": strategy.p.tolist(),
    }
    return json.dumps(obj, indent=2) + "\n"


def chsh_game() -> Game:
    """The 2-question, 2-answer game with uniform question pairs where the
    players must agree unless both questions are 2, in which case they must
    disagree."""
    pi = np.full((2, 2), 0.25)
    wins = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if x == 1 and y == 1:
                        wins[x, y, a, b] = 1.0 if a != b else 0.0
                    else:
                        wins[x, y, a, b] = 1.0 if a == b else 0.0
    return Game(k=2, n=2, pi=pi, wins=wins)
