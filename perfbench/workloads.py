"""Workloads of the nlv benchmark.

A workload is a fixed list of requests, one *pass*, generated from the
workload seed.  :func:`build` writes every input file into the current
directory and returns the requests; each request carries the check its
output must pass.  Checks test only what the program promises, and use
``nlv`` functions imported before any tracing wrapper is installed.

Why these workloads:

* ``search-entangled`` is the hot path: ``quantum-lb`` runs every search
  phase (state update, game operator, measurement update, certification,
  spec write).  CHSH and the chained-Bell game have a quantum advantage, so
  their values show a weaker search; on coin-flip random games the search
  returns the embedded classical optimum, so those add game shapes only.
* ``search-sync`` shares the restart driver, ``climb_family`` and
  validation with ``search-entangled`` but has no state vector and no game
  operator, and certifies through ``tracial_correlation``: a change to the
  shared see-saw code that helps one search and costs the other shows here.
* ``workbench`` runs the commands used between searches (classical
  enumeration, moment clouds and densities, Turing machine runs, the small
  demos).  The see-saw does no work here, so a search change should move
  nothing, while ``linalg`` changes still show through ``operator_norm``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

import nlv
from nlv.classical import DeterministicStrategy, classical_value, det_to_strategy
from nlv.game import Game, chsh_game, game_value, random_game, save_game
from nlv.moments import monomial_count
from nlv.quantum import PVM, MeasurementFamily, load_spec, quantum_correlation
from nlv.synchronous import TracialPVMFamily, tracial_correlation

TOL = 1e-9

# (game, local dimension, restarts) of one pass.  The fixed games run at 2,
# 3 and 4 restarts; two random games of each shape, drawn from the workload
# seed, run at 2, so that a run averages over more than one game per shape.
ENTANGLED = (("chsh", 2, 2), ("chained", 2, 2), ("random-2-2-a", 2, 2),
             ("random-3-2-a", 2, 2), ("random-2-3-a", 3, 2), ("chsh", 2, 3),
             ("chained", 2, 3), ("random-2-2-b", 2, 2), ("random-3-2-b", 2, 2),
             ("random-2-3-b", 3, 2), ("chsh", 2, 4), ("chained", 2, 4))
SYNC = (("chsh", 2, 2), ("chained", 3, 2), ("random-2-2-a", 4, 2),
        ("random-3-2-a", 2, 2), ("random-2-3-a", 3, 2), ("chsh", 2, 3),
        ("chained", 3, 3), ("random-2-2-b", 4, 2), ("random-3-2-b", 2, 2),
        ("random-2-3-b", 3, 2), ("chsh", 2, 4), ("chained", 3, 4))
RANDOM_SHAPES = ((2, 2), (3, 2), (2, 3))
# Games whose value does not depend on the workload seed: value_mean
# averages the values reported on these.
FIXED_GAMES = ("chsh", "chained")
CLASSICAL_SIZES = ((3, 2), (5, 2), (4, 3), (6, 3), (7, 3))
LOOPER_BUDGET = 300_000
COPIER_SYMBOLS = 1000


@dataclass(frozen=True)
class Request:
    kind: str                              # latency group: a command, or a search on a game shape
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]    # what is wrong with the output, or None
    value_key: str | None = None           # output field averaged into value_mean


def chained_bell(n: int = 3) -> Game:
    """Chained-Bell game: pi uniform on the pairs (x, x) and (x, x-1 mod n).
    The players must agree, except on the wrap pair (1, n), where they must
    disagree.  Classical value 1 - 1/(2n); quantum value cos^2(pi/(4n))."""
    pi = np.zeros((n, n))
    wins = np.zeros((n, n, 2, 2))
    for x in range(n):
        for y in (x, (x - 1) % n):
            pi[x, y] = 1.0 / (2 * n)
            wrap = (x, y) == (0, n - 1)
            for a, b in product(range(2), repeat=2):
                wins[x, y, a, b] = float(a != b if wrap else a == b)
    return Game(k=n, n=2, pi=pi, wins=wins)


def best_scalar_value(game: Game) -> float:
    """Best value of a synchronous deterministic strategy: both players
    answer question x with the same a[x]."""
    best = -math.inf
    for answers in product(range(game.n), repeat=game.k):
        value = sum(game.pi[x, y] * game.wins[x, y, answers[x], answers[y]]
                    for x in range(game.k) for y in range(game.k))
        best = max(best, value)
    return best


def _search_games(seed: int) -> dict[str, Game]:
    games = {"chsh": chsh_game(), "chained": chained_bell(3)}
    for index, (k, n) in enumerate(RANDOM_SHAPES):
        for copy, suffix in enumerate("ab"):
            games[f"random-{k}-{n}-{suffix}"] = random_game(k, n, seed * 16 + 2 * index + copy)
    for name, game in games.items():
        Path(f"{name}.json").write_text(save_game(game))
    return games


def _shape(name: str) -> str:
    """Game name without the copy suffix: the latency group of a search."""
    return name[:-2] if name.startswith("random-") else name


def _close(got: float, want: float, what: str) -> str | None:
    if abs(got - want) > TOL:
        return f"{what}: got {got!r}, expected {want!r}"
    return None


def _check_quantum(game: Game, classical: float):
    def check(out):
        spec = load_spec(Path(out["spec_file"]).read_text())
        problem = _close(game_value(game, quantum_correlation(spec)), out["value"],
                         "spec file re-certifies")
        if problem is None and out["value"] < classical - TOL:
            problem = f"value {out['value']!r} below the classical value {classical!r}"
        return problem
    return check


def _read_family(path: str) -> TracialPVMFamily:
    obj = json.loads(Path(path).read_text())
    dim = int(obj["dim"])

    def matrix(values):
        flat = np.asarray(values, dtype=np.float64)
        return (flat[0::2] + 1j * flat[1::2]).reshape(dim, dim)

    return TracialPVMFamily(families=tuple(
        MeasurementFamily(outcomes=tuple(matrix(v) for v in row), flavor=PVM)
        for row in obj["families"]))


def _check_sync(game: Game, scalar: float):
    def check(out):
        family = _read_family(out["family_file"])
        problem = _close(game_value(game, tracial_correlation(family)), out["value"],
                         "family file re-certifies")
        if problem is None and out["value"] < scalar - TOL:
            problem = f"value {out['value']!r} below the best scalar assignment {scalar!r}"
        return problem
    return check


def _search_entangled(seed: int) -> list[Request]:
    games = _search_games(seed)
    requests = []
    for index, (name, dim, restarts) in enumerate(ENTANGLED):
        game = games[name]
        argv = ("quantum-lb", "--json", "--game", f"{name}.json", "--dim", str(dim),
                "--restarts", str(restarts), "--seed", str(seed * 16 + index))
        requests.append(Request(
            f"quantum-lb {_shape(name)}", argv, _check_quantum(game, classical_value(game)[0]),
            "value" if name in FIXED_GAMES else None))
    return requests


def _search_sync(seed: int) -> list[Request]:
    games = _search_games(seed)
    requests = []
    for index, (name, dim, restarts) in enumerate(SYNC):
        game = games[name]
        argv = ("sync-lb", "--json", "--game", f"{name}.json", "--dim", str(dim),
                "--restarts", str(restarts), "--seed", str(seed * 16 + index),
                "--family-out", f"family-{index}.json")
        requests.append(Request(
            f"sync-lb {_shape(name)}", argv, _check_sync(game, best_scalar_value(game)),
            "value" if name in FIXED_GAMES else None))
    return requests


def _check_classical_chsh(out):
    return None if out["value"] == 0.75 else f"CHSH classical value {out['value']!r} != 0.75"


def _check_classical(game: Game):
    def check(out):
        strategy = det_to_strategy(DeterministicStrategy(out["A"], out["B"]), game.k, game.n)
        return _close(game_value(game, strategy), out["value"], "argmax strategy scores")
    return check


def _check_cloud(count: int, n: int, d: int, csv: str):
    def check(out):
        lines = len(Path(csv).read_text().splitlines())
        if out["rows"] != count or lines != count:
            return f"cloud has {out['rows']} rows and {lines} CSV lines, expected {count}"
        if out["moments_per_row"] != monomial_count(n, d):
            return f"moments_per_row {out['moments_per_row']} != {monomial_count(n, d)}"
        return None
    return check


def _check_density(out):
    if out["counts"] != [400, 100] or not 0.0 <= out["covered_fraction"] <= 1.0:
        return f"density report counts {out['counts']}, covered {out['covered_fraction']!r}"
    return None


def _check_looper(out):
    if out["status"] != "budget_exceeded" or out["steps"] != LOOPER_BUDGET:
        return f"looper ended {out['status']} after {out['steps']} steps"
    return None


def _check_copier(bits: str):
    def check(out):
        if out["status"] != "halted" or out["output"] != bits:
            return f"copier ended {out['status']} without copying its input"
        if len(out["trace"]) != out["steps"]:
            return f"copier trace has {len(out['trace'])} lines for {out['steps']} steps"
        return None
    return check


def _check_value(out):
    return _close(out["value"], 0.5, "uniform strategy on CHSH")


def _check_demo(out):
    if out["classical_value"] != 0.75:
        return f"demo classical value {out['classical_value']!r} != 0.75"
    return _close(out["quantum_value"], math.cos(math.pi / 8) ** 2, "demo quantum value")


def _check_superdense(message: str):
    def check(out):
        if out["roundtrip_ok"] is not True or out["decoded"] != [int(c) for c in message]:
            return f"superdense decoded {out['decoded']} for message {message}"
        return None
    return check


def _check_epr(out):
    if out["agreement_frequency"] != 1.0:
        return f"EPR agreement {out['agreement_frequency']!r} != 1.0 in the coordinate basis"
    return None


def _workbench(seed: int) -> list[Request]:
    for name in ("chsh.json", "uniform.json", "looper.json", "copier.json"):
        shutil.copyfile(nlv.data_path(name), name)
    requests = [Request("classical", ("classical", "--json", "--game", "chsh.json"),
                        _check_classical_chsh, "value")]
    for index, (k, n) in enumerate(CLASSICAL_SIZES):
        game = random_game(k, n, seed * 16 + index)
        path = f"classical-{k}-{n}.json"
        Path(path).write_text(save_game(game))
        requests.append(Request("classical", ("classical", "--json", "--game", path),
                                _check_classical(game)))
    bits = "".join(random.Random(seed).choice("01") for _ in range(COPIER_SYMBOLS))
    message = ("11", "12", "21", "22")[seed % 4]
    requests += [
        Request("moments-cloud",
                ("moments", "cloud", "--json", "--n", "2", "--d", "3", "--p", "3",
                 "--count", "400", "--seed", str(seed), "--out", "cloud.csv"),
                _check_cloud(400, 2, 3, "cloud.csv")),
        Request("small-cmd", ("value", "--json", "--game", "chsh.json",
                              "--strategy", "uniform.json"), _check_value, "value"),
        Request("moments-density",
                ("moments", "density", "--json", "--n", "2", "--d", "2", "--p1", "2",
                 "--p2", "3", "--eps", "0.1", "--seed", str(seed + 1)), _check_density),
        Request("small-cmd", ("demo-chsh", "--json"), _check_demo, "quantum_value"),
        Request("tm-run", ("tm", "run", "--json", "--machine", "looper.json",
                           "--budget", str(LOOPER_BUDGET)), _check_looper),
        Request("small-cmd", ("superdense", "--json", "--msg", message),
                _check_superdense(message)),
        Request("tm-trace", ("tm", "run", "--json", "--machine", "copier.json",
                             "--input", bits, "--budget", str(2 * COPIER_SYMBOLS), "--trace"),
                _check_copier(bits)),
        Request("small-cmd", ("epr", "--json", "--trials", "10000", "--seed", str(seed),
                              "--basis", "coordinate"), _check_epr),
    ]
    return requests


def build(workload: str, seed: int) -> list[Request]:
    """Write the inputs of ``workload`` into the current directory and
    return the requests of one pass."""
    builders = {"search-entangled": _search_entangled, "search-sync": _search_sync,
                "workbench": _workbench}
    return builders[workload](seed)
