"""Deterministic enumeration tests, checked against a naive oracle.

The oracle below scans every (alice, bob) pair of answer functions with
bob varying fastest and sums the value definition directly; it was written
before the fast enumerator and stays independent of it.
"""

import itertools
import re

import numpy as np
import pytest

from nlv import moments
from nlv.classical import (DeterministicStrategy, classical_value, det_to_strategy,
                           is_synchronous, sample_local)
from nlv.errors import CapExceededError, ValidationError
from nlv.game import Game, Strategy, chsh_game, game_value, random_game, validate_strategy
from nlv.quantum import embed_local
from test_synchronous import tie_game


def oracle_classical_value(game):
    """Naive n^(2k) scan of the double sum, bob varying fastest."""
    k, n = game.k, game.n
    best = (-1.0, None, None)
    for alice in itertools.product(range(1, n + 1), repeat=k):
        for bob in itertools.product(range(1, n + 1), repeat=k):
            value = 0.0
            for x in range(k):
                for y in range(k):
                    value += game.pi[x, y] * game.wins[x, y, alice[x] - 1, bob[y] - 1]
            if value > best[0]:
                best = (value, alice, bob)
    return best


def test_det_to_strategy_constant_functions():
    d = DeterministicStrategy(alice=(1, 1), bob=(1, 1))
    s = det_to_strategy(d, 2, 2)
    assert np.all(s.p[:, :, 0, 0] == 1.0)
    assert s.p.sum() == 4.0


def test_det_to_strategy_rows_are_point_masses():
    d = DeterministicStrategy(alice=(2, 1, 3), bob=(1, 3, 2))
    s = det_to_strategy(d, 3, 3)
    sums = s.p.sum(axis=(2, 3))
    assert np.all(sums == 1.0)
    assert validate_strategy(s) == ()


def test_det_to_strategy_range_errors():
    with pytest.raises(ValidationError, match="out of range"):
        det_to_strategy(DeterministicStrategy(alice=(3,), bob=(1,)), 1, 2)
    with pytest.raises(ValidationError, match="must answer all"):
        det_to_strategy(DeterministicStrategy(alice=(1,), bob=(1, 1)), 1, 2)


def test_deterministic_answers_are_read_exactly():
    d = DeterministicStrategy(alice=(np.int64(2), 1.0), bob=(np.float64(2.0), 1))
    assert d.alice == (2, 1) and d.bob == (2, 1)
    assert all(type(v) is int for v in d.alice + d.bob)
    d = DeterministicStrategy(alice=[1, np.uint8(2)], bob=np.array([2.0, 1.0]))
    assert d.alice == (1, 2) and d.bob == (2, 1)


@pytest.mark.parametrize("alice, bob, message", [
    ((1.5, 2), (1, 2), "alice answers must be integers, got 1.5"),
    ((1, 2), (True, 2.9), "bob answers must be integers, got True"),
    ((1, 2), (1, 2.9), "bob answers must be integers, got 2.9"),
    ((np.bool_(True), 2), (1, 2), f"alice answers must be integers, got {np.bool_(True)!r}"),
    (("1", 2), (1, 2), "alice answers must be integers, got '1'"),
    (5, (1,), "alice must be a sequence of answers, got 5"),
    ((1,), None, "bob must be a sequence of answers, got None"),
    ((1,), "12", "bob must be a sequence of answers, got '12'"),
    (np.array(1), (1,), f"alice must be a sequence of answers, got {np.array(1)!r}"),
    ((1,), np.ones((1, 1), dtype=int),
     f"bob must be a sequence of answers, got {np.ones((1, 1), dtype=int)!r}"),
    (((1,), 2), (1, 2), "alice answers must be integers, got (1,)"),
])
def test_deterministic_answers_refuse_non_integers(alice, bob, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        DeterministicStrategy(alice=alice, bob=bob)


def test_chsh_det_value():
    d = DeterministicStrategy(alice=(1, 1), bob=(1, 1))
    assert game_value(chsh_game(), det_to_strategy(d, 2, 2)) == 0.75


def test_classical_value_chsh():
    value, argmax = classical_value(chsh_game())
    assert value == 0.75
    # lexicographically smallest optimum: everyone answers 1
    assert argmax == DeterministicStrategy(alice=(1, 1), bob=(1, 1))


def test_classical_value_always_win():
    g = chsh_game()
    always = Game(k=2, n=2, pi=g.pi, wins=np.ones((2, 2, 2, 2)))
    value, argmax = classical_value(always)
    assert value == 1.0
    assert argmax == DeterministicStrategy(alice=(1, 1), bob=(1, 1))


@pytest.mark.parametrize("game", [
    *(pytest.param(random_game(k, n, seed), id=f"{k}-{n}-{seed}")
      for k, n, seed in ((2, 2, 3), (3, 2, 1), (2, 3, 5), (3, 3, 8))),
    pytest.param(chsh_game(), id="chsh"),
    *(pytest.param(tie_game(k, n, seed), id=f"tie-{k}-{n}-{seed}")
      for k, n, seed in ((2, 2, 5), (4, 2, 6), (3, 3, 9))),
    pytest.param(Game(k=3, n=2, pi=np.full((3, 3), 1 / 9), wins=np.ones((3, 3, 2, 2))),
                 id="all-win-3-2")])
def test_classical_value_matches_oracle(monkeypatch, game):
    # The oracle's argmax exactly, and the same (value, argmax) whether
    # Alice's functions are scored in one chunk or in chunks of 1 or 5.
    results = []
    for chunk in (None, 1, 5):
        if chunk is not None:
            # The scan's bytes per row: two int64 rows and 2kn + k + 1 floats.
            row_bytes = 8 * (2 * game.k * game.n + 3 * game.k + 1)
            monkeypatch.setattr(moments, "CHUNK_BYTES", chunk * row_bytes)
        results.append(classical_value(game))
    value, argmax = results[0]
    oracle_value, oracle_alice, oracle_bob = oracle_classical_value(game)
    assert value == pytest.approx(oracle_value, abs=1e-12)
    assert argmax == DeterministicStrategy(alice=oracle_alice, bob=oracle_bob)
    assert results[1] == results[0] and results[2] == results[0]


def test_classical_value_agrees_with_value_functional():
    for seed in range(6):
        g = random_game(2, 2, seed=seed)
        value, argmax = classical_value(g)
        assert value == pytest.approx(
            game_value(g, det_to_strategy(argmax, g.k, g.n)), abs=1e-12)


def test_classical_value_invariant_under_answer_relabeling():
    g = random_game(2, 3, seed=13)
    perm = (2, 0, 1)  # answers relabeled on both predicate slots
    wins = np.array(g.wins)[:, :, perm, :][:, :, :, perm]
    relabeled = Game(k=2, n=3, pi=g.pi, wins=wins)
    assert classical_value(g)[0] == pytest.approx(classical_value(relabeled)[0], abs=1e-12)


def test_classical_value_cap():
    # The cap counts Alice's n^k answer functions; Bob's reply is closed-form.
    with pytest.raises(CapExceededError, match="lower bound"):
        classical_value(random_game(6, 4, seed=0), cap=1000)
    g = random_game(4, 4, seed=0)
    classical_value(g, cap=256)
    with pytest.raises(CapExceededError, match="4\\^4 = 256"):
        classical_value(g, cap=255)


def test_sample_local_degenerate_mixture():
    d = DeterministicStrategy(alice=(2, 1), bob=(1, 2))
    s = sample_local([(1.0, d)], 2, 2)
    assert s == det_to_strategy(d, 2, 2)


def test_sample_local_uniform_over_all_16():
    mixture = []
    for alice in itertools.product((1, 2), repeat=2):
        for bob in itertools.product((1, 2), repeat=2):
            mixture.append((1.0 / 16.0, DeterministicStrategy(alice=alice, bob=bob)))
    s = sample_local(mixture, 2, 2)
    # Averaging the 16 point masses puts 1/4 on every answer pair.
    assert np.allclose(s.p, 0.25, atol=1e-15)


def test_sample_local_value_below_classical():
    rng = np.random.default_rng(2)
    g = random_game(2, 2, seed=17)
    best, _ = classical_value(g)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(4))
        dets = [DeterministicStrategy(alice=tuple(rng.integers(1, 3, 2)),
                                      bob=tuple(rng.integers(1, 3, 2)))
                for _ in range(4)]
        s = sample_local(list(zip(weights, dets)), 2, 2)
        assert validate_strategy(s) == ()
        assert game_value(g, s) <= best + 1e-9


def test_sample_local_weight_validation():
    # sample_local and embed_local share one mixture check.
    d = DeterministicStrategy(alice=(1,), bob=(1,))
    for build in (sample_local, embed_local):
        with pytest.raises(ValidationError, match="at least one"):
            build([], 1, 1)
        with pytest.raises(ValidationError, match="sum to"):
            build([(0.5, d)], 1, 1)
        with pytest.raises(ValidationError, match="nonnegative"):
            build([(-0.5, d), (1.5, d)], 1, 1)
        for weight in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                build([(weight, d)], 1, 1)


def test_is_synchronous_matching_functions():
    d = DeterministicStrategy(alice=(1, 2), bob=(1, 2))
    assert is_synchronous(det_to_strategy(d, 2, 2))


def test_is_synchronous_detects_mismatch():
    d = DeterministicStrategy(alice=(1, 2), bob=(2, 2))
    assert not is_synchronous(det_to_strategy(d, 2, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_synchronous_counts_non_finite_off_diagonal_mass_as_violation(bad):
    assert not is_synchronous(Strategy(k=1, n=2, p=[[[[1.0, bad], [0.0, 0.0]]]]))
    # Only the diagonal question blocks count: the x != y block may hold anything.
    p = np.zeros((2, 2, 2, 2))
    p[0, 0, 0, 0] = p[1, 1, 1, 1] = 1.0
    p[0, 1, 0, 1] = bad
    assert is_synchronous(Strategy(k=2, n=2, p=p))


def test_is_synchronous_counts_non_finite_diagonal_mass_as_violation():
    assert is_synchronous(Strategy(k=1, n=2, p=[[[[np.nan, 0], [0, 0]]]])) is False
