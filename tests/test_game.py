"""Game model, value functional, serialization, and generator tests."""

import numpy as np
import pytest

from nlv.errors import CapExceededError, DimensionMismatchError, ParseError, ValidationError
from nlv.game import (Game, Strategy, chsh_game, game_value, load_game,
                      load_strategy, random_game, save_game, save_strategy,
                      validate_game, validate_strategy)


def uniform_strategy(k=2, n=2):
    return Strategy(k=k, n=n, p=np.full((k, k, n, n), 1.0 / (n * n)))


def test_chsh_game_is_valid():
    report = validate_game(chsh_game())
    assert report.ok
    assert report.violations == ()


def test_validate_flags_bad_mass():
    g = chsh_game()
    bad = Game(k=2, n=2, pi=g.pi * 0.5, wins=g.wins)
    report = validate_game(bad)
    assert not report.ok
    assert any("distribution mass 0.5" in v for v in report.violations)


def test_validate_flags_non_boolean_predicate():
    g = chsh_game()
    wins = np.array(g.wins)
    wins[0, 0, 0, 0] = 0.7
    report = validate_game(Game(k=2, n=2, pi=g.pi, wins=wins))
    assert not report.ok
    assert any("non-boolean predicate entry" in v for v in report.violations)


def test_validate_flags_negative_probability():
    g = chsh_game()
    pi = np.array(g.pi)
    pi[0, 0] = -0.25
    pi[1, 1] = 0.75
    report = validate_game(Game(k=2, n=2, pi=pi, wins=g.wins))
    assert not report.ok
    assert any("negative" in v for v in report.violations)


def test_validate_flags_non_finite_entries():
    g = chsh_game()
    for bad in (np.nan, np.inf):
        pi = np.array(g.pi)
        pi[0, 0] = bad
        wins = np.array(g.wins)
        wins[1, 1, 0, 0] = bad
        p = np.array(uniform_strategy().p)
        p[0, 0, 0, 0] = bad
        for report in (validate_game(Game(k=2, n=2, pi=pi, wins=g.wins)),
                       validate_game(Game(k=2, n=2, pi=g.pi, wins=wins)),
                       validate_strategy(Strategy(k=2, n=2, p=p))):
            assert not report.ok
            assert "non-finite" in report.violations[0]


def test_game_value_chsh_constant_answers():
    # Both players always answering 1 wins exactly the three agree pairs.
    p = np.zeros((2, 2, 2, 2))
    p[:, :, 0, 0] = 1.0
    assert game_value(chsh_game(), Strategy(k=2, n=2, p=p)) == 0.75


def test_game_value_all_win_predicate():
    g = chsh_game()
    always = Game(k=2, n=2, pi=g.pi, wins=np.ones((2, 2, 2, 2)))
    assert game_value(always, uniform_strategy()) == pytest.approx(1.0, abs=1e-12)


def test_game_value_chsh_uniform_strategy():
    # Hand summation: every question pair wins exactly 2 of 4 answer pairs,
    # each carrying mass 1/4, so the value is 0.5.
    assert game_value(chsh_game(), uniform_strategy()) == pytest.approx(0.5, abs=1e-12)


def test_game_value_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        game_value(chsh_game(), Strategy(k=3, n=2, p=np.full((3, 3, 2, 2), 0.25)))


def test_game_value_affine_in_strategy():
    g = random_game(3, 2, seed=21)
    s1 = random_strategy(3, 2, seed=1)
    s2 = random_strategy(3, 2, seed=2)
    for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
        mix = Strategy(k=3, n=2, p=lam * s1.p + (1 - lam) * s2.p)
        expected = lam * game_value(g, s1) + (1 - lam) * game_value(g, s2)
        assert game_value(g, mix) == pytest.approx(expected, abs=1e-9)


def random_strategy(k, n, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((k, k, n, n))
    p /= p.sum(axis=(2, 3), keepdims=True)
    return Strategy(k=k, n=n, p=p)


def test_game_value_bounds_and_monotonicity():
    for seed in range(10):
        g = random_game(2, 3, seed=seed)
        s = random_strategy(2, 3, seed=seed + 100)
        value = game_value(g, s)
        assert -1e-9 <= value <= 1 + 1e-9
        wins = np.array(g.wins)
        zeros = np.argwhere(wins == 0.0)
        if len(zeros):
            idx = tuple(zeros[0])
            wins[idx] = 1.0
            flipped = Game(k=2, n=3, pi=g.pi, wins=wins)
            assert game_value(flipped, s) >= value - 1e-12


def test_strategy_validation():
    assert validate_strategy(uniform_strategy()).ok
    bad = Strategy(k=1, n=2, p=np.array([[[[0.9, 0.3], [0.1, 0.2]]]]))
    report = validate_strategy(bad)
    assert not report.ok
    assert any("sum to" in v for v in report.violations)


def test_strategy_entry_range_checked():
    p = np.array([[[[1.5, -0.5], [0.0, 0.0]]]])
    report = validate_strategy(Strategy(k=1, n=2, p=p))
    assert not report.ok
    assert report.worst == pytest.approx(0.5)


def test_load_bundled_chsh():
    from nlv import data_path
    g = load_game(data_path("chsh.json").read_text())
    assert g == chsh_game()


def test_save_load_round_trip():
    for seed in range(5):
        g = random_game(3, 2, seed=seed)
        text = save_game(g)
        assert load_game(text) == g
        assert save_game(load_game(text)) == text


def test_strategy_round_trip():
    s = uniform_strategy()
    assert load_strategy(save_strategy(s)) == s


def test_load_rejects_degenerate_k():
    with pytest.raises(ValidationError, match="k must be >= 1"):
        load_game('{"k": 0, "n": 2, "pi": [], "wins": []}')


def test_load_rejects_malformed_json():
    with pytest.raises(ParseError, match="line"):
        load_game("{not json")


def test_load_rejects_missing_field():
    with pytest.raises(ParseError, match="missing field 'pi'"):
        load_game('{"k": 1, "n": 1, "wins": []}')


def test_load_rejects_out_of_range_win():
    with pytest.raises(ParseError, match="wins\\[0\\]"):
        load_game('{"k": 1, "n": 1, "pi": [[1.0]], "wins": [[1, 1, 2, 1]]}')


def test_load_validates_distribution():
    text = '{"k": 1, "n": 1, "pi": [[0.5]], "wins": [[1, 1, 1, 1]]}'
    with pytest.raises(ValidationError, match="distribution mass"):
        load_game(text)


def test_random_game_deterministic_and_valid():
    g1 = random_game(2, 2, seed=7)
    g2 = random_game(2, 2, seed=7)
    assert g1 == g2
    assert validate_game(g1).ok
    assert random_game(2, 2, seed=8) != g1


def test_game_arrays_immutable():
    g = chsh_game()
    with pytest.raises(ValueError):
        g.pi[0, 0] = 0.5
    with pytest.raises(ValueError):
        g.wins[0, 0, 0, 0] = 0.0


def test_load_rejects_non_numeric_arrays():
    for pi in ('[["x", 0.25], [0.25, 0.25]]', '[[0.5], [0.25, 0.25]]', '[[{}, 0.25], [0.25, 0.25]]'):
        with pytest.raises(ParseError, match="'pi' must be a numeric array"):
            load_game(f'{{"k": 2, "n": 2, "pi": {pi}, "wins": []}}')
    with pytest.raises(ParseError, match="'p' must be a numeric array"):
        load_strategy('{"k": 1, "n": 1, "p": [[[["x"]]]]}')


def test_load_rejects_oversized_game():
    with pytest.raises(CapExceededError, match="k\\^2 n\\^2 = 16000000"):
        load_game('{"k": 1, "n": 4000, "pi": [[1.0]], "wins": []}')
