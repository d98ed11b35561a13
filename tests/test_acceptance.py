"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, not deferred to calibration.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from nlv import data_path
from nlv.classical import classical_value, is_synchronous
from nlv.cli import dispatch
from nlv.game import chsh_game, game_value, load_game, random_game, validate_strategy
from nlv.linalg import random_unitary
from nlv.moments import enumerate_monomials, moment_map, monomial_count, random_contractions
from nlv.protocols import MESSAGES, TwoBitMessage, epr_correlation_demo, superdense_decode, superdense_encode
from nlv.quantum import (born_probabilities, chsh_optimal_spec, entangled_lower_bound,
                         naimark_dilate, quantum_correlation)
from nlv.rng import generator
from nlv.seesaw import random_block_families
from nlv.synchronous import TracialPVMFamily, tracial_correlation, validate_family
from nlv.tm import BudgetExceeded, Configuration, Halted, load_machine, run, step

DATA = Path(__file__).parent / "data"
CHSH_FILE = str(data_path("chsh.json"))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def optimizer_result(tmp_path_factory):
    """Criterion 3's CLI invocation, shared with criterion 4."""
    import io
    from contextlib import redirect_stdout
    spec_out = str(tmp_path_factory.mktemp("acceptance") / "spec.json")
    buffer = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(buffer):
        code = dispatch(["quantum-lb", "--game", CHSH_FILE, "--dim", "2",
                         "--restarts", "32", "--seed", "1", "--json",
                         "--spec-out", spec_out])
    elapsed = time.perf_counter() - started
    assert code == 0
    payload = json.loads(buffer.getvalue())
    return payload["value"], elapsed


def test_criterion_01_chsh_classical_exact():
    started = time.perf_counter()
    game = load_game(data_path("chsh.json").read_text())
    value, _ = classical_value(game)
    elapsed = time.perf_counter() - started
    report(1, value == 0.75 and elapsed < 1.0,
           f"classical value {value} (tolerance 0), {elapsed:.3f}s")


def test_criterion_02_chsh_fixed_spec():
    started = time.perf_counter()
    value = game_value(chsh_game(), quantum_correlation(chsh_optimal_spec()))
    elapsed = time.perf_counter() - started
    target = np.cos(np.pi / 8) ** 2
    report(2, abs(value - target) <= 1e-9 and elapsed < 1.0,
           f"fixed-spec value {value:.10f} vs cos^2(pi/8) = {target:.10f}, {elapsed:.3f}s")


def test_criterion_03_chsh_optimizer(optimizer_result):
    value, elapsed = optimizer_result
    report(3, value >= 0.8535 and elapsed < 60.0,
           f"quantum-lb dim 2, 32 restarts, seed 1: {value:.6f} in {elapsed:.1f}s")


def test_criterion_04_separation(optimizer_result):
    quantum, _ = optimizer_result
    classical, _ = classical_value(chsh_game())
    gap = quantum - classical
    report(4, gap >= 0.10, f"quantum {quantum:.6f} - classical {classical} = {gap:.6f}")


def test_criterion_05_superdense_round_trip():
    started = time.perf_counter()
    ok = True
    for m in MESSAGES:
        msg = TwoBitMessage(*m)
        decoded, probs = superdense_decode(superdense_encode(msg))
        ok = ok and decoded == msg and abs(probs[MESSAGES.index(m)] - 1.0) <= 1e-12
    elapsed = time.perf_counter() - started
    report(5, ok and elapsed < 1.0,
           f"all 4 messages decode with probability 1 within 1e-12, {elapsed:.3f}s")


def test_criterion_06_epr_perfect_correlation():
    started = time.perf_counter()
    ok = True
    details = []
    for basis in ("coordinate", "horizontal"):
        stats = epr_correlation_demo(10_000, seed=2026, basis=basis)
        ok = ok and stats.agreement_frequency == 1.0
        ok = ok and abs(stats.alice_marginal[0] - 0.5) <= 0.02
        details.append(f"{basis}: agree {stats.agreement_frequency}, "
                       f"marginal {stats.alice_marginal[0]:.4f}")
    elapsed = time.perf_counter() - started
    report(6, ok and elapsed < 5.0, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_07_hierarchy_on_100_games():
    passed = 0
    for seed in range(100):
        game = random_game(2, 2, seed=seed)
        classical, _ = classical_value(game)
        value, _ = entangled_lower_bound(game, dim=2, restarts=1, seed=seed, iters=6)
        if classical <= value + 1e-6:
            passed += 1
    report(7, passed == 100, f"classical <= quantum-lb + 1e-6 on {passed}/100 games")


def test_criterion_08_synchronous_suite():
    passed = 0
    rng = np.random.default_rng(2026)
    for case in range(50):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 5))
        family = TracialPVMFamily(families=random_block_families(k, n, d, [generator(case)])[0])
        ok = validate_family(family) == ()
        s = tracial_correlation(family)
        ok = ok and validate_strategy(s) == () and is_synchronous(s)
        ok = ok and bool(np.all(np.abs(s.p - np.transpose(s.p, (1, 0, 3, 2))) <= 1e-9))
        marginals = s.p.sum(axis=3)
        spread = np.max(np.abs(marginals - marginals[:, :1, :]))
        ok = ok and spread <= 1e-9
        if ok:
            passed += 1
    report(8, passed == 50,
           f"synchronicity, swap symmetry, marginal consistency on {passed}/50 families")


def test_criterion_09_moments_suite():
    golden = moment_map([np.diag([1.0, -1.0]).astype(complex)], 2)
    ok = bool(np.all(np.abs(golden - np.array([0, 0, 1, 1, 1, 1])) <= 1e-9))
    checked = 0
    for seed in range(50):
        rng = generator(seed)
        n = 1 + seed % 2
        p = 2 + seed % 3
        mats = random_contractions((n, p, p), rng)
        vec = moment_map(mats, 2)
        u = random_unitary((p, p), [rng])[0]
        rotated = moment_map([u @ m @ u.conj().T for m in mats], 2)
        ok = ok and bool(np.max(np.abs(vec - rotated)) <= 1e-9)
        doubled = moment_map(
            [np.block([[m, np.zeros_like(m)], [np.zeros_like(m), m]]) for m in mats], 2)
        ok = ok and bool(np.max(np.abs(vec - doubled)) <= 1e-9)
        words = enumerate_monomials(n, 2)
        index = {w.letters: i for i, w in enumerate(words)}
        conj_ok = all(
            abs(vec[index[w.star().letters]] - np.conj(vec[i])) <= 1e-9
            for i, w in enumerate(words))
        ok = ok and conj_ok
        checked += 1
    counts_ok = all(
        monomial_count(n, d) == sum((2 * n) ** j for j in range(1, d + 1))
        and len(enumerate_monomials(n, d)) == monomial_count(n, d)
        for n in (1, 2) for d in (1, 2, 3))
    report(9, ok and counts_ok and checked == 50,
           f"invariances + golden vector on {checked}/50 inputs; counts match closed form")


def test_criterion_10_turing_machine_golden():
    copier = load_machine(data_path("copier.json").read_text())
    looper = load_machine(data_path("looper.json").read_text())
    ok = True
    for text, golden in (("", "copier_trace_empty.txt"), ("1", "copier_trace_1.txt"),
                         ("1011", "copier_trace_1011.txt")):
        result = run(copier, text, 100, trace=True)
        ok = ok and isinstance(result, Halted)
        ok = ok and "\n".join(result.trace) + "\n" == DATA.joinpath(golden).read_text()
    loop_result = run(looper, "1", 10_000)
    ok = ok and isinstance(loop_result, BudgetExceeded) and loop_result.steps == 10_000
    clamp = load_machine(data_path("clamp.json").read_text())
    config = Configuration.initial("edge", "")
    step(clamp, config)
    ok = ok and config.heads == [0, 0, 0] and config.state == "halt"
    report(10, ok, "copier traces byte-for-byte; looper exceeds 10^4; clamp holds at 0")


def test_criterion_11_naimark_trine():
    angles = (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
    vectors = [np.array([np.cos(a), np.sin(a)], dtype=complex) for a in angles]
    from nlv.quantum import POVM, MeasurementFamily
    trine = MeasurementFamily(
        outcomes=tuple((2.0 / 3.0) * np.outer(v, v.conj()) for v in vectors),
        flavor=POVM)
    pvm, isometry = naimark_dilate(trine)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        state = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state /= np.linalg.norm(state)
        lifted = isometry @ state
        original = born_probabilities(trine, state)
        dilated = np.array([np.real(np.vdot(lifted, q @ lifted)) for q in pvm.outcomes])
        worst = max(worst, float(np.max(np.abs(original - dilated))))
    report(11, worst <= 1e-8, f"trine dilation Born residual {worst:.2e} over 100 states")
