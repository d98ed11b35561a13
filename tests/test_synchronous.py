"""Tracial PVM families, their correlations, the lower-bound search, and
the almost-PVM repair."""

import itertools
import json

import numpy as np
import pytest

from nlv import data_path, moments
from nlv.classical import (DeterministicStrategy, classical_value, det_to_strategy,
                           is_synchronous)
from nlv.errors import DefectTooLargeError, ParseError, ValidationError
from nlv.game import (Game, chsh_game, game_value, load_game, payoff, random_game, save_game,
                      validate_strategy)
from nlv.linalg import dagger, frobenius, identity
from nlv.quantum import (PVM, TENSOR, MeasurementFamily, QuantumStrategySpec,
                         quantum_correlation, validate_measurement)
from nlv.rng import generator
from nlv.seesaw import random_block_families
from nlv.synchronous import (SYNCHRONOUS, TracialPVMFamily, _best_scalar_assignment,
                             _sync_seesaw, load_family, repair_almost_pvm, save_family,
                             scalar_family, sync_value_lower_bound, tracial_correlation,
                             validate_family)
from test_quantum import (NON_FINITE, SEARCH_SHAPES, chained_bell, pvm_residual,
                          reference_best_response)


def oracle_best_scalar(game):
    """Enumerate every common answer function in lexicographic order and
    score it directly; the first best one wins.  Returns (value,
    assignment)."""
    best = (-np.inf, None)
    for assignment in itertools.product(range(1, game.n + 1), repeat=game.k):
        value = 0.0
        for x in range(game.k):
            for y in range(game.k):
                value += game.pi[x, y] * game.wins[x, y, assignment[x] - 1, assignment[y] - 1]
        if value > best[0]:
            best = (value, assignment)
    return best


def tie_game(k, n, seed):
    """Dyadic pi and 0/1 predicate: many assignments score exactly alike."""
    rng = generator(seed)
    return Game(k=k, n=n, pi=np.full((k, k), 1.0 / (k * k)),
                wins=(rng.random((k, k, n, n)) < 0.5).astype(float))


@pytest.mark.parametrize("chunk", [None, 1, 5])
@pytest.mark.parametrize("game", [chsh_game()]
                         + [random_game(k, n, seed) for k, n, seed in
                            ((1, 3, 0), (2, 2, 1), (4, 3, 2), (6, 2, 3), (5, 4, 4))]
                         + [tie_game(k, n, seed) for k, n, seed in
                            ((2, 2, 5), (4, 2, 6), (5, 3, 7), (7, 2, 8))]
                         + [Game(k=3, n=2, pi=np.full((3, 3), 1 / 9), wins=np.ones((3, 3, 2, 2)))])
def test_best_scalar_assignment_matches_itertools_reference(monkeypatch, game, chunk):
    # Bit-identical values and the same lexicographically first argmax, also
    # when the assignments are scored in chunks of 1 or 5.
    if chunk is not None:
        monkeypatch.setattr(moments, "CHUNK_BYTES", chunk * 8 * (2 * game.k + 3))
    value, assignment = _best_scalar_assignment(payoff(game))
    want_value, want_assignment = oracle_best_scalar(game)
    assert value == want_value
    assert assignment == want_assignment


def test_scalar_family_reproduces_deterministic_sync_strategy():
    fam = scalar_family((2, 1), n=2, d=1)
    s = tracial_correlation(fam)
    det = det_to_strategy(DeterministicStrategy(alice=(2, 1), bob=(2, 1)), 2, 2)
    assert s == det


def test_dim1_families_biject_with_functions():
    # Every answer function gives a distinct deterministic synchronous
    # strategy, and every d=1 family arises this way.
    seen = set()
    for assignment in itertools.product((1, 2, 3), repeat=2):
        s = tracial_correlation(scalar_family(assignment, n=3, d=1))
        assert is_synchronous(s)
        seen.add(s.p.tobytes())
    assert len(seen) == 9


def test_coordinate_vs_horizontal_trace():
    e = np.eye(2, dtype=complex)
    v1 = np.array([1, 1], dtype=complex) / np.sqrt(2)
    v2 = np.array([1, -1], dtype=complex) / np.sqrt(2)
    coordinate = MeasurementFamily(
        outcomes=(np.diag([1.0, 0j + 0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        flavor=PVM)
    horizontal = MeasurementFamily(
        outcomes=(np.outer(v1, v1.conj()), np.outer(v2, v2.conj())), flavor=PVM)
    fam = TracialPVMFamily(families=(coordinate, horizontal))
    s = tracial_correlation(fam)
    assert np.allclose(s.p[0, 1], 0.25, atol=1e-12)
    assert np.allclose(s.p[1, 0], 0.25, atol=1e-12)


def test_tracial_correlations_synchronous_symmetric_consistent():
    for seed in range(15):
        rng = generator(seed)
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        d = int(rng.integers(1, 5))
        fam = TracialPVMFamily(families=random_block_families(k, n, d, [generator(seed)])[0])
        assert validate_family(fam) == ()
        s = tracial_correlation(fam)
        assert validate_strategy(s) == ()
        assert is_synchronous(s)
        # player swap symmetry from trace cyclicity
        assert np.allclose(s.p, np.transpose(s.p, (1, 0, 3, 2)), atol=1e-9)
        # marginals depend only on the question asked, not the partner's
        marginals = s.p.sum(axis=3)
        for x in range(k):
            expected = np.array([np.trace(m).real / d for m in fam.families[x]])
            for y in range(k):
                assert np.allclose(marginals[x, y], expected, atol=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("game", [chsh_game(), chained_bell(), random_game(2, 3, seed=3),
                                  random_game(3, 3, seed=1)],
                         ids=["chsh", "chained-bell", "random-2-3", "random-3-3"])
def test_tracial_correlation_is_a_tensor_correlation_with_the_maximally_entangled_state(
        game, dim):
    # For projections in M_d, tr(E F) / d = <phi_d| E kron conj(F) |phi_d>
    # with phi_d = sum_i |ii> / sqrt(d), since F^T = conj(F).
    _, family = sync_value_lower_bound(game, dim=dim, restarts=4, seed=0)
    f = family.families
    phi = np.eye(dim).reshape(-1) / np.sqrt(dim)
    spec = QuantumStrategySpec(flavor=TENSOR, state=phi, alice=f, bob=f.conj())
    tensor = quantum_correlation(spec).p
    assert np.max(np.abs(tensor - tracial_correlation(family).p)) <= 1e-15


def test_sync_lower_bound_chsh_dim1():
    value, fam = sync_value_lower_bound(chsh_game(), dim=1, restarts=2, seed=0, iters=10)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert value == pytest.approx(oracle_best_scalar(chsh_game())[0], abs=1e-12)
    s = tracial_correlation(fam)
    # same-question answers agree, so the (2,2) disagree round is lost
    assert s.p[1, 1, 0, 1] == pytest.approx(0.0, abs=1e-12)


def test_sync_lower_bound_always_win():
    g = chsh_game()
    always = Game(k=2, n=2, pi=g.pi, wins=np.ones((2, 2, 2, 2)))
    value, _ = sync_value_lower_bound(always, dim=2, restarts=1, seed=1, iters=5)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_sync_lower_bound_dominates_scalar_seed():
    for seed in range(6):
        g = random_game(2, 2, seed=seed)
        value, fam = sync_value_lower_bound(g, dim=2, restarts=1, seed=seed, iters=8)
        assert value >= oracle_best_scalar(g)[0] - 1e-9
        assert value <= 1.0 + 1e-9
        # self-certification
        assert game_value(g, tracial_correlation(fam)) == pytest.approx(value, abs=1e-9)


def bcs_sync_game(scopes, odd, width):
    """Synchronous binary-constraint-system game on ``width`` bits: question
    x is the constraint on the bits scopes[x], of odd parity where odd[x]
    and even elsewhere, and answer a is the a-th satisfying assignment of
    its bits in lexicographic order.  π is uniform, and the players win iff
    they agree on every shared bit."""
    k = len(scopes)
    rows = np.array(list(itertools.product((0, 1), repeat=len(scopes[0]))))
    parity = rows.sum(axis=1) % 2 == 1
    bits = np.full((k, len(rows) // 2, width), -1)   # [x, a - 1, bit], -1 off the scope
    for x, scope in enumerate(scopes):
        bits[x][:, scope] = rows[parity == odd[x]]
    alice, bob = bits[:, None, :, None], bits[None, :, None, :]
    wins = np.all((alice < 0) | (bob < 0) | (alice == bob), axis=-1)   # [x, y, a, b]
    return Game(k=k, n=len(rows) // 2, pi=np.full((k, k), 1 / k ** 2), wins=wins)


def magic_square_sync():
    """The magic square: question x < 3 is row x of a 3 x 3 grid of bits
    (even parity), question x >= 3 is column x - 3 (odd parity)."""
    cells = np.arange(9).reshape(3, 3)
    return bcs_sync_game([*cells, *cells.T], [x >= 3 for x in range(6)], 9)


def magic_pentagram_sync():
    """The magic pentagram: the bits are the 10 edges of K5 in
    lexicographic order, question v is vertex v's 4 edges, and the parity
    is even except at the last vertex."""
    edges = list(itertools.combinations(range(5), 2))
    scopes = [[e for e, edge in enumerate(edges) if v in edge] for v in range(5)]
    return bcs_sync_game(scopes, [v == 4 for v in range(5)], len(edges))


def test_sync_search_reaches_the_magic_square_optimum():
    # A perfect synchronous strategy is a tracial state on M_4 (Kim,
    # Paulsen and Schafhauser 2018), against a classical and scalar 17/18;
    # pinned from both sides like the entangled gates.
    text = data_path("magic_square_sync.json").read_text()
    game = load_game(text)
    assert game == magic_square_sync() and save_game(game) == text
    assert abs(classical_value(game)[0] - 17 / 18) <= 1e-12
    assert abs(_best_scalar_assignment(payoff(game))[0] - 17 / 18) <= 1e-12
    for seed in range(5):
        value, _ = sync_value_lower_bound(game, 4, 8, seed)
        assert 1 - 1e-9 <= value <= 1 + 1e-9


def test_magic_pentagram_is_bundled_with_its_classical_value():
    # Value 1 at d = 8 (Mermin 1993), but no search runs here: too few
    # restarts reach it yet for a gate.
    text = data_path("magic_pentagram_sync.json").read_text()
    game = load_game(text)
    assert game == magic_pentagram_sync() and save_game(game) == text
    assert abs(classical_value(game)[0] - 23 / 25) <= 1e-12
    assert abs(_best_scalar_assignment(payoff(game))[0] - 23 / 25) <= 1e-12


def test_sync_lower_bound_deterministic_in_seed():
    a = sync_value_lower_bound(chsh_game(), dim=2, restarts=2, seed=4, iters=10)
    b = sync_value_lower_bound(chsh_game(), dim=2, restarts=2, seed=4, iters=10)
    assert a[0] == b[0]


def test_sync_lower_bound_changes_ranks_and_stays_exact():
    # Same-question terms are linear in each projection, so the search may
    # leave the near-equal block profile.
    g = random_game(2, 2, seed=0)
    values = []
    rows = _sync_seesaw(SYNCHRONOUS.prepare(g, 3), [generator(0, stream=r) for r in range(2)], 60)
    for fam in map(TracialPVMFamily, *rows):
        ranks = [[round(float(np.trace(m).real)) for m in f] for f in fam.families]
        assert any(rank != [2, 1] for rank in ranks)
        assert pvm_residual(fam.families) <= 1e-12
        values.append(game_value(g, tracial_correlation(fam)))
    value, _ = sync_value_lower_bound(g, dim=3, restarts=2, seed=0, iters=60)
    assert value == pytest.approx(max(values), abs=1e-12)


def reference_sync_seesaw(game, d, rng, iters):
    """One restart run alone, with one best response per question: the
    serial synchronous see-saw the batched one must reproduce."""
    k, n = game.k, game.n
    v = payoff(game)
    coupling = (v + v.transpose(1, 0, 3, 2)) / d
    coupling[np.arange(k), np.arange(k)] = 0.0
    same = np.einsum("xxaa,ij->xaij", v, identity(d)) / d
    f = random_block_families(k, n, d, [rng])[0]
    last = -np.inf
    for _ in range(iters):
        for x in range(k):
            weights = np.einsum("yab,ybij->aij", coupling[x], f) + same[x]
            f[x] = reference_best_response(weights, f[x])
        current = float(np.real(np.einsum("xyab,xaij,ybji->", v, f, f))) / d
        if current <= last + 1e-12:
            break
        last = current
    return TracialPVMFamily(families=f)


@pytest.mark.parametrize("k, n, dim", SEARCH_SHAPES)
def test_batched_sync_seesaw_matches_serial_reference(k, n, dim):
    for seed in range(4):
        g = random_game(k, n, seed)
        (batched,) = _sync_seesaw(SYNCHRONOUS.prepare(g, dim),
                                  [generator(seed, stream=r) for r in range(3)], 60)
        for r, fam in enumerate(map(TracialPVMFamily, batched)):
            serial = reference_sync_seesaw(g, dim, generator(seed, stream=r), 60)
            assert game_value(g, tracial_correlation(fam)) == pytest.approx(
                game_value(g, tracial_correlation(serial)), abs=1e-12)


def test_sync_lower_bound_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        sync_value_lower_bound(chsh_game(), dim=0, restarts=1, seed=0)


# -- repair_almost_pvm -------------------------------------------------------

def exact_random_pvm(d, n, seed):
    return MeasurementFamily(outcomes=random_block_families(1, n, d, [generator(seed)])[0][0],
                             flavor=PVM)


def test_repair_fixed_point_on_exact_pvm():
    fam = exact_random_pvm(4, 2, seed=2)
    repaired = repair_almost_pvm(list(fam.outcomes))
    for original, fixed in zip(fam.outcomes, repaired.outcomes):
        assert np.allclose(fixed, original, atol=1e-9)


def test_repair_recovers_from_small_noise():
    rng = np.random.default_rng(10)
    for seed in range(10):
        d, n = 4, 3
        fam = exact_random_pvm(d, n, seed=seed)
        noisy = []
        for m in fam.outcomes:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            noisy.append(m + 1e-3 * (g + dagger(g)) / 2)
        repaired = repair_almost_pvm(noisy)
        assert validate_measurement(repaired) == ()
        distance = max(frobenius(a - b) for a, b in zip(repaired.outcomes, fam.outcomes))
        assert distance <= 1e-2


def test_repair_output_always_valid():
    rng = np.random.default_rng(20)
    for seed in range(10):
        d, n = 3, 2
        fam = exact_random_pvm(d, n, seed=seed + 50)
        noisy = []
        for m in fam.outcomes:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            noisy.append(m + 5e-3 * g)   # not even self-adjoint noise
        repaired = repair_almost_pvm(noisy)
        assert validate_measurement(repaired) == ()


def test_repair_rejects_large_defect():
    with pytest.raises(DefectTooLargeError):
        repair_almost_pvm([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])


def test_family_shape_validation():
    good = exact_random_pvm(2, 2, seed=1)
    povm_flavored = MeasurementFamily(outcomes=good.outcomes, flavor="povm")
    with pytest.raises(ValidationError, match="family 2 must be flavored 'pvm'"):
        TracialPVMFamily(families=(good, povm_flavored))
    with pytest.raises(ValidationError, match="family 2 has 3 outcomes, expected 2"):
        TracialPVMFamily(families=(good.outcomes, exact_random_pvm(2, 3, seed=2).outcomes))


def test_family_objects_and_array_give_the_same_family():
    # The tuple-of-MeasurementFamily form is the one the benchmark passes.
    fams = tuple(exact_random_pvm(3, 2, seed=s) for s in range(3))
    from_objects = TracialPVMFamily(families=fams)
    from_array = TracialPVMFamily(families=np.array([fam.outcomes for fam in fams]))
    assert from_objects.families.shape == (3, 2, 3, 3)
    assert from_objects.families.dtype == np.complex128
    assert np.array_equal(from_objects.families, from_array.families)
    assert (from_objects.k, from_objects.n, from_objects.d) == (3, 2, 3)
    with pytest.raises(ValueError):
        from_array.families[0, 0, 0, 0] = 1.0


def test_validate_family_lines_are_frozen():
    # Lines of the per-family validator that the batched pass
    # replaced, taken from it verbatim.
    skew = MeasurementFamily(outcomes=(np.array([[1.0, 0.5], [0.0, 0.0]]), np.diag([0.0, 0.5])),
                             flavor=PVM)
    negative = MeasurementFamily(outcomes=(np.diag([1.25, 0.0]), np.diag([-0.25, 1.0])),
                                 flavor=PVM)
    coordinate = MeasurementFamily(outcomes=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), flavor=PVM)
    lines = validate_family(TracialPVMFamily(families=(coordinate, skew, negative)))
    assert lines == (
        "family 2: outcome 1 not self-adjoint: residual 0.5",
        "family 2: outcome 2 not idempotent: residual 0.25",
        "family 2: completeness residual 0.5",
        "family 3: outcome 1 not idempotent: residual 0.312",
        "family 3: outcome 2 not positive: eigenvalue -0.25",
        "family 3: outcome 2 not idempotent: residual 0.312")


def test_family_file_round_trip():
    value, family = sync_value_lower_bound(random_game(2, 3, 1), dim=3, restarts=2, seed=4)
    text = save_family(family)
    loaded = load_family(text)
    assert np.array_equal(loaded.families, family.families)
    assert save_family(loaded) == text
    assert game_value(random_game(2, 3, 1), tracial_correlation(loaded)) == value


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj.pop("families"), "family file: missing field 'families'"),
    (lambda obj: obj.update(dim=0), "family file: dim must be an integer >= 1, got 0"),
    (lambda obj: obj["families"][1].pop(), r"family file: families\[1\] must be a list of 2 "
                                           "outcomes"),
    (lambda obj: obj["families"][1][1].__setitem__(0, True),
     r"family file: families\[1\] outcome 2 must be a numeric array of shape \(8,\)"),
    (lambda obj: obj.update(families=[]), "family file: need at least one family"),
    (lambda obj: obj.update(dim=10 ** 10, families=[]),
     "family file: families: number or dimension out of range"),
])
def test_load_family_refuses_bad_files(edit, message):
    obj = json.loads(save_family(sync_value_lower_bound(chsh_game(), 2, 1, 0, iters=5)[1]))
    edit(obj)
    with pytest.raises(ParseError, match=message):
        load_family(json.dumps(obj))


@pytest.mark.parametrize("literal", NON_FINITE)
def test_load_family_names_a_non_finite_entry(literal):
    obj = json.loads(save_family(sync_value_lower_bound(chsh_game(), 2, 1, 0, iters=5)[1]))
    obj["families"][1][1][3] = "BAD"
    with pytest.raises(ParseError, match=r"family file: families\[1\] outcome 2 has a non-finite "
                                         "entry"):
        load_family(json.dumps(obj).replace('"BAD"', literal))
