"""Monomial enumeration, the moment map, clouds, and density estimates."""

import dataclasses
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nlv import moments
from nlv.errors import CapExceededError, ValidationError
from nlv.linalg import dagger, ginibre, random_unitary
from nlv.moments import (Monomial, chunks, density_check,
                         enumerate_monomials, moment_map, monomial_count,
                         random_contractions, sample_moment_cloud)
from nlv.rng import generator


def test_enumeration_n1_d2():
    words = [str(m) for m in enumerate_monomials(1, 2)]
    assert words == ["x1", "x1*", "x1 x1", "x1 x1*", "x1* x1", "x1* x1*"]


def test_enumeration_n1_d1():
    assert [str(m) for m in enumerate_monomials(1, 1)] == ["x1", "x1*"]


def test_enumeration_n2_d1():
    words = [str(m) for m in enumerate_monomials(2, 1)]
    assert words == ["x1", "x1*", "x2", "x2*"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_enumeration_count_closed_form(n, d):
    words = enumerate_monomials(n, d)
    assert len(words) == monomial_count(n, d) == sum((2 * n) ** j for j in range(1, d + 1))


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_monomials(10, 8)


def test_monomial_star_is_involution():
    m = Monomial(letters=((1, False), (2, True), (1, True)))
    assert str(m.star()) == "x1 x2 x1*"
    assert m.star().star() == m


def test_moment_map_identity_tuple():
    vec = moment_map([np.eye(3, dtype=complex)], 2)
    assert np.allclose(vec, 1.0, atol=1e-15)


def test_moment_map_diag_golden_vector():
    vec = moment_map([np.diag([1.0, -1.0]).astype(complex)], 2)
    assert np.allclose(vec, [0, 0, 1, 1, 1, 1], atol=1e-15)


def test_moment_map_rejects_expansion():
    message = "matrix 2 has operator norm 1.5 > 1: not a contraction"
    with pytest.raises(ValidationError, match=re.escape(message)):
        moment_map([np.eye(2, dtype=complex), 1.5 * np.eye(2, dtype=complex)], 1)


def test_moment_map_rejects_bad_shapes():
    with pytest.raises(ValidationError, match="matrix 2 is not 2 x 2"):
        moment_map([np.eye(2, dtype=complex), np.eye(3, dtype=complex)], 1)
    for empty in ([np.zeros((0, 0))], [1.0]):
        with pytest.raises(ValidationError, match="at least 1 x 1"):
            moment_map(empty, 1)


def test_moment_vector_rejects_non_finite():
    with pytest.raises(ValidationError, match="non-finite"):
        moment_map([np.array([[np.nan, 0.0], [0.0, 0.5]])], 1)


def test_moment_map_admits_every_accepted_contraction():
    # (1 + 5e-10) I passes the operator-norm check, so its words of length
    # 3 have modulus (1 + 5e-10)^3 > 1 + 1e-9 and must still be admitted.
    vec = moment_map([(1 + 5e-10) * np.eye(2)], 3)
    lengths = [len(w.letters) for w in enumerate_monomials(1, 3)]
    assert np.allclose(vec, [(1 + 5e-10) ** l for l in lengths], rtol=1e-15, atol=0)
    assert np.max(np.abs(vec)) > 1 + moments.CONTRACTION_TOL


def test_moment_data_are_read_only_complex_arrays():
    vec = moment_map([np.diag([1.0, -1.0])], 2)
    cloud = sample_moment_cloud(2, 2, 2, count=5, seed=3)
    assert (vec.shape, cloud.shape) == ((6,), (5, 20))
    for arr in (vec, cloud):
        assert arr.dtype == np.complex128
        assert not arr.flags.writeable


def test_moment_entries_stay_in_unit_disk():
    for seed in range(10):
        rng = generator(seed)
        mats = random_contractions((2, 3, 3), rng)
        vec = moment_map(mats, 3)
        assert np.max(np.abs(vec)) <= 1.0 + 1e-9


def test_conjugate_symmetry():
    # the trace of the adjoint word is the conjugate of the original
    for seed in range(10):
        rng = generator(seed)
        mats = random_contractions((2, 3, 3), rng)
        words = enumerate_monomials(2, 2)
        vec = moment_map(mats, 2)
        index = {w.letters: i for i, w in enumerate(words)}
        for i, w in enumerate(words):
            j = index[w.star().letters]
            assert abs(vec[j] - np.conj(vec[i])) < 1e-9


def test_unitary_conjugation_invariance():
    for seed in range(10):
        rng = generator(seed)
        mats = random_contractions((2, 4, 4), rng)
        u = random_unitary((4, 4), [rng])[0]
        rotated = [u @ m @ u.conj().T for m in mats]
        a = moment_map(mats, 2)
        b = moment_map(rotated, 2)
        assert np.max(np.abs(a - b)) < 1e-9


def test_direct_sum_invariance():
    for seed in range(10):
        rng = generator(seed)
        mats = random_contractions((1, 3, 3), rng)
        doubled = [np.block([[m, np.zeros_like(m)], [np.zeros_like(m), m]]) for m in mats]
        a = moment_map(mats, 3)
        b = moment_map(doubled, 3)
        assert np.max(np.abs(a - b)) < 1e-12


def test_scalar_cloud_is_power_pattern():
    # at p=1 each moment vector is generated by one unit-disk scalar
    cloud = sample_moment_cloud(1, 3, 1, count=20, seed=5)
    words = enumerate_monomials(1, 3)
    for vec in cloud:
        scalar = vec[0]
        assert abs(scalar) <= 1 + 1e-12
        for w, value in zip(words, vec):
            plain = sum(1 for _, star in w.letters if not star)
            starred = len(w.letters) - plain
            assert abs(value - scalar ** plain * np.conj(scalar) ** starred) < 1e-12


def test_cloud_empty_and_deterministic():
    assert sample_moment_cloud(1, 1, 2, count=0, seed=3).shape == (0, 2)
    a = sample_moment_cloud(2, 2, 2, count=5, seed=3)
    b = sample_moment_cloud(2, 2, 2, count=5, seed=3)
    assert np.array_equal(a, b)
    c = sample_moment_cloud(2, 2, 2, count=5, seed=4)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_cloud_cap():
    with pytest.raises(CapExceededError):
        sample_moment_cloud(2, 3, 2, count=10_000_000, seed=0)


def test_huge_degree_is_refused_without_computing_the_power():
    # 6^(10^6) has millions of digits; the refusal must come before it.
    with pytest.raises(CapExceededError, match=r"\(2n\)\^d = 6\^1000000 exceeds monomial cap"):
        sample_moment_cloud(3, 10 ** 6, 2, count=1, seed=0)


def test_tuple_cap_admits_the_documented_tuple_and_refuses_before_any_product():
    # The n = 2, d = 2, p = 1024 tuple holds 192 MiB and is admitted.  Words
    # up to d = 19 at p = 64 pass the word and dimension caps, but the
    # products of one tuple would take 32 GiB (the cloud form is a CLI test).
    assert moments._tuple_bytes(2, 2, 1024) == 192 << 20 <= moments.MAX_TUPLE_BYTES
    with pytest.raises(CapExceededError, match="needs 34359869440 bytes exceeding cap"):
        moment_map([np.zeros((64, 64))], 19)


def test_density_self_cover():
    report = density_check(1, 1, 2, 2, eps=0.0, counts=(100, 100), seed=7)
    assert report.covered_fraction == 1.0
    assert report.max_gap == 0.0


def test_density_scalars_cover_2x2_traces():
    report = density_check(1, 1, 1, 2, eps=0.1, counts=(2000, 200), seed=11)
    assert report.covered_fraction >= 0.95
    assert report.note.startswith("empirical estimate")
    assert report.counts == (2000, 200)
    assert report.seed == 11


def test_density_past_its_cap_is_refused_before_any_draw(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(CapExceededError,
                       match="20000 x 20000 points x 2 moments exceeds cap 200000000"):
        density_check(1, 1, 1, 2, eps=0.1, counts=(20_000, 20_000), seed=0)
    assert time.perf_counter() - started < 0.1
    # 4 x 5 points x 2 moments (n = d = 1) make 40 terms.
    monkeypatch.setattr(moments, "DENSITY_CAP", 40)
    assert density_check(1, 1, 1, 2, eps=0.1, counts=(4, 5), seed=0).counts == (4, 5)
    monkeypatch.setattr(moments, "DENSITY_CAP", 39)
    with pytest.raises(CapExceededError, match="4 x 5 points x 2 moments exceeds cap 39"):
        density_check(1, 1, 1, 2, eps=0.1, counts=(4, 5), seed=0)


def test_density_rejects_bad_order():
    with pytest.raises(ValidationError):
        density_check(1, 1, 3, 2, eps=0.1, counts=(10, 10), seed=0)


@pytest.mark.parametrize("total, item_bytes, size",
                         [(0, 1, 10), (10, 3, 3), (9, 3, 3), (5, 11, 1), (1, 10, 1), (4, 1, 10)])
def test_chunks_cover_the_range_in_order_in_budget_sizes(monkeypatch, total, item_bytes, size):
    monkeypatch.setattr(moments, "CHUNK_BYTES", 10)
    parts = list(chunks(total, item_bytes))
    assert [i for part in parts for i in part] == list(range(total))
    assert all(len(part) == size for part in parts[:-1])
    assert all(0 < len(part) <= size for part in parts)
    assert len(parts) == -(-total // size)


def reference_contractions(n, p, rng):
    """The per-matrix draw: one Ginibre matrix at a time, scaled into the
    unit ball when its norm exceeds 1."""
    out = []
    for _ in range(n):
        g = ginibre((p, p), rng)
        norm = np.linalg.norm(g, 2)
        out.append(g / norm if norm > 1.0 else g)
    return out


def reference_moments(mats, d):
    """The per-word loop over enumerated monomials: each product is its
    prefix's product times the last letter."""
    p = mats[0].shape[0]
    by_letter = {}
    for var, mat in enumerate(mats, start=1):
        by_letter[(var, False)] = mat
        by_letter[(var, True)] = dagger(mat)
    products = {}
    values = []
    for word in enumerate_monomials(len(mats), d):
        key = word.letters
        product = by_letter[key[0]] if len(key) == 1 else products[key[:-1]] @ by_letter[key[-1]]
        products[key] = product
        values.append(np.trace(product) / p)
    return np.array(values, dtype=np.complex128)


def reference_cloud(n, d, p, count, seed):
    rng = generator(seed, stream=p)
    return [moment_map(random_contractions((n, p, p), rng), d) for _ in range(count)]


CLOUD_SHAPES = [(1, 1, 2, 0), (2, 2, 2, 1), (1, 3, 1, 20), (2, 1, 3, 15), (2, 3, 3, 40),
                (3, 2, 4, 10), (1, 4, 9, 5)]


@pytest.mark.parametrize("n, d, p, count", CLOUD_SHAPES)
def test_batched_cloud_is_bit_identical_to_per_tuple_form(n, d, p, count):
    cloud = sample_moment_cloud(n, d, p, count, seed=3)
    reference = reference_cloud(n, d, p, count, seed=3)
    assert len(cloud) == len(reference) == count
    for vec, ref in zip(cloud, reference):
        assert np.array_equal(vec, ref)


def rounding_gap(mats, d):
    """Twice the forward-error bound gamma_m |tau|_w of the test below, for
    every word w of length 1..d on the p x p matrices ``mats``."""
    p = mats[0].shape[0]
    m = (d - 1) * (p + 2) + p * p + 1
    gamma = m * 2.0 ** -53 / (1 - m * 2.0 ** -53)
    return 2 * gamma / (1 - gamma) * reference_moments([np.abs(a) for a in mats], d).real


@pytest.mark.parametrize("n, d, p, count", CLOUD_SHAPES)
def test_one_tuple_case_matches_per_matrix_loops(n, d, p, count):
    """The draw is the per-matrix draw bit for bit, and the moments are the
    per-word loop's within the rounding either can make.

    Both compute tau_w = tr(A_1 ... A_l) / p for a word w of l <= d
    contractions of size p from complex inner products.  One of m terms is
    computed with error at most gamma_{m+2} sum_k |x_k| |y_k|, where
    gamma_m = m u / (1 - m u) and u = 2^-53, and the errors of successive
    stages compound as (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_{a+b}
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.1, 3.5 and 3.6).  The loop makes l - 1 products of p-term
    inner products, sums p diagonal entries and divides by p in at most
    two roundings.  The engine makes at most l - 2 such products, one
    p^2-term sum for the longest words, and a division in one rounding.
    So each computes tau_w within gamma_m |tau|_w,
    with m = (d - 1)(p + 2) + p^2 + 1 and |tau|_w = tr(|A_1| ... |A_l|) / p
    over entrywise moduli, and the two differ by at most 2 gamma_m |tau|_w.
    The loop evaluates |tau|_w from nonnegative terms only, so its value is
    at least (1 - gamma_m) |tau|_w.
    """
    rng, ref_rng = generator(5, stream=p), generator(5, stream=p)
    for _ in range(max(count, 1)):
        mats = random_contractions((n, p, p), rng)
        ref = reference_contractions(n, p, ref_rng)
        assert all(np.array_equal(a, b) for a, b in zip(mats, ref))
        gap = np.abs(moment_map(mats, d) - reference_moments(ref, d))
        assert np.all(gap <= rounding_gap(ref, d))


def dyadic_halves(n, p, rng):
    """n Gaussian-integer p x p matrices M, each the sum of two permutation
    matrices whose entries are scaled by units drawn from {0, +-1, +-i}.
    Every row and column of M / 2 then has absolute sum at most 1, so M / 2
    is a contraction by the Schur test, ||A||^2 <= ||A||_1 ||A||_inf."""
    units = np.array([0, 1, -1, 1j, -1j])
    halves = np.zeros((n, p, p), dtype=np.complex128)
    for m in halves:
        for _ in range(2):
            m[np.arange(p), rng.permutation(p)] += rng.choice(units, p)
    return halves


def exact_moments(halves, d):
    """The normalized traces of every word of length 1..d on the tuple
    ``halves / 2``, in enumeration order, each rounded once from its exact
    value: a word of length l is its letters' Gaussian-integer product over
    2^l, multiplied in int64 on real and imaginary parts, and its trace
    over p 2^l is a pair of Fractions."""
    p = halves.shape[-1]
    letters = []
    for m in halves:
        re, im = m.real.astype(np.int64), m.imag.astype(np.int64)
        letters += [(re, im), (re.T, -im.T)]
    products = [(np.eye(p, dtype=np.int64), np.zeros((p, p), dtype=np.int64))]
    values = []
    for length in range(1, d + 1):
        products = [(pre @ re - pim @ im, pre @ im + pim @ re)
                    for pre, pim in products for re, im in letters]
        scale = p * 2 ** length
        values += [complex(Fraction(int(np.trace(re)), scale), Fraction(int(np.trace(im)), scale))
                   for re, im in products]
    return np.array(values)


@pytest.mark.parametrize("n, p", [(1, 1), (1, 3), (2, 2), (2, 5), (3, 4)])
def test_dyadic_contractions_give_exact_traces(n, p):
    """Entries on the dyadic Gaussian grid, of modulus at most 1/2 here,
    keep every product and partial sum exact in float64, so no order of
    rounding can move these moments: each is its exact value rounded once."""
    halves = dyadic_halves(n, p, np.random.default_rng(p))
    for d in range(1, 5):
        assert np.array_equal(moment_map(halves / 2, d), exact_moments(halves, d))


@pytest.mark.parametrize("n, d, p, count", [(1, 3, 2, 6), (2, 4, 5, 4), (1, 6, 5, 3)])
def test_stacked_dyadic_tuples_give_exact_traces(n, d, p, count):
    # The path of a cloud chunk.  At (2, 4, 5) two middle lengths are
    # formed and the final dot takes its 4^3 prefixes in three blocks of
    # p^2 = 25; at (1, 6, 5), four middle lengths and two blocks.
    rng = np.random.default_rng(d)
    stack = [dyadic_halves(n, p, rng) for _ in range(count)]
    out = np.empty((count, monomial_count(n, d)), dtype=np.complex128)
    moments._moments(np.stack(stack) / 2, d, out)
    for row, halves in zip(out, stack):
        assert np.array_equal(row, exact_moments(halves, d))


@pytest.mark.parametrize("n, d, p_small, p_large, eps, counts, seed",
                         [(2, 2, 2, 3, 0.1, (400, 100), 2), (1, 1, 1, 2, 0.1, (300, 50), 11),
                          (2, 3, 1, 3, 0.5, (30, 1), 4)])
def test_density_report_matches_reference_clouds(n, d, p_small, p_large, eps, counts, seed):
    report = density_check(n, d, p_small, p_large, eps, counts, seed)
    small = np.stack(reference_cloud(n, d, p_small, counts[0], seed))
    nearest = [float(np.min(np.max(np.abs(small - v[None, :]), axis=1)))
               for v in reference_cloud(n, d, p_large, counts[1], seed)]
    expected = dataclasses.replace(
        report, covered_fraction=sum(g <= eps for g in nearest) / counts[1],
        max_gap=max(nearest))
    assert report == expected


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, -1e-300])
def test_density_rejects_bad_eps(eps):
    with pytest.raises(ValidationError, match="eps must be finite and >= 0"):
        density_check(1, 1, 1, 2, eps=eps, counts=(10, 10), seed=0)


def test_cloud_holds_only_one_length_of_products():
    # Keeping every word's product for every tuple would take all_products
    # bytes; the batched pass keeps only the previous length's products.
    n, d, p, count = 2, 3, 3, 400
    all_products = monomial_count(n, d) * count * p * p * 16
    tracemalloc.start()
    try:
        sample_moment_cloud(n, d, p, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_products / 2


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("n, d, p, count", [(2, 3, 3, 40), (1, 1, 2, 10), (3, 2, 4, 8)])
def test_chunked_cloud_is_bit_identical_to_per_tuple_form(monkeypatch, chunk, n, d, p, count):
    held = 4 * n + monomial_count(n, d - 1)
    monkeypatch.setattr(moments, "CHUNK_BYTES", chunk * held * p * p * 16)
    assert len(next(moments.chunks(count, moments._tuple_bytes(n, d, p)))) == chunk
    cloud = sample_moment_cloud(n, d, p, count, seed=3)
    reference = reference_cloud(n, d, p, count, seed=3)
    assert len(cloud) == count
    for vec, ref in zip(cloud, reference):
        assert np.array_equal(vec, ref)


@pytest.mark.parametrize("n, d, p, count", [(1, 1, 64, 400), (2, 2, 32, 600)])
def test_large_cloud_peak_stays_within_chunk_budget(n, d, p, count):
    # The whole (count, n, p, p) stack would be several times CHUNK_BYTES;
    # evaluating in chunks keeps the traced peak below the budget.
    whole_stack = count * n * p * p * 16
    assert whole_stack > 2 * moments.CHUNK_BYTES
    tracemalloc.start()
    try:
        cloud = sample_moment_cloud(n, d, p, count, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cloud) == count
    assert peak < moments.CHUNK_BYTES


@pytest.mark.parametrize("call, message", [
    (lambda: Monomial(()), "monomial must have length >= 1"),
    (lambda: Monomial(((0, False),)), r"bad letter \(0, False\)"),
    (lambda: Monomial(((1, 1),)), r"bad letter \(1, 1\)"),
    (lambda: moment_map([], 1), "need at least one matrix"),
    (lambda: sample_moment_cloud(1, 1, 0, 3, 0), "need p >= 1 and count >= 0"),
    (lambda: sample_moment_cloud(1, 1, 2, -1, 0), "need p >= 1 and count >= 0"),
    (lambda: density_check(1, 1, 1, 2, 0.1, (0, 5), 0), "both clouds must be nonempty"),
    (lambda: density_check(1, 1, 1, 2, 0.1, (5, 0), 0), "both clouds must be nonempty"),
    (lambda: density_check(1, 1, 1, 2, 0.1, (-20000, -20000), 0), "both clouds must be nonempty"),
    (lambda: enumerate_monomials(0, 1), "need n >= 1 and d >= 1"),
])
def test_moment_functions_refuse_bad_arguments(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
