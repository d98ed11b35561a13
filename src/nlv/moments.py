"""Normalized-trace moments of matrix tuples under *-monomials.

For n contraction matrices of a common dimension, the moment vector lists
the normalized traces of every word of length 1..d in the letters
x_1, ..., x_n, x_1*, ..., x_n*, in length-then-lexicographic order.  The
cloud and density routines give finite-sample, desk-scale pictures of how
the moment sets of small matrix dimensions sit inside those of larger
ones; they are empirical estimates, never certificates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ValidationError, read_count, read_field, read_object
from .linalg import as_complex, dagger, deinterleave, ginibre
from .rng import generator

WORD_CAP = 1_000_000
CLOUD_CAP = 5_000_000
CONTRACTION_TOL = 1e-9
CHUNK_BYTES = 8 << 20
MAX_MATRIX_DIM = 1024   # p for clouds: one sampled p x p matrix is 16 p^2 bytes
MAX_TUPLE_BYTES = 256 << 20   # bytes of matrices one tuple holds at once, see _tuple_bytes
DENSITY_CAP = 200_000_000   # count1 count2 L distance terms of density_check, 7-39 ns each


@dataclass(frozen=True)
class Monomial:
    """A word over the starred alphabet.  ``letters`` holds (variable index
    1..n, starred) pairs in left-to-right order."""

    letters: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        if not self.letters:
            raise ValidationError("monomial must have length >= 1")
        for var, star in self.letters:
            if var < 1 or not isinstance(star, bool):
                raise ValidationError(f"bad letter ({var}, {star})")

    def star(self) -> "Monomial":
        """Adjoint word: reverse the letters and flip every star."""
        return Monomial(letters=tuple((v, not s) for v, s in reversed(self.letters)))

    def __str__(self) -> str:
        return " ".join(f"x{v}*" if s else f"x{v}" for v, s in self.letters)


def monomial_count(n: int, d: int) -> int:
    """Number of words of length 1..d over 2n letters: sum of (2n)^j."""
    return sum((2 * n) ** j for j in range(1, d + 1))


def _check_degree(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValidationError("need n >= 1 and d >= 1")
    # 2n >= 2, so a d past WORD_CAP's bit length is over it without the power.
    if d > WORD_CAP.bit_length() or (2 * n) ** d > WORD_CAP:
        raise CapExceededError(f"(2n)^d = {2 * n}^{d} exceeds monomial cap {WORD_CAP}")


def enumerate_monomials(n: int, d: int) -> list[Monomial]:
    """All words of length 1..d in length-then-lexicographic order, with
    the letters ordered x1 < x1* < x2 < x2* < ...  The degree-0 word is
    excluded: its trace is identically 1 and carries no information."""
    _check_degree(n, d)
    letters = [(var, star) for var in range(1, n + 1) for star in (False, True)]
    words = []
    for length in range(1, d + 1):
        for combo in itertools.product(letters, repeat=length):
            words.append(Monomial(letters=combo))
    return words


def _moments(tuples: np.ndarray, d: int) -> np.ndarray:
    """Normalized traces of every word of length 1..d on each tuple of a
    ``(count, n, p, p)`` stack, as a read-only ``(count, L)`` complex128
    array in enumeration order, checked once: every entry finite and of
    modulus at most ``(1 + CONTRACTION_TOL) ** d``, the bound that the
    contraction check implies for a word of length at most d.

    Word j of length l is word j // 2n of length l - 1 followed by letter
    j % 2n, so each product is its prefix's product times one letter: one
    stacked matmul over the whole stack per word.  Only the previous
    length's products are kept, and the longest words are traced and
    dropped as they are made.
    """
    n, p = tuples.shape[1:3]
    _check_degree(n, d)
    held = _tuple_bytes(n, d, p)
    if held > MAX_TUPLE_BYTES:
        raise CapExceededError(f"one tuple at n = {n}, d = {d}, p = {p} needs {held} bytes "
                               f"exceeding cap {MAX_TUPLE_BYTES}")
    norms = np.linalg.norm(tuples, 2, axis=(-2, -1))
    over = np.argwhere(norms > 1.0 + CONTRACTION_TOL)
    if over.size:
        t, i = over[0]
        raise ValidationError(
            f"matrix {i + 1} has operator norm {norms[t, i]:.9g} > 1: not a contraction")
    letters = [m for i in range(n) for m in (tuples[:, i], dagger(tuples[:, i]))]
    traces = [np.trace(m, axis1=1, axis2=2) for m in letters]
    products = letters
    for length in range(2, d + 1):
        longer = []
        for prefix in products:
            for letter in letters:
                product = prefix @ letter
                traces.append(np.trace(product, axis1=1, axis2=2))
                if length < d:
                    longer.append(product)
        products = longer
    values = np.stack(traces, axis=1) / p
    top = float(np.max(np.abs(values), initial=0.0))   # NaN and inf reach the max
    bound = (1.0 + CONTRACTION_TOL) ** d
    if not math.isfinite(top):
        raise ValidationError("moments have non-finite entries")
    if top > bound:
        raise ValidationError(f"moment modulus {top:.9g} exceeds {bound:.9g}")
    values.setflags(write=False)
    return values


def moment_map(matrices, d: int) -> np.ndarray:
    """Moment vector of a tuple of contractions, a read-only ``(L,)``
    complex128 array.

    Each matrix must have operator norm at most 1 (within 1e-9); the check
    runs up front and names the offending index.  Entry i is the normalized
    trace of the i-th enumerated word evaluated on the tuple.
    """
    mats = [as_complex(m) for m in matrices]
    if not mats:
        raise ValidationError("need at least one matrix")
    p = mats[0].shape[0] if mats[0].ndim else 0
    if p < 1:
        raise ValidationError("matrices must be at least 1 x 1")
    for i, mat in enumerate(mats):
        if mat.shape != (p, p):
            raise ValidationError(f"matrix {i + 1} is not {p} x {p}")
    return _moments(np.stack(mats)[None], d)[0]


def load_matrices(text: str) -> list[np.ndarray]:
    """Parse a matrix tuple file, the input of ``moments map``:
    ``{"dim": p, "matrices": [<p x p interleaved>, ...]}``."""
    where = "matrices file"
    obj = read_object(text, where)
    dim = read_count(obj, "dim", where)
    return [deinterleave(values, (dim, dim), f"{where}: matrix {i + 1}")
            for i, values in enumerate(read_field(obj, "matrices", list, where))]


def random_contractions(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex :func:`~nlv.linalg.ginibre` matrices of a ``(..., p, p)``
    shape, each divided by its computed operator norm when that norm
    exceeds 1, so every matrix lies in the unit ball without collapsing
    interior samples onto its boundary."""
    g = ginibre(shape, rng)
    norm = np.linalg.norm(g, 2, axis=(-2, -1))[..., None, None]
    return np.divide(g, norm, out=g, where=norm > 1.0)


def _tuple_bytes(n: int, d: int, p: int) -> int:
    """Bytes one tuple holds at most, in the draw and in ``_moments``: its
    draw (4n matrices' worth), letters and products shorter than d."""
    return (4 * n + monomial_count(n, d - 1)) * 16 * p * p


def chunks(total: int, item_bytes: int):
    """Consecutive ranges covering ``range(total)`` in order, each of as many
    items of ``item_bytes`` as fit in ``CHUNK_BYTES`` (at least one): the
    package's one walk under that budget."""
    size = max(1, CHUNK_BYTES // item_bytes)
    for start in range(0, total, size):
        yield range(start, min(start + size, total))


def sample_moment_cloud(n: int, d: int, p: int, count: int, seed: int) -> np.ndarray:
    """Moment vectors of ``count`` random contraction tuples at matrix
    dimension ``p``, as the rows of a read-only ``(count, L)`` complex128
    array, evaluated in batched passes over :func:`chunks` of the tuples,
    so peak memory stays near ``CHUNK_BYTES`` whatever ``count`` and ``p``.
    The stream is keyed by (seed, p), so equal seeds and dimensions
    reproduce the same cloud regardless of the other parameters."""
    if p < 1 or count < 0:
        raise ValidationError("need p >= 1 and count >= 0")
    if p > MAX_MATRIX_DIM:
        raise CapExceededError(f"matrix dimension p = {p} exceeds cap {MAX_MATRIX_DIM}")
    _check_degree(n, d)
    length = monomial_count(n, d)
    if count * max(length, 1) > CLOUD_CAP:
        raise CapExceededError(
            f"cloud of {count} vectors x {length} moments exceeds cap {CLOUD_CAP}")
    rng = generator(seed, stream=p)
    cloud = np.empty((count, length), dtype=np.complex128)
    for part in chunks(count, _tuple_bytes(n, d, p)):
        cloud[part.start:part.stop] = _moments(random_contractions((len(part), n, p, p), rng), d)
    cloud.setflags(write=False)
    return cloud


@dataclass(frozen=True)
class DensityReport:
    """How well the small-dimension cloud covers samples from the larger
    one.  An empirical estimate from finite samples, not a certificate."""

    n: int
    d: int
    p_small: int
    p_large: int
    eps: float
    counts: tuple[int, int]
    seed: int
    covered_fraction: float
    max_gap: float
    note: str = field(default="empirical estimate from finite samples, not a certificate")


def density_check(n: int, d: int, p_small: int, p_large: int, eps: float,
                  counts: tuple[int, int], seed: int) -> DensityReport:
    """Sample a cloud at each dimension and report, over the large-cloud
    points, the fraction whose nearest small-cloud point is within ``eps``
    and the largest nearest-point gap.  Every large-cloud point is compared
    with every small-cloud point on all L moments, so more than
    ``DENSITY_CAP`` such terms are refused before anything is drawn."""
    if p_small > p_large:
        raise ValidationError("p_small must be <= p_large")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValidationError(f"eps must be finite and >= 0, got {eps!r}")
    if min(counts) < 1:
        raise ValidationError("both clouds must be nonempty")
    _check_degree(n, d)
    length = monomial_count(n, d)
    if counts[0] * counts[1] * length > DENSITY_CAP:
        raise CapExceededError(f"density check of {counts[0]} x {counts[1]} points x {length} "
                               f"moments exceeds cap {DENSITY_CAP}")
    small = sample_moment_cloud(n, d, p_small, counts[0], seed)
    large = sample_moment_cloud(n, d, p_large, counts[1], seed)
    nearest = np.array([np.max(np.abs(small - row), axis=1).min() for row in large])
    return DensityReport(
        n=n, d=d, p_small=p_small, p_large=p_large, eps=eps,
        counts=(counts[0], counts[1]), seed=seed,
        covered_fraction=int(np.count_nonzero(nearest <= eps)) / len(large),
        max_gap=float(nearest.max()))
