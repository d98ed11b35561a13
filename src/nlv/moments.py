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
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ValidationError
from .linalg import as_complex, dagger, ginibre
from .rng import generator

WORD_CAP = 1_000_000
CLOUD_CAP = 5_000_000
CONTRACTION_TOL = 1e-9


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

    @property
    def degree(self) -> int:
        return len(self.letters)

    def star(self) -> "Monomial":
        """Adjoint word: reverse the letters and flip every star."""
        return Monomial(letters=tuple((v, not s) for v, s in reversed(self.letters)))

    def __str__(self) -> str:
        return " ".join(f"x{v}*" if s else f"x{v}" for v, s in self.letters)


def monomial_count(n: int, d: int) -> int:
    """Number of words of length 1..d over 2n letters: sum of (2n)^j."""
    return sum((2 * n) ** j for j in range(1, d + 1))


def enumerate_monomials(n: int, d: int) -> list[Monomial]:
    """All words of length 1..d in length-then-lexicographic order, with
    the letters ordered x1 < x1* < x2 < x2* < ...  The degree-0 word is
    excluded: its trace is identically 1 and carries no information."""
    if n < 1 or d < 1:
        raise ValidationError("need n >= 1 and d >= 1")
    if (2 * n) ** d > WORD_CAP:
        raise CapExceededError(
            f"(2n)^d = {(2 * n) ** d} exceeds monomial cap {WORD_CAP}")
    letters = [(var, star) for var in range(1, n + 1) for star in (False, True)]
    words = []
    for length in range(1, d + 1):
        for combo in itertools.product(letters, repeat=length):
            words.append(Monomial(letters=combo))
    return words


@dataclass(frozen=True, eq=False)
class MomentVector:
    """Normalized traces of the enumerated words, in enumeration order.
    Entries of a contraction tuple always lie in the closed unit disk."""

    n: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        expected = monomial_count(self.n, self.d)
        if values.shape != (expected,):
            raise ValidationError(
                f"moment vector needs {expected} entries for n={self.n}, d={self.d}, "
                f"got shape {values.shape}")
        top = float(np.max(np.abs(values))) if values.size else 0.0
        if top > 1.0 + CONTRACTION_TOL:
            raise ValidationError(f"moment modulus {top:.6g} exceeds 1")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        return (isinstance(other, MomentVector) and self.n == other.n
                and self.d == other.d and np.array_equal(self.values, other.values))


def moment_map(matrices, d: int) -> MomentVector:
    """Moment vector of a tuple of contractions.

    Each matrix must have operator norm at most 1 (within 1e-9); the check
    runs up front and names the offending index.  Entry i is the normalized
    trace of the i-th enumerated word evaluated on the tuple.
    """
    mats = [as_complex(m) for m in matrices]
    if not mats:
        raise ValidationError("need at least one matrix")
    n = len(mats)
    p = mats[0].shape[0]
    for i, mat in enumerate(mats):
        if mat.ndim != 2 or mat.shape != (p, p):
            raise ValidationError(f"matrix {i + 1} is not {p} x {p}")
        norm = np.linalg.norm(mat, 2)
        if norm > 1.0 + CONTRACTION_TOL:
            raise ValidationError(
                f"matrix {i + 1} has operator norm {norm:.9g} > 1: not a contraction")
    words = enumerate_monomials(n, d)
    by_letter = {}
    for var in range(1, n + 1):
        by_letter[(var, False)] = mats[var - 1]
        by_letter[(var, True)] = dagger(mats[var - 1])
    products: dict[tuple, np.ndarray] = {}
    values = np.empty(len(words), dtype=np.complex128)
    for i, word in enumerate(words):
        key = word.letters
        if len(key) == 1:
            product = by_letter[key[0]]
        else:
            product = products[key[:-1]] @ by_letter[key[-1]]
        products[key] = product
        values[i] = np.trace(product) / p
    return MomentVector(n=n, d=d, values=values)


def random_contractions(n: int, p: int, rng: np.random.Generator) -> list[np.ndarray]:
    """n independent complex Ginibre matrices, each divided by its computed
    operator norm when that norm exceeds 1, so the tuple lies in the unit
    ball without collapsing interior samples onto its boundary."""
    out = []
    for _ in range(n):
        g = ginibre(p, rng)
        norm = np.linalg.norm(g, 2)
        out.append(g / norm if norm > 1.0 else g)
    return out


def sample_moment_cloud(n: int, d: int, p: int, count: int, seed: int) -> list[MomentVector]:
    """Moment vectors of ``count`` random contraction tuples at matrix
    dimension ``p``.  The stream is keyed by (seed, p), so equal seeds and
    dimensions reproduce the same cloud regardless of the other
    parameters."""
    if p < 1 or count < 0:
        raise ValidationError("need p >= 1 and count >= 0")
    length = monomial_count(n, d)
    if count * max(length, 1) > CLOUD_CAP:
        raise CapExceededError(
            f"cloud of {count} vectors x {length} moments exceeds cap {CLOUD_CAP}")
    rng = generator(seed, stream=p)
    cloud = []
    for _ in range(count):
        cloud.append(moment_map(random_contractions(n, p, rng), d))
    return cloud


def cloud_distance(a: MomentVector, b: MomentVector) -> float:
    """Coordinate-wise sup of complex modulus, the metric of the ambient
    polydisk."""
    return float(np.max(np.abs(a.values - b.values))) if a.values.size else 0.0


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
    runtime_seconds: float
    note: str = field(default="empirical estimate from finite samples, not a certificate")


def density_check(n: int, d: int, p_small: int, p_large: int, eps: float,
                  counts: tuple[int, int], seed: int) -> DensityReport:
    """Sample a cloud at each dimension and report, over the large-cloud
    points, the fraction whose nearest small-cloud point is within ``eps``
    and the largest nearest-point gap."""
    if p_small > p_large:
        raise ValidationError("p_small must be <= p_large")
    started = time.perf_counter()
    small = sample_moment_cloud(n, d, p_small, counts[0], seed)
    large = sample_moment_cloud(n, d, p_large, counts[1], seed)
    if not small or not large:
        raise ValidationError("both clouds must be nonempty")
    small_stack = np.stack([v.values for v in small])
    covered = 0
    max_gap = 0.0
    for vec in large:
        gaps = np.max(np.abs(small_stack - vec.values[None, :]), axis=1)
        nearest = float(np.min(gaps))
        if nearest <= eps:
            covered += 1
        max_gap = max(max_gap, nearest)
    return DensityReport(
        n=n, d=d, p_small=p_small, p_large=p_large, eps=eps,
        counts=(counts[0], counts[1]), seed=seed,
        covered_fraction=covered / len(large),
        max_gap=max_gap,
        runtime_seconds=time.perf_counter() - started)
