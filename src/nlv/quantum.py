"""Measurement theory and quantum strategies for nonlocal games.

Covers POVM/PVM validation, Born-rule outcome probabilities, Kronecker
products, tensor-product and commuting-operator strategy specifications and
their correlation tensors, the square-root dilation of a POVM to a PVM on a
larger space, the fixed optimal two-qubit strategy for the agree/disagree
game, and a see-saw lower-bound search for the entangled value at a fixed
local dimension.

Lower bounds are self-certifying: the returned specification re-evaluates
to the reported value through :func:`quantum_correlation` and
:func:`~nlv.game.game_value`.  The search never produces an upper bound;
the supremum over all dimensions may not be attained at any finite one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .classical import DeterministicStrategy, check_answer_range, classical_value
from .errors import DimensionMismatchError, ParseError, Report, ValidationError
from .game import Game, Strategy, game_value
from .linalg import as_complex, dagger, frobenius, identity, kron, psd_sqrt, random_unitary
from .rng import generator

MEASUREMENT_TOL = 1e-9

POVM = "povm"
PVM = "pvm"
TENSOR = "tensor"
COMMUTING = "commuting"

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of matrices or state vectors."""
    return kron(as_complex(a), as_complex(b))


def check_state(state, tol: float = MEASUREMENT_TOL) -> np.ndarray:
    """Coerce to a complex vector and require unit Euclidean norm."""
    vec = as_complex(state)
    if vec.ndim != 1:
        raise ValidationError(f"state must be a vector, got shape {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"state norm {norm:.9g} != 1")
    return vec


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """An n-outcome measurement: positive operators summing to the identity
    (``flavor == "povm"``), or projections doing so (``flavor == "pvm"``)."""

    outcomes: tuple[np.ndarray, ...]
    flavor: str

    def __post_init__(self):
        if self.flavor not in (POVM, PVM):
            raise ValidationError(f"flavor must be '{POVM}' or '{PVM}', got {self.flavor!r}")
        if not self.outcomes:
            raise ValidationError("measurement needs at least one outcome")
        mats = []
        dim = None
        for i, raw in enumerate(self.outcomes):
            mat = as_complex(raw)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValidationError(f"outcome {i + 1} is not a square matrix")
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                raise ValidationError(
                    f"outcome {i + 1} has dim {mat.shape[0]}, expected {dim}")
            mat = mat.copy()
            mat.setflags(write=False)
            mats.append(mat)
        object.__setattr__(self, "outcomes", tuple(mats))

    @property
    def dim(self) -> int:
        return self.outcomes[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)


def validate_measurement(family: MeasurementFamily, tol: float = MEASUREMENT_TOL) -> Report:
    """Check the flavor-specific invariants, reporting the worst violation.

    POVM: every element self-adjoint with smallest eigenvalue >= -tol, and
    the elements sum to the identity within tol.  PVM: additionally each
    element squares to itself within tol (which forces pairwise
    orthogonality).
    """
    violations = []
    worst = 0.0
    total = np.zeros((family.dim, family.dim), dtype=np.complex128)
    for i, mat in enumerate(family.outcomes):
        herm = float(np.max(np.abs(mat - dagger(mat))))
        if herm > tol:
            worst = max(worst, herm)
            violations.append(f"outcome {i + 1} not self-adjoint: residual {herm:.3g}")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -tol:
            worst = max(worst, -lowest)
            violations.append(f"outcome {i + 1} not positive: eigenvalue {lowest:.3g}")
        if family.flavor == PVM:
            idem = float(np.max(np.abs(mat @ mat - mat)))
            if idem > tol:
                worst = max(worst, idem)
                violations.append(f"outcome {i + 1} not idempotent: residual {idem:.3g}")
        total = total + mat
    completeness = float(np.max(np.abs(total - identity(family.dim))))
    if completeness > tol:
        worst = max(worst, completeness)
        violations.append(f"completeness residual {completeness:.3g}")
    return Report(ok=not violations, violations=tuple(violations), worst=worst)


def stack_outcomes(families) -> np.ndarray:
    """Outcome operators of same-shape families as one (k, n, d, d) array."""
    return np.array([fam.outcomes for fam in families])


def born_probabilities(family: MeasurementFamily, state) -> np.ndarray:
    """Outcome distribution when measuring ``state``: the i-th probability
    is the expectation of the i-th operator in that state."""
    vec = check_state(state)
    if vec.shape[0] != family.dim:
        raise DimensionMismatchError(
            f"state dim {vec.shape[0]} != measurement dim {family.dim}")
    values = np.array([np.vdot(vec, mat @ vec) for mat in family.outcomes])
    residual = float(np.max(np.abs(values.imag)))
    if residual > MEASUREMENT_TOL:
        raise ValidationError(f"outcome probabilities not real: residual {residual:.3g}")
    return values.real


def collapse_state(family: MeasurementFamily, outcome: int, state) -> np.ndarray:
    """Post-measurement state after seeing ``outcome`` (0-based): apply the
    outcome operator and renormalize."""
    vec = check_state(state)
    projected = family.outcomes[outcome] @ vec
    norm = float(np.linalg.norm(projected))
    if norm < 1e-12:
        raise ValidationError(f"outcome {outcome + 1} has probability 0; cannot collapse")
    return projected / norm


@dataclass(frozen=True, eq=False)
class QuantumStrategySpec:
    """Shared state plus per-question measurement families for both players.

    ``flavor == "tensor"``: Alice's families act on her factor, Bob's on
    his, and the state lives on the product space.  ``flavor ==
    "commuting"``: all families act on one common space and every Alice
    element must commute with every Bob element.
    """

    flavor: str
    state: np.ndarray
    alice: tuple[MeasurementFamily, ...]
    bob: tuple[MeasurementFamily, ...]

    def __post_init__(self):
        if self.flavor not in (TENSOR, COMMUTING):
            raise ValidationError(
                f"flavor must be '{TENSOR}' or '{COMMUTING}', got {self.flavor!r}")
        alice = tuple(self.alice)
        bob = tuple(self.bob)
        if not alice or len(alice) != len(bob):
            raise ValidationError("need the same nonzero number of families per player")
        n = alice[0].n_outcomes
        for fam in alice + bob:
            if fam.n_outcomes != n:
                raise ValidationError("all families must have the same number of outcomes")
        for side in (alice, bob):
            for fam in side:
                if fam.dim != side[0].dim:
                    raise ValidationError("families of one player must share a dimension")
        state = as_complex(self.state)
        if state.ndim != 1:
            raise ValidationError("state must be a vector")
        expected = (alice[0].dim * bob[0].dim if self.flavor == TENSOR else alice[0].dim)
        if self.flavor == COMMUTING and alice[0].dim != bob[0].dim:
            raise ValidationError("commuting flavor needs both players on one space")
        if state.shape[0] != expected:
            raise ValidationError(f"state dim {state.shape[0]} != expected {expected}")
        state = state.copy()
        state.setflags(write=False)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    @property
    def k(self) -> int:
        return len(self.alice)

    @property
    def n(self) -> int:
        return self.alice[0].n_outcomes

    @property
    def dims(self) -> tuple[int, int]:
        return self.alice[0].dim, self.bob[0].dim


def validate_spec(spec: QuantumStrategySpec, tol: float = MEASUREMENT_TOL) -> Report:
    """Validate state, all families, and (for commuting flavor) that every
    Alice element commutes with every Bob element in Frobenius norm."""
    violations = []
    worst = 0.0
    norm = float(np.linalg.norm(spec.state))
    if abs(norm - 1.0) > tol:
        worst = max(worst, abs(norm - 1.0))
        violations.append(f"state norm {norm:.9g} != 1")
    for label, side in (("alice", spec.alice), ("bob", spec.bob)):
        for x, fam in enumerate(side):
            report = validate_measurement(fam, tol=tol)
            if not report.ok:
                worst = max(worst, report.worst)
                violations.extend(
                    f"{label} family {x + 1}: {v}" for v in report.violations)
    if spec.flavor == COMMUTING:
        for x, fam_a in enumerate(spec.alice):
            for a, mat_a in enumerate(fam_a.outcomes):
                for y, fam_b in enumerate(spec.bob):
                    for b, mat_b in enumerate(fam_b.outcomes):
                        residual = frobenius(mat_a @ mat_b - mat_b @ mat_a)
                        if residual > tol:
                            worst = max(worst, residual)
                            violations.append(
                                f"commutation violation at (x={x + 1}, a={a + 1}, "
                                f"y={y + 1}, b={b + 1}): residual {residual:.3g}")
    return Report(ok=not violations, violations=tuple(violations), worst=worst)


def quantum_correlation(spec: QuantumStrategySpec) -> Strategy:
    """Correlation tensor of a strategy specification.

    Tensor flavor: p(a, b | x, y) is the expectation of (Alice_a kron
    Bob_b) in the shared state; commuting flavor: the expectation of the
    operator product Alice_a Bob_b.
    """
    validate_spec(spec).raise_if_failed("strategy spec")
    alice, bob = stack_outcomes(spec.alice), stack_outcomes(spec.bob)
    if spec.flavor == TENSOR:
        psi = spec.state.reshape(spec.dims)
        p = np.einsum("im,xaik,ybmj,kj->xyab", psi.conj(), alice, bob, psi)
    else:
        vec = spec.state
        p = np.einsum("i,xaik,ybkj,j->xyab", vec.conj(), alice, bob, vec)
    worst_imag = float(np.max(np.abs(p.imag)))
    if worst_imag > MEASUREMENT_TOL:
        raise ValidationError(f"correlation has imaginary residual {worst_imag:.3g}")
    return Strategy(k=spec.k, n=spec.n, p=p.real)


def embed_deterministic(d: DeterministicStrategy, k: int, n: int) -> QuantumStrategySpec:
    """Deterministic strategy as a dim-1 tensor spec: the scalar family
    that puts the identity on the chosen answer and 0 elsewhere."""
    check_answer_range(d, k, n)
    one = np.ones((1, 1), dtype=np.complex128)
    zero = np.zeros((1, 1), dtype=np.complex128)

    def scalar_family(answer: int) -> MeasurementFamily:
        return MeasurementFamily(
            outcomes=tuple(one if a == answer - 1 else zero for a in range(n)),
            flavor=POVM)

    return QuantumStrategySpec(
        flavor=TENSOR,
        state=np.ones(1, dtype=np.complex128),
        alice=tuple(scalar_family(d.alice[x]) for x in range(k)),
        bob=tuple(scalar_family(d.bob[y]) for y in range(k)))


def embed_local(mixture: list[tuple[float, DeterministicStrategy]], k: int,
                n: int) -> QuantumStrategySpec:
    """Convex combination of deterministic strategies as a tensor spec.

    Block construction over the mixture labels: the shared state puts
    amplitude sqrt(weight) on the diagonal pair (label, label), and each
    player's measurement is the diagonal projector selecting the labels
    where their answer function gives that outcome.  The correlation of
    the result is exactly the mixed (local) strategy, exhibiting that
    every local strategy is a quantum one.
    """
    if not mixture:
        raise ValidationError("mixture must contain at least one strategy")
    weights = np.array([w for w, _ in mixture], dtype=np.float64)
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValidationError("mixture weights must be nonnegative and sum to 1")
    m = len(mixture)
    state = np.zeros(m * m, dtype=np.complex128)
    for label, weight in enumerate(weights):
        state[label * m + label] = np.sqrt(weight)

    def diagonal_family(answers: list[int]) -> MeasurementFamily:
        outcomes = []
        for a in range(1, n + 1):
            diag = np.zeros(m)
            for label, answer in enumerate(answers):
                if answer == a:
                    diag[label] = 1.0
            outcomes.append(np.diag(diag).astype(np.complex128))
        return MeasurementFamily(outcomes=tuple(outcomes), flavor=PVM)

    alice = []
    bob = []
    for x in range(k):
        alice.append(diagonal_family([det.alice[x] for _, det in mixture]))
        bob.append(diagonal_family([det.bob[x] for _, det in mixture]))
    for _, det in mixture:
        check_answer_range(det, k, n)
    return QuantumStrategySpec(flavor=TENSOR, state=state,
                               alice=tuple(alice), bob=tuple(bob))


def naimark_dilate(family: MeasurementFamily) -> tuple[MeasurementFamily, np.ndarray]:
    """Dilate a POVM to a PVM on dim * n dimensions.

    Returns ``(pvm, isometry)`` where the isometry V stacks the operator
    square roots against outcome basis vectors, and the PVM projects onto
    the outcome slots.  Then <Q_a V s, V s> equals the original outcome
    probability <P_a s, s> for every state s.
    """
    validate_measurement(family, tol=MEASUREMENT_TOL).raise_if_failed("POVM")
    dim = family.dim
    n = family.n_outcomes
    isometry = np.zeros((dim * n, dim), dtype=np.complex128)
    for a, mat in enumerate(family.outcomes):
        root = psd_sqrt(mat)
        basis = np.zeros((n, 1), dtype=np.complex128)
        basis[a, 0] = 1.0
        isometry += kron(root, basis)
    residual = float(np.max(np.abs(dagger(isometry) @ isometry - identity(dim))))
    if residual > MEASUREMENT_TOL:
        raise ValidationError(f"dilation isometry residual {residual:.3g}")
    projections = []
    for a in range(n):
        slot = np.zeros((n, n), dtype=np.complex128)
        slot[a, a] = 1.0
        projections.append(kron(identity(dim), slot))
    return MeasurementFamily(outcomes=tuple(projections), flavor=PVM), isometry


def epr_state() -> np.ndarray:
    """Maximally entangled two-qubit state (e1 kron e1 + e2 kron e2) / sqrt 2."""
    return np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2.0)


def rotated_basis_pvm(angle: float) -> MeasurementFamily:
    """Two-outcome PVM of the qubit basis rotated by ``angle`` in the Z-X
    plane: projections onto (cos t, sin t) and (-sin t, cos t)."""
    first = np.array([np.cos(angle), np.sin(angle)], dtype=np.complex128)
    second = np.array([-np.sin(angle), np.cos(angle)], dtype=np.complex128)
    return MeasurementFamily(
        outcomes=(np.outer(first, first.conj()), np.outer(second, second.conj())),
        flavor=PVM)


def chsh_optimal_spec() -> QuantumStrategySpec:
    """The optimal two-qubit strategy for the agree/disagree game: the
    maximally entangled state with Alice measuring at basis angles 0 and
    pi/4 and Bob at +/- pi/8.  Its value is cos^2(pi/8)."""
    return QuantumStrategySpec(
        flavor=TENSOR,
        state=epr_state(),
        alice=(rotated_basis_pvm(0.0), rotated_basis_pvm(np.pi / 4)),
        bob=(rotated_basis_pvm(np.pi / 8), rotated_basis_pvm(-np.pi / 8)))


# ---------------------------------------------------------------------------
# See-saw lower bound search
# ---------------------------------------------------------------------------

def block_sizes(dim: int, n: int) -> list[int]:
    """Near-equal partition of ``dim`` into ``n`` outcome blocks: the first
    dim % n blocks get ceil(dim / n), the rest floor(dim / n).  Blocks may
    be empty when n > dim (zero projections are allowed)."""
    base, rem = divmod(dim, n)
    return [base + 1 if a < rem else base for a in range(n)]


def block_columns(dim: int, n: int) -> list[np.ndarray]:
    """Column index ranges realizing :func:`block_sizes`."""
    sizes = block_sizes(dim, n)
    columns = []
    start = 0
    for size in sizes:
        columns.append(np.arange(start, start + size))
        start += size
    return columns


def block_projectors(u: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """(n, d, d) stack whose outcome a projects onto the span of u's
    columns in block a (zero for an empty block)."""
    return np.array([u[:, cols] @ dagger(u[:, cols]) for cols in columns])


def family_from_unitary(u: np.ndarray, columns: list[np.ndarray]) -> MeasurementFamily:
    """PVM with outcome a projecting onto the span of u's columns in block a."""
    return MeasurementFamily(outcomes=tuple(block_projectors(u, columns)), flavor=PVM)


def _family_score(u: np.ndarray, columns: list[np.ndarray],
                  weights: list[np.ndarray]) -> float:
    """sum_a Re tr(P_a W_a) for P_a the block-a projector built from u."""
    score = 0.0
    for cols, w in zip(columns, weights):
        if len(cols) == 0:
            continue
        sub = u[:, cols]
        score += float(np.real(np.einsum("ic,ij,jc->", sub.conj(), w, sub)))
    return score


def climb_family(u: np.ndarray, columns: list[np.ndarray], weights: list[np.ndarray],
                 rng: np.random.Generator, step: float, moves: int) -> tuple[np.ndarray, float]:
    """Hill-climb the family unitary by random Givens-plane perturbations,
    keeping only proposals that improve the linear score."""
    dim = u.shape[0]
    score = _family_score(u, columns, weights)
    if dim < 2:
        return u, score
    for _ in range(moves):
        i = int(rng.integers(0, dim))
        j = int(rng.integers(0, dim - 1))
        if j >= i:
            j += 1
        theta = step * float(rng.standard_normal())
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        c = np.cos(theta)
        s = np.sin(theta)
        candidate = u.copy()
        row_i = u[i, :]
        row_j = u[j, :]
        candidate[i, :] = c * row_i - s * np.exp(1j * phi) * row_j
        candidate[j, :] = s * np.exp(-1j * phi) * row_i + c * row_j
        new_score = _family_score(candidate, columns, weights)
        if new_score > score + 1e-15:
            u = candidate
            score = new_score
    return u, score


def payoff(game: Game) -> np.ndarray:
    """V[x, y, a, b] = pi(x, y) D(x, y, a, b): the weight of each answer
    pair, over which every game-weighted trace is one contraction."""
    return game.pi[:, :, None, None] * game.wins


def _game_operator(v: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """sum over x, y, a, b of V[x, y, a, b] kron(A[x, a], B[y, b]) for
    stacked (k, n, d, d) families A and B."""
    dim = alice.shape[-1] * bob.shape[-1]
    return np.einsum("xyab,xaij,ybkl->ikjl", v, alice, bob).reshape(dim, dim)


def _seesaw(game: Game, dim: int, rng: np.random.Generator, iters: int,
            moves: int) -> QuantumStrategySpec:
    """One restart: alternate the state update (top eigenvector of the game
    operator) with hill-climbs of each family unitary, with a geometrically
    decaying step size."""
    k, n = game.k, game.n
    v = payoff(game)
    columns = block_columns(dim, n)
    alice_u = [random_unitary(dim, rng) for _ in range(k)]
    bob_u = [random_unitary(dim, rng) for _ in range(k)]

    def stack(unitaries):
        return np.array([block_projectors(u, columns) for u in unitaries])

    step0, step_min = 0.6, 2e-4
    decay = (step_min / step0) ** (1.0 / max(iters - 1, 1))
    stagnant = 0
    last = -np.inf
    op = _game_operator(v, stack(alice_u), stack(bob_u))
    for round_idx in range(iters):
        step = step0 * decay ** round_idx
        psi = np.linalg.eigh(op)[1][:, -1]
        mat = psi.reshape(dim, dim)
        # Alice update: weights W[x, a] from the fixed Bob families.
        weights = np.einsum("xyab,ij,ybkj,lk->xail", v, mat, stack(bob_u), mat.conj())
        for x in range(k):
            alice_u[x], _ = climb_family(alice_u[x], columns, weights[x], rng, step, moves)
        # Bob update: weights from the freshly improved Alice families.
        weights = np.einsum("xyab,ij,xaik,kl->yblj", v, mat.conj(), stack(alice_u), mat)
        for y in range(k):
            bob_u[y], _ = climb_family(bob_u[y], columns, weights[y], rng, step, moves)
        op = _game_operator(v, stack(alice_u), stack(bob_u))
        current = float(np.real(np.vdot(psi, op @ psi)))
        if current <= last + 1e-12:
            stagnant += 1
            if stagnant >= 12 and step < 1e-3:
                break
        else:
            stagnant = 0
        last = max(last, current)
    return QuantumStrategySpec(
        flavor=TENSOR,
        state=psi,
        alice=tuple(family_from_unitary(u, columns) for u in alice_u),
        bob=tuple(family_from_unitary(u, columns) for u in bob_u))


def _embed_classical_at_dim(d: DeterministicStrategy, k: int, n: int,
                            dim: int) -> QuantumStrategySpec:
    """Deterministic strategy as degenerate full-rank indicator PVMs at a
    chosen local dimension, so the seed point lives in the (dim, dim)
    search space."""
    eye = identity(dim)
    zero = np.zeros((dim, dim), dtype=np.complex128)

    def indicator(answer: int) -> MeasurementFamily:
        return MeasurementFamily(
            outcomes=tuple(eye if a == answer - 1 else zero for a in range(n)),
            flavor=PVM)

    state = np.zeros(dim * dim, dtype=np.complex128)
    state[0] = 1.0
    return QuantumStrategySpec(
        flavor=TENSOR,
        state=state,
        alice=tuple(indicator(d.alice[x]) for x in range(k)),
        bob=tuple(indicator(d.bob[y]) for y in range(k)))


def seesaw_search(game: Game, dim: int, restarts: int, seed: int, iters: int,
                  moves: int | None, restart, certify, seeds):
    """Driver shared by the see-saw lower-bound searches.

    The candidates are ``seeds()`` followed by restart r =
    ``restart(game, dim, generator(seed, stream=r), iters, moves)`` for
    each r.  Every candidate is certified as ``game_value(game,
    certify(candidate))``; the largest value wins, ties going to the
    earliest candidate.  Returns ``(value, candidate)``.
    """
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    if restarts < 0 or iters < 1:
        raise ValidationError("restarts must be >= 0 and iters >= 1")
    if moves is None:
        moves = max(24, 6 * dim * game.n)
    candidates = seeds() + [restart(game, dim, generator(seed, stream=r), iters, moves)
                            for r in range(restarts)]
    if not candidates:
        raise ValidationError("no candidates: need restarts >= 1 or a seed candidate")
    best_value, best = -np.inf, candidates[0]
    for candidate in candidates:
        value = game_value(game, certify(candidate))
        if value > best_value:
            best_value, best = value, candidate
    return best_value, best


def entangled_lower_bound(game: Game, dim: int, restarts: int, seed: int,
                          iters: int = 60, moves: int | None = None,
                          seed_classical: bool = True) -> tuple[float, QuantumStrategySpec]:
    """Best tensor-flavor strategy of local dimensions (dim, dim) found by
    seeded see-saw restarts; returns its exact re-evaluated game value.

    The value is a certified lower bound on the entangled value because the
    returned spec reproduces it through quantum_correlation + game_value.
    When ``seed_classical`` is set and exact enumeration is affordable, the
    deterministic optimum embedded at dimension ``dim`` joins the candidate
    pool, so the result also dominates the classical value.  Deterministic
    in ``seed``; restarts are independent and merged by max with ties going
    to the earliest candidate.
    """
    def seeds() -> list[QuantumStrategySpec]:
        if not seed_classical or game.n ** (2 * game.k) > 1_000_000:
            return []
        _, argmax = classical_value(game)
        return [_embed_classical_at_dim(argmax, game.k, game.n, dim)]

    return seesaw_search(game, dim, restarts, seed, iters, moves, _seesaw,
                         quantum_correlation, seeds)


# ---------------------------------------------------------------------------
# Spec (de)serialization: interleaved real/imag arrays
# ---------------------------------------------------------------------------

def _interleave(arr: np.ndarray) -> list[float]:
    flat = np.asarray(arr, dtype=np.complex128).ravel()
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return [float(v) for v in out]


def _deinterleave(values, shape) -> np.ndarray:
    flat = np.asarray(values, dtype=np.float64)
    if flat.size != 2 * int(np.prod(shape)):
        raise ParseError(f"expected {2 * int(np.prod(shape))} interleaved values, "
                         f"got {flat.size}")
    return (flat[0::2] + 1j * flat[1::2]).reshape(shape)


def save_spec(spec: QuantumStrategySpec) -> str:
    """Serialize a strategy spec to JSON with every complex array stored as
    a flat interleaved [re, im, re, im, ...] list in row-major order."""
    def side(families: tuple[MeasurementFamily, ...]):
        return [{"flavor": fam.flavor,
                 "outcomes": [_interleave(mat) for mat in fam.outcomes]}
                for fam in families]

    obj = {
        "flavor": spec.flavor,
        "dim_alice": spec.dims[0],
        "dim_bob": spec.dims[1],
        "n_outcomes": spec.n,
        "state": _interleave(spec.state),
        "alice": side(spec.alice),
        "bob": side(spec.bob),
    }
    return json.dumps(obj, indent=2) + "\n"


def load_spec(text: str) -> QuantumStrategySpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"spec file: invalid JSON at line {err.lineno}: {err.msg}") from err
    try:
        flavor = obj["flavor"]
        d_a = int(obj["dim_alice"])
        d_b = int(obj["dim_bob"])
        n = int(obj["n_outcomes"])
        state_dim = d_a * d_b if flavor == TENSOR else d_a
        state = _deinterleave(obj["state"], (state_dim,))

        def side(entries, dim):
            return tuple(
                MeasurementFamily(
                    outcomes=tuple(_deinterleave(vals, (dim, dim))
                                   for vals in fam["outcomes"]),
                    flavor=fam["flavor"])
                for fam in entries)

        alice = side(obj["alice"], d_a)
        bob = side(obj["bob"], d_b)
    except (KeyError, TypeError) as err:
        raise ParseError(f"spec file: malformed field ({err})") from err
    for fam in alice + bob:
        if fam.n_outcomes != n:
            raise ParseError("spec file: outcome count mismatch")
    return QuantumStrategySpec(flavor=flavor, state=state, alice=alice, bob=bob)
