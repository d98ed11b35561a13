"""Measurement theory and quantum strategies for nonlocal games.

Covers POVM/PVM validation, Born-rule outcome probabilities,
tensor-product and commuting-operator strategy specifications and
their correlation tensors, the square-root dilation of a POVM to a PVM on a
larger space, the fixed optimal two-qubit strategy for the agree/disagree
game, and a see-saw lower-bound search for the entangled value at a fixed
local dimension, whose every step is an exact best response.

Lower bounds are self-certifying: the returned specification re-evaluates
to the reported value through :func:`quantum_correlation` and
:func:`~nlv.game.game_value`.  The search never produces an upper bound;
the supremum over all dimensions may not be attained at any finite one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments
from .classical import (SEED_ENUMERATION_CAP, DeterministicStrategy, check_answer_range,
                        check_mixture, classical_value)
from .errors import (CapExceededError, DimensionMismatchError, ParseError, Report,
                     ValidationError, dump_json, read_count, read_field, read_object)
from .game import COMPUTED_TOL, Game, Strategy, correlation_values, payoff_matrix
from .linalg import (as_complex, dagger, deinterleave, frobenius, identity, interleave, psd_sqrt,
                     random_unitary)
from .rng import generator

MAX_STATE_DIM = 1024   # d^2 for the entangled search: its game operator is d^2 x d^2
MAX_RESTART_BYTES = 512 << 20   # bytes one see-saw restart may hold, see seesaw_search

POVM = "povm"
PVM = "pvm"
TENSOR = "tensor"
COMMUTING = "commuting"

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def check_state(state) -> np.ndarray:
    """Coerce to a complex vector and require unit Euclidean norm."""
    vec = as_complex(state)
    if vec.ndim != 1:
        raise ValidationError(f"state must be a vector, got shape {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > COMPUTED_TOL:
        raise ValidationError(f"state norm {norm:.9g} != 1")
    return vec


def _frozen_stack(items, what: str, ndim: int) -> np.ndarray:
    """Equal-shape ``ndim``-dimensional items ending in square matrices, as
    one read-only complex array over a new first axis; ``what`` names an
    item in errors."""
    kind = ("a square matrix", "a stack of square matrices")[ndim - 2]
    first = None
    for i, item in enumerate(items, 1):
        try:
            shape = np.shape(item)
        except ValueError:  # a ragged nested sequence has no shape
            raise ValidationError(f"{what} {i} is not {kind}") from None
        if len(shape) != ndim or shape[-1] != shape[-2]:
            raise ValidationError(f"{what} {i} is not {kind}")
        first = first or shape
        if shape[-1] != first[-1]:
            raise ValidationError(f"{what} {i} has dim {shape[-1]}, expected {first[-1]}")
        if shape != first:
            raise ValidationError(f"{what} {i} has {shape[0]} outcomes, expected {first[0]}")
    if first is None:
        raise ValidationError(f"need at least one {what}")
    stack = as_complex(items).copy()
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """An n-outcome measurement: positive operators summing to the identity
    (``flavor == "povm"``), or projections doing so (``flavor == "pvm"``).

    ``outcomes`` may be given as any sequence of equal-shape square
    matrices; it is stored as one read-only (n, d, d) complex array."""

    outcomes: np.ndarray
    flavor: str

    def __post_init__(self):
        if self.flavor not in (POVM, PVM):
            raise ValidationError(f"flavor must be '{POVM}' or '{PVM}', got {self.flavor!r}")
        object.__setattr__(self, "outcomes", _frozen_stack(self.outcomes, "outcome", 2))

    @property
    def dim(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.shape[0]


def stack_families(families, measurement: str) -> np.ndarray:
    """k families as one read-only (k, n, d, d) complex array: ``families``
    is such an array, a sequence of (n, d, d) stacks, or a sequence of
    :class:`MeasurementFamily` objects flavored ``measurement``."""
    if measurement not in (POVM, PVM):
        raise ValidationError(f"measurement must be '{POVM}' or '{PVM}', got {measurement!r}")
    for x, fam in enumerate(families):
        if isinstance(fam, MeasurementFamily) and fam.flavor != measurement:
            raise ValidationError(f"family {x + 1} must be flavored '{measurement}'")
    return _frozen_stack([fam.outcomes if isinstance(fam, MeasurementFamily) else fam
                          for fam in families], "family", 3)


# Per-outcome checks of the measurement validators: message, and the sign
# that turns the reported number into the size of the violation.
_DEFECTS = (("not self-adjoint: residual", 1.0), ("not positive: eigenvalue", -1.0),
            ("not idempotent: residual", 1.0))


def validate_stack(stack: np.ndarray, measurement: str, label,
                   tol: float = COMPUTED_TOL) -> Report:
    """Check every family of a (k, n, d, d) stack in one batched pass.

    POVM: every element self-adjoint with smallest eigenvalue >= -tol, and
    each family's elements sum to the identity within tol.  PVM:
    additionally each element squares to itself within tol (which forces
    pairwise orthogonality).  Violations are listed by family, then
    outcome, with family x's lines prefixed by ``label(x)`` (x 0-based).
    """
    def residual(mats):   # largest entry size of each matrix
        return np.abs(mats).reshape(mats.shape[:-2] + (-1,)).max(axis=-1)

    sizes = [residual(stack - dagger(stack)), -np.linalg.eigvalsh(stack)[..., 0]]
    if measurement == PVM:
        sizes.append(residual(stack @ stack - stack))
    sizes = np.stack(sizes, axis=-1)                       # [family, outcome, check]
    completeness = residual(stack.sum(axis=1) - identity(stack.shape[-1]))
    failed = sizes > tol
    violations, worst = [], 0.0
    for x in np.flatnonzero(failed.any(axis=(1, 2)) | (completeness > tol)):
        prefix = label(x)
        for i, c in np.argwhere(failed[x]):
            what, sign = _DEFECTS[c]
            size = float(sizes[x, i, c])
            worst = max(worst, size)
            violations.append(f"{prefix}outcome {i + 1} {what} {sign * size:.3g}")
        if completeness[x] > tol:
            worst = max(worst, float(completeness[x]))
            violations.append(f"{prefix}completeness residual {completeness[x]:.3g}")
    return Report(violations=tuple(violations), worst=worst)


def validate_measurement(family: MeasurementFamily, tol: float = COMPUTED_TOL) -> Report:
    """Check the flavor-specific invariants of one family (see
    :func:`validate_stack`), reporting the worst violation."""
    return validate_stack(family.outcomes[None], family.flavor, lambda x: "", tol)


def born_probabilities(family: MeasurementFamily, state) -> np.ndarray:
    """Outcome distribution when measuring ``state``: the i-th probability
    is the expectation of the i-th operator in that state."""
    vec = check_state(state)
    if vec.shape[0] != family.dim:
        raise DimensionMismatchError(
            f"state dim {vec.shape[0]} != measurement dim {family.dim}")
    values = np.einsum("i,aij,j->a", vec.conj(), family.outcomes, vec)
    residual = float(np.max(np.abs(values.imag)))
    if residual > COMPUTED_TOL:
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

    ``alice`` and ``bob`` each hold a player's k families as one read-only
    (k, n, d, d) complex array, built by :func:`stack_families` from any
    form it takes; every family is a ``measurement`` ("povm" or "pvm").
    ``flavor == "tensor"``: Alice's families act on her factor, Bob's on
    his, and the state lives on the product space.  ``flavor ==
    "commuting"``: all families act on one common space and every Alice
    element must commute with every Bob element.
    """

    flavor: str
    state: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    measurement: str = PVM

    def __post_init__(self):
        if self.flavor not in (TENSOR, COMMUTING):
            raise ValidationError(
                f"flavor must be '{TENSOR}' or '{COMMUTING}', got {self.flavor!r}")
        alice = stack_families(self.alice, self.measurement)
        bob = stack_families(self.bob, self.measurement)
        if alice.shape[:2] != bob.shape[:2]:
            raise ValidationError("both players need the same numbers of families and outcomes")
        state = as_complex(self.state)
        if state.ndim != 1:
            raise ValidationError("state must be a vector")
        d_a, d_b = alice.shape[-1], bob.shape[-1]
        if self.flavor == COMMUTING and d_a != d_b:
            raise ValidationError("commuting flavor needs both players on one space")
        expected = d_a * d_b if self.flavor == TENSOR else d_a
        if state.shape[0] != expected:
            raise ValidationError(f"state dim {state.shape[0]} != expected {expected}")
        state = state.copy()
        state.setflags(write=False)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    @property
    def k(self) -> int:
        return self.alice.shape[0]

    @property
    def n(self) -> int:
        return self.alice.shape[1]

    @property
    def dims(self) -> tuple[int, int]:
        return self.alice.shape[-1], self.bob.shape[-1]


def _validate_rows(names, stacks, measurement: str, tol: float, states=None) -> Report:
    """Check R candidates at once: each ``(player, stack)`` of ``stacks``
    holds their (R, k, n, d, d) families, validated as one (R·k, n, d, d)
    pass of :func:`validate_stack`, and ``states``, if given, holds their
    (R, D) state vectors, each of unit norm.  Row r's lines start with
    ``names[r]`` and then ``player``; every entry must be finite (see
    :func:`_check_finite`)."""
    violations = []
    worst = 0.0
    if states is not None:
        norms = np.linalg.norm(states, axis=-1)
        for r in np.flatnonzero(np.abs(norms - 1.0) > tol):
            worst = max(worst, abs(float(norms[r]) - 1.0))
            violations.append(f"{names[r]}state norm {norms[r]:.9g} != 1")
    for player, stack in stacks:
        k = stack.shape[1]
        report = validate_stack(stack.reshape(-1, *stack.shape[2:]), measurement,
                                lambda f: f"{names[f // k]}{player}family {f % k + 1}: ", tol)
        violations.extend(report.violations)
        worst = max(worst, report.worst)
    return Report(violations=tuple(violations), worst=worst)


def _check_finite(names, *chunk) -> None:
    """Refuse a chunk with a non-finite entry, naming its first such row;
    the validators assume finite input, as every constructor ensures."""
    finite = np.logical_and.reduce([np.isfinite(arr).reshape(len(arr), -1).all(axis=1)
                                    for arr in chunk])
    if not finite.all():
        raise ValidationError(f"{names[np.argmin(finite)]}non-finite entries")


def validate_spec(spec: QuantumStrategySpec, tol: float = COMPUTED_TOL) -> Report:
    """Validate state, each player's families in one batched pass (see
    :func:`validate_stack`), and (for commuting flavor) that every Alice
    element commutes with every Bob element in Frobenius norm."""
    report = _validate_rows([""], (("alice ", spec.alice[None]), ("bob ", spec.bob[None])),
                            spec.measurement, tol, spec.state[None])
    violations = list(report.violations)
    worst = report.worst
    if spec.flavor == COMMUTING:
        # residual[x, a, y, b]: Frobenius norm of [A^x_a, B^y_b].
        alice = spec.alice[:, :, None, None]
        bob = spec.bob[None, None]
        residual = np.linalg.norm(alice @ bob - bob @ alice, axis=(-2, -1))
        for x, a, y, b in np.argwhere(residual > tol):
            worst = max(worst, float(residual[x, a, y, b]))
            violations.append(
                f"commutation violation at (x={x + 1}, a={a + 1}, "
                f"y={y + 1}, b={b + 1}): residual {residual[x, a, y, b]:.3g}")
    return Report(violations=tuple(violations), worst=worst)


def _gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """G[r, (x, a), (y, b)] = sum over m of L[r, x, a, m] R[r, y, b, m] for
    (R, k, n, m) factor stacks: one (kn, m) by (m, kn) product per row."""
    rows, k, n, m = left.shape
    return left.reshape(rows, k * n, m) @ np.swapaxes(right.reshape(rows, k * n, m), -1, -2)


def correlations(left: np.ndarray, right: np.ndarray, names) -> np.ndarray:
    """The (R, k, k, n, n) real correlation tensors p[r, x, y, a, b] =
    G[r, (x, a), (y, b)], the :func:`_gram` product of (R, k, n, m) factor
    stacks.  Row r's imaginary residual must stay within COMPUTED_TOL, or
    the error starts with ``names[r]``."""
    rows, k, n, _ = left.shape
    p = _gram(left, right).reshape(rows, k, n, k, n).swapaxes(2, 3)
    residual = np.max(np.abs(p.imag), axis=(1, 2, 3, 4))
    for r in np.flatnonzero(residual > COMPUTED_TOL):
        raise ValidationError(f"{names[r]}correlation has imaginary residual {residual[r]:.3g}")
    return np.ascontiguousarray(p.real)


def _tensor_correlations(states: np.ndarray, alice: np.ndarray, bob: np.ndarray,
                         names) -> np.ndarray:
    """Correlations of R tensor-flavor candidates, as :func:`correlations`:
    <psi| A kron B |psi> is the entrywise product of M^dagger A M and B,
    where M is psi as a (d_a, d_b) matrix."""
    mat = states.reshape(len(states), 1, 1, alice.shape[-1], bob.shape[-1])
    reduced = dagger(mat) @ alice @ mat
    return correlations(reduced.reshape(reduced.shape[:3] + (-1,)),
                        bob.reshape(bob.shape[:3] + (-1,)), names)


def quantum_correlation(spec: QuantumStrategySpec) -> Strategy:
    """Correlation tensor of a strategy specification.

    Tensor flavor: p(a, b | x, y) is the expectation of (Alice_a kron
    Bob_b) in the shared state; commuting flavor: the expectation of the
    operator product Alice_a Bob_b.  The one-row case of the kernel that
    certifies the see-saw's chunks.
    """
    validate_spec(spec).raise_if_failed("strategy spec")
    if spec.flavor == TENSOR:
        p = _tensor_correlations(spec.state[None], spec.alice[None], spec.bob[None], [""])
    else:
        # <v| A B |v> = (v^dagger A) . (B v)
        p = correlations((spec.state.conj() @ spec.alice)[None], (spec.bob @ spec.state)[None],
                         [""])
    return Strategy(k=spec.k, n=spec.n, p=p[0])


def diagonal_pvm(answers, n: int) -> np.ndarray:
    """Diagonal n-outcome PVMs sending basis vector i to the 1-based outcome
    answers[..., i]: for a (..., m) answer array, the (..., n, m, m) stack
    whose outcome a projects onto the coordinates answering a."""
    answers = np.asarray(answers, dtype=np.int64)
    outside = answers[(answers < 1) | (answers > n)]
    if outside.size:
        raise ValidationError(f"answer {outside[0]} out of range [1..{n}]")
    chosen = answers[..., None, :] == np.arange(1, n + 1)[:, None]     # [..., a, i]
    return chosen[..., None] * identity(answers.shape[-1])


def answer_pvms(answers, n: int, dim: int) -> np.ndarray:
    """The (k, n, dim, dim) stack whose family x puts the identity on the
    1-based outcome answers[x] and 0 elsewhere."""
    return diagonal_pvm(np.repeat(np.array(answers)[:, None], dim, axis=1), n)


def _embedded(d: DeterministicStrategy, k: int, n: int, dim: int):
    """The state and both players' families of :func:`embed_deterministic`."""
    check_answer_range(d, k, n)
    state = np.zeros(dim * dim, dtype=np.complex128)
    state[0] = 1.0
    return state, answer_pvms(d.alice, n, dim), answer_pvms(d.bob, n, dim)


def embed_deterministic(d: DeterministicStrategy, k: int, n: int,
                        dim: int = 1) -> QuantumStrategySpec:
    """Deterministic strategy as a tensor spec of local dimension ``dim``:
    each question's family puts the identity on the chosen answer and 0
    elsewhere, and the state is the first product basis vector.  At
    dim > 1 this places the strategy in a (dim, dim) search space."""
    state, alice, bob = _embedded(d, k, n, dim)
    return QuantumStrategySpec(flavor=TENSOR, state=state, alice=alice, bob=bob)


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
    state = np.diag(np.sqrt(check_mixture(mixture, k, n))).ravel()
    # Row x of each answer array: every mixture member's answer to question x.
    return QuantumStrategySpec(
        flavor=TENSOR, state=state,
        alice=diagonal_pvm(np.array([det.alice for _, det in mixture]).T, n),
        bob=diagonal_pvm(np.array([det.bob for _, det in mixture]).T, n))


def naimark_dilate(family: MeasurementFamily) -> tuple[MeasurementFamily, np.ndarray]:
    """Dilate a POVM to a PVM on dim * n dimensions.

    Returns ``(pvm, isometry)`` where the isometry V stacks the operator
    square roots against outcome basis vectors, and the PVM projects onto
    the outcome slots.  Then <Q_a V s, V s> equals the original outcome
    probability <P_a s, s> for every state s.
    """
    validate_measurement(family).raise_if_failed("POVM")
    dim, n = family.dim, family.n_outcomes
    # V = sum_a kron(sqrt(P_a), e_a): row i*n + a of V is row i of sqrt(P_a).
    isometry = np.stack([psd_sqrt(mat) for mat in family.outcomes], axis=1).reshape(dim * n, dim)
    residual = float(np.max(np.abs(dagger(isometry) @ isometry - identity(dim))))
    if residual > COMPUTED_TOL:
        raise ValidationError(f"dilation isometry residual {residual:.3g}")
    # Outcome a projects onto the slots kron(e_i, e_a): coordinate i*n + a.
    return MeasurementFamily(outcomes=diagonal_pvm(np.arange(dim * n) % n + 1, n),
                             flavor=PVM), isometry


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

def random_block_families(k: int, n: int, dim: int, rngs) -> np.ndarray:
    """The searches' random starts: an (R, k, n, dim, dim) stack with one
    row per generator in ``rngs``, whose family x projects onto the columns
    of the x-th Haar unitary that row's generator draws, in the blocks of a
    near-equal split, outcome a taking block a: the first dim % n blocks get
    one column more, and blocks are empty (zero projections) when n > dim.
    One :func:`~nlv.linalg.random_unitary` call covers every row."""
    u = random_unitary((k, dim, dim), rngs)
    return np.stack([cols @ dagger(cols) for cols in np.array_split(u, n, axis=-1)], axis=-3)


def best_response(weights: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Exact see-saw step: the PVM maximizing sum_a Re tr(P_a W_a), taken
    one outcome pair at a time from the projections ``current``; both
    arguments are (..., n, d, d) stacks, and every family of the stack
    moves in the same stacked calls.

    For each pair (a, b), Q = P_a + P_b stays fixed; within range(Q), P_a
    becomes the positive eigenspace of W_a - W_b and P_b the rest.  A gain
    within 1e-12 ||W_a - W_b||_F of zero counts as zero and goes to P_b, so
    an exactly degenerate direction is placed the same way whatever the
    rounding of its eigenvalue.  With n > 2 each split is exact, so the
    score never decreases (up to those zero gains); ranges are found by one
    stacked eigh of Q, and the unoccupied directions get a diagonal
    sentinel below -||W_a - W_b|| that sorts them first and out of both
    halves, so ranks may differ across the stack and an empty pair stays
    empty.  With n = 2 the families must be complete PVMs, as the
    searches' are: then Q = I, one eigh of W_0 - W_1 splits the whole
    space, and the step is the global optimum.  Both projections of a split
    are built from their own eigenvectors, which keeps them idempotent to
    rounding over many rounds.
    """
    out = np.array(current, dtype=np.complex128)
    n, d = out.shape[-3], out.shape[-1]
    for a in range(n):
        for b in range(a + 1, n):
            diff = weights[..., a, :, :] - weights[..., b, :, :]
            scale = frobenius(diff)[..., None]
            if n == 2:
                gains, split = np.linalg.eigh(diff)
                kept = True
            else:
                occupied, basis = np.linalg.eigh(out[..., a, :, :] + out[..., b, :, :])
                empty = occupied <= 0.5
                inside = basis * ~empty[..., None, :]
                sentinel = empty * (-1.0 - 2.0 * scale)
                gains, rotation = np.linalg.eigh(dagger(inside) @ diff @ inside
                                                 + identity(d) * sentinel[..., None, :])
                split = basis @ rotation
                kept = np.arange(d) >= empty.sum(axis=-1)[..., None]
            positive = gains > 1e-12 * scale
            for slot, side in ((a, kept & positive), (b, kept & ~positive)):
                out[..., slot, :, :] = (split * side[..., None, :]) @ dagger(split)
    return out


def _weigh(matrix: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """T[..., i] = sum over (y, b) of matrix[i, (y, b)] F[..., y, b] for an
    (m, kn) matrix and a (..., k, n, d, d) stack F, as a (..., m, d, d)
    stack: one matmul with the stack flattened to (..., kn, d^2), whose
    leading axes stay batch axes."""
    *batch, k, n, d, _ = stack.shape
    return (matrix @ stack.reshape(*batch, k * n, d * d)).reshape(*batch, -1, d, d)


def _weights(mat: np.ndarray, t: np.ndarray) -> np.ndarray:
    """M T^T M^dagger for each (d, d) matrix T of an (R, m, d, d) stack,
    with M the row's (d, d) state matrix from an (R, d, d) stack."""
    mat = mat[:, None]
    return mat @ np.swapaxes(t, -1, -2) @ dagger(mat)


def _game_operator(alice: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum over (x, a) of kron(A[x, a], T[x, a]) for an (..., k, n, d_a, d_a)
    family stack A and an (..., kn, d_b, d_b) stack T, the payoff-weighted
    sum of Bob's families: one product over the kn axis per stack entry."""
    *batch, k, n, d_a, _ = alice.shape
    d_b = t.shape[-1]
    flat = alice.reshape(*batch, k * n, d_a * d_a)
    op = np.swapaxes(flat, -1, -2) @ t.reshape(*batch, k * n, d_b * d_b)
    return op.reshape(*batch, d_a, d_a, d_b, d_b).swapaxes(-3, -2).reshape(
        *batch, d_a * d_b, d_a * d_b)


def _seesaw_bytes(game: Game, dim: int) -> int:
    """Bytes one restart of :func:`_seesaw` holds at most: three d^2 x d^2
    matrices (a game operator with eigh's copy and eigenvectors of it, or
    two game operators and the product one is built from) and a dozen (k,
    n, d, d) stacks (both players' families, payoff-weighted stacks, a
    player's weights and best-response temporaries, and the certification
    of its row)."""
    return 16 * (3 * dim ** 4 + 12 * game.k * game.n * dim * dim)


def _seesaw(game: Game, dim: int, rngs: list[np.random.Generator],
            iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One restart per generator in ``rngs``, each from random block PVMs
    (Alice's, then Bob's), all run as one stacked pass; returns the (R,
    d^2) states and Alice's and Bob's (R, k, n, d, d) families.  Each round
    takes the top eigenvector of each game operator as the state, then
    Alice's and Bob's best responses, whose weights go through the payoff
    matrix.  A restart leaves ``live`` once a round gains at most 1e-12,
    which freezes it as it would have stopped alone; all stop after
    ``iters`` rounds."""
    k, n = game.k, game.n
    v = payoff_matrix(game).astype(np.complex128)   # spares matmul a cast per call
    starts = random_block_families(2 * k, n, dim, rngs)
    alice, bob = starts[:, :k], starts[:, k:]
    psi = np.empty((len(rngs), dim * dim), dtype=np.complex128)
    last = np.full(len(rngs), -np.inf)
    live = np.arange(len(rngs))
    t = _weigh(v, bob)
    op = _game_operator(alice, t)
    for _ in range(iters):
        state = np.linalg.eigh(op)[1][..., -1].copy()   # frees the other eigenvectors
        mat = state.reshape(-1, dim, dim)
        # Alice's weights M T^T M^dagger from the fixed Bob families; Bob's
        # from Alice's new ones, with M^T in M's place.
        new_alice = best_response(_weights(mat, t).reshape(-1, k, n, dim, dim), alice[live])
        weights = _weights(np.swapaxes(mat, -1, -2), _weigh(v.T, new_alice))
        new_bob = best_response(weights.reshape(-1, k, n, dim, dim), bob[live])
        t = _weigh(v, new_bob)
        op = _game_operator(new_alice, t)
        current = np.einsum("ri,ri->r", state.conj(), (op @ state[..., None])[..., 0]).real
        psi[live], alice[live], bob[live] = state, new_alice, new_bob
        going = current > last[live] + 1e-12
        last[live] = current
        live, op, t = live[going], op[going], t[going]
        if not live.size:
            break
    return psi, alice, bob


def _certify_specs(game: Game, chunk, names) -> np.ndarray:
    """Value of each row of a chunk of tensor-flavor PVM candidates, from
    that row's state and families: one validation pass per player and one
    correlation product over the chunk."""
    states, alice, bob = chunk
    _check_finite(names, *chunk)
    _validate_rows(names, (("alice ", alice), ("bob ", bob)), PVM, COMPUTED_TOL,
                   states).raise_if_failed("see-saw candidate")
    return correlation_values(game, _tensor_correlations(states, alice, bob, names))


def seesaw_search(game: Game, dim: int, restarts: int, seed: int, iters: int,
                  restart, restart_bytes: int, certify, seeds):
    """Driver shared by the see-saw lower-bound searches: one stacked pass
    per restart chunk, covering the draw, the climb and the certification.

    A chunk is a tuple of arrays sharing a leading axis of candidates, its
    rows.  Restarts 0 .. restarts - 1 run in :func:`moments.chunks` of
    ``restart_bytes`` each: the chunk of range(r, s) is ``restart(game,
    dim, [generator(seed, stream=r), ..., generator(seed, stream=s - 1)],
    iters)``, one row per generator, where ``iters`` caps the see-saw
    rounds.  ``seeds()``, asked for only when n^k <=
    ``SEED_ENUMERATION_CAP``, gives a one-row chunk (or ``()`` for none)
    that becomes row 0 of the first chunk, or a chunk alone when there are
    no restarts.  Each chunk is certified in one pass: ``certify(game,
    chunk, names)`` returns each row's game value, computed from that row's
    arrays, and raises a ValidationError naming the row that fails
    (``names[i]`` is ``"seed: "`` or ``"restart j: "``, j counted from 1).
    Only the best row is kept, so memory stays flat in ``restarts``; the
    largest value wins, ties going to the earliest row, so the seed wins
    ties.  Returns ``(value, row)``, the row as a tuple of arrays, from
    which the caller builds the winner's object.  Restarts are refused,
    before any candidate is made, when one would hold more than
    ``MAX_RESTART_BYTES``.
    """
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    if restarts < 0 or iters < 1:
        raise ValidationError("restarts must be >= 0 and iters >= 1")
    if restarts and restart_bytes > MAX_RESTART_BYTES:
        raise CapExceededError(f"one restart at dim = {dim} needs {restart_bytes} bytes "
                               f"exceeding cap {MAX_RESTART_BYTES}")

    def chunks():
        front = seeds() if game.n ** game.k <= SEED_ENUMERATION_CAP else ()
        names = ["seed: "] if front else []
        for streams in moments.chunks(restarts, restart_bytes):
            chunk = restart(game, dim, [generator(seed, stream=r) for r in streams], iters)
            if front:
                chunk = tuple(np.concatenate(pair) for pair in zip(front, chunk))
            yield chunk, names + [f"restart {r + 1}: " for r in streams]
            front, names = (), []
        if front:
            yield front, names

    best_value, best = -np.inf, None
    for chunk, names in chunks():
        values = certify(game, chunk, names)
        i = int(np.argmax(values))
        if best is None or values[i] > best_value:
            best_value, best = float(values[i]), tuple(arr[i].copy() for arr in chunk)
    if best is None:
        raise ValidationError("no candidates: need restarts >= 1 or a seed candidate")
    return best_value, best


def entangled_lower_bound(game: Game, dim: int, restarts: int, seed: int,
                          iters: int = 60) -> tuple[float, QuantumStrategySpec]:
    """Best tensor-flavor strategy of local dimensions (dim, dim) found by
    seeded see-saw restarts; returns its exact re-evaluated game value.

    The value is a certified lower bound on the entangled value because the
    returned spec reproduces it through quantum_correlation + game_value.
    When exact enumeration is affordable, the deterministic optimum
    embedded at dimension ``dim`` joins the candidate pool, so the result
    also dominates the classical value.  Deterministic in ``seed``;
    restarts are independent and merged by max with ties going to the
    earliest candidate.
    """
    if dim * dim > MAX_STATE_DIM:
        raise CapExceededError(
            f"dim^2 = {dim * dim} exceeds the entangled search cap {MAX_STATE_DIM}")

    def seeds():
        return tuple(arr[None] for arr in _embedded(classical_value(game)[1], game.k, game.n, dim))

    value, (state, alice, bob) = seesaw_search(
        game, dim, restarts, seed, iters, _seesaw, _seesaw_bytes(game, dim), _certify_specs, seeds)
    return value, QuantumStrategySpec(flavor=TENSOR, state=state, alice=alice, bob=bob)


# ---------------------------------------------------------------------------
# Spec (de)serialization: interleaved real/imag arrays
# ---------------------------------------------------------------------------

def save_spec(spec: QuantumStrategySpec) -> str:
    """Serialize a strategy spec to JSON with every complex array stored as
    a flat interleaved [re, im, re, im, ...] list in row-major order."""
    def side(stack: np.ndarray):
        return [{"flavor": spec.measurement, "outcomes": rows} for rows in interleave(stack, 2)]

    obj = {
        "flavor": spec.flavor,
        "dim_alice": spec.dims[0],
        "dim_bob": spec.dims[1],
        "n_outcomes": spec.n,
        "state": interleave(spec.state),
        "alice": side(spec.alice),
        "bob": side(spec.bob),
    }
    return dump_json(obj) + "\n"


def read_outcomes(rows, n: int, dim: int, what: str) -> np.ndarray:
    """The (len(rows), n, dim, dim) complex stack of ``rows``, each a list
    of n interleaved outcome matrices: one type check over every number
    and one array.  Only bad numbers fall back to reading one outcome at a
    time, to name the first bad one as ``<what>[x] outcome <a + 1>``."""
    try:
        return deinterleave(rows, (dim, dim), what, lead=(len(rows), n))
    except ParseError:
        for x, outcomes in enumerate(rows):
            for a, values in enumerate(outcomes):
                deinterleave(values, (dim, dim), f"{what}[{x}] outcome {a + 1}")
        raise


def load_spec(text: str) -> QuantumStrategySpec:
    """Parse a strategy spec written by :func:`save_spec`."""
    where = "spec file"
    obj = read_object(text, where)
    flavor = read_field(obj, "flavor", str, where)
    d_a, d_b, n = (read_count(obj, key, where) for key in ("dim_alice", "dim_bob", "n_outcomes"))
    state = deinterleave(read_field(obj, "state", list, where),
                         (d_a * d_b if flavor == TENSOR else d_a,), f"{where}: 'state'")

    flavors = set()

    def side(key, dim):
        rows = []
        for x, entry in enumerate(read_field(obj, key, list, where)):
            at = f"{where}: {key}[{x}]"
            flavors.add(read_field(entry, "flavor", str, at))
            rows.append(read_field(entry, "outcomes", list, at))
            if len(rows[-1]) != n:
                raise ParseError(f"{where}: outcome count mismatch")
        return read_outcomes(rows, n, dim, f"{where}: {key}")

    alice, bob = side("alice", d_a), side("bob", d_b)
    if len(flavors) > 1:
        raise ParseError(f"{where}: families mix flavors {sorted(flavors)}")
    return QuantumStrategySpec(flavor=flavor, state=state, alice=alice, bob=bob,
                               measurement=flavors.pop() if flavors else PVM)
