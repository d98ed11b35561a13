"""Measurement theory and quantum strategies for nonlocal games.

Covers POVM/PVM validation, Born-rule outcome probabilities,
tensor-product and commuting-operator strategy specifications and
their correlation tensors, the square-root dilation of a POVM to a PVM on a
larger space, the fixed optimal two-qubit strategy for the agree/disagree
game, and the :data:`ENTANGLED` see-saw search for a lower bound on the
entangled value at a fixed local dimension.

Lower bounds are self-certifying: the returned specification re-evaluates
to the reported value through :func:`quantum_correlation` and
:func:`~nlv.game.game_value`.  The search never produces an upper bound;
the supremum over all dimensions may not be attained at any finite one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import DeterministicStrategy, check_answer_range, check_mixture, classical_value
from .errors import (CapExceededError, DimensionMismatchError, ParseError, ValidationError,
                     dump_json, excerpt, read_count, read_field, read_object, require)
from .game import COMPUTED_TOL, Game, Strategy, payoff, payoff_matrix
from .linalg import as_complex, dagger, deinterleave, identity, interleave, psd_sqrt
from .seesaw import (ITERS, POVM, PVM, Prepared, Search, best_response, climb, correlations,
                     random_block_families, seesaw_search, validate_stack, weigh)

MAX_STATE_DIM = 1024   # d^2 for the entangled search: its game operator is d^2 x d^2

TENSOR = "tensor"
COMMUTING = "commuting"

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def check_state(state) -> np.ndarray:
    """Coerce to a complex vector and require unit Euclidean norm (a
    one-row :func:`~nlv.seesaw.validate_stack`)."""
    vec = as_complex(state)
    if vec.ndim != 1:
        raise ValidationError(f"state must be a vector, got shape {vec.shape}")
    require(validate_stack([""], (("", vec[None]),), PVM), "state")
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
        raise ValidationError(
            f"measurement must be '{POVM}' or '{PVM}', got {excerpt(measurement)}")
    for x, fam in enumerate(families):
        if isinstance(fam, MeasurementFamily) and fam.flavor != measurement:
            raise ValidationError(f"family {x + 1} must be flavored '{measurement}'")
    return _frozen_stack([fam.outcomes if isinstance(fam, MeasurementFamily) else fam
                          for fam in families], "family", 3)


def validate_measurement(family: MeasurementFamily) -> tuple[str, ...]:
    """The violation lines of one family's flavor-specific invariants (see
    :func:`~nlv.seesaw.validate_stack`)."""
    return validate_stack([""], (("", family.outcomes[None, None]),), family.flavor)


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
    n = family.n_outcomes
    if isinstance(outcome, bool) or not isinstance(outcome, (int, np.integer)) \
            or not 0 <= outcome < n:
        raise ValidationError(f"outcome must be an integer in [0, {n}), got {excerpt(outcome)}")
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
                f"flavor must be '{TENSOR}' or '{COMMUTING}', got {excerpt(self.flavor)}")
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


def validate_spec(spec: QuantumStrategySpec) -> tuple[str, ...]:
    """The violation lines of the state, each player's families in one
    batched pass (a one-row :func:`~nlv.seesaw.validate_stack` with
    :data:`ENTANGLED`'s labels), and (for commuting flavor) every Alice
    element that does not commute with a Bob element in Frobenius norm."""
    rows = (spec.state[None], spec.alice[None], spec.bob[None])
    violations = validate_stack([""], zip(ENTANGLED.labels, rows), spec.measurement)
    if spec.flavor == COMMUTING:
        # residual[x, a, y, b]: Frobenius norm of [A^x_a, B^y_b].
        alice = spec.alice[:, :, None, None]
        bob = spec.bob[None, None]
        residual = np.linalg.norm(alice @ bob - bob @ alice, axis=(-2, -1))
        violations += tuple(
            f"commutation violation at (x={x + 1}, a={a + 1}, "
            f"y={y + 1}, b={b + 1}): residual {residual[x, a, y, b]:.3g}"
            for x, a, y, b in np.argwhere(residual > COMPUTED_TOL))
    return violations


def _tensor_correlations(chunk, names) -> np.ndarray:
    """Correlations of a chunk of R tensor-flavor candidates, as
    :func:`~nlv.seesaw.correlations`: <psi| A kron B |psi> is the entrywise
    product of M^dagger A M and B, where M is psi as a (d_a, d_b) matrix."""
    states, alice, bob = chunk
    mat = states.reshape(len(states), 1, 1, alice.shape[-1], bob.shape[-1])
    reduced = dagger(mat) @ alice @ mat
    return correlations(reduced.reshape(reduced.shape[:3] + (-1,)),
                        bob.reshape(bob.shape[:3] + (-1,)), names)


def quantum_correlation(spec: QuantumStrategySpec) -> Strategy:
    """Correlation tensor of a strategy specification.

    Tensor flavor: p(a, b | x, y) is the expectation of (Alice_a kron
    Bob_b) in the shared state; commuting flavor: the expectation of the
    operator product Alice_a Bob_b.  For tensor flavor, the one-row case
    of how :data:`ENTANGLED` certifies the see-saw's chunks.
    """
    require(validate_spec(spec), "strategy spec")
    if spec.flavor == TENSOR:
        p = _tensor_correlations((spec.state[None], spec.alice[None], spec.bob[None]), [""])
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
    require(validate_measurement(family), "POVM")
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


def _seesaw(record: Prepared, rngs: list[np.random.Generator],
            iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entangled restart kernel, from random block PVMs (Alice's, then
    Bob's), run by :func:`~nlv.seesaw.climb`.  Each round takes the top
    eigenvector of each game operator as the state, then Alice's and Bob's
    best responses, whose weights go through the payoff matrix.  The round
    scores Bob's objective at his response: <psi| A kron B |psi> =
    Re tr(B M^T A^T M-bar), so it is sum over (y, b) of Re tr(B W) with
    Bob's weights W."""
    k, n, dim = record.game.k, record.game.n, record.dim
    v = record.matrix
    starts = random_block_families(2 * k, n, dim, rngs)

    def step(rows):
        _, alice, bob = rows
        t = weigh(v, bob)
        state = np.linalg.eigh(_game_operator(alice, t))[1][..., -1].copy()   # frees the rest
        mat = state.reshape(-1, dim, dim)
        # Alice's weights M T^T M^dagger from the fixed Bob families; Bob's
        # from Alice's new ones, with M^T in M's place.
        alice = best_response(_weights(mat, t).reshape(-1, k, n, dim, dim), alice)
        weights = _weights(np.swapaxes(mat, -1, -2), weigh(v.T, alice)).reshape(-1, k, n, dim, dim)
        bob = best_response(weights, bob)
        return (state, alice, bob), np.einsum("rynij,rynji->r", bob, weights).real

    psi = np.empty((len(rngs), dim * dim), dtype=np.complex128)
    return climb(step, (psi, starts[:, :k], starts[:, k:]), iters)


# Chunks of (R, d^2) states and Alice's and Bob's families; the seed is the
# classical optimum embedded at the search's dimension.  A restart holds at
# most three d^2 x d^2 matrices (a game operator with eigh's copy and
# eigenvectors of it) and a dozen (k, n, d, d) stacks (both players' families,
# payoff-weighted stacks, a player's weights and best-response
# temporaries, and the certification of its row).
ENTANGLED = Search(
    prepare=lambda game, dim: Prepared(
        game, dim, v := payoff(game), 16 * (3 * dim ** 4 + 12 * game.k * game.n * dim * dim),
        payoff_matrix(v).astype(np.complex128)),   # spares matmul a cast per call
    restart=_seesaw, labels=("", "alice family {}: ", "bob family {}: "),
    correlate=_tensor_correlations,
    seed=lambda record: tuple(arr[None] for arr in _embedded(
        classical_value(record.game)[1], record.game.k, record.game.n, record.dim)))


def entangled_lower_bound(game: Game, dim: int, restarts: int, seed: int,
                          iters: int = ITERS) -> tuple[float, QuantumStrategySpec]:
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
    value, (state, alice, bob) = seesaw_search(game, dim, restarts, seed, iters, ENTANGLED)
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
    if len(alice) != len(bob):
        raise ParseError(f"{where}: alice has {len(alice)} families but bob has {len(bob)}")
    if not len(alice):
        raise ParseError(f"{where}: need at least one family")
    if len(flavors) > 1:
        raise ParseError(f"{where}: families mix flavors {excerpt(sorted(flavors))}")
    try:   # the spec's own checks: its flavor, its measurement and the players' spaces
        return QuantumStrategySpec(flavor=flavor, state=state, alice=alice, bob=bob,
                                   measurement=flavors.pop())
    except ValidationError as err:
        raise ParseError(f"{where}: {err}") from err
