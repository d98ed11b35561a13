"""The see-saw machinery both lower-bound searches share: kernels over
(R, k, n, d, d) stacks of candidates' families, the round loop :func:`climb`,
the :class:`Search` each search fills in, and the restart driver
:func:`seesaw_search`, which certifies every candidate from its own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import moments
from .classical import SEED_ENUMERATION_CAP
from .errors import CapExceededError, ValidationError, require
from .game import COMPUTED_TOL, Game, correlation_values
from .linalg import dagger, frobenius, identity, random_unitary
from .rng import generator

MAX_RESTART_BYTES = 512 << 20   # bytes one see-saw restart may hold, see seesaw_search
ITERS = 60                      # default cap on a restart's rounds, see climb

POVM = "povm"
PVM = "pvm"


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
    space, ``current`` is not read, and the step is the global optimum.
    Both projections of a split are built from their own eigenvectors,
    which keeps them idempotent to rounding over many rounds.
    """
    n, d = current.shape[-3], current.shape[-1]
    if n == 2:
        diff = weights[..., 0, :, :] - weights[..., 1, :, :]
        gains, split = np.linalg.eigh(diff)
        positive = gains > 1e-12 * frobenius(diff)[..., None]
        sides = np.stack((positive, ~positive), axis=-2)[..., None, :]
        return (split[..., None, :, :] * sides) @ dagger(split)[..., None, :, :]
    out = np.array(current, dtype=np.complex128)
    for a in range(n):
        for b in range(a + 1, n):
            diff = weights[..., a, :, :] - weights[..., b, :, :]
            scale = frobenius(diff)[..., None]
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


def weigh(matrix: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """T[..., i] = sum over (y, b) of matrix[i, (y, b)] F[..., y, b] for an
    (m, kn) matrix and a (..., k, n, d, d) stack F, as a (..., m, d, d)
    stack: one matmul with the stack flattened to (..., kn, d^2), whose
    leading axes stay batch axes."""
    *batch, k, n, d, _ = stack.shape
    return (matrix @ stack.reshape(*batch, k * n, d * d)).reshape(*batch, -1, d, d)


def correlations(left: np.ndarray, right: np.ndarray, names) -> np.ndarray:
    """The (R, k, k, n, n) real correlation tensors p[r, x, y, a, b] = sum
    over m of L[r, x, a, m] R[r, y, b, m] for (R, k, n, m) factor stacks,
    one (kn, m) by (m, kn) product per row.  Row r's imaginary residual
    must stay within COMPUTED_TOL, or the error starts with ``names[r]``."""
    rows, k, n, m = left.shape
    g = left.reshape(rows, k * n, m) @ np.swapaxes(right.reshape(rows, k * n, m), -1, -2)
    residual = np.abs(g.imag).max(axis=(1, 2))
    for r in np.flatnonzero(residual > COMPUTED_TOL):
        raise ValidationError(f"{names[r]}correlation has imaginary residual {residual[r]:.3g}")
    return np.ascontiguousarray(g.real.reshape(rows, k, n, k, n).swapaxes(2, 3))


# Per-outcome checks of the measurement validator: message, and the sign
# that turns the reported number into the size of the violation.
_DEFECTS = (("not self-adjoint: residual", 1.0), ("not positive: eigenvalue", -1.0),
            ("not idempotent: residual", 1.0))


def validate_stack(names, rows, measurement: str) -> tuple[str, ...]:
    """The violation lines of R candidates, checked at once: each ``(label,
    array)`` of ``rows`` holds one part of every candidate, either (R, D)
    state vectors, each of unit norm, or one player's (R, k, n, d, d)
    families, checked in one batched pass.  Entries must be finite, as
    every constructor ensures.

    POVM: every element self-adjoint with smallest eigenvalue >= -tol, and
    each family's elements sum to the identity within tol, where tol is
    COMPUTED_TOL.  PVM: additionally each element squares to itself within
    tol (which forces pairwise orthogonality).  Lines follow ``rows``; row
    r's start with ``names[r]``, then the label, formatted with x for
    family x's lines.
    """
    def residual(mats):   # largest entry size of each matrix
        return np.abs(mats).reshape(mats.shape[:-2] + (-1,)).max(axis=-1)

    violations = []
    for label, stack in rows:
        if stack.ndim == 2:
            norms = np.linalg.norm(stack, axis=-1)
            for r in np.flatnonzero(np.abs(norms - 1.0) > COMPUTED_TOL):
                violations.append(f"{names[r]}{label}state norm {norms[r]:.9g} != 1")
            continue
        k = stack.shape[1]
        flat = stack.reshape(-1, *stack.shape[2:])
        sizes = [residual(flat - dagger(flat)), -np.linalg.eigvalsh(flat)[..., 0]]
        if measurement == PVM:
            sizes.append(residual(flat @ flat - flat))
        sizes = np.stack(sizes, axis=-1)                   # [family, outcome, check]
        completeness = residual(flat.sum(axis=1) - identity(flat.shape[-1]))
        failed = sizes > COMPUTED_TOL
        for f in np.flatnonzero(failed.any(axis=(1, 2)) | (completeness > COMPUTED_TOL)):
            prefix = names[f // k] + label.format(f % k + 1)
            for i, c in np.argwhere(failed[f]):
                what, sign = _DEFECTS[c]
                violations.append(f"{prefix}outcome {i + 1} {what} {sign * sizes[f, i, c]:.3g}")
            if completeness[f] > COMPUTED_TOL:
                violations.append(f"{prefix}completeness residual {completeness[f]:.3g}")
    return tuple(violations)


def climb(step: Callable, rows: tuple, iters: int) -> tuple:
    """The round loop of both searches: at most ``iters`` rounds over a
    chunk's (R, ...) candidate arrays ``rows``, updated in place and
    returned.  ``step(live_rows)`` gives the live rows' next arrays and
    their round scores, from those rows alone.  A row freezes with its
    arrays of the round that gains at most 1e-12."""
    live, last = np.arange(len(rows[0])), -np.inf
    for _ in range(iters):
        new, current = step(tuple(arr[live] for arr in rows))
        for arr, part in zip(rows, new):
            arr[live] = part
        going = current > last + 1e-12
        live, last = live[going], current[going]
        if not live.size:
            break
    return rows


class Prepared(NamedTuple):
    """What a search reads from its game at one dimension, derived once per
    :func:`seesaw_search` call: ``payoff`` is V, ``matrix`` what its kernel weighs with."""

    game: Game
    dim: int
    payoff: np.ndarray
    restart_bytes: int
    matrix: np.ndarray


@dataclass(frozen=True)
class Search:
    """One see-saw lower-bound search, as :func:`seesaw_search` runs it.
    Its chunks are tuples of arrays over a leading axis of candidates, the
    rows, with the :func:`validate_stack` label of each in ``labels``.
    ``prepare(game, dim)`` is the :class:`Prepared` record; ``restart(record,
    rngs, iters)`` is the chunk of one restart per generator, run as one
    stacked pass of at most ``iters`` rounds; ``correlate(chunk, names)``
    gives the rows' (R, k, k, n, n) correlations; ``seed(record)`` is a
    one-row chunk, or ``()``."""

    prepare: Callable
    restart: Callable
    labels: tuple[str, ...]
    correlate: Callable
    seed: Callable


def seesaw_search(game: Game, dim: int, restarts: int, seed: int, iters: int,
                  search: Search):
    """Driver shared by the see-saw lower-bound searches: one stacked pass
    per restart chunk, covering the draw, the climb and the certification.

    The search's record is prepared once; restarts 0 .. restarts - 1 run in
    :func:`moments.chunks` of its ``restart_bytes``, restart r drawing from
    ``generator(seed, stream=r)``; the search's seed, asked for only when
    n^k <= ``SEED_ENUMERATION_CAP``, is row 0 of the first chunk, or a chunk
    alone.  Each row's value is computed from its own arrays, in one finite
    check, one validation pass per player and one correlation product per
    chunk; a failing row is named ``"seed: "`` or ``"restart j: "``, j from
    1.  Only the best row is kept, so memory stays flat in ``restarts``, and
    ties go to the earliest row, so the seed wins ties.  Returns ``(value,
    row)``, the row as a tuple of arrays.  Restarts are refused, before any
    candidate is made, when one would hold more than ``MAX_RESTART_BYTES``.
    """
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    if restarts < 0 or iters < 1:
        raise ValidationError("restarts must be >= 0 and iters >= 1")
    record = search.prepare(game, dim)
    if restarts and record.restart_bytes > MAX_RESTART_BYTES:
        raise CapExceededError(f"one restart at dim = {dim} needs {record.restart_bytes} bytes "
                               f"exceeding cap {MAX_RESTART_BYTES}")

    def chunks():
        front = search.seed(record) if game.n ** game.k <= SEED_ENUMERATION_CAP else ()
        names = ["seed: "] if front else []
        for streams in moments.chunks(restarts, record.restart_bytes):
            chunk = search.restart(record, [generator(seed, stream=r) for r in streams], iters)
            if front:
                chunk = tuple(np.concatenate(pair) for pair in zip(front, chunk))
            yield chunk, names + [f"restart {r + 1}: " for r in streams]
            front, names = (), []
        if front:
            yield front, names

    best_value, best = -np.inf, None
    for chunk, names in chunks():
        finite = np.logical_and.reduce([np.isfinite(arr).reshape(len(arr), -1).all(axis=1)
                                        for arr in chunk])
        if not finite.all():
            raise ValidationError(f"{names[np.argmin(finite)]}non-finite entries")
        require(validate_stack(names, zip(search.labels, chunk), PVM), "see-saw candidate")
        values = correlation_values(record.payoff, search.correlate(chunk, names))
        i = int(np.argmax(values))
        if best is None or values[i] > best_value:
            best_value, best = float(values[i]), tuple(arr[i].copy() for arr in chunk)
    if best is None:
        raise ValidationError("no candidates: need restarts >= 1 or a seed candidate")
    return best_value, best
