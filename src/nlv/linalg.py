"""Dense complex linear algebra helpers.

Matrices and vectors are plain complex128 numpy arrays; spectral work goes
to LAPACK through ``numpy.linalg``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError, ValidationError, read_array


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix in a stack."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def as_complex(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.complex128)
    if not np.all(np.isfinite(out)):
        raise ValidationError("matrix has non-finite entries")
    return out


def interleave(arr, lead: int = 0) -> list:
    """A complex array as the flat row-major list [re, im, re, im, ...]
    that every file format uses, or as nested lists of such lists over its
    first ``lead`` axes: complex128 memory already holds each entry as a
    (re, im) pair of float64s."""
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    return arr.reshape(*arr.shape[:lead], -1).view(np.float64).tolist()


def deinterleave(values, shape, what: str = "interleaved array", lead=()) -> np.ndarray:
    """Inverse of :func:`interleave`: ``values`` must be a flat list of
    exactly 2 * prod(shape) finite numbers, or nested lists of such lists of
    shape ``lead``, read as one array of shape ``lead + shape``; ``what``
    names it in the error.  Each (re, im) pair is read as it is stored,
    signed zeros included."""
    flat = read_array(values, (*lead, 2 * math.prod(shape)), what)
    if not np.isfinite(flat).all():
        raise ParseError(f"{what} has a non-finite entry")
    return flat.view(np.complex128).reshape(*lead, *shape)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-8, 0) are clamped to zero; anything more negative
    is a genuinely indefinite input and is rejected.
    """
    w, v = np.linalg.eigh(as_complex(h))
    if w[0] < -1e-8:
        raise ValidationError(f"matrix is indefinite: eigenvalue {w[0]:.3e} < 0")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    return 0.5 * (root + dagger(root))


def ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrices of a ``(..., d, d)`` shape: iid standard
    complex Gaussian entries, drawn as the stream of sequential per-matrix
    draws, each real part then imaginary."""
    z = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def random_unitary(shape, rngs) -> np.ndarray:
    """Haar random unitaries: for each generator in ``rngs``, in order, a
    :func:`ginibre` draw of the ``(..., d, d)`` shape, stacked on a new
    first axis; each matrix then becomes the QR factor Q with R's diagonal
    phases folded in, which is the unitary Gram-Schmidt gives.  One stacked
    QR over every generator's matrices, equal to a QR per matrix in draw
    order."""
    q, r = np.linalg.qr(np.array([ginibre(shape, rng) for rng in rngs]))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]
