"""Dense complex linear algebra helpers.

Matrices and vectors are plain complex128 numpy arrays; spectral work goes
to LAPACK through ``numpy.linalg``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


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


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; (kron(A, B)) @ kron(u, v) == kron(A @ u, B @ v)."""
    return np.kron(a, b)


def psd_sqrt(h: np.ndarray, indefinite_tol: float = 1e-8) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-indefinite_tol, 0) are clamped to zero; anything more
    negative is a genuinely indefinite input and is rejected.
    """
    w, v = np.linalg.eigh(as_complex(h))
    if w[0] < -indefinite_tol:
        raise ValidationError(f"matrix is indefinite: eigenvalue {w[0]:.3e} < 0")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    return 0.5 * (root + dagger(root))


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrix: iid standard complex Gaussian entries."""
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar random unitary: the QR factor Q of a Ginibre matrix with R's
    diagonal phases folded in, which is the unitary Gram-Schmidt gives."""
    q, r = np.linalg.qr(ginibre(dim, rng))
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases))
