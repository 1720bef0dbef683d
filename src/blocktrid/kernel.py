"""Dense complex kernels shared by every sparsification pipeline.

All routines work on ``numpy`` arrays with dtype complex128 and are pure
functions of their inputs.  Gram-Schmidt is implemented here; the singular
value decomposition and the Hermitian eigenvalues come from ``numpy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Default relative tolerance deciding when a candidate vector is linearly
#: dependent on the basis built so far.
DEPENDENCE_TOL = 1e-10


def as_operator(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex128 array, rejecting bad input.

    Parameters
    ----------
    a : array_like
        Square matrix data.
    name : str
        Label used in error messages.

    Returns
    -------
    ndarray
        A fresh complex128 array of shape (d, d).
    """
    A = np.array(a, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def adjoint(A) -> np.ndarray:
    """Conjugate transpose of a square matrix."""
    return as_operator(A).conj().T.copy()


def unit_vector(dim: int, index: int) -> np.ndarray:
    """Standard basis vector e_index (0-based) in C^dim."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def max_abs(A) -> float:
    """Largest entry magnitude; zero for empty arrays."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A)))


def unitarity_residual(U) -> float:
    """``max |U*U - I|`` for a square matrix."""
    U = as_operator(U, "basis change")
    d = U.shape[0]
    return max_abs(U.conj().T @ U - np.eye(d))


@dataclass(frozen=True)
class GsOutcome:
    """Result of offering one candidate vector to a growing orthonormal basis."""

    accepted: bool
    vector: Optional[np.ndarray]
    residual_norm: float


def mgs_append(basis, v, tol: float = DEPENDENCE_TOL) -> GsOutcome:
    """Orthogonalize ``v`` against ``basis`` with classical Gram-Schmidt applied twice.

    Parameters
    ----------
    basis : array_like, shape (k, d)
        Pairwise orthonormal vectors stored as rows; a list of 1-D vectors
        works too, and an empty basis is a (0, d) array or an empty list.
    v : array_like
        Candidate vector.
    tol : float
        Dependence threshold, relative to ``max(1, ||v||)``.

    Returns
    -------
    GsOutcome
        Accepted with the normalized residual vector, or rejected when the
        residual norm falls at or below ``tol * max(1, ||v||)``.  Each pass
        projects out the whole basis at once; the second keeps accepted
        vectors orthogonal to working accuracy even when the first cancels
        most of ``v`` ("twice is enough").
    """
    w = np.array(v, dtype=np.complex128)
    if w.ndim != 1:
        raise ValueError(f"candidate vector must be 1-dimensional, got shape {w.shape}")
    Q = np.asarray(basis, dtype=np.complex128)
    if Q.shape == (0,):
        Q = Q.reshape(0, w.shape[0])
    if Q.ndim != 2 or Q.shape[1] != w.shape[0]:
        raise ValueError("candidate vector dimension does not match the basis")
    norm0 = float(np.linalg.norm(w))
    for _ in range(2):
        # coefficients vdot(q_k, w) = conj(q_k . conj(w)), without copying conj(Q)
        w -= Q.T @ np.conj(Q @ np.conj(w))
    r = float(np.linalg.norm(w))
    if r <= tol * max(1.0, norm0):
        return GsOutcome(False, None, r)
    return GsOutcome(True, w / r, r)


def svd(A) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full singular value decomposition of a (possibly rectangular) matrix.

    Parameters
    ----------
    A : array_like
        Complex m x n matrix.

    Returns
    -------
    (W, sigma, V) : tuple
        ``A = W[:, :k] @ diag(sigma) @ V[:, :k].conj().T`` with
        ``k = min(m, n)``, sigma real, nonnegative and descending, and W
        (m x m), V (n x n) unitary even for singular input.
    """
    A = np.array(A, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    W, sigma, Vh = np.linalg.svd(A, full_matrices=True)
    return W, sigma, Vh.conj().T


def polar_unitary(X) -> Tuple[np.ndarray, np.ndarray]:
    """Unitary polar factor and Hermitian positive part with ``X = Uf @ P``.

    The factors come from :func:`svd` (``Uf = W V*``, ``P = V diag(sigma) V*``),
    which pins down a genuine unitary ``Uf`` even when ``X`` is singular.
    """
    X = as_operator(X)
    W, sigma, V = svd(X)
    Uf = W @ V.conj().T
    P = (V * sigma) @ V.conj().T
    P = 0.5 * (P + P.conj().T)
    return Uf, P


def hermitian_eigvals(A) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Raises
    ------
    ValueError
        If ``max |A - A*|`` exceeds ``1e-8 * (1 + max |A|)``.
    """
    A = as_operator(A)
    herm_gap = max_abs(A - A.conj().T)
    if herm_gap > 1e-8 * (1.0 + max_abs(A)):
        raise ValueError(f"matrix is not Hermitian (asymmetry {herm_gap:.3e})")
    return np.linalg.eigvalsh(0.5 * (A + A.conj().T))
