"""The exact similarity residuals that the sketched certificates bound:
``U*U - I`` and ``U M U* - T`` formed in full, d^3 products each.

``kernel.unitarity_residual`` and the report's ``reconstruction_residual``
are certified upper bounds on the Frobenius norms below; tests that check
orthonormality or reconstruction to a fixed accuracy read these instead.
"""

import numpy as np


def _unitarity_defect(U):
    U = np.asarray(U, dtype=np.complex128)
    return U.conj().T @ U - np.eye(U.shape[1])


def _reconstruction_defect(T, U, M):
    U = np.asarray(U, dtype=np.complex128)
    return U @ np.asarray(M) @ U.conj().T - np.asarray(T)


def _max_abs(A) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


def unitarity_max(U) -> float:
    """``max |U*U - I|``."""
    return _max_abs(_unitarity_defect(U))


def unitarity_fro(U) -> float:
    """``||U*U - I||_F``."""
    return float(np.linalg.norm(_unitarity_defect(U)))


def reconstruction_max(T, U, M) -> float:
    """``max |U M U* - T|``."""
    return _max_abs(_reconstruction_defect(T, U, M))


def reconstruction_fro(T, U, M) -> float:
    """``||U M U* - T||_F``."""
    return float(np.linalg.norm(_reconstruction_defect(T, U, M)))
