"""The distance a span value stands for, computed the slow way: the
least-squares residual of e_n against the first m columns of U, which needs
neither a unitary nor a square U."""

import numpy as np


def lstsq_distance(U, n, m) -> float:
    """Distance from e_n (1-based n) to the span of U's first m columns."""
    e = np.zeros(len(U), dtype=np.complex128)
    e[n - 1] = 1.0
    A = U[:, :m]
    return float(np.linalg.norm(A @ np.linalg.lstsq(A, e, rcond=None)[0] - e))
