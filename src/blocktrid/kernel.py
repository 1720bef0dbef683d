"""Dense complex kernels shared by every sparsification pipeline.

All routines work on ``numpy`` arrays with dtype complex128 and are pure
functions of their inputs.  Gram-Schmidt is implemented here: classical
passes, with a second pass for a single offer only when the first cancelled
(:data:`ONE_PASS_SHARE`).  The singular value decomposition and the
Hermitian eigenvalues come from ``numpy.linalg``.

The two similarity checks, :func:`unitarity_residual` and
:func:`reconstruction_residual`, are sketched: each applies its residual
matrix E to k = ``PROBES`` complex Gaussian probes X and reports
``MARGIN * ||E X||_F / sqrt(k)``, a certified upper bound on ``||E||_F`` in
O(k d^2).  For E with singular values s_i, ``||E X||_F^2 = sum s_i^2 g_i``
with g_i independent Gamma(k, 1), so the bound falls below ``||E||_F`` of a
rank-one E with probability ``P(Gamma(k, 1) < k / MARGIN^2)``,
``FAILURE_PROBABILITY``.  The probes are drawn from a seed fixed by the
bytes of the matrix they probe, so equal inputs give equal bounds.
"""

from __future__ import annotations

import math
import threading
import zlib
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

#: Default relative tolerance deciding when a candidate vector is linearly
#: dependent on the basis built so far.
DEPENDENCE_TOL = 1e-10

#: A single offer whose first classical pass keeps at least this share of the
#: candidate's norm is decided by that pass: the residual is then orthogonal
#: to the basis to working accuracy, and a second pass would change it only
#: by rounding.  Below it, the pass cancelled, and a second pass restores
#: orthogonality ("twice is enough": the Daniel-Gragg-Kaufman-Stewart and
#: Kahan-Parlett test, analysed by Giraud, Langou & Rozložník, 2005).
ONE_PASS_SHARE = 1 / math.sqrt(2)

#: Probes per sketched residual, and the factor by which the reported bound
#: exceeds the probes' estimate of the residual's Frobenius norm.
PROBES = 8
MARGIN = 10.0

#: The chance that a sketched bound falls below the Frobenius norm of a
#: rank-one residual, P(Gamma(PROBES, 1) < PROBES / MARGIN^2) =
#: P(Gamma(8, 1) < 0.08) = 3.8755e-14, rounded up.
FAILURE_PROBABILITY = 3.9e-14

# One bit generator serves every draw: its whole state is set from the seed
# under the lock before each draw, so no draw depends on an earlier one.  A
# freshly seeded Generator costs more than the products it serves at d = 32.
_PROBE_BITS = np.random.PCG64(0)
_PROBE_RNG = np.random.Generator(_PROBE_BITS)
_PROBE_LOCK = threading.Lock()


def as_operator(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a nonempty square complex128 array, rejecting bad input.

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
    if A.size == 0:
        raise ValueError(f"{name} is empty; an operator needs dimension at least 1")
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


def probes(A) -> np.ndarray:
    """``len(A)`` x ``PROBES`` standard complex Gaussian probes (E|x|^2 = 1),
    drawn from a seed fixed by the CRC-32 of A's entries in row-major order."""
    seed = zlib.crc32(np.ascontiguousarray(A))
    with _PROBE_LOCK:
        _PROBE_BITS.state = {"bit_generator": "PCG64", "state": {"state": seed, "inc": 1},
                             "has_uint32": 0, "uinteger": 0}
        X = _PROBE_RNG.standard_normal((len(A), 2 * PROBES))
    return X.view(np.complex128) * math.sqrt(0.5)


def _certified_norm(R) -> float:
    """``MARGIN * ||R||_F / sqrt(k)`` for R = E X, the image of k probes X:
    an upper bound on ``||E||_F`` (see the module docstring); 0 for R = 0."""
    scale = max_abs(R)
    if not 0.0 < scale < math.inf:
        return scale
    # scaled first, so that squaring no entry overflows or underflows
    return MARGIN * scale * float(np.linalg.norm(R / scale)) / math.sqrt(R.shape[1])


def _adjoint_times(U, Z) -> np.ndarray:
    """U* Z as conj(U^T conj(Z)), without a d x d copy of U."""
    return np.conj(U.T @ np.conj(Z))


def unitarity_residual(U) -> float:
    """A certified upper bound on ``||U*U - I||_F`` for a square matrix, and so
    on ``||U*U - I||_2`` and ``max |U*U - I|``: ``MARGIN * ||U*(UX) - X||_F /
    sqrt(k)`` for the probes X of U.  An exactly unitary U, such as a
    permutation, reads 0."""
    U = as_operator(U, "basis change")
    X = probes(U)
    return _certified_norm(_adjoint_times(U, U @ X) - X)


def reconstruction_residual(T, U, M) -> float:
    """A certified upper bound on ``||U M U* - T||_F``: ``MARGIN *
    ||U(M(U*Y)) - TY||_F / sqrt(k)`` for the probes Y of T.  It does not
    repeat the products that built ``M = U* T U``, so it cannot cancel to
    zero by construction."""
    Y = probes(T)
    return _certified_norm(U @ (M @ _adjoint_times(U, Y)) - T @ Y)


class GsOutcome(NamedTuple):
    """Result of offering one candidate vector to a growing orthonormal basis,
    an immutable tuple; ``vector`` is None for a rejected candidate, and
    ``residual_norm`` is the residual norm at which the offer was decided:
    the candidate's own norm, or its norm after the last pass it took."""

    accepted: bool
    vector: Optional[np.ndarray]
    residual_norm: float


def check_tolerance(tol) -> None:
    """Raise ``ValueError`` unless the dependence tolerance lies in [0, 1).

    A negative or NaN tolerance accepts zero residuals, and one of 1 or more
    rejects every unit seed, so no basis could be completed.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"dependence tolerance must lie in [0, 1), got {tol!r}")


def offer_row(Q, w, tol: float) -> GsOutcome:
    """Offer the fresh candidate vector ``w`` to the orthonormal rows ``Q``.

    Each classical pass ``w -= conj(Q @ conj(w)) @ Q`` is two matrix-vector
    products, rounded exactly as the one-offer reference does.  The offer is
    decided at the first point its norms decide it, with ``limit = tol *
    max(1, ||w||)``: a candidate of norm at most ``limit`` is rejected before
    any product; after the first pass, a residual r1 at most ``limit`` is
    rejected and one of at least ``ONE_PASS_SHARE * ||w||`` is accepted;
    only a residual between the two, one that cancelled, gets the second
    pass, whose residual decides it.  A norm that is not above ``limit``,
    NaN included, rejects.  ``w`` is projected and, if accepted,
    normalized in place: the caller hands over a vector it does not read
    again.  ``tol`` is not checked here.
    """
    # _norm's arithmetic on views taken once: the passes write w in place
    re, im = w.real, w.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))
    limit = tol * max(1.0, norm)
    if not norm > limit:
        return GsOutcome(False, None, norm)
    for _ in range(2):
        # dot skips matmul's dispatch; the second product stays a matmul,
        # whose rounding against a one-row basis a dot would not repeat
        c = Q.dot(w.conj())
        np.conjugate(c, out=c)
        w -= c @ Q
        r = math.sqrt(re.dot(re) + im.dot(im))
        if r <= limit or r >= ONE_PASS_SHARE * norm:
            break
    if not r > limit:
        return GsOutcome(False, None, r)
    w /= r
    return GsOutcome(True, w, r)


def mgs_append(basis, v, tol: float = DEPENDENCE_TOL) -> Union[GsOutcome, List[GsOutcome]]:
    """Orthogonalize candidates against ``basis`` with classical Gram-Schmidt.

    Parameters
    ----------
    basis : array_like, shape (k, d)
        Pairwise orthonormal vectors stored as rows; a list of 1-D vectors
        works too, and an empty basis is a (0, d) array or an empty list.
    v : array_like, shape (d,) or (m, d)
        One candidate vector, or a block of m candidate rows in offer order.
    tol : float
        Dependence threshold, relative to ``max(1, ||v_i||)`` for the raw
        candidate ``v_i``; it must lie in [0, 1) (:func:`check_tolerance`).

    Returns
    -------
    GsOutcome, or a list of m of them for a (m, d) block, m = 1 included
        Accepted with the normalized residual vector, or rejected unless the
        residual norm at which the offer is decided exceeds ``tol * max(1,
        ||v_i||)``: a NaN residual is rejected.

    ``basis`` and ``v`` are never written: the candidates are copied.  A
    vector goes through :func:`offer_row`: one pass, and a second only when
    the first kept less than ``ONE_PASS_SHARE`` of its norm.  A block, of
    any number of rows, takes two passes of matrix products ("twice is
    enough"), then :func:`_decide_in_order` decides its rows in offer order,
    each against the rows of the block accepted before it.  A row that
    follows an accepted row and keeps less than 0.1 of its raw norm gets one
    more pass against the basis and every accepted row, since the rounding
    of the passes it cancelled in is then large next to its residual.
    """
    check_tolerance(tol)
    W = np.array(v, dtype=np.complex128)
    if W.ndim not in (1, 2):
        raise ValueError(f"candidates must be a vector or a block of rows, got shape {W.shape}")
    d = W.shape[-1]
    Q = np.asarray(basis, dtype=np.complex128)
    if Q.shape == (0,):
        Q = Q.reshape(0, d)
    if Q.ndim != 2 or Q.shape[1] != d:
        raise ValueError("candidate vector dimension does not match the basis")
    if W.ndim == 1:
        return offer_row(Q, W, tol)
    residuals, accepted = _decide_in_order(Q, W, tol)
    # the accepted rows lie packed at the front of W, in order
    packed = iter(W)
    return [GsOutcome(a, next(packed) if a else None, r) for a, r in zip(accepted, residuals)]


def _norm(w) -> float:
    """``np.linalg.norm`` of a complex vector, with the same arithmetic."""
    return math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))


def _project(Q, W) -> None:
    """One classical pass: remove from W, a vector or a block of rows, its
    components along the orthonormal rows of Q, in place."""
    # coefficients vdot(q_j, w) = conj(conj(w) . q_j), without copying conj(Q)
    W -= np.conj(np.conj(W) @ Q.T) @ Q


def _decide_in_order(Q, block, tol):
    """Project a block of rows against Q, then accept or reject its rows in
    order, packing each accepted row, normalized, at the front of ``block``
    (which the caller owns), so the rows accepted so far are ``block[:n]``.

    Returns two lists in row order: the residual norm at which each row was
    decided, and whether it was accepted, which it is only if the residual
    exceeds ``tol * max(1, ||row||)``: a NaN residual is rejected.  The raw
    norms and limits come from one stacked product, with the arithmetic of
    :func:`_norm` row by row.  Rows [lo, hi) are halved recursively: once
    [lo, mid) is decided, the rows accepted from it are projected out of
    [mid, hi) before that half is decided.  A row is packed at a slot no
    later than its own, whose row is decided already.
    """
    # a stack of row-by-column products takes one BLAS dot per row, the dot
    # of _norm's w.real.dot(w.real)
    re, im = block.real[:, None], block.imag[:, None]
    raw = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).reshape(-1)
    norms = raw.tolist()
    # fmax, like max(1.0, norm), reads a NaN norm as 1
    limits = (tol * np.fmax(1.0, raw)).tolist()
    for _ in range(2):
        _project(Q, block)
    residuals = []  # one per decided row, in order
    accepted = [False] * len(block)
    n = 0           # rows accepted so far, packed at block[:n]

    def decide(lo, hi):
        nonlocal n
        if hi - lo > 1:
            mid = (lo + hi) // 2
            start = n
            decide(lo, mid)
            if n > start:
                _project(block[start:n], block[mid:hi])
            decide(mid, hi)
        elif hi > lo:
            w = block[lo]
            r = _norm(w)
            if n and limits[lo] < r < 0.1 * norms[lo]:
                # w cancelled in the passes, and their rounding is large next to r;
                # one more pass restores orthogonality to every accepted row
                _project(Q, w)
                _project(block[:n], w)
                r = _norm(w)
            residuals.append(r)
            if r > limits[lo]:
                np.divide(w, r, out=block[n])
                n += 1
                accepted[lo] = True

    decide(0, len(block))
    # decide refers to itself; breaking that cycle frees the arrays it holds
    # on return instead of at the next garbage collection
    del decide
    return residuals, accepted


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


def require_selfadjoint(S: np.ndarray, name: str = "matrix") -> None:
    """Raise ``ValueError`` unless ``max |S - S*| <= 1e-8 * max |S|``.

    The limit scales with ``S``, so ``cS`` is accepted exactly when ``S``
    is, up to rounding, whatever the size of c != 0.
    """
    gap = max_abs(S - S.conj().T)
    if gap > 1e-8 * max_abs(S):
        raise ValueError(f"{name} is not selfadjoint (|S - S*| = {gap:.3e})")


def hermitian_eigvals(A) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Raises
    ------
    ValueError
        If ``A`` is not selfadjoint by :func:`require_selfadjoint`.
    """
    A = as_operator(A)
    require_selfadjoint(A)
    return np.linalg.eigvalsh(0.5 * (A + A.conj().T))
