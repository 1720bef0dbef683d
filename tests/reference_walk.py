"""The triangular and positive-block forms the slow way: each walk down
the band written out with dense products.

The staircase form of T (of T* for ``alt``) gives U and Mb = U* T U.  The
partitions are counted here, not read from a schedule.  Triangular: on the
partition 1, 2, 6, 18, ..., with V_1 = [1], each V_{k+1} is the Q of the
complete QR of [B V_k | A* V_k], B and A the blocks of Mb below and right
of diagonal block k.  Positive-block: on the canonical partition, whose
boundaries 1, 3, 9, ... are kept while three times the boundary fits in
the dimension, with V_1 = I, each V_{k+1} is X diag(W*, I) from the SVD
V_k* A = W S X*.  V is then assembled as a dense matrix, and W = U V and
M = V* Mb V are plain dense products (M conjugate-transposed for ``alt``).
"""

import numpy as np

from blocktrid import staircase


def tri_partition(d):
    """0-based (start, stop) of the blocks 1, 2, 6, 18, ... clipped at d."""
    out, start, size = [], 0, 1
    while start < d:
        out.append((start, min(start + size, d)))
        start += size
        size = 2 if size == 1 else 3 * size
    return out


def reference_walk(T, alt=False):
    """(W, M, qr_inputs): the form's basis change and matrix, and the
    matrices [B V_k | A* V_k] the walk factored, in order."""
    T = np.asarray(T, dtype=np.complex128)
    stair = staircase(np.ascontiguousarray(T.conj().T) if alt else T)
    U, Mb = stair.basis_change, stair.matrix
    blocks = tri_partition(T.shape[0])
    V = np.zeros(Mb.shape, dtype=np.complex128)
    Vk = np.eye(blocks[0][1], dtype=np.complex128)
    V[:len(Vk), :len(Vk)] = Vk
    qr_inputs = []
    for (r0, r1), (c0, c1) in zip(blocks, blocks[1:]):
        X = np.hstack([Mb[c0:c1, r0:r1] @ Vk, Mb[r0:r1, c0:c1].conj().T @ Vk])
        qr_inputs.append(X)
        Vk = np.linalg.qr(X, mode="complete")[0]
        V[c0:c1, c0:c1] = Vk
    M = V.conj().T @ Mb @ V
    return U @ V, (M.conj().T if alt else M), qr_inputs


def polar_partition(d):
    """0-based (start, stop) of the canonical blocks 1, 2, 6, 18, ... with
    the tail merged: boundary s = 1, 3, 9, ... is kept while 3s <= d."""
    bounds, s = [0], 1
    while 3 * s <= d:
        bounds.append(s)
        s *= 3
    return list(zip(bounds, bounds[1:] + [d]))


def polar_walk(U, Mb, alt=False):
    """(U V, V* Mb V) for the positive-block V of Mb, V dense; the matrix is
    conjugate-transposed for ``alt``."""
    blocks = polar_partition(Mb.shape[0])
    V = np.zeros(Mb.shape, dtype=np.complex128)
    Vk = np.eye(blocks[0][1], dtype=np.complex128)
    V[:len(Vk), :len(Vk)] = Vk
    for (r0, r1), (c0, c1) in zip(blocks, blocks[1:]):
        W, _, Xh = np.linalg.svd(Vk.conj().T @ Mb[r0:r1, c0:c1])
        Vk = Xh.conj().T
        Vk[:, :r1 - r0] = Vk[:, :r1 - r0] @ W.conj().T
        V[c0:c1, c0:c1] = Vk
    M = V.conj().T @ Mb @ V
    return U @ V, (M.conj().T if alt else M)


def reference_polar(T, alt=False):
    """(W, M): the positive-block form's basis change and matrix."""
    T = np.asarray(T, dtype=np.complex128)
    stair = staircase(np.ascontiguousarray(T.conj().T) if alt else T)
    return polar_walk(stair.basis_change, stair.matrix, alt)
