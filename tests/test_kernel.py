import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blocktrid.kernel import (
    DEPENDENCE_TOL,
    adjoint,
    as_operator,
    hermitian_eigvals,
    max_abs,
    mgs_append,
    polar_unitary,
    svd,
    unit_vector,
    unitarity_residual,
)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_as_operator_validation():
    A = as_operator([[1, 2], [3, 4]])
    assert A.dtype == np.complex128
    with pytest.raises(ValueError):
        as_operator([1, 2, 3])
    with pytest.raises(ValueError):
        as_operator([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        as_operator([[np.nan, 0], [0, 1]])


def test_adjoint_and_helpers():
    A = np.array([[1 + 2j, 3], [4j, 5]])
    assert_allclose(adjoint(A), np.array([[1 - 2j, -4j], [3, 5]]))
    assert max_abs(np.zeros((0, 3))) == 0.0
    assert max_abs([[3, -4j]]) == 4.0
    e = unit_vector(4, 2)
    assert e[2] == 1.0 and np.count_nonzero(e) == 1
    with pytest.raises(ValueError):
        unit_vector(4, 4)
    assert unitarity_residual(np.eye(3)) == 0.0
    assert unitarity_residual(2 * np.eye(2)) == pytest.approx(3.0)


def test_mgs_append_builds_orthonormal_basis():
    rng = np.random.default_rng(11)
    for trial in range(50):
        d = int(rng.integers(2, 15))
        basis = []
        for _ in range(d):
            out = mgs_append(basis, random_matrix(rng, d)[0])
            assert out.accepted
            basis.append(out.vector)
        Q = np.column_stack(basis)
        assert unitarity_residual(Q) < 1e-13


def test_mgs_append_rejects_dependent_vectors():
    rng = np.random.default_rng(12)
    for trial in range(50):
        d = int(rng.integers(3, 12))
        m = int(rng.integers(1, d))
        basis = []
        for _ in range(m):
            out = mgs_append(basis, random_matrix(rng, d)[0])
            basis.append(out.vector)
        coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = sum(c * b for c, b in zip(coeffs, basis))
        out = mgs_append(basis, v)
        assert not out.accepted
        assert out.vector is None
        assert out.residual_norm <= DEPENDENCE_TOL * max(1.0, np.linalg.norm(v))


def test_mgs_append_nearly_dependent_stays_orthogonal():
    # second projection pass keeps the accepted vector orthogonal even when
    # the candidate is within 1e-8 of the span
    rng = np.random.default_rng(13)
    for trial in range(20):
        d = 10
        basis = []
        for _ in range(5):
            basis.append(mgs_append(basis, random_matrix(rng, d)[0]).vector)
        stray = random_matrix(rng, d)[0]
        v = basis[0] + 1e-8 * stray
        out = mgs_append(basis, v)
        assert out.accepted
        overlaps = [abs(np.vdot(b, out.vector)) for b in basis]
        assert max(overlaps) < 1e-12


def test_mgs_append_row_array_matches_list():
    rng = np.random.default_rng(14)
    d = 12
    B = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        # a combination of the rows built so far, then a fresh vector; the
        # empty basis is the (0, d) view B[:0]
        dependent = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) @ B[:k]
        for v, accept in ((dependent, False), (random_matrix(rng, d)[0], True)):
            as_array = mgs_append(B[:k], v)
            as_list = mgs_append(list(B[:k]), v)
            assert as_array.accepted == as_list.accepted == accept
            assert abs(as_array.residual_norm - as_list.residual_norm) <= 1e-14
        assert np.allclose(as_array.vector, as_list.vector, rtol=0, atol=1e-14)
        B[k] = as_array.vector
    assert unitarity_residual(B.T) < 1e-13


def test_mgs_append_dimension_mismatch():
    basis = [unit_vector(3, 0)]
    with pytest.raises(ValueError):
        mgs_append(basis, np.ones(4))
    with pytest.raises(ValueError):
        mgs_append([], np.ones((2, 2)))
    with pytest.raises(ValueError):
        mgs_append(np.zeros((0, 3)), np.ones(4))


def test_svd_frozen_examples():
    # nilpotent shift: singular values 2, 0
    W, s, V = svd([[0, 2], [0, 0]])
    assert_allclose(s, [2.0, 0.0], atol=1e-14)
    # column [3,4]: singular values 5, 0
    W, s, V = svd([[3, 0], [4, 0]])
    assert_allclose(s, [5.0, 0.0], atol=1e-14)
    assert unitarity_residual(W) < 1e-14
    # Jordan block: squared singular values are (3 +- sqrt(5))/2
    W, s, V = svd([[1, 1], [0, 1]])
    assert_allclose(s, [1.6180339887498949, 0.6180339887498949], atol=1e-14)
    # diagonal with phases
    W, s, V = svd(np.diag([3j, -4]))
    assert_allclose(s, [4.0, 3.0], atol=1e-14)


def test_svd_reconstruction_and_unitarity():
    rng = np.random.default_rng(21)
    cases = []
    for trial in range(120):
        d = int(rng.integers(1, 14))
        A = random_matrix(rng, d)
        if trial % 3 == 0:
            r = max(1, d // 2)
            A = A[:, :r] @ random_matrix(rng, d)[:r, :]
        cases.append(A)
    # wide blocks as the polar step factors them, a tall one, and
    # rectangular inputs of rank one and zero
    cases.append(random_matrix(rng, 6)[:2])
    cases.append(random_matrix(rng, 6)[:, :3])
    cases.append(np.outer(random_matrix(rng, 3)[0], random_matrix(rng, 7)[0]))
    cases.append(np.zeros((2, 6)))
    for A in cases:
        W, s, V = svd(A)
        m, n = A.shape
        assert W.shape == (m, m) and V.shape == (n, n) and s.shape == (min(m, n),)
        assert unitarity_residual(W) < 1e-12
        assert unitarity_residual(V) < 1e-12
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)
        S = np.zeros((m, n))
        np.fill_diagonal(S, s)
        assert max_abs(W @ S @ V.conj().T - A) < 1e-11 * (1 + max_abs(A))


def test_svd_matches_reference_singular_values():
    rng = np.random.default_rng(22)
    for trial in range(60):
        d = int(rng.integers(1, 14))
        A = random_matrix(rng, d)
        _, s, _ = svd(A)
        assert_allclose(s, np.linalg.svd(A, compute_uv=False), atol=1e-11)


def test_svd_gram_eigenvalue_oracle():
    # sigma^2 must be the spectrum of A*A; checked through the characteristic
    # polynomial of the 3x3 Gram matrix, independent of any factorization
    A = np.array([[1, 2, 0], [0, 1j, 1], [1, 0, -1]], dtype=complex)
    _, s, _ = svd(A)
    G = A.conj().T @ A
    for val in s**2:
        M = G - val * np.eye(3)
        det = (
            M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
            - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
            + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
        )
        assert abs(det) < 1e-9


def test_polar_unitary_frozen_example():
    Uf, P = polar_unitary([[3, 0], [4, 0]])
    assert_allclose(P, [[5.0, 0.0], [0.0, 0.0]], atol=1e-13)
    assert unitarity_residual(Uf) < 1e-13
    assert_allclose(Uf @ P, [[3.0, 0.0], [4.0, 0.0]], atol=1e-13)


def test_polar_unitary_properties():
    rng = np.random.default_rng(31)
    for trial in range(80):
        d = int(rng.integers(1, 12))
        X = random_matrix(rng, d)
        if trial % 4 == 0:
            X[:, : d // 2] = 0
        Uf, P = polar_unitary(X)
        assert unitarity_residual(Uf) < 1e-12
        assert max_abs(P - P.conj().T) == 0.0
        assert np.min(hermitian_eigvals(P)) > -1e-10 * max(1.0, max_abs(P))
        assert max_abs(Uf @ P - X) < 1e-11 * (1 + max_abs(X))


def test_hermitian_eigvals_frozen_examples():
    assert_allclose(hermitian_eigvals([[2, 1], [1, 2]]), [1.0, 3.0], atol=1e-14)
    assert_allclose(hermitian_eigvals([[0, -1j], [1j, 0]]), [-1.0, 1.0], atol=1e-14)
    ring = np.ones((3, 3)) - np.eye(3)
    assert_allclose(hermitian_eigvals(ring), [-1.0, -1.0, 2.0], atol=1e-13)
    assert_allclose(hermitian_eigvals([[7.5]]), [7.5])


def test_hermitian_eigvals_matches_reference():
    rng = np.random.default_rng(32)
    for trial in range(80):
        d = int(rng.integers(1, 14))
        B = random_matrix(rng, d)
        H = B + B.conj().T
        assert_allclose(hermitian_eigvals(H), np.linalg.eigvalsh(H), atol=1e-11)


def test_hermitian_eigvals_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_eigvals([[0, 1], [0, 0]])


def test_trace_is_preserved_by_eigvals():
    rng = np.random.default_rng(33)
    for trial in range(30):
        d = int(rng.integers(2, 10))
        B = random_matrix(rng, d)
        H = B + B.conj().T
        ev = hermitian_eigvals(H)
        assert abs(np.sum(ev) - np.trace(H).real) < 1e-10 * (1 + abs(np.trace(H)))
