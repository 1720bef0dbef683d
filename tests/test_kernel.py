import math
import warnings

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
    svd,
    unit_vector,
    unitarity_residual,
)
from reference_executor import reference_offer
from reference_similarity import unitarity_fro, unitarity_max


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
    # U*U - I = 3I: the bound holds the exact Frobenius norm 3·sqrt(2)
    assert unitarity_fro(2 * np.eye(2)) == pytest.approx(3 * math.sqrt(2))
    assert unitarity_residual(2 * np.eye(2)) >= unitarity_fro(2 * np.eye(2))


@pytest.mark.parametrize("d", [1, 7, 64])
def test_unitarity_residual_equals_the_product_minus_the_identity(d):
    # the certificate's contract: the bound is at least the exact Frobenius
    # norm of U*U - I, which is at least its largest entry
    rng = np.random.default_rng(d)
    Q, _ = np.linalg.qr(random_matrix(rng, d))
    tampered = Q.copy()
    tampered[:, d // 2] *= 1 + 1e-9
    tampered[0, -1] += 3e-7j
    for U in (Q, tampered):
        assert unitarity_residual(U) >= unitarity_fro(U) >= unitarity_max(U)
    assert unitarity_residual(tampered) > unitarity_residual(Q)
    assert unitarity_residual(np.eye(d)[::-1]) == 0.0


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
        assert unitarity_max(Q) < 1e-13


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
    assert unitarity_max(B.T) < 1e-13


def test_mgs_append_dimension_mismatch():
    basis = [unit_vector(3, 0)]
    with pytest.raises(ValueError):
        mgs_append(basis, np.ones(4))
    with pytest.raises(ValueError):
        mgs_append(basis, np.ones((2, 4)))
    with pytest.raises(ValueError):
        mgs_append([], np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        mgs_append(np.zeros((0, 3)), np.ones(4))


def _offer_one_at_a_time(Q, V):
    """Outcomes of offering the rows of V in order, each to the basis so far."""
    basis = list(Q)
    outs = []
    for v in V:
        out = mgs_append(np.array(basis).reshape(-1, V.shape[1]), v)
        outs.append(out)
        if out.accepted:
            basis.append(out.vector)
    return outs


def _mixed_block(rng, Q, d, m):
    """m candidate rows: fresh ones, combinations of Q, combinations of
    earlier rows (with and without a 1e-8 stray part), and zero rows."""
    rows = []
    for _ in range(m):
        kind = rng.integers(5) if rows else 0
        if kind == 0:
            rows.append(random_matrix(rng, d)[0])
        elif kind == 1 and len(Q):
            rows.append((rng.standard_normal(len(Q)) + 0j) @ Q)
        elif kind == 2:
            rows.append(sum(rng.standard_normal() * r for r in rows))
        elif kind == 3:
            rows.append(rows[-1] + 1e-8 * random_matrix(rng, d)[0])
        else:
            rows.append(np.zeros(d, dtype=np.complex128))
    return np.array(rows).reshape(m, d)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 9, 20])
def test_mgs_append_block_decides_rows_as_offered_in_order(m):
    rng = np.random.default_rng(15 + m)
    for trial in range(10):
        d = int(rng.integers(m + 2, 40))
        k = int(rng.integers(0, d - m))
        Q = np.linalg.qr(random_matrix(rng, d))[0].T[:k].copy()
        V = _mixed_block(rng, Q, d, m)
        block = mgs_append(Q, V)
        single = _offer_one_at_a_time(Q, V)
        assert isinstance(block, list) and len(block) == m
        assert [o.accepted for o in block] == [o.accepted for o in single]
        kept = [o.vector for o in block if o.accepted]
        for a, b in zip(block, single):
            if a.accepted:
                # a row that keeps 1e-8 of its norm carries its rounding
                # amplified about 1e8 times
                assert np.allclose(a.vector, b.vector, rtol=0, atol=1e-6)
                assert a.residual_norm == pytest.approx(b.residual_norm, rel=1e-6)
        # the accepted rows extend Q to an orthonormal set
        G = np.vstack([Q, *kept]).reshape(-1, d)
        assert np.max(np.abs(G.conj() @ G.T - np.eye(len(G))), initial=0.0) < 1e-13


def test_mgs_append_vector_is_the_single_offer_bit_for_bit():
    # a vector is decided with the arithmetic of the one-offer-at-a-time
    # reference
    rng = np.random.default_rng(16)
    d = 30
    Q = np.linalg.qr(random_matrix(rng, d))[0].T[:12].copy()
    for v in (random_matrix(rng, d)[0], Q[3] + 1e-9 * random_matrix(rng, d)[0], 2 * Q[0]):
        accepted, vector, r = reference_offer(Q, v, DEPENDENCE_TOL)
        out = mgs_append(Q, v)
        assert out.accepted == accepted
        assert out.residual_norm == r
        assert (out.vector is None) == (vector is None)
        assert vector is None or np.array_equal(out.vector, vector)


@pytest.mark.parametrize("shape", [(7,), (1, 7), (3, 7), (4, 7)])
def test_mgs_append_never_writes_its_inputs(shape):
    rng = np.random.default_rng(19)
    Q = np.linalg.qr(random_matrix(rng, 7))[0].T[:3].copy()
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if v.ndim == 2 and len(v) > 2:
        v[-1] = 0.0  # a rejected row among accepted ones
    before = (Q.tobytes(), v.tobytes())
    outs = mgs_append(Q, v)
    assert (Q.tobytes(), v.tobytes()) == before
    assert any(o.accepted for o in (outs if len(shape) == 2 else [outs]))


def test_mgs_append_block_stays_orthogonal_through_cancellation():
    # each near copy keeps about 1e-8 of its norm after the in-block pass;
    # the extra pass keeps it orthogonal to the basis and to its original
    rng = np.random.default_rng(17)
    d = 24
    Q = np.linalg.qr(random_matrix(rng, d))[0].T[:6].copy()
    fresh = random_matrix(rng, d)[:4]
    V = np.vstack([fresh, fresh + 1e-8 * random_matrix(rng, d)[:4]])
    outs = mgs_append(Q, V)
    assert all(o.accepted for o in outs)
    G = np.vstack([Q] + [o.vector for o in outs])
    assert np.max(np.abs(G.conj() @ G.T - np.eye(len(G)))) < 1e-13


@pytest.mark.parametrize("tol", [-1.0, math.nan, 10.0, math.inf, 1.0])
def test_mgs_append_rejects_bad_tolerance(tol):
    # a negative or NaN tol accepts zero residuals, and one of 1 or more
    # rejects every unit seed, so no build could finish
    for candidate in (np.ones(3), np.ones((2, 3))):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            mgs_append(np.eye(3)[:1], candidate, tol)


def test_mgs_append_zero_tolerance_rejects_only_zero_residuals():
    assert not mgs_append(np.eye(3)[:1], np.eye(3)[0], 0.0).accepted
    assert mgs_append(np.eye(3)[:1], np.eye(3)[1] * 1e-150, 0.0).accepted


def test_mgs_append_rejects_a_nan_residual_without_a_warning():
    # a NaN residual is not above the limit, so it is rejected like an
    # infinite one, before anything is divided by it
    Q = np.eye(4, dtype=np.complex128)[:1]
    nan_row = np.array([np.nan, 1, 0, 0])
    block = np.array([[0, 1, 0, 0], nan_row, [0, 0, 1, 0], [0, np.nan, 0, 1],
                      [0, 0, 0, 1]], dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = mgs_append(Q, nan_row)
        pair = mgs_append(Q, np.array([nan_row] * 2))
        outs = mgs_append(Q, block)
        infinite = mgs_append(Q, np.array([0, np.inf, 0, 0]))
    for out in (single, *pair, outs[1], outs[3]):
        assert not out.accepted and out.vector is None and math.isnan(out.residual_norm)
    assert not infinite.accepted and infinite.residual_norm == math.inf
    # the finite rows of the block are decided as if the NaN rows were not there
    assert [o.accepted for o in outs] == [True, False, True, False, True]
    kept = np.array([o.vector for o in outs if o.accepted])
    assert np.array_equal(kept, np.eye(4)[1:])


def test_svd_frozen_examples():
    # nilpotent shift: singular values 2, 0
    W, s, V = svd([[0, 2], [0, 0]])
    assert_allclose(s, [2.0, 0.0], atol=1e-14)
    # column [3,4]: singular values 5, 0
    W, s, V = svd([[3, 0], [4, 0]])
    assert_allclose(s, [5.0, 0.0], atol=1e-14)
    assert unitarity_max(W) < 1e-14
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
        assert unitarity_max(W) < 1e-12
        assert unitarity_max(V) < 1e-12
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


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_hermitian_eigvals_judges_selfadjointness_relative_to_scale(scale):
    # Q diag(λ) Q* is Hermitian only to roundoff, a gap that grows with the
    # scale; a Gaussian is far from Hermitian at every scale, however tiny
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(random_matrix(rng, 16))
    H = scale * (Q @ np.diag(rng.standard_normal(16)) @ Q.conj().T)
    assert 0 < max_abs(H - H.conj().T) <= 1e-14 * scale
    assert_allclose(hermitian_eigvals(H), np.linalg.eigvalsh(H), rtol=0, atol=1e-12 * scale)
    with pytest.raises(ValueError, match="not selfadjoint"):
        hermitian_eigvals(scale * random_matrix(rng, 16))


def test_trace_is_preserved_by_eigvals():
    rng = np.random.default_rng(33)
    for trial in range(30):
        d = int(rng.integers(2, 10))
        B = random_matrix(rng, d)
        H = B + B.conj().T
        ev = hermitian_eigvals(H)
        assert abs(np.sum(ev) - np.trace(H).real) < 1e-10 * (1 + abs(np.trace(H)))
