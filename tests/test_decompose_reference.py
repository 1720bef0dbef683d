"""``decompose`` against a per-seed reference build.

The reference closes one standard seed at a time under T and T*, each on the
orthogonal complement of the summands found before it, with the same
``mgs_append`` offers in the same order.  The single-build ``decompose`` must
give the same basis, matrix and summand sizes, bit for bit.
"""

import numpy as np
import pytest

import blocktrid.transforms as transforms
from blocktrid import conjugate, decompose
from blocktrid.kernel import DEPENDENCE_TOL, as_operator, mgs_append, unit_vector


def reference_decompose(T, tol=DEPENDENCE_TOL):
    """(basis as columns, summand sizes) of the per-seed direct-sum build."""
    T = as_operator(T)
    d = T.shape[0]
    Ts = T.conj().T.copy()
    B = np.zeros((d, d), dtype=np.complex128)
    k = 0
    dims = []

    def offer(candidate):
        nonlocal k
        out = mgs_append(B[:k], candidate, tol)
        if out.accepted:
            B[k] = out.vector
            k += 1

    for s in range(d):
        if k == d:
            break
        k0 = k
        offer(unit_vector(d, s))
        # T f_m, then T* f_m, for every vector of this summand until it closes
        m = k0
        while m < k < d:
            offer(T @ B[m])
            if k < d:
                offer(Ts @ B[m])
            m += 1
        if k > k0:
            dims.append(k - k0)
    return B[:k].T, dims


def _unitary(rng, d):
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, _ = np.linalg.qr(Z)
    return Q


def _gaussian(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _family(name, d, rng):
    if name == "identity":
        return np.eye(d, dtype=np.complex128)
    if name == "zero":
        return np.zeros((d, d), dtype=np.complex128)
    if name == "diagonal":
        return np.diag(rng.standard_normal(d)).astype(np.complex128)
    if name == "rank_one":
        u, w = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        return np.outer(u, w.conj())
    if name == "jordan":
        return 2.0 * np.eye(d) + np.eye(d, k=1)
    if name == "permutation":
        return np.eye(d, dtype=np.complex128)[rng.permutation(d)]
    if name == "block_diagonal":
        T = np.zeros((d, d), dtype=np.complex128)
        for a in range(0, d, 3):
            b = min(a + 3, d)
            T[a:b, a:b] = _gaussian(rng, b - a)
        return T
    if name == "weakly_coupled":
        h = d // 2
        T = np.zeros((d, d), dtype=np.complex128)
        T[:h, :h] = _gaussian(rng, h)
        T[h:, h:] = _gaussian(rng, d - h)
        return T + 1e-9 * _gaussian(rng, d)
    if name == "normal":
        Q = _unitary(rng, d)
        return Q @ np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d)) @ Q.conj().T
    if name == "gaussian":
        return _gaussian(rng, d)
    raise ValueError(name)


FAMILIES = ("identity", "zero", "diagonal", "rank_one", "jordan", "permutation",
            "block_diagonal", "weakly_coupled", "normal", "gaussian")


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 7, 20, 64])
def test_decompose_is_bitwise_the_per_seed_build(name, d):
    T = _family(name, d, np.random.default_rng(1000 + d))
    U, dims = reference_decompose(T)
    res = decompose(T)
    assert res.dims == dims
    assert np.array_equal(res.basis_change, U)
    assert np.array_equal(res.matrix, conjugate(T, U))
    assert [s.extras["offset"] for s in res.summands] == np.cumsum([0] + dims[:-1]).tolist()


def test_reference_splits_the_families_it_is_meant_to():
    # guards the reference itself: the families above really exercise
    # one-dimensional, several and single summands
    rng = np.random.default_rng(7)
    assert reference_decompose(_family("identity", 5, rng))[1] == [1] * 5
    assert reference_decompose(_family("block_diagonal", 7, rng))[1] == [3, 3, 1]
    assert reference_decompose(_family("gaussian", 6, rng))[1] == [6]


def test_decompose_makes_one_build(monkeypatch):
    calls = []
    run = transforms.run_program

    def counting(*args, **kwargs):
        calls.append(args[1].kind)
        return run(*args, **kwargs)

    monkeypatch.setattr(transforms, "run_program", counting)
    res = decompose(np.eye(6))
    assert res.dims == [1] * 6
    assert calls == ["direct_sum"]
