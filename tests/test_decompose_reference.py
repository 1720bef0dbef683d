"""``decompose`` against a per-seed reference build.

The reference closes one standard seed at a time under T and T*, each on the
orthogonal complement of the summands found before it, offering one vector
at a time to ``mgs_append`` in the order the direct-sum stream does.  The
single-build ``decompose`` must make the same offers with the same accept
decisions and give the same summand sizes and offsets.  Its blocked
Gram-Schmidt rounds differently, so the bases agree to the tolerance that
the build's smallest accepted relative residual sets, not bit for bit.
"""

import numpy as np
import pytest

import blocktrid.transforms as transforms
from blocktrid import conjugate, decompose
from blocktrid.kernel import DEPENDENCE_TOL, as_operator, mgs_append, unit_vector
from blocktrid.words import direct_sum_program
from reference_executor import basis_tolerance


def reference_decompose(T, tol=DEPENDENCE_TOL):
    """(basis as columns, summand sizes, offers) of the per-seed direct-sum
    build; offers lists (instruction trace, accepted) in offer order."""
    T = as_operator(T)
    d = T.shape[0]
    Ts = T.conj().T.copy()
    B = np.zeros((d, d), dtype=np.complex128)
    k = 0
    dims = []
    offers = []

    def offer(trace, candidate):
        nonlocal k
        out = mgs_append(B[:k], candidate, tol)
        offers.append((trace, out.accepted))
        if out.accepted:
            B[k] = out.vector
            k += 1

    for s in range(d):
        if k == d:
            break
        k0 = k
        offer(f"seed {s + 1}", unit_vector(d, s))
        # T f_m, then T* f_m, for every vector of this summand until it closes
        m = k0
        while m < k < d:
            offer(f"apply 1 0 {m + 1}", T @ B[m])
            if k < d:
                offer(f"apply 1 1 {m + 1}", Ts @ B[m])
            m += 1
        if k > k0:
            dims.append(k - k0)
    return B[:k].T, dims, offers


def decompose_with_build(T, monkeypatch):
    """``decompose(T)`` and the one build it ran."""
    builds = []
    run = transforms.run_program

    def keep(*args, **kwargs):
        builds.append(run(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(transforms, "run_program", keep)
    res = decompose(T)
    monkeypatch.undo()
    (build,) = builds
    return res, build


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
def test_decompose_repeats_the_per_seed_build(name, d, monkeypatch):
    T = _family(name, d, np.random.default_rng(1000 + d))
    U, dims, offers = reference_decompose(T)
    res, build = decompose_with_build(T, monkeypatch)
    assert [(e.instruction, e.accepted) for e in build.log.entries] == offers
    assert res.dims == dims
    assert [s.extras["offset"] for s in res.summands] == np.cumsum([0] + dims[:-1]).tolist()
    tol = basis_tolerance([as_operator(T)], build)
    assert np.max(np.abs(res.basis_change - U)) <= tol
    assert np.array_equal(res.matrix, conjugate(T, res.basis_change))


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
        calls.append(args[1])
        return run(*args, **kwargs)

    monkeypatch.setattr(transforms, "run_program", counting)
    res = decompose(np.eye(6))
    assert res.dims == [1] * 6
    assert calls == [direct_sum_program()]
