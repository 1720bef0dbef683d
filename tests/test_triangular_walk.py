"""The triangular form as a QR walk down the block tridiagonal band.

``tri_sparsify`` builds the staircase basis U, reads U* T U on the partition
1, 2, 6, 18, ... and conjugates by a block diagonal V, one complete QR per
block.  On the inputs the raw triangular word stream failed (normal inputs,
graded and weakly coupled inputs at d = 128, and 1e-6·T), and on the
degenerate ones, both orientations must pass with unitarity and
reconstruction under their limits.  The property tests draw normal and
rank-deficient inputs up to d = 64, and also read V = U* (UV) back to check
that every V_k is unitary and that V is block diagonal on the partition.
On a grid of families, dimensions and scales, and on random inputs, the form
must repeat ``reference_walk``, the walk written out with dense products, to
rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrid import adjoint, block_slices, staircase, tri_sparsify
from blocktrid.verify import RECONSTRUCTION_REL, UNITARITY_LIMIT
from reference_walk import reference_walk

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
FAMILIES = ("gaussian", "normal", "rank_one", "jordan", "identity", "zero", "graded",
            "direct_sum")
# block ends of the partition sit at 1, 3, 9, 27: the grid has single blocks,
# full last blocks and clipped ones
DIMS = (1, 2, 3, 4, 5, 9, 10, 16, 33)


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _normal(rng, d):
    q, _ = np.linalg.qr(_gaussian(rng, d, d))
    return (q * _gaussian(rng, d)) @ q.conj().T


def _direct_sum(rng, d, coupling):
    T = coupling * _gaussian(rng, d, d)
    half = d // 2
    T[:half, :half] = _gaussian(rng, half, half)
    T[half:, half:] = _gaussian(rng, d - half, d - half)
    return T


def _assert_passes(T):
    for alt in (False, True):
        form = tri_sparsify(T, alt=alt)
        rep = form.report
        assert form.passing, (alt, rep.failures[:3])
        assert rep.unitarity_residual <= UNITARITY_LIMIT, alt
        assert rep.reconstruction_residual <= RECONSTRUCTION_REL * (1 + rep.input_norm_max), alt


def _walk(T, alt):
    """The block unitary V = U* W of the form, with U the staircase basis of
    T (or T*) and W the form's basis change, and the partition's slices."""
    form = tri_sparsify(T, alt=alt)
    U = staircase(adjoint(T) if alt else T).basis_change
    return U.conj().T @ form.basis_change, block_slices(form.schedule, T.shape[0])


@pytest.mark.parametrize("d", [16, 64, 128])
def test_normal_inputs_pass(d):
    _assert_passes(_normal(np.random.default_rng(d), d))


def test_graded_input_passes_at_128():
    rng = np.random.default_rng(128)
    _assert_passes(_gaussian(rng, 128, 128) * np.logspace(0, -8, 128))


def test_weakly_coupled_direct_sum_passes_at_128():
    _assert_passes(_direct_sum(np.random.default_rng(129), 128, 1e-9))


@pytest.mark.parametrize("d", [64, 128])
def test_small_scale_passes(d):
    _assert_passes(1e-6 * _gaussian(np.random.default_rng(d + 1), d, d))


@pytest.mark.parametrize("family", ["zero", "identity", "jordan", "rank_one"])
def test_degenerate_inputs_pass(family):
    rng = np.random.default_rng(7)
    d = 33
    T = {"zero": np.zeros((d, d)), "identity": np.eye(d), "jordan": np.eye(d, k=1),
         "rank_one": np.outer(_gaussian(rng, d), _gaussian(rng, d).conj())}[family]
    _assert_passes(T)


def _draw_input(kind, d, rank, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return _normal(rng, d)
    return _gaussian(rng, d, rank) @ _gaussian(rng, rank, d)


_inputs = st.tuples(st.sampled_from(["normal", "rank_deficient"]), st.integers(1, 64),
                    st.integers(0, 64), st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(case=_inputs)
def test_triangular_form_passes_on_normal_and_rank_deficient_inputs(case):
    kind, d, rank, seed = case
    _assert_passes(_draw_input(kind, d, min(rank, d - 1), seed))


@settings(max_examples=20, deadline=None)
@given(case=_inputs, alt=st.booleans())
def test_each_block_of_the_walk_is_unitary_and_v_is_block_diagonal(case, alt):
    kind, d, rank, seed = case
    V, slices = _walk(_draw_input(kind, d, min(rank, d - 1), seed), alt)
    inside = np.zeros(V.shape, dtype=bool)
    for a, b in slices:
        inside[a:b, a:b] = True
        Vk = V[a:b, a:b]
        assert np.abs(Vk.conj().T @ Vk - np.eye(b - a)).max() <= 1e-12
    assert np.abs(V[~inside]).max(initial=0.0) <= 1e-12


def _grid_input(family, d, rng):
    if family == "gaussian":
        return _gaussian(rng, d, d)
    if family == "normal":
        return _normal(rng, d)
    if family == "rank_one":
        return np.outer(_gaussian(rng, d), _gaussian(rng, d).conj())
    if family == "jordan":
        return np.eye(d, k=1, dtype=np.complex128)
    if family == "identity":
        return np.eye(d, dtype=np.complex128)
    if family == "zero":
        return np.zeros((d, d), dtype=np.complex128)
    if family == "graded":
        return _gaussian(rng, d, d) * np.logspace(0, -8, d)
    # two reducing blocks on interleaved coordinates
    T = np.zeros((d, d), dtype=np.complex128)
    odd, even = np.arange(0, d, 2), np.arange(1, d, 2)
    T[np.ix_(odd, odd)] = _gaussian(rng, len(odd), len(odd))
    T[np.ix_(even, even)] = _gaussian(rng, len(even), len(even))
    return T


def _assert_repeats_the_reference(T):
    # V is the same QR output on both sides; the products differ only in the
    # order BLAS sums the same terms
    scale = np.abs(T).max()
    for alt in (False, True):
        form = tri_sparsify(T, alt=alt)
        W, M, _ = reference_walk(T, alt)
        assert np.abs(form.basis_change - W).max() <= 1e-13, alt
        assert np.abs(form.matrix - M).max() <= 1e-13 * scale, alt


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", DIMS)
def test_triangular_walk_repeats_the_reference(family, d):
    T = _grid_input(family, d, np.random.default_rng(100 * d + FAMILIES.index(family)))
    for scale in SCALES:
        _assert_repeats_the_reference(scale * T)


def test_the_grid_reaches_every_kind_of_qr_input():
    # [B V_k | A* V_k] is taller than wide inside the partition and wider in
    # a clipped last block; the grid factors it at full rank, rank-deficient
    # and zero
    kinds = set()
    for family in FAMILIES:
        for d in (4, 10):
            for X in reference_walk(_grid_input(family, d, np.random.default_rng(d)))[2]:
                rank = np.linalg.matrix_rank(X)
                full = "full" if rank == min(X.shape) else "deficient" if rank else "zero"
                kinds.add(("wide" if X.shape[1] > X.shape[0] else "tall", full))
    assert {("tall", "full"), ("tall", "deficient"), ("tall", "zero"), ("wide", "full"),
            ("wide", "zero")} <= kinds


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), scale=st.sampled_from(SCALES),
       d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_triangular_walk_agrees_with_the_reference_on_random_inputs(family, scale, d, seed):
    _assert_repeats_the_reference(scale * _grid_input(family, d, np.random.default_rng(seed)))
