"""The positive-block form as an SVD walk down the block tridiagonal band.

``polar_sparsify`` builds the staircase basis U, reads U* T U on the
canonical schedule and conjugates by a block diagonal V, one SVD per block,
applied block by block.  On the grid of families, dimensions and scales of
``test_triangular_walk.py``, and on random inputs, both orientations must
repeat ``reference_polar``, the walk written out with a dense V and dense
products, to rounding; ``polar_sparsify_tridiagonal`` on a band input must
repeat the same walk with U = I.  The property test reads V = U* (UV) back
to check that every V_k is unitary and that V is block diagonal on the
schedule's blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrid import (
    GENERAL,
    adjoint,
    block_slices,
    polar_sparsify,
    polar_sparsify_tridiagonal,
    schedule_for_dim,
    staircase,
)
from reference_walk import polar_partition, polar_walk, reference_polar
from test_triangular_walk import DIMS, FAMILIES, SCALES, _draw_input, _grid_input, _inputs


def _assert_repeats_the_reference(T):
    # V is the same SVD output on both sides; the products differ in the
    # order and the grouping of the sums
    scale = np.abs(T).max()
    for alt in (False, True):
        form = polar_sparsify(T, alt=alt)
        W, M = reference_polar(T, alt)
        assert np.abs(form.basis_change - W).max() <= 1e-13, alt
        assert np.abs(form.matrix - M).max() <= 1e-13 * scale, alt


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", DIMS)
def test_polar_walk_repeats_the_reference(family, d):
    T = _grid_input(family, d, np.random.default_rng(100 * d + FAMILIES.index(family)))
    for scale in SCALES:
        _assert_repeats_the_reference(scale * T)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), scale=st.sampled_from(SCALES),
       d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_polar_walk_agrees_with_the_reference_on_random_inputs(family, scale, d, seed):
    _assert_repeats_the_reference(scale * _grid_input(family, d, np.random.default_rng(seed)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", DIMS)
def test_tridiagonal_entry_repeats_the_reference_with_identity_basis(family, d):
    # the grid input with every entry outside the band of the canonical
    # blocks set to zero
    blocks = polar_partition(d)
    band = np.zeros((d, d), dtype=bool)
    for (a, _), (_, e) in zip(blocks, blocks[1:] + blocks[-1:]):
        band[a:e, a:e] = True
    T = _grid_input(family, d, np.random.default_rng(d + FAMILIES.index(family)))
    for scale in SCALES:
        Mb = np.where(band, scale * T, 0)
        form = polar_sparsify_tridiagonal(Mb, schedule_for_dim(d, GENERAL))
        V, M = polar_walk(np.eye(d), Mb)
        assert np.abs(form.basis_change - V).max() <= 1e-13, scale
        assert np.abs(form.matrix - M).max() <= 1e-13 * np.abs(Mb).max(), scale


@settings(max_examples=20, deadline=None)
@given(case=_inputs, alt=st.booleans())
def test_each_block_of_the_polar_walk_is_unitary_and_v_is_block_diagonal(case, alt):
    kind, d, rank, seed = case
    T = _draw_input(kind, d, min(rank, d - 1), seed)
    form = polar_sparsify(T, alt=alt)
    U = staircase(adjoint(T) if alt else T).basis_change
    V = U.conj().T @ form.basis_change
    inside = np.zeros(V.shape, dtype=bool)
    for a, b in block_slices(form.schedule, d):
        inside[a:b, a:b] = True
        Vk = V[a:b, a:b]
        assert np.abs(Vk.conj().T @ Vk - np.eye(b - a)).max() <= 1e-12
    assert np.abs(V[~inside]).max(initial=0.0) <= 1e-12
