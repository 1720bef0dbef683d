"""The peak memory of one form call, in d x d complex arrays.

A form returns three d x d arrays: its private copy of the input, the basis
change and the matrix.  Only the form's entry copies its input; the layers
below it check theirs without a copy, build ``T*`` in one pass, and gather
only the span rows with a nonempty tail.  The limits hold the staircase
forms to two arrays above the input and the result, and the triangular
form, which also holds the staircase basis and the block tridiagonal
matrix while it walks the band, to four.
"""

import tracemalloc

import numpy as np
import pytest

import blocktrid as bt

D = 256

LIMITS = {"staircase": 5, "block_tridiagonalize": 5, "decompose": 5, "tri_sparsify": 7}


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_one_form_call_peaks_within_its_limit(name):
    rng = np.random.default_rng(0)
    T = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    form = getattr(bt, name)
    form(T)  # any cache a form fills is filled before the measured call
    tracemalloc.start()
    try:
        form(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * D * D) <= LIMITS[name]
