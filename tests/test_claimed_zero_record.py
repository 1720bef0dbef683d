"""One record per claimed zero.

Every entry a block pattern leaves out of its support is a claimed zero, the
tails of the positive-block patterns and the triangular corners included, and
the report checks it once: as a ``pattern_violations`` entry at the
threshold.  From a matrix that meets its pattern and its block checks
exactly, setting one entry outside the support to δ must give exactly one
failing record, at that entry, when |δ| is above the threshold, and none
when it is not, for the band, positive-block and triangular patterns in
both orientations.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blocktrid import GENERAL, BlockSchedule, block_band, block_slices, polar_blocks, tri_blocks
from blocktrid.transforms import SparsifiedForm
from blocktrid.verify import Check, full_report

PATTERNS = {
    "band": lambda s, d, alt: block_band(s, d),
    "polar": polar_blocks,
    "tri": tri_blocks,
}


def _clean(name, schedule, d, rng):
    """A Gaussian matrix on the primary pattern's support whose cut squares,
    for the positive-block pattern, are Hermitian positive semidefinite."""
    i, j = np.ogrid[1:d + 1, 1:d + 1]
    support = np.broadcast_to(PATTERNS[name](schedule, d, False).allowed(i, j), (d, d))
    M = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * support
    if name == "polar":
        slices = block_slices(schedule, d)
        for (r0, r1), (c0, _) in zip(slices, slices[1:]):
            n = r1 - r0
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M[r0:r1, c0:c0 + n] = X @ X.conj().T
    return M


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(PATTERNS)), alt=st.booleans(),
       sizes=st.lists(st.integers(1, 4), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1),
       threshold=st.sampled_from([1e-10, 1e-6, 1.0, 1e6]),
       factor=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
       phase=st.sampled_from([1, -1, 1j, -1j]), data=st.data())
def test_one_off_support_entry_gives_one_record(name, alt, sizes, seed, threshold,
                                                factor, phase, data):
    sizes = sorted(sizes)
    # clip the last block no further than the one before it, so the blocks
    # inside the matrix do not shrink, as the positive-block pattern requires
    d = sum(sizes) - data.draw(st.integers(0, sizes[-1] - sizes[-2]), label="clip")
    schedule = BlockSchedule(tuple(sizes), GENERAL)
    spec = PATTERNS[name](schedule, d, alt)
    M = _clean(name, schedule, d, np.random.default_rng(seed))
    if alt:
        M = M.conj().T.copy()
    i, j = np.ogrid[1:d + 1, 1:d + 1]
    off = np.argwhere(~np.broadcast_to(spec.allowed(i, j), (d, d)))
    assume(len(off))
    r, c = off[data.draw(st.integers(0, len(off) - 1), label="entry")]
    delta = factor * threshold

    def failures(M):
        form = SparsifiedForm(input=M, basis_change=np.eye(d, dtype=complex), matrix=M,
                              form_kind="stand-in", pattern=spec)
        return full_report(form, threshold).failures

    assert failures(M) == []
    M[r, c] = phase * delta
    expected = [Check("pattern_violations", (r + 1, c + 1), delta, threshold)]
    assert failures(M) == (expected if delta > threshold else [])
