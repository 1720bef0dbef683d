"""
Positive off-diagonal blocks
============================

Once a matrix is block tridiagonal, a second block-diagonal unitary can
reshape every block right of the diagonal into (P | 0) with P Hermitian
positive semidefinite.  Walking down the band, each step takes the unitary
polar factor of the previous block stacked over zeros.
"""

import numpy as np

from blocktrid import (
    BlockSchedule,
    GENERAL,
    block_band,
    check_pattern,
    polar_sparsify,
    polar_sparsify_tridiagonal,
)

# the 1x2 block (3 4) becomes (5 0): the Hermitian square root of 3^2+4^2
Mb = np.zeros((3, 3), dtype=complex)
Mb[0, 1:] = [3.0, 4.0]
form = polar_sparsify_tridiagonal(Mb, BlockSchedule((1, 2), GENERAL))
print("first block (3 4) ->", np.round(form.matrix[0, 1:].real, 12) + 0.0)
print()

rng = np.random.default_rng(2)
T = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
form = polar_sparsify(T)
rep = form.report
print(f"13x13 random, schedule {form.schedule.describe()}")
for (k, herm), (_, eig) in zip(rep.hermitian_residuals, rep.psd_min_eigs):
    print(f"block {k}: Hermitian drift {herm:.1e}, min eigenvalue {eig:+.3f}")

# each tail entry is a claimed zero of the pattern, checked once against the
# threshold; at a threshold near underflow the pattern check lists every
# one, and those inside the band are the tails
band = block_band(form.schedule, 13)
tails = [hit for hit in check_pattern(form.matrix, form.pattern, 1e-300)
         if band.allowed(*hit[:2])]
i, j, worst = max(tails, key=lambda hit: hit[2])
print(f"worst tail entry |M({i},{j})| = {worst:.1e}, "
      f"threshold {rep.threshold:g}")
print(f"passing: {form.passing}")
print()

# the mirrored variant stacks the positive square below the diagonal
alt = polar_sparsify(T, alt=True)
print(f"alt variant pattern {alt.pattern.kind}, passing: {alt.passing}")

# U M U* gives T back from an orthonormal U, so M is unitarily similar to T
print(f"reconstruction residual {alt.report.reconstruction_residual:.1e}, "
      f"unitarity residual {alt.report.unitarity_residual:.1e}")
