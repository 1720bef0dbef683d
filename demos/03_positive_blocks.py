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
for (k, herm), (_, eig), (_, tail) in zip(
    rep.hermitian_residuals, rep.psd_min_eigs, rep.tail_residuals
):
    print(f"block {k}: Hermitian drift {herm:.1e}, "
          f"min eigenvalue {eig:+.3f}, tail {tail:.1e}")
print(f"passing: {form.passing}")
print()

# the mirrored variant stacks the positive square below the diagonal
alt = polar_sparsify(T, alt=True)
print(f"alt variant pattern {alt.pattern.kind}, passing: {alt.passing}")

# U M U* gives T back from an orthonormal U, so M is unitarily similar to T
print(f"reconstruction residual {alt.report.reconstruction_residual:.1e}, "
      f"unitarity residual {alt.report.unitarity_residual:.1e}")
