"""
Triangular sub-block structure
==============================

A finer sparsification keeps the block tridiagonal band but forces each
off-diagonal block into a triangular corner.  It is built from the block
tridiagonal form: the staircase basis read on the partition 1, 2, 6, 18, ...
gives the band, and a walk down the band picks one unitary V_k per diagonal
block.  With B and A the blocks below and right of diagonal block k, the
complete QR of [B V_k | A* V_k] gives V_{k+1}, which turns B into an upper
triangular square over zeros and A into (free | lower triangular | zero).
"""

import numpy as np

from blocktrid import (block_band, block_slices, check_pattern, pattern_text, staircase,
                       tri_sparsify)

rng = np.random.default_rng(14)
T = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
form = tri_sparsify(T)
slices = block_slices(form.schedule, 9)
print(f"9x9 random: partition {form.schedule.describe()}, "
      f"{len(form.report.pattern_violations)} violations")

# the walk's unitary: the staircase basis times V = diag(V_1, V_2, V_3)
V = staircase(T).basis_change.conj().T @ form.basis_change
inside = np.zeros((9, 9), dtype=bool)
for a, b in slices:
    inside[a:b, a:b] = True
a, b = slices[2]
V3 = V[a:b, a:b]
print(f"  V is block diagonal: largest entry outside its blocks "
      f"{np.abs(V[~inside]).max():.1e}")
print(f"  V_3 ({b - a}x{b - a}) has {np.count_nonzero(np.abs(V3) > 1e-12)} nonzero entries, "
      f"|V_3* V_3 - I| = {np.abs(V3.conj().T @ V3 - np.eye(b - a)).max():.1e}")
print()

# the corners: '*' an entry above the threshold, '.' an allowed zero, ' ' a
# claimed zero; inside the band the claimed zeros are the triangular corners
print(pattern_text(form.matrix, form.pattern))
band = block_band(form.schedule, 9)
corners = [hit for hit in check_pattern(form.matrix, form.pattern, 1e-300)
           if band.allowed(*hit[:2])]
i, j, worst = max(corners, key=lambda hit: hit[2])
print(f"  {len(corners)} corner entries, the worst |M({i},{j})| = {worst:.1e}, "
      f"threshold {form.report.threshold:g}")
print()

# the mirrored variant puts the corners on the other side of the band
alt = tri_sparsify(T, alt=True)
print(f"alt variant pattern {alt.pattern.kind}, passing: {alt.passing}")
