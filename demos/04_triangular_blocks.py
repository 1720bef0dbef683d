"""
Triangular sub-block structure
==============================

A finer sparsification keeps the block tridiagonal band but forces each
off-diagonal block into a triangular corner.  The basis comes from an
instruction stream over the words T, T* applied to seed vectors; linearly
dependent candidates are deleted and the stream renumbered, which is what
the run log records.
"""

import numpy as np

from blocktrid import block_band, check_pattern, tri_sparsify, tri_word_sequence


def shorthand(instr):
    if instr.kind == "seed":
        return "s%d" % instr.seed_index
    return ("T*%d" if instr.adjoint else "T%d") % instr.src


# the opening instructions of the stream, before any deletions
prefix = tri_word_sequence(27)
print("stream prefix:")
print("  " + " ".join(shorthand(w) for w in prefix[:9]))
print("  " + " ".join(shorthand(w) for w in prefix[9:]))
print()

rng = np.random.default_rng(14)
T = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
form = tri_sparsify(T)
print(f"9x9 random: schedule {form.schedule.describe()}, "
      f"{len(form.report.pattern_violations)} violations")
# each corner entry is a claimed zero of the pattern, checked once against
# the threshold; at a threshold near underflow the pattern check lists every
# one, and those inside the band are the corners
band = block_band(form.schedule, 9)
corners = [hit for hit in check_pattern(form.matrix, form.pattern, 1e-300)
           if band.allowed(*hit[:2])]
i, j, worst = max(corners, key=lambda hit: hit[2])
print(f"  {len(corners)} corner entries, the worst |M({i},{j})| = {worst:.1e}, "
      f"threshold {form.report.threshold:g}")
print()

# a rank-deficient input forces deletions; the log shows skipped ranges
zero_form = tri_sparsify(np.zeros((9, 9), dtype=complex))
print(f"T = 0 build: {len(zero_form.log.entries)} log entries, "
      f"basis change is identity: "
      f"{np.array_equal(zero_form.basis_change, np.eye(9))}")
ranges = [e for e in zero_form.log.entries if e.position_end > e.position]
print(f"  {len(ranges)} entries cover a whole run, e.g. positions "
      f"{ranges[0].position}..{ranges[0].position_end}")
print()

# the mirrored variant puts the corners on the other side of the band
alt = tri_sparsify(T, alt=True)
print(f"alt variant pattern {alt.pattern.kind}, passing: {alt.passing}")
