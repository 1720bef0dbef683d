"""
Families and direct sums
========================

One basis can sparsify several operators at once: interleaving the words of
all family members widens the staircase by a fixed stride per member.  In
the other direction, a matrix that secretly conjugates a block diagonal can
be split back into summands, each in its own joint staircase.
"""

import numpy as np

from blocktrid import decompose, family_staircase, pattern_text

rng = np.random.default_rng(6)


def rand(n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# two general operators share a basis at stride 5
A, B = rand(6), rand(6)
U, forms = family_staircase([A, B])
print(f"general pair: stride {forms[0].extras['stride']}, shared basis "
      f"unitary to {np.abs(U.conj().T @ U - np.eye(6)).max():.1e}")
for f in forms:
    print(f"  member {f.extras['family_index']}: "
          f"{len(f.report.pattern_violations)} violations, passing {f.passing}")
print()

# selfadjoint members allow the tighter stride 3
H1, H2 = rand(6), rand(6)
H1 = H1 + H1.conj().T
H2 = H2 + H2.conj().T
U, forms = family_staircase([H1, H2], selfadjoint=True)
print(f"selfadjoint pair: stride {forms[0].extras['stride']}")
print(pattern_text(forms[0].matrix, forms[0].pattern))
print()

# undo a direct sum hidden by shuffling coordinates
D = np.zeros((8, 8), dtype=complex)
D[:3, :3] = rand(3)
D[3:, 3:] = rand(5)
perm = rng.permutation(8)
T = D[np.ix_(perm, perm)]
res = decompose(T)
print(f"shuffled blocks of sizes 3 and 5 recovered as {res.dims}")
for s in res.summands:
    print(f"  summand at offset {s.extras['offset']}: dim {s.dim}")
# one report on the whole basis change: coupling entries are claimed zeros
print(f"{len(res.report.pattern_violations)} entries off the {res.pattern.kind} "
      f"pattern, passing {res.passing}")
print(pattern_text(res.matrix, res.pattern))
print()

# a generic conjugation leaves no coordinate seed inside a proper
# reducing subspace, so the same blocks come back as one summand
Q = np.linalg.qr(rand(8))[0]
res = decompose(Q @ D @ Q.conj().T)
print(f"generic conjugation of the same sum: "
      f"{len(res.summands)} summand of dim {res.summands[0].dim}")
