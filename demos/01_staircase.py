"""
Staircase form of a single matrix
=================================

Every complex square matrix is unitarily similar to a "staircase" matrix:
row n holds nothing past column 3n, column n holds nothing past row 3n-1.
The unitary comes from orthonormalizing the stream

    e_1,  T f_1,  T* f_1,  e_2,  T f_2,  T* f_2,  e_3, ...

and the bound follows from counting: by the time e_n has entered, at most
3n - 2 vectors were accepted.
"""

import numpy as np

from blocktrid import pattern_text, staircase

# the 5x5 band matrix whose staircase form comes out exactly sparse
T = np.array(
    [
        [1, 1, 1, 0, 0],
        [1, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
    ],
    dtype=complex,
)

form = staircase(T)
print("input support:")
print(pattern_text(T, form.pattern))
print()
print("staircase form (note the empty (3,1) corner):")
print(np.array_str(form.matrix.real, precision=3, suppress_small=True))
print()

# the verification report re-checks every claim on the finished matrix
rep = form.report
print(f"pattern {rep.pattern_kind}: {len(rep.pattern_violations)} violations")
# the two similarity values are upper bounds on Frobenius norms, sketched
# from eight seeded probes; rep.certificate states the failure probability
print(f"unitarity residual      {rep.unitarity_residual:.2e}")
print(f"reconstruction residual {rep.reconstruction_residual:.2e}")

# spanning is part of the theorem: e_n lies in the span of f_1 .. f_3n
for n, m, r in rep.span_residuals:
    print(f"e_{n} within span(f_1..f_{m}): residual {r:.1e}")
print()

# a random dense matrix lands in the same pattern
rng = np.random.default_rng(0)
R = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
dense = staircase(R)
print("random 12x12, staircase support ('*' nonzero, '.' allowed zero):")
print(pattern_text(dense.matrix, dense.pattern))
print(f"passing: {dense.passing}")
