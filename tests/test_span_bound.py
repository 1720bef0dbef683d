"""The span values of ``basis_checks`` are certified upper bounds.

For U = Q + δF, with Q unitary and F Gaussian, ε = ``unitarity_residual(U)``
bounds ‖U*U - I‖_F and so ‖U*U - I‖₂.  Whenever ε <= 1/3, the value reported
for each (n, m) must be at least the least-squares distance from e_n to the
span of U's first m columns, the distance the value stands for.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blocktrid.kernel import unitarity_residual
from blocktrid.verify import basis_checks
from reference_span import lstsq_distance


def _gaussian(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       log_delta=st.floats(-10.0, -1.0), data=st.data())
def test_reported_span_value_bounds_the_exact_distance(d, seed, log_delta, data):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(_gaussian(rng, d))
    U = Q + 10.0 ** log_delta / d * _gaussian(rng, d)
    assume(unitarity_residual(U) <= 1 / 3)
    bounds = data.draw(st.lists(st.tuples(st.integers(1, d), st.integers(0, d)),
                                min_size=1, max_size=8))
    _, spans = basis_checks(U, bounds)
    for n, m, r in spans:
        assert r >= lstsq_distance(U, n, m)
