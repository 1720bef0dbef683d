"""``offer_row`` against the reference offer, bit for bit.

The executor offers each candidate of a small block through ``offer_row``,
passes of ``w -= conj(B @ conj(w)) @ B`` on the basis rows ``B``, a second
one only when the first cancelled.  ``reference_offer`` conjugates the
candidate and the coefficients too.  Both compute the same products in the
same order and stop at the same pass, so on any orthonormal basis, at any
scale and for zero, in-span and nearly in-span candidates, the decision, the
residual norm and the accepted vector must agree bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktrid.kernel import DEPENDENCE_TOL, offer_row
from reference_executor import reference_offer

KINDS = ("fresh", "zero", "in_span", "near_span")


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 64),
    k_share=st.floats(0.0, 1.0),
    kind=st.sampled_from(KINDS),
    scale=st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e),
    tol=st.sampled_from([0.0, DEPENDENCE_TOL, 0.5]),
    seed=st.integers(0, 2 ** 32 - 1),
)
# a zero candidate is rejected before any product, with residual 0.0
@example(d=6, k_share=0.5, kind="zero", scale=1.0, tol=DEPENDENCE_TOL, seed=0)
@example(d=6, k_share=0.0, kind="zero", scale=1.0, tol=0.0, seed=0)
def test_offer_row_is_the_reference_offer_bit_for_bit(d, k_share, kind, scale, tol, seed):
    rng = np.random.default_rng(seed)
    k = round(k_share * d)
    Q = np.linalg.qr(gaussian(rng, d, d))[0].T[:k].copy()
    if kind == "zero":
        v = np.zeros(d, dtype=np.complex128)
    elif kind == "in_span":
        v = gaussian(rng, k) @ Q
    elif kind == "near_span":
        v = gaussian(rng, k) @ Q + 1e-9 * gaussian(rng, d)
    else:
        v = gaussian(rng, d)
    v *= scale
    accepted, vector, r = reference_offer(Q, v, tol)
    w = v.copy()
    out = offer_row(Q, w, tol)
    assert (out.accepted, out.residual_norm) == (accepted, r)
    if accepted:
        assert out.vector is w
        assert w.tobytes() == vector.tobytes()
    else:
        assert out.vector is None
