"""``offer_row`` against the arithmetic it replaced, and the passes it takes.

``offer_row`` runs its second classical pass only when the first cancelled,
keeping less than ``ONE_PASS_SHARE`` (1/sqrt 2) of the candidate's norm, and
decides a candidate of norm at most the limit before any product.
``two_pass_offer`` always runs both passes and decides on the second
residual.  The two may part only where their residuals straddle the limit
within rounding, and an accepted vector, after one pass or two, must be the
same direction to working accuracy and orthogonal to the basis.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktrid.kernel import DEPENDENCE_TOL, ONE_PASS_SHARE, offer_row
from reference_executor import reference_offer, two_pass_offer

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
# an empty basis: the first pass subtracts exact zeros and accepts
@example(d=5, k_share=0.0, kind="fresh", scale=1.0, tol=DEPENDENCE_TOL, seed=0)
# a full basis: every candidate is in the span
@example(d=5, k_share=1.0, kind="fresh", scale=1e12, tol=DEPENDENCE_TOL, seed=0)
@example(d=6, k_share=0.5, kind="zero", scale=1.0, tol=0.0, seed=0)
@example(d=6, k_share=0.5, kind="near_span", scale=1e-12, tol=0.5, seed=0)
def test_offer_row_decides_as_two_passes_do(d, k_share, kind, scale, tol, seed):
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
    norm = np.linalg.norm(v)
    limit = tol * max(1.0, norm)
    accepted, vector, r = two_pass_offer(Q, v, tol)
    out = offer_row(Q, v.copy(), tol)
    if out.accepted != accepted:
        # both residuals straddle the limit within rounding
        assert limit / 2 < min(r, out.residual_norm)
        assert max(r, out.residual_norm) < 2 * limit
        return
    if not accepted:
        return
    assert np.max(np.abs(out.vector - vector)) <= 1e-12
    assert out.residual_norm == pytest.approx(r, rel=1e-12)
    if out.residual_norm > 1e-12 * norm:
        # a residual at the rounding level of an in-span candidate, which a
        # tol of 0 accepts, has no direction left to keep orthogonal
        assert np.max(np.abs(Q.conj() @ out.vector), initial=0.0) <= 1e-13


class CountingRows(np.ndarray):
    """Basis rows that count the matrix-vector products taken with them."""

    def dot(self, other):
        self.products += 1
        return self.view(np.ndarray).dot(other)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert (ufunc, method) == (np.matmul, "__call__")
        self.products += 1
        plain = (x.view(np.ndarray) if isinstance(x, CountingRows) else x for x in inputs)
        return ufunc(*plain, **kwargs)


def products(Q, v, tol=DEPENDENCE_TOL):
    """Products ``offer_row`` takes with Q to decide v, after checking its
    outcome against ``reference_offer`` bit for bit."""
    rows = np.array(Q, dtype=np.complex128).view(CountingRows)
    rows.products = 0
    out = offer_row(rows, np.array(v, dtype=np.complex128), tol)
    accepted, vector, r = reference_offer(np.asarray(Q, dtype=np.complex128), v, tol)
    assert (out.accepted, out.residual_norm) == (accepted, r)
    assert out.vector is None or out.vector.tobytes() == vector.tobytes()
    return rows.products


def test_each_pass_is_taken_only_when_it_can_decide():
    rng = np.random.default_rng(7)
    d = 12
    E = np.eye(d, dtype=np.complex128)
    full = np.linalg.qr(gaussian(rng, d, d))[0].T
    Q = full[:6].copy()
    # an exactly orthogonal seed keeps its whole norm: one pass, accepted
    assert products(E[:6], E[8]) == 2
    # an exactly in-span seed is left at 0, and a combination of the basis
    # at rounding: one pass, rejected
    assert products(E[:6], E[3]) == 2
    assert products(Q, (3 - 4j) * Q[2] + 0.5 * Q[5]) == 2
    # a candidate mostly outside the span keeps more than ONE_PASS_SHARE of
    # its norm: one pass, accepted
    v = full[9] + 0.5 * Q[0]
    assert np.linalg.norm(full[9]) >= ONE_PASS_SHARE * np.linalg.norm(v)
    assert products(Q, v) == 2
    # a candidate near the span cancels in the first pass: two passes
    assert products(Q, Q[0] + 1e-3 * gaussian(rng, d)) == 4
    # a candidate of norm at most the limit is rejected before any product
    assert products(Q, np.zeros(d)) == 0
    assert products(Q, 1e-11 * E[0]) == 0
    assert products(Q, 0.4 * E[0], tol=0.5) == 0
