"""The block decider against the arithmetic it replaced, and the passes it takes.

A block of offers takes one classical pass against the basis, and a second,
as one gathered product, only for the rows that kept less than
``ONE_PASS_SHARE`` (1/sqrt 2) of their norm; its rows are then decided in
order.  ``two_pass_block`` always runs both passes on every row.  The two
may part only where a row's residuals straddle its limit within rounding,
and the rows accepted must be orthonormal and orthogonal to the basis.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocktrid.kernel as kernel
from blocktrid.kernel import DEPENDENCE_TOL, ONE_PASS_SHARE, mgs_append
from reference_executor import two_pass_block

KINDS = ("fresh", "in_span", "near_span", "duplicate")


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def offer_block(rng, d, k, m, kinds):
    """k orthonormal basis rows and m candidate rows of the given kinds: a
    duplicate repeats an earlier candidate times a unit phase."""
    Q = np.linalg.qr(gaussian(rng, d, d))[0].T[:k].copy()
    block = gaussian(rng, m, d)
    for i, kind in enumerate(rng.choice(sorted(kinds), m)):
        if kind in ("in_span", "near_span"):
            block[i] = gaussian(rng, k) @ Q
            if kind == "near_span":
                block[i] += 1e-9 * gaussian(rng, d)
        elif kind == "duplicate" and i:
            block[i] = block[rng.integers(i)] * np.exp(2j * np.pi * rng.random())
    return Q, block


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(4, 96),
    k_share=st.floats(0.0, 1.0),
    m_share=st.floats(0.0, 1.0),
    kinds=st.sets(st.sampled_from(KINDS), min_size=1),
    scale=st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e),
    tol=st.sampled_from([0.0, DEPENDENCE_TOL, 0.5]),
    seed=st.integers(0, 2 ** 32 - 1),
)
# an empty basis: the pass subtracts exact zeros, and every row keeps its norm
@example(d=8, k_share=0.0, m_share=1.0, kinds={"fresh"}, scale=1.0, tol=DEPENDENCE_TOL,
         seed=0)
# a full basis: every candidate is in the span
@example(d=8, k_share=1.0, m_share=0.5, kinds={"fresh"}, scale=1e12, tol=DEPENDENCE_TOL,
         seed=0)
@example(d=96, k_share=0.5, m_share=1.0, kinds={"fresh", "in_span", "near_span",
                                                 "duplicate"},
         scale=1e-12, tol=0.5, seed=1)
@example(d=40, k_share=0.3, m_share=0.6, kinds={"near_span", "duplicate"}, scale=1e6,
         tol=0.0, seed=2)
def test_block_decides_as_two_passes_do(d, k_share, m_share, kinds, scale, tol, seed):
    rng = np.random.default_rng(seed)
    k = round(k_share * d)
    m = 4 + round(m_share * (d - 4))
    Q, block = offer_block(rng, d, k, m, kinds)
    block *= scale
    norms = np.linalg.norm(block, axis=1)
    outcomes = mgs_append(Q, block, tol)
    residuals, accepted, _ = two_pass_block(Q, block, tol)
    for i, out in enumerate(outcomes):
        if out.accepted != accepted[i]:
            # both residuals straddle the limit within rounding; the rows
            # after this one are decided against different accepted rows
            limit = tol * max(1.0, norms[i])
            assert limit / 2 < min(residuals[i], out.residual_norm)
            assert max(residuals[i], out.residual_norm) < 2 * limit
            break
    # a residual at the rounding level of an in-span candidate, which a tol
    # of 0 accepts, has no direction left to keep orthogonal, and the rows
    # after it are projected against that noise: the two-pass reference
    # accepts it as well, so orthogonality is checked on the rows before it
    kept = []
    for out, size in zip(outcomes, norms):
        if out.accepted:
            if not out.residual_norm > 1e-12 * size:
                break
            kept.append(out.vector)
    kept = np.array(kept).reshape(-1, d)
    assert np.max(np.abs(Q.conj() @ kept.T), initial=0.0) <= 1e-13
    gram = kept.conj() @ kept.T - np.eye(len(kept))
    assert np.max(np.abs(gram), initial=0.0) <= 1e-13


def passes_against(Q, block, monkeypatch):
    """The number of rows in each pass of ``block`` against the basis Q."""
    passes = []
    project = kernel._project

    def counting(basis, W):
        if basis is Q:
            passes.append(len(W))
        project(basis, W)

    monkeypatch.setattr(kernel, "_project", counting)
    mgs_append(Q, block, DEPENDENCE_TOL)
    return passes


@pytest.mark.parametrize("kinds, second", [
    ({"fresh"}, 0),            # every row keeps its norm: one pass
    ({"in_span"}, 12),         # every row cancels: all of them pass twice
])
def test_only_the_rows_that_cancelled_take_a_second_pass(kinds, second, monkeypatch):
    rng = np.random.default_rng(3)
    Q, block = offer_block(rng, 32, 8, 12, kinds)
    assert passes_against(Q, block, monkeypatch) == [12] + ([second] if second else [])


def test_a_mixed_block_gathers_exactly_its_cancelled_rows(monkeypatch):
    rng = np.random.default_rng(4)
    Q, fresh = offer_block(rng, 32, 8, 6, {"fresh"})
    _, in_span = offer_block(np.random.default_rng(4), 32, 8, 6, {"in_span"})
    block = np.vstack([fresh, in_span])[np.random.default_rng(5).permutation(12)]
    projected = block - np.conj(np.conj(block) @ Q.T) @ Q
    cancelled = np.linalg.norm(projected, axis=1) < ONE_PASS_SHARE * np.linalg.norm(block, axis=1)
    assert cancelled.sum() == 6
    assert passes_against(Q, block, monkeypatch) == [12, 6]
