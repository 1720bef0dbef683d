"""The block decider against the arithmetic it replaced, and the passes it takes.

A block of offers takes one classical pass against the basis, and a second,
as one gathered product, only for the rows that kept less than
``ONE_PASS_SHARE`` (1/sqrt 2) of their norm; its rows are then decided in
order, runs of fresh rows by one Householder QR each.  ``two_pass_block``
always runs both passes on every row and decides every row on its own.  The
two may part only where a row's residuals straddle its limit within
rounding, and the rows accepted must be orthonormal and orthogonal to the
basis.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocktrid.kernel as kernel
from blocktrid.basis import run_program
from blocktrid.kernel import (DEPENDENCE_TOL, FACTORED_MAX_DIM, FACTORED_RUN, FIRST_ROWS,
                              ONE_PASS_SHARE, mgs_append)
from blocktrid.words import direct_sum_program, joint_cyclic_program, staircase_program
from reference_executor import two_pass_block
from test_executor_reference import make_input

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
    assert_decides_as_two_passes_do(Q, block * scale, tol)


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(FACTORED_RUN + FIRST_ROWS, 96),
    k_share=st.floats(0.0, 0.5),
    fresh=st.integers(FIRST_ROWS + 1, 2 * FACTORED_RUN + FIRST_ROWS),
    tail=st.integers(1, 12),
    kind=st.sampled_from(["duplicate", "near_span"]),
    scale=st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e),
    tol=st.sampled_from([0.0, DEPENDENCE_TOL, 0.5]),
    seed=st.integers(0, 2 ** 32 - 1),
)
# longer than a run: the factored prefix takes a whole run and part of the
# next, which stops at the first duplicate; the fallback decides the rest
@example(d=96, k_share=0.2, fresh=FACTORED_RUN + 12, tail=8, kind="duplicate", scale=1.0,
         tol=DEPENDENCE_TOL, seed=0)
@example(d=64, k_share=0.0, fresh=FACTORED_RUN - 4, tail=12, kind="near_span", scale=1e6,
         tol=0.0, seed=1)
def test_factored_runs_decide_as_two_passes_do(d, k_share, fresh, tail, kind, scale, tol,
                                               seed):
    # fresh rows, which the factorization decides, then rows that stop it:
    # repeats of a fresh row, or combinations of the basis and the fresh rows
    rng = np.random.default_rng(seed)
    Q, head = offer_block(rng, d, round(k_share * d), fresh, {"fresh"})
    if kind == "duplicate":
        tail_rows = head[rng.integers(fresh, size=tail)] * np.exp(2j * np.pi * rng.random((tail, 1)))
    else:
        span = np.vstack([Q, head])
        tail_rows = gaussian(rng, tail, len(span)) @ span + 1e-9 * gaussian(rng, tail, d)
    assert_decides_as_two_passes_do(Q, np.vstack([head, tail_rows]) * scale, tol)


def assert_decides_as_two_passes_do(Q, block, tol):
    d = block.shape[1]
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


def factorizations(monkeypatch):
    """Records, per factorization, its run's length and the rows it decided."""
    runs = []
    factor_run = kernel._factor_run

    def counting(block, lo, hi, n, raw, limits):
        decided = factor_run(block, lo, hi, n, raw, limits)
        runs.append((hi - lo, len(decided)))
        return decided

    monkeypatch.setattr(kernel, "_factor_run", counting)
    return runs


@pytest.mark.parametrize("d, m", [(64, 5), (64, 36), (64, 37), (128, 9), (128, 81),
                                  (FACTORED_MAX_DIM, 100)])
def test_fresh_rows_past_the_first_are_factored_in_runs(d, m, monkeypatch):
    rng = np.random.default_rng(m)
    Q, block = offer_block(rng, d, 8, m, {"fresh"})
    runs = factorizations(monkeypatch)
    outcomes = mgs_append(Q, block, DEPENDENCE_TOL)
    assert all(out.accepted for out in outcomes)
    # the first rows are decided row by row; every other row by one of
    # ceil((m - FIRST_ROWS) / FACTORED_RUN) factorizations, none cut short
    assert len(runs) == math.ceil((m - FIRST_ROWS) / FACTORED_RUN)
    assert all(length == decided <= FACTORED_RUN for length, decided in runs)
    assert sum(decided for _, decided in runs) == m - FIRST_ROWS


@pytest.mark.parametrize("kinds", [{"in_span"}, {"near_span"}, {"duplicate"}])
def test_rows_in_the_span_are_never_factored(kinds, monkeypatch):
    rng = np.random.default_rng(6)
    Q, block = offer_block(rng, 64, 24, 40, kinds)
    if kinds == {"duplicate"}:
        block[:] = block[0] * np.exp(2j * np.pi * rng.random((40, 1)))
    runs = factorizations(monkeypatch)
    mgs_append(Q, block, DEPENDENCE_TOL)
    assert runs == []


def test_wide_blocks_are_decided_row_by_row(monkeypatch):
    rng = np.random.default_rng(7)
    Q, block = offer_block(rng, FACTORED_MAX_DIM + 1, 8, 40, {"fresh"})
    runs = factorizations(monkeypatch)
    assert all(out.accepted for out in mgs_append(Q, block, DEPENDENCE_TOL))
    assert runs == []


@pytest.mark.parametrize("program", [staircase_program, joint_cyclic_program,
                                     direct_sum_program])
@pytest.mark.parametrize("d", [20, 64, 128])
def test_a_build_on_a_normal_input_stops_at_most_one_factorization_short(program, d,
                                                                         monkeypatch):
    rng = np.random.default_rng(d)
    T = make_input("normal", d, rng)
    kwargs = {"seed_vector": gaussian(rng, d)} if program is joint_cyclic_program else {}
    runs = factorizations(monkeypatch)
    run_program([T], program(), **kwargs)
    assert sum(decided < length for length, decided in runs) <= 1


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
