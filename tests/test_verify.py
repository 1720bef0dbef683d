import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blocktrid import (
    BlockSchedule,
    GENERAL,
    block_band,
    block_slices,
    canonical_covering,
    canonical_schedule,
    check_pattern,
    family_stride,
    full_report,
    hessenberg_pattern,
    joint_cyclic_pattern,
    pattern_text,
    polar_blocks,
    schedule_for_dim,
    staircase_coarse,
    staircase_refined,
    tri_blocks,
    tri_sparsify,
)

S2 = math.sqrt(2.0)
EPS = np.finfo(np.float64).eps

# staircase form of the 5x5 all-band example, written out entrywise
M5 = 0.5 * np.array(
    [
        [4, 4, 0, 0, 0],
        [4, 4, S2, 0, 0],
        [0, 2 * S2, 2, 0, 0],
        [0, 0, -S2, 0, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=np.complex128,
)


class _Form:
    """Minimal stand-in carrying the attributes full_report reads."""

    def __init__(self, matrix, form_kind, pattern, schedule=None,
                 span_bounds=None, extras=None, input_matrix=None,
                 basis=None):
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        d = self.matrix.shape[0]
        self.input = self.matrix if input_matrix is None else np.asarray(
            input_matrix, dtype=np.complex128)
        self.basis_change = np.eye(d, dtype=np.complex128) if basis is None else basis
        self.form_kind = form_kind
        self.pattern = pattern
        self.schedule = schedule
        self.span_bounds = span_bounds or []
        self.extras = extras or {}


def test_zero_matrix_always_clean():
    Z = np.zeros((6, 6), dtype=np.complex128)
    for spec in (staircase_coarse(), staircase_refined(),
                 hessenberg_pattern(), joint_cyclic_pattern(4)):
        assert check_pattern(Z, spec) == []


def test_single_entry_violations():
    M = np.zeros((5, 5), dtype=np.complex128)
    M[3, 0] = 1.0
    hits = check_pattern(M, staircase_refined())
    assert hits == [(4, 1, 1.0)]
    # (4,1) breaks the coarse bound as well, (3,1) only the refined one
    assert check_pattern(M, staircase_coarse()) == [(4, 1, 1.0)]
    M2 = np.zeros((5, 5), dtype=np.complex128)
    M2[2, 0] = 1.0
    assert check_pattern(M2, staircase_coarse()) == []
    assert check_pattern(M2, staircase_refined()) == [(3, 1, 1.0)]


def test_staircase_fixture_is_clean():
    assert check_pattern(M5, staircase_coarse(), 1e-12) == []
    assert check_pattern(M5, staircase_refined(), 1e-12) == []


def test_refined_support_inside_coarse():
    coarse = staircase_coarse()
    refined = staircase_refined()
    for i in range(1, 201):
        for j in range(1, 201):
            if refined.allowed(i, j):
                assert coarse.allowed(i, j)


def test_coarse_support_inside_canonical_band():
    sched = canonical_schedule(5, 1, GENERAL)
    band = block_band(sched, 81)
    coarse = staircase_coarse()
    for i in range(1, 82):
        for j in range(1, 82):
            if coarse.allowed(i, j):
                assert band.allowed(i, j), (i, j)


def test_threshold_is_strict():
    M = np.zeros((5, 5), dtype=np.complex128)
    M[3, 0] = 5e-11
    assert check_pattern(M, staircase_refined(), 1e-10) == []
    assert check_pattern(M, staircase_refined(), 1e-12) == [(4, 1, 5e-11)]
    with pytest.raises(ValueError):
        check_pattern(M, staircase_refined(), 0.0)
    with pytest.raises(ValueError):
        check_pattern(M, staircase_refined(), -1.0)


def test_pattern_text_sketch():
    M = np.zeros((3, 3), dtype=np.complex128)
    M[0, 0] = 1.0
    M[2, 0] = 1.0
    sketch = pattern_text(M, staircase_refined())
    assert sketch == "*..\n...\nX.."


def test_family_stride_pattern():
    spec = family_stride(3)
    assert spec.allowed(2, 6)
    assert not spec.allowed(1, 4)
    assert not spec.allowed(4, 1)
    with pytest.raises(ValueError):
        family_stride(0)


def test_hessenberg_pattern_with_closure():
    full = hessenberg_pattern()
    assert full.allowed(4, 3)
    assert not full.allowed(5, 3)
    part = hessenberg_pattern(2)
    assert part.allowed(5, 3)      # past the cyclic block: unconstrained
    assert not part.allowed(3, 1)  # inside it: Hessenberg applies


def test_joint_cyclic_pattern_with_closure():
    spec = joint_cyclic_pattern(3)
    assert spec.allowed(2, 1)
    assert not spec.allowed(3, 1)   # i <= 2j fails
    assert not spec.allowed(1, 4)   # coupling block must vanish
    assert not spec.allowed(4, 2)
    assert spec.allowed(4, 4)
    assert spec.allowed(5, 4)


def test_block_band_violation_count():
    sched = BlockSchedule((1, 2, 6), GENERAL)
    band = block_band(sched, 9)
    ones = np.ones((9, 9), dtype=np.complex128)
    hits = check_pattern(ones, band)
    # blocks 1 and 3 are not adjacent: 1*6 entries on each side
    assert len(hits) == 12
    assert (1, 4, 1.0) in hits and (4, 1, 1.0) in hits


def test_block_band_short_schedule_rejected():
    with pytest.raises(ValueError):
        block_band(BlockSchedule((1, 2), GENERAL), 9)


def test_polar_pattern_small():
    sched = BlockSchedule((1, 2), GENERAL)
    ones = np.ones((3, 3), dtype=np.complex128)
    hits = check_pattern(ones, polar_blocks(sched, 3, alt=False))
    assert hits == [(1, 3, 1.0)]
    hits_alt = check_pattern(ones, polar_blocks(sched, 3, alt=True))
    assert hits_alt == [(3, 1, 1.0)]


def test_tri_pattern_small():
    sched = BlockSchedule((1, 2), GENERAL)
    ones = np.ones((3, 3), dtype=np.complex128)
    assert check_pattern(ones, tri_blocks(sched, 3, alt=False)) == [(3, 1, 1.0)]
    assert check_pattern(ones, tri_blocks(sched, 3, alt=True)) == [(1, 3, 1.0)]


def test_tri_pattern_nine_by_nine():
    sched = BlockSchedule((1, 2, 6), GENERAL)
    spec = tri_blocks(sched, 9, alt=False)
    # block pair (2,3): free columns 4..5, lower triangular 6..7, zero 8..9
    allowed_above = {(i, j) for i in (2, 3) for j in range(4, 10)
                     if spec.allowed(i, j)}
    assert allowed_above == {(2, 4), (2, 5), (3, 4), (3, 5),
                             (2, 6), (3, 6), (3, 7)}
    # below the diagonal: upper triangular square over zeros
    allowed_below = {(i, j) for i in range(4, 10) for j in (2, 3)
                     if spec.allowed(i, j)}
    assert allowed_below == {(4, 2), (4, 3), (5, 3)}


def test_report_identity_passes_and_serializes():
    form = _Form(np.eye(4), "staircase", staircase_refined(),
                 span_bounds=[(1, 3), (2, 4)])
    report = full_report(form)
    assert report.passing
    assert report.unitarity_residual == 0.0
    assert report.reconstruction_residual == 0.0
    assert report.span_residuals == [(1, 3, 0.0), (2, 4, 0.0)]
    payload = json.loads(report.to_json())
    assert payload["passing"] is True
    assert payload["form_kind"] == "staircase"
    assert payload["pattern"]["violations"] == []
    # deterministic serialization
    assert report.to_json() == full_report(form).to_json()


def test_report_flags_pattern_violation():
    M = np.zeros((4, 4), dtype=np.complex128)
    M[2, 0] = 1.0
    form = _Form(M, "staircase", staircase_refined())
    report = full_report(form)
    assert not report.passing
    assert report.pattern_violations == [(3, 1, 1.0)]
    payload = json.loads(report.to_json())
    assert payload["passing"] is False
    assert payload["pattern"]["violations"] == [[3, 1, 1.0]]


def test_report_flags_similarity_drift():
    # claim identity conjugation but hand over a different matrix
    form = _Form(np.eye(3), "staircase", staircase_refined(),
                 input_matrix=2.0 * np.eye(3))
    report = full_report(form)
    assert report.reconstruction_residual == 1.0
    assert report.trace_drifts[0] == 3.0
    assert not report.passing


def test_polar_report_blocks():
    sched = BlockSchedule((1, 2), GENERAL)
    M = np.array([[1, 5, 0], [0, 2, 0], [0, 0, 3]], dtype=np.complex128)
    form = _Form(M, "polar", polar_blocks(sched, 3), schedule=sched)
    report = full_report(form)
    assert report.hermitian_residuals == [(1, 0.0)]
    assert report.psd_min_eigs == [(1, 5.0)]
    assert report.tail_residuals == [(1, 0.0)]
    assert report.passing

    bad = M.copy()
    bad[0, 1] = -2.0
    rep2 = full_report(_Form(bad, "polar", polar_blocks(sched, 3), schedule=sched))
    assert rep2.psd_min_eigs == [(1, -2.0)]
    assert not rep2.passing

    tail = M.copy()
    tail[0, 2] = 0.5
    rep3 = full_report(_Form(tail, "polar", polar_blocks(sched, 3), schedule=sched))
    assert rep3.tail_residuals == [(1, 0.5)]
    assert rep3.pattern_violations == [(1, 3, 0.5)]
    assert not rep3.passing


def test_polar_report_hermitian_drift():
    sched = BlockSchedule((2, 2), GENERAL)
    M = np.zeros((4, 4), dtype=np.complex128)
    M[0:2, 2:4] = np.array([[1.0, 0.5], [0.0, 1.0]])
    form = _Form(M, "polar", polar_blocks(sched, 4), schedule=sched)
    report = full_report(form)
    assert report.hermitian_residuals == [(1, 0.5)]
    assert not report.passing


def test_polar_alt_report_blocks():
    sched = BlockSchedule((1, 2), GENERAL)
    M = np.array([[1, 0, 0], [5, 2, 0], [0, 0, 3]], dtype=np.complex128)
    form = _Form(M, "polar_alt", polar_blocks(sched, 3, alt=True), schedule=sched)
    report = full_report(form)
    assert report.psd_min_eigs == [(1, 5.0)]
    assert report.tail_residuals == [(1, 0.0)]
    assert report.passing


def test_tri_report_blocks():
    sched = BlockSchedule((1, 2), GENERAL)
    ones = np.ones((3, 3), dtype=np.complex128)
    form = _Form(ones, "triangular", tri_blocks(sched, 3), schedule=sched)
    report = full_report(form)
    assert ("B", 1, 1.0) in report.triangular_residuals
    assert ("A", 1, 0.0) in report.triangular_residuals
    assert not report.passing

    ok = ones.copy()
    ok[2, 0] = 0.0
    rep2 = full_report(_Form(ok, "triangular", tri_blocks(sched, 3), schedule=sched))
    assert all(r == 0.0 for _, _, r in rep2.triangular_residuals)
    assert rep2.passing


def test_psd_limit_scales_with_block():
    sched = BlockSchedule((2, 2), GENERAL)
    M = np.zeros((4, 4), dtype=np.complex128)
    M[0:2, 2:4] = np.diag([1e6, -5e-4])
    form = _Form(M, "polar", polar_blocks(sched, 4), schedule=sched)
    report = full_report(form)
    assert report.block_scales == [(1, 1e6)]
    assert json.loads(report.to_json())["block_scales"] == [[1, 1e6]]
    # negative eigenvalue within the block-scaled tolerance still passes
    assert report.psd_min_eigs == [(1, -5e-4)]
    assert report.passing
    # but the same eigenvalue in a small block fails the absolute limit
    M2 = np.zeros((4, 4), dtype=np.complex128)
    M2[0:2, 2:4] = np.diag([1.0, -5e-4])
    rep2 = full_report(_Form(M2, "polar", polar_blocks(sched, 4), schedule=sched))
    assert not rep2.passing


def _every_pattern(d):
    """Every pattern builder, with and without closure sizes, on two schedules."""
    specs = [staircase_coarse(), staircase_refined(), family_stride(2), family_stride(5),
             hessenberg_pattern(), hessenberg_pattern(max(1, d // 2)),
             joint_cyclic_pattern(), joint_cyclic_pattern(max(1, d // 3))]
    # canonical schedule clipped to d, and the shortest canonical covering
    for sched in (schedule_for_dim(d, GENERAL), canonical_covering(d, GENERAL, 1)):
        specs += [block_band(sched, d), polar_blocks(sched, d), polar_blocks(sched, d, alt=True),
                  tri_blocks(sched, d), tri_blocks(sched, d, alt=True)]
    return specs


@pytest.mark.parametrize("d", [1, 2, 3, 7, 20, 64, 130])
def test_array_predicates_match_scalar_calls(d):
    rng = np.random.default_rng(d)
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    M[rng.random((d, d)) < 0.3] = 0.0
    i, j = np.ogrid[1:d + 1, 1:d + 1]
    for spec in _every_pattern(d):
        scalar = np.array([[bool(spec.allowed(a, b)) for b in range(1, d + 1)]
                           for a in range(1, d + 1)])
        grid = np.broadcast_to(spec.allowed(i, j), (d, d))
        assert np.array_equal(grid, scalar), spec.kind
        if d > 64:
            continue
        brute = [(a, b, float(abs(M[a - 1, b - 1])))
                 for a in range(1, d + 1) for b in range(1, d + 1)
                 if abs(M[a - 1, b - 1]) > 0.5 and not scalar[a - 1, b - 1]]
        hits = check_pattern(M, spec, 0.5)
        # array and scalar complex abs may differ in the last bit
        assert [h[:2] for h in hits] == [h[:2] for h in brute], spec.kind
        assert_allclose([h[2] for h in hits], [h[2] for h in brute], rtol=4 * EPS, atol=0)
        sketch = "\n".join(
            "".join("X" if abs(M[a, b]) > 0.5 and not scalar[a, b]
                    else "*" if abs(M[a, b]) > 0.5
                    else "." if scalar[a, b] else " " for b in range(d))
            for a in range(d))
        assert pattern_text(M, spec, 0.5) == sketch, spec.kind


def _reference_support(name, schedule, dim):
    """Per-entry support of a block pattern, read off the builder docstrings.

    Blocks are the schedule's sizes clipped at ``dim``; (bi, li) and (bj, lj)
    are the 1-based block and local indices of row i and column j, and n[k]
    is the k-th schedule size.
    """
    where = []
    for k, size in enumerate(schedule.sizes, start=1):
        where += [(k, local) for local in range(1, size + 1)]
    n = (0,) + schedule.sizes
    out = np.zeros((dim, dim), dtype=bool)
    for i in range(dim):
        for j in range(dim):
            (bi, li), (bj, lj) = where[i], where[j]
            if bi == bj:
                ok = True
            elif bj == bi + 1:  # right of the diagonal, n[bi] x n[bj]
                nk = n[bi]
                ok = {"polar": lj <= nk,                 # (P | 0)
                      "polar_alt": True,
                      "tri": lj <= nk or (lj <= 2 * nk and li >= lj - nk),  # (A' | A'' | 0)
                      "tri_alt": lj <= nk and li >= lj,  # lower triangular square, zero tail
                      }[name]
            elif bi == bj + 1:  # below the diagonal, n[bi] x n[bj]
                nk = n[bj]
                ok = {"polar": True,
                      "polar_alt": li <= nk,             # (P | 0) transposed
                      "tri": li <= lj,                   # upper triangular square over zeros
                      "tri_alt": li <= nk or (li <= 2 * nk and lj >= li - nk),
                      }[name]
            else:
                ok = False
            out[i, j] = ok
    return out


def _random_schedules(rng, count):
    """Custom schedules: growth-rule valid or broken, spanning dim or clipped by it."""
    out = []
    for trial in range(count):
        sizes = [int(rng.integers(1, 5))]
        for _ in range(int(rng.integers(0, 4))):
            grow = 2 * sum(sizes) + int(rng.integers(0, 3)) if trial % 2 else 0
            sizes.append(max(grow, int(rng.integers(1, 8))))
        span = sum(sizes)
        dim = span if trial % 3 == 0 else int(rng.integers(1, span + 1))
        out.append((BlockSchedule(tuple(sizes), GENERAL, dim), dim))
    return out


def test_block_patterns_match_per_entry_reference():
    rng = np.random.default_rng(29)
    builders = {
        "polar": lambda s, d: polar_blocks(s, d),
        "polar_alt": lambda s, d: polar_blocks(s, d, alt=True),
        "tri": lambda s, d: tri_blocks(s, d),
        "tri_alt": lambda s, d: tri_blocks(s, d, alt=True),
    }
    cases = _random_schedules(rng, 120)
    assert any(not s.is_valid for s, _ in cases) and any(s.is_valid for s, _ in cases)
    assert any(d < s.span for s, d in cases)
    for sched, dim in cases:
        i, j = np.ogrid[1:dim + 1, 1:dim + 1]
        for name, build in builders.items():
            spec = build(sched, dim)
            mask = np.broadcast_to(spec.allowed(i, j), (dim, dim))
            expected = _reference_support(name, sched, dim)
            assert np.array_equal(mask, expected), (name, sched.sizes, dim)


def _forbidden_corner_max(M, schedule, alt):
    """Per-entry reference for the triangular residuals, in report order."""
    slices = block_slices(schedule, M.shape[0])
    out = []
    for k in range(len(slices) - 1):
        (r0, r1), (c0, c1) = slices[k], slices[k + 1]
        nk = schedule.sizes[k]
        above, below = M[r0:r1, c0:c1], M[c0:c1, r0:r1]
        if alt:
            a_bad = lambda li, lj: lj >= nk or li < lj
            b_bad = lambda li, lj: li >= nk and (li >= 2 * nk or lj < li - nk)
        else:
            a_bad = lambda li, lj: lj >= nk and (lj >= 2 * nk or li < lj - nk)
            b_bad = lambda li, lj: li > lj
        worst = {}
        for label, blk, bad in (("A", above, a_bad), ("B", below, b_bad)):
            worst[label] = max((abs(blk[li, lj]) for li in range(blk.shape[0])
                                for lj in range(blk.shape[1]) if bad(li, lj)),
                               default=0.0)
        order = ("A", "B") if alt else ("B", "A")
        out += [(label, k + 1, worst[label]) for label in order]
    return out


@pytest.mark.parametrize("alt", [False, True])
def test_triangular_residual_order_and_values(alt):
    rng = np.random.default_rng(21)
    d = 20
    T = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    form = tri_sparsify(T, alt=alt)
    blocks = len(block_slices(form.schedule, d)) - 1
    order = ("A", "B") if alt else ("B", "A")
    labels = [(label, k) for k in range(1, blocks + 1) for label in order]
    # the finished form (roundoff-sized corners) and a dense stand-in
    for M in (form.matrix, T):
        report = full_report(_Form(M, form.form_kind, form.pattern, schedule=form.schedule))
        assert [(label, k) for label, k, _ in report.triangular_residuals] == labels
        expected = [r for _, _, r in _forbidden_corner_max(M, form.schedule, alt)]
        got = [r for _, _, r in report.triangular_residuals]
        assert_allclose(got, expected, rtol=4 * EPS, atol=0)
