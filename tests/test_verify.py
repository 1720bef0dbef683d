import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blocktrid import (
    BlockSchedule,
    GENERAL,
    InvalidScheduleError,
    PatternSpec,
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
    polar_sparsify,
    schedule_for_dim,
    staircase,
    staircase_coarse,
    staircase_refined,
    tri_blocks,
    tri_sparsify,
)
from blocktrid.verify import (DEFAULT_THRESHOLD, SPAN_LIMIT, Check, basis_checks,
                              matrix_report, pattern_checks, pattern_fields)
from reference_similarity import reconstruction_fro, reconstruction_max
from reference_span import lstsq_distance
from reference_verdict import corner_max, corner_positions, reference_passing, tail_max

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


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_threshold_is_rejected(threshold):
    # nothing lies above a NaN or infinite threshold, so the all-ones matrix
    # would pass every pattern check; every zero lies above 0 and -1
    ones = np.ones((4, 4), dtype=np.complex128)
    with pytest.raises(ValueError, match="finite"):
        check_pattern(ones, hessenberg_pattern(), threshold)
    with pytest.raises(ValueError, match="finite"):
        pattern_text(ones, hessenberg_pattern(), threshold)
    with pytest.raises(ValueError, match="finite"):
        tri_sparsify(ones, threshold=threshold)


def test_pattern_text_sketch():
    M = np.zeros((3, 3), dtype=np.complex128)
    M[0, 0] = 1.0
    M[2, 0] = 1.0
    sketch = pattern_text(M, staircase_refined())
    assert sketch == "*..\n...\nX.."


def test_a_nan_entry_is_a_violation():
    # a NaN is not at most the threshold, so it is drawn and reported like
    # any entry above it, inside the support and outside
    M = np.zeros((5, 5), dtype=np.complex128)
    M[0, 0] = M[3, 0] = np.nan
    spec = staircase_refined()
    [(i, j, mag)] = check_pattern(M, spec)
    assert (i, j) == (4, 1) and math.isnan(mag)
    assert [c.check for c in pattern_checks(pattern_fields(M, spec, 1e-10))
            if c.failed] == ["pattern_violations"]
    blank = pattern_text(np.zeros((5, 5)), spec)
    assert pattern_text(M, spec) == "*" + blank[1:18] + "X" + blank[19:]


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


@pytest.mark.parametrize("make", [hessenberg_pattern, joint_cyclic_pattern])
@pytest.mark.parametrize("closure_dim", [0, -2])
def test_closure_patterns_refuse_a_nonpositive_closure(make, closure_dim):
    # such a closure allowed every entry: an all-ones 5 x 5 matrix had no
    # violation, against 6 with no closure
    with pytest.raises(ValueError, match="closure_dim must be positive"):
        make(closure_dim)


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
    # U M U* - T = -I: max-abs 1, Frobenius norm sqrt(3), and the bound above both
    assert reconstruction_max(form.input, form.basis_change, form.matrix) == 1.0
    assert reconstruction_fro(form.input, form.basis_change, form.matrix) == math.sqrt(3)
    assert report.reconstruction_residual >= math.sqrt(3)
    assert [c.check for c in report.failures] == ["reconstruction_residual"]


def test_report_names_a_span_claim_that_a_column_swap_breaks():
    # swapping columns 3 and 7 of a staircase basis moves part of e_2 out of
    # the first six columns; M and the pattern are permuted with U, so every
    # check but the span claim still holds
    rng = np.random.default_rng(37)
    T = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    form = staircase(T)
    perm = np.array([0, 1, 6, 3, 4, 5, 2, 7, 8])
    U = form.basis_change[:, perm]

    def allowed(i, j):
        return form.pattern.allowed(perm[i - 1] + 1, perm[j - 1] + 1)

    tampered = _Form(form.matrix[np.ix_(perm, perm)], "staircase",
                     PatternSpec(form.pattern.kind, allowed),
                     span_bounds=form.span_bounds, input_matrix=T, basis=U)
    report = full_report(tampered)
    assert form.passing
    assert [(c.check, c.at) for c in report.failures] == [("span_residuals", (2, 6))]
    assert all(r >= lstsq_distance(U, n, m) for n, m, r in report.span_residuals)
    assert report.failures[0].value > 0.1 > SPAN_LIMIT


def test_span_bound_errors_name_the_first_pair_out_of_range():
    with pytest.raises(ValueError,
                       match=r"^span bound \(2, 7\) out of range for dimension 6$"):
        basis_checks(np.eye(6), [(1, 1), (2, 7)])
    with pytest.raises(ValueError,
                       match=r"^span bound \(0, 3\) out of range for dimension 6$"):
        basis_checks(np.eye(6), [(1, 1), (0, 3), (7, 2)])


@pytest.mark.parametrize("delta", [0.3 - 0.2j, 1e-4j, -2.5])
def test_reconstruction_reads_a_perturbed_corner(delta):
    # M[0, 0] + δ adds δ·u u* to U M U*, u the first column of U, so the
    # exact residual moves to |δ|·max_i |U[i, 0]|² up to the built form's
    # roundoff, and the reported bound lies above its Frobenius norm; the
    # corner lies on the pattern, so that is the only claim it breaks
    rng = np.random.default_rng(38)
    T = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    form = staircase(T)
    perturbed = form.matrix.copy()
    perturbed[0, 0] += delta
    form.matrix = perturbed
    report = matrix_report(form, DEFAULT_THRESHOLD, form.report.unitarity_residual,
                           form.report.span_residuals)
    expected = abs(delta) * np.max(np.abs(form.basis_change[:, 0])) ** 2
    exact = reconstruction_max(T, form.basis_change, perturbed)
    assert abs(exact - expected) <= 8 * EPS * np.linalg.norm(T, "fro")
    assert report.reconstruction_residual >= reconstruction_fro(T, form.basis_change,
                                                                perturbed) >= exact
    first = report.failures[0]
    assert (first.check, first.value) == ("reconstruction_residual",
                                          report.reconstruction_residual)


def test_report_keys_are_pinned():
    # a field dropped from the report, or one added to it, shows up here
    report = staircase(np.eye(3)).report
    assert sorted(report.json_object()) == [
        "block_scales", "certificate", "closure_dim", "failures", "form_kind",
        "hermitian_residuals", "input_norm_fro", "input_norm_max", "passing", "pattern",
        "psd_min_eigs", "reconstruction_residual", "span_residuals", "threshold",
        "unitarity_residual",
    ]


def test_polar_report_blocks():
    sched = BlockSchedule((1, 2), GENERAL)
    M = np.array([[1, 5, 0], [0, 2, 0], [0, 0, 3]], dtype=np.complex128)
    form = _Form(M, "polar", polar_blocks(sched, 3), schedule=sched)
    report = full_report(form)
    assert report.hermitian_residuals == [(1, 0.0)]
    assert report.psd_min_eigs == [(1, 5.0)]
    assert tail_max(form) == 0.0
    assert report.passing

    bad = M.copy()
    bad[0, 1] = -2.0
    rep2 = full_report(_Form(bad, "polar", polar_blocks(sched, 3), schedule=sched))
    assert rep2.psd_min_eigs == [(1, -2.0)]
    assert not rep2.passing

    tail = M.copy()
    tail[0, 2] = 0.5
    form3 = _Form(tail, "polar", polar_blocks(sched, 3), schedule=sched)
    assert tail_max(form3) == 0.5
    # the tail entry is a claimed zero, checked once, at the threshold
    assert full_report(form3).failures == [Check("pattern_violations", (1, 3), 0.5, 1e-10)]


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
    assert tail_max(form) == 0.0
    assert report.passing

    tail = M.copy()
    tail[2, 0] = 0.5
    form2 = _Form(tail, "polar_alt", polar_blocks(sched, 3, alt=True), schedule=sched)
    assert tail_max(form2) == 0.5
    assert full_report(form2).failures == [Check("pattern_violations", (3, 1), 0.5, 1e-10)]


def test_tri_report_blocks():
    sched = BlockSchedule((1, 2), GENERAL)
    ones = np.ones((3, 3), dtype=np.complex128)
    form = _Form(ones, "triangular", tri_blocks(sched, 3), schedule=sched)
    assert corner_max(form) == 1.0
    # the one corner entry below the diagonal is one claimed zero, one record
    assert full_report(form).failures == [Check("pattern_violations", (3, 1), 1.0, 1e-10)]

    ok = ones.copy()
    ok[2, 0] = 0.0
    form2 = _Form(ok, "triangular", tri_blocks(sched, 3), schedule=sched)
    assert corner_max(form2) == 0.0
    assert full_report(form2).passing


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
        specs += [block_band(sched, d), tri_blocks(sched, d), tri_blocks(sched, d, alt=True)]
        for alt in (False, True):
            if _shrinks(sched, d):
                # canonical_covering(130) clips to 1, 2, 6, 18, 54, 49
                with pytest.raises(InvalidScheduleError, match="non-decreasing"):
                    polar_blocks(sched, d, alt)
            else:
                specs.append(polar_blocks(sched, d, alt))
    return specs


def _shrinks(schedule, dim):
    """True when a block inside the matrix is smaller than the one before it."""
    sizes = [stop - start for start, stop in block_slices(schedule, dim)]
    return any(b < a for a, b in zip(sizes, sizes[1:]))


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
    assert any(_shrinks(s, d) for s, d in cases) and not all(_shrinks(s, d) for s, d in cases)
    for sched, dim in cases:
        i, j = np.ogrid[1:dim + 1, 1:dim + 1]
        for name, build in builders.items():
            if name.startswith("polar") and _shrinks(sched, dim):
                # a cut block right of a larger one has no leading square
                with pytest.raises(InvalidScheduleError, match="non-decreasing"):
                    build(sched, dim)
                continue
            spec = build(sched, dim)
            mask = np.broadcast_to(spec.allowed(i, j), (dim, dim))
            expected = _reference_support(name, sched, dim)
            assert np.array_equal(mask, expected), (name, sched.sizes, dim)


@pytest.mark.parametrize("alt", [False, True])
def test_triangular_corners_are_pattern_violations(alt):
    # every corner entry above the threshold, and nothing else inside the
    # band, is a violation, read per entry from the written-out corners
    rng = np.random.default_rng(21)
    d = 20
    T = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    form = tri_sparsify(T, alt=alt)
    band = block_band(form.schedule, d)
    corners = corner_positions(form.schedule, d, alt)
    # the finished form (roundoff-sized corners) and a dense stand-in
    for M in (form.matrix, T):
        report = full_report(_Form(M, form.form_kind, form.pattern, schedule=form.schedule))
        in_band = [v for v in report.pattern_violations if band.allowed(v[0], v[1])]
        expected = sorted((i + 1, j + 1, abs(M[i, j])) for i, j in corners
                          if abs(M[i, j]) > DEFAULT_THRESHOLD)
        assert [v[:2] for v in in_band] == [e[:2] for e in expected]
        assert_allclose([v[2] for v in in_band], [e[2] for e in expected], rtol=4 * EPS, atol=0)
    assert 0.0 < corner_max(form) <= 1e-10


@pytest.mark.parametrize("build, alt", [(polar_sparsify, False), (tri_sparsify, False),
                                        (tri_sparsify, True)])
def test_roundoff_tails_and_corners_are_judged_at_the_threshold(build, alt):
    # 1e6 times a Gaussian: the tails and corners hold roundoff above 1e-10
    # but far below the threshold 1e-6 * c, at which every claimed zero is
    # now judged; under the absolute limits of 1e-10 these forms failed
    c = 1e6
    rng = np.random.default_rng(0)
    T = c * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    form = build(T, alt=alt, threshold=1e-6 * c)
    assert form.passing, form.report.failures
    assert 1e-10 < max(tail_max(form), corner_max(form)) <= 1e-6 * c
    assert not reference_passing(form)


SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("c", SCALES)
def test_scaled_polar_forms_pass_the_hermitian_check(c, alt):
    # the roundoff in a positive block of the polar form of cT grows with c,
    # and its limit, HERMITIAN_REL * max(1, block scale), grows with it
    rng = np.random.default_rng(0)
    for d in (16, 64):
        T = c * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        report = polar_sparsify(T, alt=alt, threshold=1e-6 * c).report
        records = [r for r in pattern_checks(vars(report))
                   if r.check == "hermitian_residuals"]
        assert len(records) == len(report.hermitian_residuals) > 0
        assert not [r for r in records if r.failed]
        if c >= 1e9:
            # far past the old absolute limit of 1e-9
            assert max(r.value for r in records) > 1e-9


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("c", SCALES)
def test_a_non_hermitian_block_fails_at_every_scale(c, alt):
    # one entry of a positive block moved by 10 times its limit
    rng = np.random.default_rng(1)
    T = c * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    form = polar_sparsify(T, alt=alt, threshold=1e-6 * c)
    M = form.matrix.conj().T.copy() if alt else form.matrix.copy()
    slices = block_slices(form.schedule, 16)
    k = max(range(len(slices) - 1), key=lambda k: slices[k][1] - slices[k][0])
    (r0, r1), (c0, _) = slices[k], slices[k + 1]
    scale = np.max(np.abs(M[r0:r1, c0:c0 + r1 - r0]))
    M[r0, c0 + 1] += 1e-8 * max(1.0, scale)
    stand_in = _Form(M.conj().T if alt else M, form.form_kind, form.pattern,
                     schedule=form.schedule)
    failures = full_report(stand_in, threshold=1e-6 * c).failures
    assert [r.at for r in failures if r.check == "hermitian_residuals"] == [f"block {k + 1}"]


@pytest.mark.parametrize("alt", [False, True])
def test_a_corner_entry_above_the_threshold_fails_on_its_entry(alt):
    rng = np.random.default_rng(3)
    T = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    form = tri_sparsify(T, alt=alt)
    i, j = corner_positions(form.schedule, 16, alt)[0]
    M = form.matrix.copy()
    M[i, j] = 1e-3
    stand_in = _Form(M, form.form_kind, form.pattern, schedule=form.schedule)
    assert full_report(stand_in).failures == [
        Check("pattern_violations", (i + 1, j + 1), 1e-3, DEFAULT_THRESHOLD)]
