"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints exactly one `criterion N: PASS/FAIL` line (visible with
`pytest -s`) and then asserts, so a red run names the criterion that broke.
"""

import json
import math
import time

import numpy as np

from blocktrid import (
    BlockSchedule,
    CYCLIC,
    GENERAL,
    block_band,
    block_tridiagonalize,
    check_pattern,
    conjugate,
    covers,
    decompose,
    emit_matrix,
    family_staircase,
    joint_cyclic_staircase,
    krylov_hessenberg,
    max_abs,
    parse_matrix,
    polar_sparsify,
    span_residual,
    staircase,
    staircase_coarse,
    staircase_coverage_check,
    tri_sparsify,
    validate,
)
from blocktrid.cli import main as cli_main
from reference_verdict import corner_max, similarity_drifts, tail_max

S2 = math.sqrt(2.0)

T5 = np.array(
    [
        [1, 1, 1, 0, 0],
        [1, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
    ],
    dtype=np.complex128,
)

U5 = (1.0 / S2) * np.array(
    [
        [0, 0, S2, 0, 0],
        [0, 1, 0, -1, 0],
        [0, 1, 0, 1, 0],
        [1, 0, 0, 0, 1],
        [1, 0, 0, 0, -1],
    ],
    dtype=np.complex128,
)

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

def _line(num, ok, label):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def _rand(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _rand_unitary(rng, d):
    q, r = np.linalg.qr(_rand(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_1_fixture_exactness():
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        M = conjugate(T5, U5)
        best = min(best, time.perf_counter() - t0)
    ok = max_abs(M - M5) <= 1e-12 and best < 1e-3
    _line(1, ok, f"5x5 fixture entrywise to 1e-12 in {best * 1e6:.0f} us")


def test_criterion_2_staircase_suite():
    rng = np.random.default_rng(2024)
    worst_pattern, worst_unit, worst_recon, worst_span = 0, 0.0, 0.0, 0.0
    t0 = time.perf_counter()
    for trial in range(200):
        d = int(rng.integers(1, 41))
        T = _rand(rng, d)
        form = staircase(T)
        rep = form.report
        worst_pattern = max(worst_pattern, len(rep.pattern_violations))
        worst_unit = max(worst_unit, rep.unitarity_residual)
        worst_recon = max(
            worst_recon, rep.reconstruction_residual / (1 + rep.input_norm_max)
        )
        worst_span = max(worst_span, max(r for _, _, r in rep.span_residuals))
    elapsed = time.perf_counter() - t0
    ok = (worst_pattern == 0 and worst_unit <= 1e-10 and worst_recon <= 1e-8
          and worst_span <= 1e-8 and elapsed < 30.0)
    _line(2, ok, f"200 staircase builds, worst unitarity {worst_unit:.1e}, "
                 f"worst span {worst_span:.1e}, {elapsed:.1f}s")


def test_criterion_3_covering_oracle():
    coarse = staircase_coarse()
    canonical = BlockSchedule((1, 2, 6, 18, 54), GENERAL)
    ok = staircase_coverage_check(canonical, coarse, 81) == []
    rng = np.random.default_rng(3033)
    for trial in range(100):
        sizes = [int(rng.integers(1, 4))]
        while sum(sizes) < 81:
            required = 2 * sum(sizes)
            sizes.append(required + int(rng.integers(0, 6)))
        sched = BlockSchedule(tuple(sizes), GENERAL)
        assert validate(sched.sizes, GENERAL) is None
        ok = ok and staircase_coverage_check(sched, coarse, 81) == []
    ok = ok and covers(4, 27, BlockSchedule((1, 2, 6, 18), GENERAL))
    ok = ok and not covers(4, 27, BlockSchedule((4, 8, 24, 72), GENERAL))
    ok = ok and not covers(4, 27, BlockSchedule((1, 3, 8, 24), GENERAL))
    _line(3, ok, "coarse support covered by canonical and 100 random valid "
                 "schedules; (4,27) counterexamples reproduced")


def test_criterion_4_polar_suite():
    rng = np.random.default_rng(4044)
    worst_herm, worst_eig, worst_tail, worst_band = 0.0, 0.0, 0, 0
    for trial in range(100):
        d = int(rng.integers(2, 28))
        T = _rand(rng, d)
        form = polar_sparsify(T)
        rep = form.report
        worst_herm = max(worst_herm,
                         max((r for _, r in rep.hermitian_residuals), default=0.0))
        worst_eig = min(worst_eig,
                        min((e for _, e in rep.psd_min_eigs), default=0.0))
        worst_tail = max(worst_tail, tail_max(form))
        worst_band = max(worst_band, len(
            check_pattern(form.matrix, block_band(form.schedule, d), 1e-10)
        ))
    alt_ok = True
    for trial in range(20):
        d = int(rng.integers(2, 28))
        form = polar_sparsify(_rand(rng, d), alt=True)
        rep = form.report
        alt_ok = alt_ok and rep.passing and not rep.pattern_violations
        alt_ok = alt_ok and min(
            (e for _, e in rep.psd_min_eigs), default=0.0) >= -1e-8
    ok = (worst_herm <= 1e-9 and worst_eig >= -1e-8 and worst_tail <= 1e-10
          and worst_band == 0 and alt_ok)
    _line(4, ok, f"100 positive-block runs, worst Hermitian {worst_herm:.1e}, "
                 f"min eig {worst_eig:.1e}, worst tail {worst_tail:.1e}; "
                 f"alt mirrored")


def test_criterion_5_triangular_suite():
    rng = np.random.default_rng(5055)
    ok = True
    worst_tri, worst_span = 0.0, 0.0
    for trial in range(100):
        T = _rand(rng, 27)
        form = tri_sparsify(T)
        rep = form.report
        worst_tri = max(worst_tri, corner_max(form))
        worst_span = max(
            worst_span,
            max(span_residual(n, form.basis_change, 3 ** n) for n in (1, 2, 3)),
        )
        ok = ok and rep.passing and not rep.pattern_violations

    for T in (np.zeros((9, 9)), np.eye(9)):
        form = tri_sparsify(T)
        ok = ok and form.passing
        # the staircase builds only seeds, and the walk's QR of a zero
        # block leaves its basis as it is
        ok = ok and max_abs(form.basis_change - np.eye(9)) == 0.0

    ok = ok and worst_tri <= 1e-10 and worst_span <= 1e-8
    _line(5, ok, f"100 triangular runs, worst strict-part {worst_tri:.1e}, "
                 f"worst span {worst_span:.1e}; zero and identity keep the "
                 f"identity basis")


def test_criterion_6_cyclic_forms():
    rng = np.random.default_rng(6066)
    ok = True
    for trial in range(100):
        d = int(rng.integers(1, 21))
        T = _rand(rng, d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        hess = krylov_hessenberg(T, v)
        ok = ok and hess.passing and not hess.report.pattern_violations
        joint = joint_cyclic_staircase(T, v)
        ok = ok and joint.passing and not joint.report.pattern_violations

    for trial in range(5):
        d = int(rng.integers(2, 28))
        A, B = _rand(rng, d), _rand(rng, d)
        _, forms = family_staircase([A + A.conj().T, B + B.conj().T],
                                    selfadjoint=True)
        ok = ok and all(f.passing and f.extras["stride"] == 3 for f in forms)
        _, forms = family_staircase([_rand(rng, d), _rand(rng, d)])
        ok = ok and all(f.passing and f.extras["stride"] == 5 for f in forms)
    _line(6, ok, "100 Hessenberg + 100 joint-cyclic runs clean; family "
                 "stride-3 and stride-5 bounds hold")


def test_criterion_7_direct_sum():
    rng = np.random.default_rng(7077)
    ok = True
    for trial in range(10):
        R = np.zeros((8, 8), dtype=np.complex128)
        R[:3, :3] = _rand(rng, 3)
        R[3:, 3:] = _rand(rng, 5)
        Q = _rand_unitary(rng, 8)
        res = decompose(Q @ R @ Q.conj().T)
        ok = ok and sum(res.dims) == 8
        # coupling entries are claimed zeros of the direct-sum pattern
        ok = ok and res.passing and not res.report.pattern_violations
    res = decompose(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex))
    ok = ok and res.dims == [1, 1, 1, 1, 1] and res.passing
    _line(7, ok, "block fixtures split with dims summing to 8, no entry off "
                 "the direct-sum pattern; diag(1..5) gives five 1x1 summands")


def test_criterion_8_similarity_invariants():
    rng = np.random.default_rng(8088)
    worst_trace, worst_fro = 0.0, 0.0
    runs = []
    for d in (12, 27):
        T = _rand(rng, d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        H = T + T.conj().T
        runs.extend([
            staircase(T),
            block_tridiagonalize(T),
            polar_sparsify(T),
            polar_sparsify(T, alt=True),
            tri_sparsify(T),
            tri_sparsify(T, alt=True),
            krylov_hessenberg(T, v),
            joint_cyclic_staircase(T, v),
            family_staircase([H, 2.0 * H], selfadjoint=True)[1][0],
        ])
        runs.append(decompose(T))
    ok = True
    for form in runs:
        # the invariants come from the form itself: the report checks
        # similarity through unitarity and reconstruction only
        trace_drifts, frobenius_drift = similarity_drifts(form.input, form.matrix)
        norm_fro = np.linalg.norm(form.input, "fro")
        base = max(1.0, norm_fro)
        for p, drift in enumerate(trace_drifts, start=1):
            rel = drift / base ** p
            worst_trace = max(worst_trace, rel)
            ok = ok and rel <= 1e-6
        fro = frobenius_drift / (1 + norm_fro)
        worst_fro = max(worst_fro, fro)
        ok = ok and fro <= 1e-8
    _line(8, ok, f"trace powers p=1..3 and Frobenius preserved across "
                 f"{len(runs)} forms, worst {worst_trace:.1e} / {worst_fro:.1e}")


def test_criterion_9_cli_io(tmp_path, capsys):
    rng = np.random.default_rng(9099)
    ok = True
    formats = ("mm", "csv", "json")
    exts = {"mm": ".mtx", "csv": ".csv", "json": ".json"}
    for trial in range(100):
        d = int(rng.integers(1, 21))
        M = _rand(rng, d)
        fmt = formats[trial % 3]
        path = tmp_path / f"m{trial}{exts[fmt]}"
        emit_matrix(M, str(path), fmt)
        ok = ok and np.array_equal(parse_matrix(str(path)), M)

    good = tmp_path / "T.json"
    emit_matrix(_rand(rng, 6), str(good), "json")
    ok = ok and cli_main(["staircase", "--input", str(good)]) == 0
    bad = np.zeros((4, 4), dtype=complex)
    bad[3, 0] = 1.0
    violating = tmp_path / "bad.json"
    emit_matrix(bad, str(violating), "json")
    ok = ok and cli_main(["verify", "--input", str(violating),
                          "--pattern", "staircase"]) == 2
    ok = ok and cli_main(["staircase", "--input",
                          str(tmp_path / "missing.json")]) == 1
    ok = ok and cli_main(["frobnicate"]) == 1
    capsys.readouterr()
    ok = ok and cli_main(["schedule", "--schedule", "custom:1,2,5",
                          "--kind", "general"]) == 2
    ok = ok and "k=2" in capsys.readouterr().out
    with capsys.disabled():
        _line(9, ok, "100 exact format round-trips; exit codes 0/2/1 and "
                     "schedule violation at k=2 reported")
