import math
import sys

import numpy as np
import pytest

from blocktrid import (
    BlockSchedule,
    GENERAL,
    InvalidScheduleError,
    adjoint,
    block_slices,
    block_tridiagonalize,
    canonical_schedule,
    check_pattern,
    decompose,
    family_staircase,
    joint_cyclic_staircase,
    krylov_hessenberg,
    max_abs,
    polar_sparsify,
    polar_sparsify_tridiagonal,
    reducing_closure,
    staircase,
    staircase_coarse,
    tri_sparsify,
    unitarity_residual,
)
import blocktrid.basis as basis
import blocktrid.kernel as kernel
import blocktrid.transforms as transforms
from blocktrid.transforms import SparsifiedForm
from blocktrid.verify import (
    SPAN_LIMIT,
    UNITARITY_LIMIT,
    family_stride,
    full_report,
    polar_blocks,
)
from blocktrid.words import staircase_program
from reference_similarity import reconstruction_fro, reconstruction_max
from reference_verdict import corner_max, tail_max

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

def _rand(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def _rand_unitary(rng, d):
    q, r = np.linalg.qr(_rand(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_staircase_five_by_five_fixture():
    # the refined bound pushes the (3,1) entry of this band matrix to zero
    form = staircase(T5)
    assert abs(form.matrix[2, 0]) <= 1e-12
    assert form.passing
    assert form.report.pattern_violations == []
    assert form.span_bounds[0] == (1, 3)
    assert form.span_bounds[-1] == (5, 5)


def test_staircase_one_by_one():
    form = staircase(np.array([[2.0 + 1.0j]]))
    assert form.matrix[0, 0] == 2.0 + 1.0j
    assert form.passing


def test_staircase_random_suite():
    rng = np.random.default_rng(7)
    for trial in range(20):
        d = int(rng.integers(1, 31))
        form = staircase(_rand(rng, d))
        assert form.passing, form.report.to_json()
        assert form.report.pattern_violations == []
        assert form.report.unitarity_residual <= 1e-10
        assert all(r <= 1e-8 for _, _, r in form.report.span_residuals)


@pytest.mark.parametrize("build", [staircase, tri_sparsify])
def test_forms_at_scale(build):
    rng = np.random.default_rng(256)
    form = build(_rand(rng, 256))
    assert form.passing, form.report.to_json()
    assert form.report.unitarity_residual <= 1e-10
    assert form.report.span_residuals
    assert all(r <= SPAN_LIMIT for _, _, r in form.report.span_residuals)


def test_block_tridiagonalize_default_nine():
    rng = np.random.default_rng(11)
    form = block_tridiagonalize(_rand(rng, 9))
    assert form.schedule.sizes == (1, 2, 6)
    assert block_slices(form.schedule, 9) == [(0, 1), (1, 3), (3, 9)]
    assert form.passing
    # blocks 1 and 3 are decoupled
    assert max_abs(form.matrix[3:9, 0:1]) <= 1e-12
    assert max_abs(form.matrix[0:1, 3:9]) <= 1e-12


def test_block_tridiagonalize_dim_three():
    rng = np.random.default_rng(12)
    form = block_tridiagonalize(_rand(rng, 3))
    assert form.schedule.sizes == (1, 2)
    assert form.passing


def test_block_tridiagonalize_custom_schedule():
    rng = np.random.default_rng(13)
    T = _rand(rng, 27)
    sched = BlockSchedule((1, 3, 8, 24), GENERAL)
    form = block_tridiagonalize(T, sched)
    assert [b - a for a, b in block_slices(form.schedule, 27)] == [1, 3, 8, 15]
    assert form.passing


def test_block_tridiagonalize_rejects_bad_schedules():
    rng = np.random.default_rng(14)
    T = _rand(rng, 27)
    with pytest.raises(InvalidScheduleError, match="k=2"):
        block_tridiagonalize(T, BlockSchedule((1, 2, 5), GENERAL))
    with pytest.raises(InvalidScheduleError, match="spans"):
        block_tridiagonalize(T, BlockSchedule((1, 2, 6), GENERAL))


def test_polar_first_block_three_four():
    Mb = np.zeros((3, 3), dtype=np.complex128)
    Mb[0, 1] = 3.0
    Mb[0, 2] = 4.0
    form = polar_sparsify_tridiagonal(Mb, BlockSchedule((1, 2), GENERAL))
    assert abs(form.matrix[0, 1] - 5.0) <= 1e-12
    assert abs(form.matrix[0, 2]) <= 1e-12
    assert form.passing


def test_polar_degenerate_rows():
    for row in ([1.0, 0.0], [0.0, 0.0]):
        Mb = np.zeros((3, 3), dtype=np.complex128)
        Mb[0, 1:] = row
        form = polar_sparsify_tridiagonal(Mb, BlockSchedule((1, 2), GENERAL))
        assert abs(form.matrix[0, 1] - row[0]) <= 1e-12
        assert abs(form.matrix[0, 2]) <= 1e-12
        assert form.passing


@pytest.mark.parametrize("zero_block", [1, 2])
def test_polar_zero_and_rank_one_blocks(zero_block):
    # schedule (1, 2, 6): A_1 is 1x2 and A_2 is 2x6; one of them is zero and
    # the other rank one, singular blocks whose factor U_{k+1} must still be
    # a full unitary
    rng = np.random.default_rng(20)
    slices = [(0, 1), (1, 3), (3, 9)]
    Mb = np.zeros((9, 9), dtype=np.complex128)
    for i, (a, b) in enumerate(slices):
        for j, (c, e) in enumerate(slices):
            if abs(i - j) <= 1:
                Mb[a:b, c:e] = _rand(rng, 9)[: b - a, : e - c]
    u, w = _rand(rng, 6)[:2, 0], _rand(rng, 6)[0]
    Mb[1:3, 3:9] = 0.0 if zero_block == 2 else np.outer(u, w)
    if zero_block == 1:
        Mb[0:1, 1:3] = 0.0
    form = polar_sparsify_tridiagonal(Mb, BlockSchedule((1, 2, 6), GENERAL))
    assert form.passing, form.report.to_json()
    M = form.matrix
    if zero_block == 1:
        assert max_abs(M[0:1, 1:3]) <= 1e-12
        sigma = np.linalg.norm(u) * np.linalg.norm(w)
        eigs = np.linalg.eigvalsh(M[1:3, 3:5])
        np.testing.assert_allclose(eigs, [0.0, sigma], atol=1e-10 * sigma)
    else:
        assert abs(M[0, 1] - np.linalg.norm(Mb[0, 1:3])) <= 1e-12
        assert max_abs(M[1:3, 3:9]) <= 1e-12
    assert max_abs(M[0:3, 5:9]) <= 1e-12


@pytest.mark.parametrize("build", [krylov_hessenberg, joint_cyclic_staircase,
                                   reducing_closure])
@pytest.mark.parametrize("seed, message", [
    (np.zeros(5), "nonzero"),
    (np.ones(4), "does not match"),
    # a NaN seed once gave a NaN basis, an infinite one a vacuous closure
    (np.array([np.nan, 0, 0, 0, 0]), "non-finite"),
    (np.array([np.inf, 0, 0, 0, 0]), "non-finite"),
    (np.array([1, 0, 0, 0, -np.inf]), "non-finite"),
    # these once read "must be nonzero", and warned of an overflow in dot
    (1e-200 * np.eye(5)[0], "norm of the seed vector underflows"),
    (1e160 * np.eye(5)[0], "norm of the seed vector overflows"),
], ids=["zero", "short", "nan", "inf", "minus-inf", "underflow", "overflow"])
def test_seed_vector_is_validated(build, seed, message):
    T = _rand(np.random.default_rng(21), 5)
    with pytest.raises(ValueError, match=message):
        build(T, seed)


@pytest.mark.parametrize("build", [krylov_hessenberg, joint_cyclic_staircase,
                                   reducing_closure])
def test_a_seed_vector_is_accepted_at_any_scale(build):
    # v is judged against its own norm: 1e-12·e_1 once gave an empty
    # closure, or a pattern error, since its norm fell below tol·max(1, ‖v‖)
    T = _rand(np.random.default_rng(22), 6)
    e1 = np.eye(6, dtype=np.complex128)[0]
    outs = [build(T, c * e1) for c in (1.0, 1e-12, 1e-6, 1e6)]
    bases = [getattr(out, "basis_change", out) for out in outs]
    assert bases[0].shape == (6, 6)
    assert all(U.tobytes() == bases[0].tobytes() for U in bases[1:])


def test_polar_direct_entry_rejects_dense():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError, match="not block tridiagonal"):
        polar_sparsify_tridiagonal(_rand(rng, 9), BlockSchedule((1, 2, 6), GENERAL))


def test_polar_direct_entry_on_band_output():
    rng = np.random.default_rng(16)
    base = block_tridiagonalize(_rand(rng, 9))
    form = polar_sparsify_tridiagonal(base.matrix, base.schedule)
    assert form.passing
    # same spectrum data: traces of powers agree with the band input
    assert abs(np.trace(form.matrix) - np.trace(base.matrix)) <= 1e-10


def test_polar_random_suite():
    rng = np.random.default_rng(17)
    for trial in range(14):
        # twelve small dimensions, then d=128 in the plain and the alt variant
        d = int(rng.integers(2, 28)) if trial < 12 else 128
        T = _rand(rng, d)
        form = polar_sparsify(T, alt=trial == 13)
        assert form.passing, form.report.to_json()
        assert all(r <= 1e-9 for _, r in form.report.hermitian_residuals)
        assert tail_max(form) <= 1e-10
        scales = dict(form.report.block_scales)
        for k, eig in form.report.psd_min_eigs:
            assert eig >= -1e-8 * max(1.0, scales[k])


def test_polar_alt_is_mirrored():
    rng = np.random.default_rng(18)
    T = _rand(rng, 13)
    alt = polar_sparsify(T, alt=True)
    assert alt.form_kind == "polar_alt"
    assert alt.passing, alt.report.to_json()
    primary_of_adjoint = polar_sparsify(adjoint(T))
    np.testing.assert_allclose(
        alt.matrix, primary_of_adjoint.matrix.conj().T, atol=1e-12
    )
    # below-diagonal squares are PSD in the alt form
    assert all(eig >= -1e-8 for _, eig in alt.report.psd_min_eigs)


def test_polar_rejects_shrinking_blocks():
    rng = np.random.default_rng(19)
    T = _rand(rng, 10)
    with pytest.raises(InvalidScheduleError, match="non-decreasing"):
        polar_sparsify(T, canonical_schedule(4, 1, GENERAL))


@pytest.mark.parametrize("sizes, d, message", [
    ((3, 2, 1, 6), 9, r"non-decreasing inside the matrix, got \[3, 2, 1, 3\]"),
    ((3, 2, 1, 6), 12, r"non-decreasing inside the matrix, got \[3, 2, 1, 6\]"),
    # the span is checked before the sizes
    ((3, 2, 1), 9, "schedule spans 6, too short for dimension 9"),
], ids=["clipped", "spanning", "short"])
def test_polar_direct_entry_rejects_shrinking_blocks(sizes, d, message):
    schedule = BlockSchedule(sizes, GENERAL)
    with pytest.raises(InvalidScheduleError, match=message):
        polar_sparsify_tridiagonal(np.zeros((d, d)), schedule)
    for alt in (False, True):
        with pytest.raises(InvalidScheduleError, match=message):
            polar_blocks(schedule, d, alt)


def test_tri_zero_matrix():
    form = tri_sparsify(np.zeros((9, 9)))
    np.testing.assert_array_equal(form.basis_change, np.eye(9))
    assert max_abs(form.matrix) == 0.0
    assert form.passing


def test_tri_identity_matrix():
    form = tri_sparsify(np.eye(7))
    assert max_abs(form.matrix - np.eye(7)) <= 1e-12
    assert form.passing


def test_tri_random_suite():
    rng = np.random.default_rng(20)
    for trial in range(6):
        T = _rand(rng, 27)
        form = tri_sparsify(T)
        assert form.schedule.sizes == (1, 2, 6, 18)
        assert form.passing, form.report.to_json()
        assert corner_max(form) <= 1e-10
        # spot check: the 2x2 below-diagonal square of block pair (2,3)
        assert abs(form.matrix[4, 1]) <= 1e-10


def test_tri_alt_is_mirrored():
    rng = np.random.default_rng(21)
    T = _rand(rng, 27)
    alt = tri_sparsify(T, alt=True)
    assert alt.form_kind == "triangular_alt"
    assert alt.passing, alt.report.to_json()
    primary_of_adjoint = tri_sparsify(adjoint(T))
    np.testing.assert_allclose(
        alt.matrix, primary_of_adjoint.matrix.conj().T, atol=1e-12
    )


def test_tri_smaller_dims():
    rng = np.random.default_rng(22)
    for d in (1, 2, 3, 5, 9, 14):
        form = tri_sparsify(_rand(rng, d))
        assert form.passing, (d, form.report.to_json())


def test_hessenberg_shift_with_first_seed():
    d = 5
    S = np.zeros((d, d), dtype=np.complex128)
    for i in range(d - 1):
        S[i + 1, i] = 1.0
    form = krylov_hessenberg(S, np.eye(d)[:, 0])
    np.testing.assert_allclose(form.basis_change, np.eye(d), atol=1e-14)
    np.testing.assert_allclose(form.matrix, S, atol=1e-14)
    assert form.extras["closure_dim"] is None
    assert form.passing


def test_hessenberg_cyclic_vector_for_diag():
    T = np.diag([1.0, 2.0]).astype(np.complex128)
    form = krylov_hessenberg(T, np.array([1.0, 1.0]))
    assert form.extras["closure_dim"] is None
    assert form.passing


def test_hessenberg_noncyclic_padding():
    T = np.zeros((4, 4), dtype=np.complex128)
    T[2, 0] = 1.0
    T[3, 1] = 1.0
    form = krylov_hessenberg(T, np.eye(4)[:, 0])
    assert form.extras["closure_dim"] == 2
    # invariance of the Krylov block: nothing below it in its columns
    assert max_abs(form.matrix[2:, :2]) <= 1e-14
    assert form.passing


@pytest.mark.parametrize("c", [1e-12, 1e-11, 1e-10, 1e-6, 1e6, 1e12])
def test_hessenberg_from_a_scaled_first_seed_is_the_e1_build_bit_for_bit(c):
    # c·e_1 normalizes to e_1 exactly, so the whole build repeats the e_1 one
    T = _rand(np.random.default_rng(24), 24)
    e1 = np.eye(24)[:, 0]
    scaled, plain = krylov_hessenberg(T, c * e1), krylov_hessenberg(T, e1)
    assert scaled.basis_change.tobytes() == plain.basis_change.tobytes()
    assert scaled.matrix.tobytes() == plain.matrix.tobytes()
    assert scaled.report.to_json() == plain.report.to_json()


def test_hessenberg_random_suite():
    rng = np.random.default_rng(23)
    for trial in range(10):
        d = int(rng.integers(1, 21))
        T = _rand(rng, d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        form = krylov_hessenberg(T, v)
        assert form.passing, form.report.to_json()


def test_joint_cyclic_one_by_one():
    form = joint_cyclic_staircase(np.array([[5.0]]), np.array([1.0]))
    assert form.matrix[0, 0] == 5.0
    assert form.passing


def test_joint_cyclic_noncyclic_seed_splits():
    T = np.diag([1.0, 2.0]).astype(np.complex128)
    form = joint_cyclic_staircase(T, np.array([1.0, 0.0]))
    assert form.extras["closure_dim"] == 1
    np.testing.assert_allclose(form.matrix, T, atol=1e-14)
    assert form.passing


def test_joint_cyclic_random_suite():
    rng = np.random.default_rng(24)
    for trial in range(10):
        d = int(rng.integers(1, 21))
        T = _rand(rng, d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        form = joint_cyclic_staircase(T, v)
        assert form.passing, form.report.to_json()
        # column support bound: entries below row 2j vanish
        M = form.matrix
        for j in range(1, d + 1):
            for i in range(2 * j + 1, d + 1):
                assert abs(M[i - 1, j - 1]) <= 1e-10


def test_family_single_general_matches_staircase():
    rng = np.random.default_rng(25)
    T = _rand(rng, 12)
    U, forms = family_staircase([T], selfadjoint=False)
    solo = staircase(T)
    np.testing.assert_allclose(U, solo.basis_change, atol=1e-14)
    assert forms[0].pattern.kind == "family_stride_3"
    assert forms[0].passing


def test_family_selfadjoint_pair():
    rng = np.random.default_rng(26)
    A = _rand(rng, 12)
    B = _rand(rng, 12)
    ops = [A + A.conj().T, B + B.conj().T]
    U, forms = family_staircase(ops, selfadjoint=True)
    assert unitarity_residual(U) <= 1e-10
    for form, S in zip(forms, ops):
        assert form.extras["stride"] == 3
        assert form.passing, form.report.to_json()
        # conjugation keeps each operator selfadjoint
        assert max_abs(form.matrix - form.matrix.conj().T) <= 1e-12


def test_family_selfadjoint_flag_checked():
    rng = np.random.default_rng(27)
    with pytest.raises(ValueError, match="not selfadjoint"):
        family_staircase([_rand(rng, 6)], selfadjoint=True)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_family_selfadjoint_flag_is_relative_to_scale(scale):
    # the flag accepts Q diag(λ) Q*, Hermitian to roundoff, at every scale,
    # and rejects a Gaussian at every scale, however tiny
    rng = np.random.default_rng(0)
    Q = _rand_unitary(rng, 16)
    H = scale * (Q @ np.diag(rng.standard_normal(16)) @ Q.conj().T)
    assert max_abs(H - H.conj().T) > 0
    # accepted: built with the selfadjoint stride N + 1 (whether the form
    # passes at a large scale is up to the absolute entry threshold)
    _, forms = family_staircase([H], selfadjoint=True)
    assert forms[0].extras["stride"] == 2
    with pytest.raises(ValueError, match=r"^operator 2 is not selfadjoint"):
        family_staircase([H, scale * _rand(rng, 16)], selfadjoint=True)


def test_family_general_pair():
    rng = np.random.default_rng(28)
    ops = [_rand(rng, 10), _rand(rng, 10)]
    U, forms = family_staircase(ops, selfadjoint=False)
    for form in forms:
        assert form.extras["stride"] == 5
        assert form.span_bounds[1] == (2, 6)
        assert form.passing, form.report.to_json()


def test_family_rejects_mixed_dims():
    rng = np.random.default_rng(29)
    with pytest.raises(ValueError, match="shape"):
        family_staircase([_rand(rng, 4), _rand(rng, 5)])


def _family_ops(rng, d, N, selfadjoint):
    ops = [_rand(rng, d) for _ in range(N)]
    return [A + A.conj().T for A in ops] if selfadjoint else ops


@pytest.mark.parametrize("selfadjoint", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 7, 20, 64])
def test_family_members_equal_per_member_recomputation(d, N, selfadjoint):
    # members after the first reuse its basis checks; every member must still
    # read exactly as if conjugated and verified on its own
    rng = np.random.default_rng(1000 * d + 10 * N + selfadjoint)
    ops = _family_ops(rng, d, N, selfadjoint)
    U, forms = family_staircase(ops, selfadjoint=selfadjoint)
    for S, form in zip(ops, forms):
        assert form.basis_change.tobytes() == U.tobytes()
        fresh = SparsifiedForm(
            input=S,
            basis_change=U,
            matrix=basis.conjugate(S, U),
            form_kind="family",
            pattern=family_stride(form.extras["stride"]),
            span_bounds=form.span_bounds,
            extras=form.extras,
        )
        assert form.matrix.tobytes() == fresh.matrix.tobytes()
        assert form.report.to_json() == full_report(fresh).to_json()


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` under every blocktrid module attribute holding it,
    as an external tracer does; returns the list the wrapper appends to."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "blocktrid" or mod_name.startswith("blocktrid."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    return calls


@pytest.mark.parametrize("selfadjoint", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_family_checks_its_basis_once(monkeypatch, N, selfadjoint):
    rng = np.random.default_rng(30 + N)
    ops = _family_ops(rng, 9, N, selfadjoint)
    unitarity = _count_calls(monkeypatch, kernel, "unitarity_residual")
    spans = _count_calls(monkeypatch, basis, "span_residual")
    _, forms = family_staircase(ops, selfadjoint=selfadjoint)
    # the first member's report; nothing for the others
    assert len(unitarity) == 1
    assert len(spans) == 1
    assert all(form.passing for form in forms)


@pytest.mark.parametrize("name", [
    "staircase", "block_tridiagonalize", "polar_sparsify", "polar_sparsify alt",
    "polar_sparsify_tridiagonal", "tri_sparsify", "krylov_hessenberg",
    "joint_cyclic_staircase", "decompose", "family_staircase",
])
def test_each_form_forms_one_gram(monkeypatch, name):
    # max|U*U - I| is computed once per call, by the report; conjugate is
    # the plain product, on the path of every form that builds a basis
    T = _rand(np.random.default_rng(34), 20)
    e1 = np.eye(20)[0]
    band = block_tridiagonalize(T)
    build = {
        "staircase": lambda: staircase(T),
        "block_tridiagonalize": lambda: block_tridiagonalize(T),
        "polar_sparsify": lambda: polar_sparsify(T),
        "polar_sparsify alt": lambda: polar_sparsify(T, alt=True),
        "polar_sparsify_tridiagonal": lambda: polar_sparsify_tridiagonal(
            band.matrix, band.schedule),
        "tri_sparsify": lambda: tri_sparsify(T),
        "krylov_hessenberg": lambda: krylov_hessenberg(T, e1),
        "joint_cyclic_staircase": lambda: joint_cyclic_staircase(T, e1),
        "decompose": lambda: decompose(T),
        "family_staircase": lambda: family_staircase([T, T.conj().T])[1][0],
    }[name]
    unitarity = _count_calls(monkeypatch, kernel, "unitarity_residual")
    products = _count_calls(monkeypatch, basis, "conjugate")
    assert build().passing
    assert len(unitarity) == 1
    assert len(products) == (0 if name == "polar_sparsify_tridiagonal" else
                             2 if name == "family_staircase" else 1)


def test_family_members_own_their_span_residuals():
    rng = np.random.default_rng(33)
    _, forms = family_staircase(_family_ops(rng, 8, 3, False))
    before = [form.report.to_json() for form in forms]
    assert forms[0].report.span_residuals == forms[2].report.span_residuals
    forms[1].report.span_residuals[0] = (1, 1, 1.0)
    forms[0].report.span_residuals.clear()
    assert forms[2].report.to_json() == before[2]
    assert forms[1].report.span_residuals[1:] == forms[2].report.span_residuals[1:]
    assert not forms[1].passing
    assert forms[2].passing


def test_reducing_closure_eigenvector():
    T = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    W = reducing_closure(T, np.array([0.0, 1.0, 0.0]))
    assert W.shape == (3, 1)
    np.testing.assert_allclose(np.abs(W[:, 0]), [0.0, 1.0, 0.0], atol=1e-14)


def test_reducing_closure_rotation_block():
    T = np.zeros((3, 3), dtype=np.complex128)
    T[0, 1] = -1.0
    T[1, 0] = 1.0
    T[2, 2] = 5.0
    W = reducing_closure(T, np.array([1.0, 0.0, 0.0]))
    assert W.shape == (3, 2)
    assert max_abs(W[2, :]) <= 1e-14


def test_reducing_closure_generic_vector_fills_space():
    rng = np.random.default_rng(30)
    T = _rand(rng, 6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    W = reducing_closure(T, v)
    assert W.shape == (6, 6)
    assert unitarity_residual(W) <= 1e-10


def test_decompose_diagonal():
    T = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(np.complex128)
    res = decompose(T)
    assert res.dims == [1, 1, 1, 1, 1]
    assert res.passing
    np.testing.assert_allclose(res.matrix, T, atol=1e-12)


def test_decompose_block_preserving_conjugation():
    rng = np.random.default_rng(31)
    R1 = _rand(rng, 3)
    R2 = _rand(rng, 5)
    Q3 = _rand_unitary(rng, 3)
    Q5 = _rand_unitary(rng, 5)
    T = np.zeros((8, 8), dtype=np.complex128)
    T[:3, :3] = Q3 @ R1 @ Q3.conj().T
    T[3:, 3:] = Q5 @ R2 @ Q5.conj().T
    res = decompose(T)
    assert res.dims == [3, 5]
    assert res.passing
    assert res.report.pattern_kind == "direct_sum"
    assert [(s.dim, s.pattern.kind, s.extras) for s in res.summands] == [
        (3, "joint_cyclic", {"offset": 0, "closure_dim": 3}),
        (5, "joint_cyclic", {"offset": 3, "closure_dim": 5}),
    ]


def test_decompose_dense_conjugation_sums_to_dim():
    rng = np.random.default_rng(32)
    R = np.zeros((8, 8), dtype=np.complex128)
    R[:3, :3] = _rand(rng, 3)
    R[3:, 3:] = _rand(rng, 5)
    Q = _rand_unitary(rng, 8)
    res = decompose(Q @ R @ Q.conj().T)
    assert sum(res.dims) == 8
    assert res.passing
    assert unitarity_residual(res.basis_change) <= 1e-10


def test_decompose_irreducible_single_summand():
    rng = np.random.default_rng(33)
    T = _rand(rng, 6)
    res = decompose(T)
    assert res.dims == [6]
    assert res.passing


def test_decompose_preserves_similarity_data():
    rng = np.random.default_rng(34)
    T = _rand(rng, 7)
    res = decompose(T)
    U = res.basis_change
    np.testing.assert_allclose(U.conj().T @ T @ U, res.matrix, atol=1e-10)
    assert abs(np.trace(res.matrix) - np.trace(T)) <= 1e-10


def test_staircase_support_matches_coarse_claim():
    rng = np.random.default_rng(35)
    form = staircase(_rand(rng, 17))
    assert check_pattern(form.matrix, staircase_coarse(), 1e-10) == []


def test_decompose_names_its_largest_coupling_entry():
    # coupling entries are claimed zeros of the direct-sum pattern, checked
    # against the entry threshold like every other claimed zero
    rng = np.random.default_rng(5)
    d = 64
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    T = np.outer(u, w.conj())
    res = decompose(T)
    assert len(res.dims) > 1
    label = np.repeat(np.arange(len(res.dims)), res.dims)
    off = np.where(label[:, None] != label[None, :], np.abs(res.matrix), 0.0)
    i, j = np.unravel_index(np.argmax(off), off.shape)
    top = off[i, j]
    # roundoff-level coupling, so the entry named is not a zero
    assert 0.0 < top <= 1e-9
    entry = (i + 1, j + 1, top)
    assert entry not in decompose(T, threshold=top).report.pattern_violations
    below = decompose(T, threshold=np.nextafter(top, 0.0)).report
    assert entry in below.pattern_violations
    assert ("pattern_violations", (i + 1, j + 1), top, np.nextafter(top, 0.0)) in below.failures


def test_decompose_checks_its_own_basis_change(monkeypatch):
    build = basis.run_program

    def tampered(*args, **kwargs):
        res = build(*args, **kwargs)
        res.basis[:, 0] *= 1 + 1e-9
        return res

    monkeypatch.setattr(transforms, "run_program", tampered)
    res = decompose(_rand(np.random.default_rng(36), 8))
    assert not res.passing
    first = res.report.failures[0]
    assert first.check == "unitarity_residual"
    assert first.value > first.limit == UNITARITY_LIMIT


def test_reconstruction_residual_is_backward_error():
    rng = np.random.default_rng(64)
    T = _rand(rng, 64)
    form = staircase(T)
    U, M = form.basis_change, form.matrix
    exact = reconstruction_max(T, U, M)
    assert form.report.reconstruction_residual >= reconstruction_fro(T, U, M) >= exact
    assert exact > 0.0
    assert form.passing


_EMPTY_BUILDS = {
    "staircase": staircase,
    "block_tridiagonalize": block_tridiagonalize,
    "polar_sparsify": polar_sparsify,
    "tri_sparsify": tri_sparsify,
    "krylov_hessenberg": lambda T: krylov_hessenberg(T, np.ones(1)),
    "joint_cyclic_staircase": lambda T: joint_cyclic_staircase(T, np.ones(1)),
    "family_staircase": lambda T: family_staircase([T]),
    "decompose": decompose,
    "reducing_closure": lambda T: reducing_closure(T, np.ones(1)),
    "run_program": lambda T: basis.run_program([T], staircase_program()),
    "conjugate": lambda T: basis.conjugate(T, T),
}


@pytest.mark.parametrize("name", _EMPTY_BUILDS)
def test_every_form_rejects_an_empty_operator(name):
    # no form is claimed of a 0 x 0 operator: it would pass vacuously
    with pytest.raises(ValueError, match="is empty; an operator needs dimension at least 1"):
        _EMPTY_BUILDS[name](np.zeros((0, 0)))
