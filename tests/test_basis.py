import json
from itertools import chain, repeat

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blocktrid.basis import (
    InstructionCapError,
    conjugate,
    run_program,
    span_residual,
)
from blocktrid.kernel import adjoint, max_abs, unit_vector, unitarity_residual
from blocktrid.words import (
    WordProgram,
    apply_op,
    direct_sum_program,
    parse_trace,
    seed,
    joint_cyclic_program,
    krylov_program,
    family_program,
    staircase_program,
    tri_word_program,
)

FIXTURE_T5 = np.array(
    [
        [1, 1, 1, 0, 0],
        [1, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
        [0, 1, 1, 1, 1],
    ],
    dtype=complex,
)

_S2 = np.sqrt(2.0)

FIXTURE_U5 = (1 / _S2) * np.array(
    [
        [0, 0, _S2, 0, 0],
        [0, 1, 0, -1, 0],
        [0, 1, 0, 1, 0],
        [1, 0, 0, 0, 1],
        [1, 0, 0, 0, -1],
    ],
    dtype=complex,
)

FIXTURE_M5 = 0.5 * np.array(
    [
        [4, 4, 0, 0, 0],
        [4, 4, _S2, 0, 0],
        [0, 2 * _S2, 2, 0, 0],
        [0, 0, -_S2, 0, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=complex,
)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_staircase_build_is_unitary_and_logged():
    rng = np.random.default_rng(51)
    for trial in range(40):
        d = int(rng.integers(1, 16))
        T = random_matrix(rng, d)
        res = run_program([T], staircase_program())
        assert res.basis.shape == (d, d)
        assert unitarity_residual(res.basis) < 1e-12
        assert res.log.accepted_count == d
        # accepted entries carry consecutive survivor indices
        slots = [e.survivor_index for e in res.log.entries if e.accepted]
        assert slots == list(range(1, d + 1))


def test_staircase_support_bounds():
    # column n dies below row 3n-1, row n dies right of column 3n
    rng = np.random.default_rng(52)
    for trial in range(30):
        d = int(rng.integers(2, 16))
        T = random_matrix(rng, d)
        M = conjugate(T, run_program([T], staircase_program()).basis)
        for n in range(1, d + 1):
            assert max_abs(M[3 * n - 1:, n - 1]) < 1e-10
            assert max_abs(M[n - 1, 3 * n:]) < 1e-10


def test_staircase_degenerate_inputs_give_identity():
    for T in (
        np.zeros((3, 3), dtype=complex),
        np.array([[0, 0], [1, 0]], dtype=complex),
        np.diag([1.0, 2.0, 3.0]).astype(complex),
    ):
        d = T.shape[0]
        res = run_program([T], staircase_program())
        assert max_abs(res.basis - np.eye(d)) < 1e-12
        M = conjugate(T, res.basis)
        assert max_abs(M - T) < 1e-12


def test_staircase_zero_matrix_offers_every_seed():
    d = 6
    res = run_program([np.zeros((d, d))], staircase_program())
    seeds = [e.instruction for e in res.log.entries if e.instruction.startswith("seed")]
    assert seeds == [f"seed {k}" for k in range(1, d + 1)]


def test_tri_raw_vectors_match_word_recurrences():
    # with a generic matrix nothing is rejected, so the stored raw vectors
    # must be exactly the words e1, Te1, T*e1, T^2e1, TT*e1, T*Te1, T*^2e1,
    # T*T^2e1, e2
    rng = np.random.default_rng(53)
    T = random_matrix(rng, 9)
    Ts = adjoint(T)
    e1 = unit_vector(9, 0)
    e2 = unit_vector(9, 1)
    res = run_program([T], tri_word_program())
    words = [
        e1, T @ e1, Ts @ e1,
        T @ (T @ e1), T @ (Ts @ e1),
        Ts @ (T @ e1), Ts @ (Ts @ e1), Ts @ (T @ (T @ e1)),
        e2,
    ]
    assert len(res.raw_vectors) == 9
    for got, want in zip(res.raw_vectors, words):
        assert_allclose(got, want, atol=1e-12)
    assert res.log.accepted_count == 9
    assert all(e.position == e.position_end for e in res.log.entries)


def test_tri_build_unitary_random():
    rng = np.random.default_rng(54)
    for trial in range(20):
        d = int(rng.integers(1, 20))
        T = random_matrix(rng, d)
        res = run_program([T], tri_word_program())
        assert unitarity_residual(res.basis) < 1e-12


def test_tri_zero_matrix_completes_through_skips():
    d = 9
    res = run_program([np.zeros((d, d))], tri_word_program())
    assert max_abs(res.basis - np.eye(d)) < 1e-14
    # the final seed sits at position 3^9 yet only a handful of offers ran
    assert max(e.position_end for e in res.log.entries) == 3 ** 9
    assert len(res.log.entries) < 60
    assert any(e.position_end > e.position for e in res.log.entries)


def test_tri_identity_matrix_completes_through_skips():
    d = 9
    res = run_program([np.eye(d)], tri_word_program())
    assert max_abs(res.basis - np.eye(d)) < 1e-14
    assert max(e.position_end for e in res.log.entries) == 3 ** 9
    assert len(res.log.entries) < 60


def test_tri_deletion_rebinding_trace():
    # upper shift on 3 dims: T e1 = 0 dies, T* e1 = e2 survives, then every
    # later word collapses and the seeds finish the job at positions 9, 27
    T = np.zeros((3, 3), dtype=complex)
    T[0, 1] = 1.0
    res = run_program([T], tri_word_program())
    assert max_abs(res.basis - np.eye(3)) < 1e-14
    flat = [(e.position, e.position_end, e.accepted) for e in res.log.entries]
    assert flat == [
        (1, 1, True),      # e1
        (2, 2, False),     # T e1 = 0
        (3, 3, True),      # T* e1 = e2
        (4, 5, False),     # T g2 = e1 already present; run collapses
        (6, 7, False),     # T* g2 = 0
        (8, 8, False),     # reference past the survivors
        (9, 9, False),     # e2 already present
        (10, 15, False),
        (16, 26, False),
        (27, 27, True),    # e3
    ]


def test_tri_span_condition():
    # e_n lies in the span of the first 3^n basis vectors
    rng = np.random.default_rng(55)
    T = random_matrix(rng, 27)
    res = run_program([T], tri_word_program())
    assert span_residual(1, res.basis, 1) < 1e-10
    assert span_residual(2, res.basis, 9) < 1e-8
    assert span_residual(3, res.basis, 27) < 1e-8


def test_conjugate_identity_and_permutation():
    T = np.diag([1.0, 2.0])
    assert_allclose(conjugate(T, np.eye(2)), T)
    P = np.array([[0, 1], [1, 0]], dtype=complex)
    assert_allclose(conjugate(T, P), np.diag([2.0, 1.0]))


def test_conjugate_five_by_five_fixture():
    assert max_abs(conjugate(FIXTURE_T5, FIXTURE_U5) - FIXTURE_M5) < 1e-12


def test_conjugate_rejects_nonunitary():
    with pytest.raises(ValueError):
        conjugate(np.eye(2), np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError):
        conjugate(np.eye(2), np.eye(3))


def test_krylov_closure_and_padding():
    T = np.zeros((4, 4), dtype=complex)
    T[1, 0] = 1.0
    v = unit_vector(4, 0)
    res = run_program([T], krylov_program(), seed_vector=v)
    assert res.closures == [2]
    assert res.basis.shape == (4, 4)
    assert unitarity_residual(res.basis) < 1e-12
    bare = run_program([T], krylov_program(), seed_vector=v, pad_with_seeds=False)
    assert bare.basis.shape == (4, 2)


def test_joint_cyclic_closure_detects_reducing_block():
    T = np.diag([1.0, 2.0, 3.0]).astype(complex)
    T[0, 1] = T[1, 0] = 1.0
    res = run_program([T], joint_cyclic_program(), seed_vector=unit_vector(3, 0))
    assert res.closures == [2]
    # the closure spans e1, e2
    assert span_residual(1, res.basis, 2) < 1e-12
    assert span_residual(2, res.basis, 2) < 1e-12


def test_joint_cyclic_generic_vector_is_cyclic():
    rng = np.random.default_rng(56)
    for trial in range(20):
        d = int(rng.integers(2, 10))
        T = random_matrix(rng, d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        res = run_program([T], joint_cyclic_program(), seed_vector=v)
        assert res.closures == []
        assert unitarity_residual(res.basis) < 1e-12


def test_seed_vector_validation():
    T = np.eye(3)
    with pytest.raises(ValueError):
        run_program([T], krylov_program())
    with pytest.raises(ValueError):
        run_program([T], krylov_program(), seed_vector=np.zeros(3))
    with pytest.raises(ValueError):
        run_program([T], krylov_program(), seed_vector=np.ones(4))


def test_operator_validation():
    with pytest.raises(ValueError):
        run_program([], staircase_program())
    with pytest.raises(ValueError, match="square"):
        run_program([np.ones((4, 3))], staircase_program())
    # the dimension comes from the first operator; the others must match it
    with pytest.raises(ValueError, match=r"\(3, 3\) does not match \(4, 4\)"):
        run_program([np.eye(4), np.eye(3)], family_program(2, selfadjoint=True))
    with pytest.raises(ValueError, match=r"\(4, 4\) does not match \(3, 3\)"):
        run_program([np.eye(3), np.eye(4)], family_program(2, selfadjoint=False))


def test_instruction_cap_stops_a_stream_that_never_seeds_again():
    # e_1, then T e_1 over and over: on the identity every offer after the
    # first is rejected, nothing ever closes, and the bound of
    # (stride + 1) * dim + 2 positions ends the build
    d = 5
    stuck = WordProgram("stuck", lambda: chain([seed(1)], repeat(apply_op(1))), stride=2)
    with pytest.raises(InstructionCapError, match=f"after {3 * d + 2} instructions"):
        run_program([np.eye(d)], stuck)


def test_family_build_completes():
    rng = np.random.default_rng(58)
    d = 7
    S1 = random_matrix(rng, d)
    S2 = random_matrix(rng, d)
    res = run_program([S1, S2], family_program(2, selfadjoint=False))
    assert unitarity_residual(res.basis) < 1e-12
    H1 = S1 + adjoint(S1)
    H2 = S2 + adjoint(S2)
    res_sa = run_program([H1, H2], family_program(2, selfadjoint=True))
    assert unitarity_residual(res_sa.basis) < 1e-12


def test_log_serializes_to_json():
    T = np.zeros((3, 3), dtype=complex)
    res = run_program([T], tri_word_program())
    payload = json.loads(res.log.to_json())
    assert len(payload) == len(res.log.entries)
    assert payload[0]["position"] == 1
    assert payload[0]["accepted"] is True
    assert res.log.to_json() == res.log.to_json()


def test_span_residual_full_basis_is_zero():
    rng = np.random.default_rng(59)
    T = random_matrix(rng, 8)
    U = run_program([T], staircase_program()).basis
    for n in range(1, 9):
        assert span_residual(n, U, 8) < 1e-12
    with pytest.raises(ValueError):
        span_residual(9, U, 8)


def test_span_residual_arrays_match_scalar_calls():
    rng = np.random.default_rng(60)
    d = 30
    U = run_program([random_matrix(rng, d)], staircase_program()).basis
    ns = np.array([1, 2, 5, 5, 17, 30, 30, 4])
    ms = np.array([1, 3, 0, 2, 29, 7, 30, 40])
    batched = span_residual(ns, U, ms)
    assert isinstance(batched, np.ndarray) and batched.shape == ns.shape
    for n, m, r in zip(ns.tolist(), ms.tolist(), batched):
        single = span_residual(n, U, m)
        assert type(single) is float
        assert abs(r - single) <= 1e-14
    assert batched[2] == 1.0                 # empty span
    assert batched[6] < 1e-12 and batched[7] < 1e-12
    with pytest.raises(ValueError):
        span_residual(np.array([3, 31]), U, np.array([3, 30]))
    with pytest.raises(ValueError):
        span_residual(0, U, 3)


def _three_summands(rng):
    # C^9 = span(e_1..e_3) + span(e_4..e_6) + span(e_7..e_9), each reducing for T
    T = np.zeros((9, 9), dtype=complex)
    for s in (slice(0, 3), slice(3, 6), slice(6, 9)):
        T[s, s] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return T


def test_direct_sum_stream_opens_with_e1():
    instrs = direct_sum_program().instructions()
    assert [next(instrs).trace() for _ in range(7)] == [
        "seed 1", "apply 1 0 1", "apply 1 1 1", "apply 1 0 2", "apply 1 1 2",
        "apply 1 0 3", "apply 1 1 3",
    ]
    assert direct_sum_program().stride == 2


def test_direct_sum_build_seeds_again_at_each_closure():
    rng = np.random.default_rng(61)
    T = _three_summands(rng)
    res = run_program([T], direct_sum_program())
    # T f_4 finds the span of e_1..e_3 closed: e_2 and e_3 are offered and
    # rejected in its place, e_4 is accepted, and T f_4 comes next
    assert res.closures == [3, 3, 3, 6, 6, 6]
    def summand(first):
        # a generic 3 x 3 block: T f and T* f fill it, later words are rejected
        return [(f"apply 1 {adj} {m}", m == first)
                for m in (first, first + 1, first + 2) for adj in (0, 1)]

    trace = [(e.instruction, e.accepted) for e in res.log.entries]
    assert trace == (
        [("seed 1", True)] + summand(1)
        + [("seed 2", False), ("seed 3", False), ("seed 4", True)] + summand(4)
        + [("seed 5", False), ("seed 6", False), ("seed 7", True)] + summand(7)[:2]
    )
    assert [e.position for e in res.log.entries] == list(range(1, len(trace) + 1))
    assert unitarity_residual(res.basis) < 1e-12
    # each closure spans its block of standard vectors
    for n, m in ((3, 3), (6, 6), (9, 9)):
        assert span_residual(n, res.basis, m) < 1e-12


def test_direct_sum_build_on_identity_and_generic_input():
    d = 6
    res = run_program([np.eye(d)], direct_sum_program())
    assert res.closures == [1, 2, 3, 4, 5]
    assert np.array_equal(res.basis, np.eye(d))
    # three positions per summand: the seed and its two rejected words
    assert len(res.log.entries) == 3 * d - 2
    rng = np.random.default_rng(62)
    res = run_program([random_matrix(rng, d)], direct_sum_program())
    assert res.closures == []
    assert unitarity_residual(res.basis) < 1e-12
