import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blocktrid import basis
from blocktrid.basis import (
    BuildLog,
    InstructionCapError,
    LogEntry,
    conjugate,
    run_program,
    span_residual,
)
from blocktrid.kernel import (GsOutcome, adjoint, max_abs, mgs_append, unit_vector,
                              unitarity_residual)
from blocktrid.transforms import staircase
from blocktrid.verify import UNITARITY_LIMIT, full_report
from blocktrid.words import (
    WordProgram,
    direct_sum_program,
    joint_cyclic_program,
    krylov_program,
    family_program,
    staircase_program,
    trace,
)
from reference_executor import read_word
from reference_similarity import unitarity_max
from reference_span import lstsq_distance
from tamper import scaled_column
from test_executor_reference import DIMS, FAMILIES, PROGRAMS, build_args, gaussian, make_input

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
        assert unitarity_max(res.basis) < 1e-12
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


def test_conjugate_identity_and_permutation():
    T = np.diag([1.0, 2.0])
    assert_allclose(conjugate(T, np.eye(2)), T)
    P = np.array([[0, 1], [1, 0]], dtype=complex)
    assert_allclose(conjugate(T, P), np.diag([2.0, 1.0]))


def test_conjugate_five_by_five_fixture():
    assert max_abs(conjugate(FIXTURE_T5, FIXTURE_U5) - FIXTURE_M5) < 1e-12


def test_conjugate_is_the_plain_product_and_the_report_checks_u():
    T, U = np.eye(2), np.diag([1, 2]).astype(complex)
    assert np.array_equal(conjugate(T, U), U.conj().T @ T @ U)
    with pytest.raises(ValueError):
        conjugate(np.eye(2), np.eye(3))
    # column 1 scaled by 1+1e-6 (over the 1e-8 that conjugate once rejected)
    # or by 1+1e-9 (under it): the staircase report fails on U first
    T = random_matrix(np.random.default_rng(65), 16)
    for factor in (1 + 1e-6, 1 + 1e-9):
        with scaled_column(0, factor):
            form = staircase(T)
        assert np.array_equal(form.matrix,
                              form.basis_change.conj().T @ T @ form.basis_change)
        first = full_report(form).failures[0]
        assert first.check == "unitarity_residual"
        assert first.value > first.limit == UNITARITY_LIMIT


def test_krylov_closure_and_padding():
    T = np.zeros((4, 4), dtype=complex)
    T[1, 0] = 1.0
    v = unit_vector(4, 0)
    res = run_program([T], krylov_program(), seed_vector=v)
    assert res.closures == [2]
    assert res.basis.shape == (4, 4)
    assert unitarity_max(res.basis) < 1e-12
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
        assert unitarity_max(res.basis) < 1e-12


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


@pytest.mark.parametrize("n_ops, program, seed_vector, message", [
    # each of these once built a basis from part of its input, or died
    # with a KeyError, instead of naming the mismatch
    (2, staircase_program(), None, "applies 1 operator"),
    (1, family_program(2, selfadjoint=False), None, "applies 2 operator"),
    (3, family_program(2, selfadjoint=True), None, "applies 2 operator"),
    (1, staircase_program(), np.zeros(4), "does not start from a seed vector"),
    (1, direct_sum_program(), np.ones(4), "does not start from a seed vector"),
    (2, krylov_program(), np.ones(4), "applies 1 operator"),
    (2, family_program(2, selfadjoint=True), np.ones(4), "does not start from a seed vector"),
], ids=["staircase-2-ops", "family2-1-op", "family2-3-ops", "staircase-zero-seed",
        "direct-sum-seed", "krylov-2-ops", "family2-seed"])
def test_run_program_rejects_inputs_it_would_ignore(n_ops, program, seed_vector, message):
    rng = np.random.default_rng(61)
    ops = [random_matrix(rng, 4) for _ in range(n_ops)]
    with pytest.raises(ValueError, match=message):
        run_program(ops, program, seed_vector=seed_vector)


def every_program(T, S, v):
    """(name, operators, word program, keyword arguments) for each program on T."""
    H, K = T + T.conj().T, S + S.conj().T
    return [
        ("staircase", [T], staircase_program(), {}),
        ("direct_sum", [T], direct_sum_program(), {}),
        ("joint_cyclic", [T], joint_cyclic_program(), {"seed_vector": v}),
        ("closure", [T], joint_cyclic_program(), {"seed_vector": v, "pad_with_seeds": False}),
        ("krylov", [T], krylov_program(), {"seed_vector": v}),
        ("family_sa", [H, K], family_program(2, selfadjoint=True), {}),
        ("family_gen", [T, S], family_program(2, selfadjoint=False), {}),
    ]


@pytest.mark.parametrize("name", PROGRAMS)
def test_every_position_is_bounded_by_the_stride(name):
    # a build logs the positions 1..P in order, with no gap but the closing
    # position that a padded cyclic span skips, and P <= (stride + 1)·d + 2,
    # so the positions a traced pass sums stay exact integers in floating point
    for family in FAMILIES:
        for d in DIMS:
            rng = np.random.default_rng(100 * d + FAMILIES.index(family))
            T = make_input(family, d, rng)
            S, v = gaussian(rng, d), gaussian(rng, d)[0]
            ops, program, kwargs = build_args(name, T, S, v)
            entries = run_program(ops, program, **kwargs).log.entries
            positions = [e.position for e in entries]
            assert all(type(p) is int for p in positions)
            # a cyclic build offers seeds only to pad, from e_1 on
            pads = [e.position for e in entries if e.instruction == "seed 1"]
            skip = [pads[0] - 1] if program.first == "v" and pads else []
            assert positions == [p for p in range(1, positions[-1] + 1) if p not in skip]
            assert positions[-1] <= (program.stride + 1) * d + 2


@pytest.mark.parametrize("family", ["gaussian", "identity", "jordan", "rank_one"])
def test_run_program_never_writes_its_inputs(family):
    # the seed vector is offered as a copy: a complex128 vector is the
    # caller's own array inside run_program
    rng = np.random.default_rng(62)
    d = 9
    T = {"gaussian": random_matrix(rng, d), "identity": np.eye(d, dtype=complex),
         "jordan": np.eye(d, k=1, dtype=complex),
         "rank_one": np.outer(random_matrix(rng, d)[0], random_matrix(rng, d)[1])}[family]
    S, v = random_matrix(rng, d), random_matrix(rng, d)[0]
    for name, ops, program, kwargs in every_program(T, S, v):
        inputs = ops + ([kwargs["seed_vector"]] if "seed_vector" in kwargs else [])
        before = [a.tobytes() for a in inputs]
        run_program(ops, program, **kwargs)
        assert [a.tobytes() for a in inputs] == before, name


@pytest.mark.parametrize("tol", [-1.0, math.nan, 1.0, math.inf])
def test_run_program_checks_the_tolerance_before_any_offer(tol, monkeypatch):
    offers = []
    monkeypatch.setattr(basis, "offer_row", lambda *args: offers.append(args))
    monkeypatch.setattr(basis, "mgs_append", lambda *args: offers.append(args))
    rng = np.random.default_rng(63)
    T, S = random_matrix(rng, 6), random_matrix(rng, 6)
    for _, ops, program, kwargs in every_program(T, S, T[0]):
        with pytest.raises(ValueError, match=r"dependence tolerance must lie in \[0, 1\)"):
            run_program(ops, program, tol, **kwargs)
    assert offers == []


def test_a_closed_span_that_rejects_every_seed_left_ends_past_the_last_seed(monkeypatch):
    # T couples e_1 with u, spread evenly over e_2..e_6, and is zero on the
    # rest: at tol 0.9 the seeds e_2..e_6, at distance sqrt(4/5) from
    # span(e_1, u), are rejected, while each of e_7..e_12 is accepted once.
    # A closure retries seeds past every seed offered before it, so no
    # rejected seed is retried and the build ends at the seed index d + 1
    d = 12
    u = np.zeros(d, dtype=complex)
    u[1:6] = 1 / np.sqrt(5)
    T = np.outer(u, unit_vector(d, 0)) + np.outer(unit_vector(d, 0), u)
    logs, stream = [], []

    def kept():
        logs.append(BuildLog())
        return logs[-1]

    class Recorded(WordProgram):
        def word(self, j):
            stream.append(super().word(j))
            return stream[-1]

    monkeypatch.setattr(basis, "BuildLog", kept)
    with pytest.raises(InstructionCapError, match=f"^seed index {d + 1} exceeds dimension {d}$"):
        run_program([T], Recorded(*staircase_program()), 0.9)
    entries = logs[0].entries
    assert [e.position for e in entries] == list(range(1, 35))
    assert sum(e.accepted for e in entries) == 8
    # the words offered in the stream's order are its own; the rest are the
    # seeds retried at closures, which never equal the closing word
    words = iter(stream)
    upcoming = next(words)
    retried = []
    for e in entries:
        word = read_word(e.instruction)
        if word == upcoming:
            upcoming = next(words, None)
        else:
            retried.append(word)
    assert retried == [(0, False, n) for n in range(4, d + 1)]


def test_family_build_completes():
    rng = np.random.default_rng(58)
    d = 7
    S1 = random_matrix(rng, d)
    S2 = random_matrix(rng, d)
    res = run_program([S1, S2], family_program(2, selfadjoint=False))
    assert unitarity_max(res.basis) < 1e-12
    H1 = S1 + adjoint(S1)
    H2 = S2 + adjoint(S2)
    res_sa = run_program([H1, H2], family_program(2, selfadjoint=True))
    assert unitarity_max(res_sa.basis) < 1e-12


def test_log_serializes_to_json():
    T = np.zeros((3, 3), dtype=complex)
    res = run_program([T], staircase_program())
    payload = json.loads(res.log.to_json())
    assert len(payload) == len(res.log.entries)
    assert payload[0]["position"] == 1
    assert payload[0]["accepted"] is True
    assert res.log.to_json() == res.log.to_json()
    # every value of this log is exact, so its encoding is pinned byte for byte
    assert res.log.to_json() == LOG_3X3_ZERO_STAIRCASE


LOG_3X3_ZERO_STAIRCASE = (
    '[{"accepted": true, "instruction": "seed 1", "position": 1, "position_end": 1, '
    '"residual_norm": 1.0, "survivor_index": 1}, '
    '{"accepted": false, "instruction": "apply 1 0 1", "position": 2, "position_end": 2, '
    '"residual_norm": 0.0, "survivor_index": null}, '
    '{"accepted": false, "instruction": "apply 1 1 1", "position": 3, "position_end": 3, '
    '"residual_norm": 0.0, "survivor_index": null}, '
    '{"accepted": true, "instruction": "seed 2", "position": 4, "position_end": 4, '
    '"residual_norm": 1.0, "survivor_index": 2}, '
    '{"accepted": false, "instruction": "apply 1 0 2", "position": 5, "position_end": 5, '
    '"residual_norm": 0.0, "survivor_index": null}, '
    '{"accepted": false, "instruction": "apply 1 1 2", "position": 6, "position_end": 6, '
    '"residual_norm": 0.0, "survivor_index": null}, '
    '{"accepted": true, "instruction": "seed 3", "position": 7, "position_end": 7, '
    '"residual_norm": 1.0, "survivor_index": 3}]'
)


@pytest.mark.parametrize("record, fields, defaults, sample", [
    (WordProgram, ("first", "n_ops", "adjoints"), {}, WordProgram(None, 1, True)),
    (GsOutcome, ("accepted", "vector", "residual_norm"), {},
     GsOutcome(False, None, 0.0)),
    (LogEntry, ("position", "position_end", "instruction", "accepted", "residual_norm",
                "survivor_index"), {},
     LogEntry(1, 1, "seed 1", True, 1.0, 1)),
])
def test_build_records_are_immutable_named_tuples(record, fields, defaults, sample):
    assert record._fields == fields
    assert record._field_defaults == defaults
    assert tuple(sample) == sample
    with pytest.raises(AttributeError):
        setattr(sample, fields[0], getattr(sample, fields[0]))


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
    ms = np.array([1, 3, 0, 2, 29, 7, 30, 30])
    batched = span_residual(ns, U, ms)
    assert isinstance(batched, np.ndarray) and batched.shape == ns.shape
    for n, m, r in zip(ns.tolist(), ms.tolist(), batched):
        single = span_residual(n, U, m)
        assert type(single) is float
        assert abs(r - single) <= 1e-14
    # empty span: the whole row, whose norm is 1 up to U's departure from
    # unitarity, and exactly 1 for a permutation
    assert abs(batched[2] - 1.0) <= unitarity_residual(U)
    P = np.eye(d)[np.random.default_rng(61).permutation(d)]
    assert span_residual(5, P, 0) == 1.0
    assert batched[6] < 1e-12 and batched[7] < 1e-12
    with pytest.raises(ValueError):
        span_residual(np.array([3, 31]), U, np.array([3, 30]))
    with pytest.raises(ValueError):
        span_residual(0, U, 3)


@pytest.mark.parametrize("m", [-1, 4, 7])
def test_span_residual_rejects_span_sizes_outside_the_columns(m):
    # the first m columns exist only for 0 <= m <= the number of columns
    with pytest.raises(ValueError, match=rf"^span bound \(1, {m}\) out of range"):
        span_residual(1, np.eye(3), m)
    with pytest.raises(ValueError, match=rf"^span bound \(2, {m}\) out of range"):
        span_residual(np.array([1, 2]), np.eye(3), np.array([2, m]))
    assert span_residual(1, np.eye(3), 0) == 1.0
    assert span_residual(3, np.eye(3), 3) == 0.0


@pytest.mark.parametrize("n, m", [
    (2.0, 1), (2, 1.5), (2, 1.0), (True, 1),
    (np.array([1, 2]), np.array([2, 1.5])), (np.array([1.0, 2.0]), np.array([2, 1])),
])
def test_span_residual_rejects_bounds_that_are_not_integers(n, m):
    # a float bound is no row or column count, even with an integral value
    with pytest.raises(ValueError, match=r"^span bound .* out of range for dimension 3: "
                                         r"not integers$"):
        span_residual(n, np.eye(3), m)


def test_span_residual_reads_the_tail_of_row_n():
    # the distance is the norm of U[n, m+1:] for every (n, m); on a built
    # basis, unitary to roundoff, it is the least-squares distance
    rng = np.random.default_rng(63)
    d = 24
    ns = np.arange(1, d + 1)
    ms = np.minimum(3 * ns, d) - (ns % 4)
    U = run_program([random_matrix(rng, d)], staircase_program()).basis
    for V in (U, random_matrix(rng, d)):
        tails = [np.linalg.norm(V[n - 1, m:]) for n, m in zip(ns, ms)]
        assert_allclose(span_residual(ns, V, ms), tails, rtol=4 * np.finfo(float).eps)
    for n, m, r in zip(ns.tolist(), ms.tolist(), span_residual(ns, U, ms)):
        assert abs(r - lstsq_distance(U, n, m)) <= 1e-14


def test_span_residual_rejects_a_non_square_basis():
    # e_1 alone in C^4: row 2 of it is zero, yet e_2 is at distance 1 from
    # its span; the tail reads a distance only when the whole row is there
    e1 = unit_vector(4, 0)[:, None]
    assert lstsq_distance(e1, 2, 1) == 1.0
    with pytest.raises(ValueError, match="square"):
        span_residual(2, e1, 1)


def _three_summands(rng):
    # C^9 = span(e_1..e_3) + span(e_4..e_6) + span(e_7..e_9), each reducing for T
    T = np.zeros((9, 9), dtype=complex)
    for s in (slice(0, 3), slice(3, 6), slice(6, 9)):
        T[s, s] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return T


def test_direct_sum_stream_opens_with_e1():
    assert [trace(direct_sum_program().word(j)) for j in range(7)] == [
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
    assert unitarity_max(res.basis) < 1e-12
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
    assert unitarity_max(res.basis) < 1e-12


def _large_blocks(log, d):
    """Row counts of the blocks of four or more offers, in build order, read
    off the log of a build that never closes: a block runs while each offer's
    source was accepted before the block began, at most one offer per slot
    that was free then."""
    entries = log.entries
    sizes, k, i = [], 0, 0
    while i < len(entries):
        start = i
        while i < len(entries) and i - start < d - k:
            op, _, n = read_word(entries[i].instruction)
            if op and n > k:
                break
            i += 1
        assert i > start, "the build closed"
        sizes.append(i - start)
        k += sum(e.accepted for e in entries[start:i])
    return [size for size in sizes if size >= 4]


@pytest.mark.parametrize("build", ["staircase", "family", "krylov"])
def test_every_block_of_four_or_more_offers_goes_through_mgs_append(build, monkeypatch):
    # the benchmark's kernel.mgs_append span and the small-block test of
    # test_executor_reference.py both rely on this hook
    rows = []

    def counting(basis_rows, candidates, tol):
        rows.append(len(candidates))
        return mgs_append(basis_rows, candidates, tol)

    monkeypatch.setattr(basis, "mgs_append", counting)
    rng = np.random.default_rng(66)
    d = 48
    T, S = random_matrix(rng, d), random_matrix(rng, d)
    if build == "staircase":
        res = run_program([T], staircase_program())
    elif build == "family":
        res = run_program([T, S], family_program(2, selfadjoint=False))
    else:
        res = run_program([T], krylov_program(), seed_vector=S[0])
    assert res.closures == [] and res.basis.shape == (d, d)
    assert rows == _large_blocks(res.log, d)
    assert (len(rows) > 0) == (build != "krylov")
