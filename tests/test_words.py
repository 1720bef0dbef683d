import itertools

import numpy as np
import pytest

from blocktrid.words import (
    SurvivorMap,
    WordInstruction,
    apply_op,
    direct_sum_program,
    family_program,
    joint_cyclic_program,
    krylov_program,
    parse_trace,
    seed,
    seed_vec,
    staircase_program,
    tri_word_program,
    tri_word_raw,
    tri_word_sequence,
)

# first full stage block of the triangular stream, decoded by hand from the
# recurrences: g2=Te1, g3=T*e1, g4=Tg2, g5=Tg3, g6=T*g2, g7=T*g3, g8=T*g4,
# g9=e2, then Tg4..Tg9, T*g5..T*g15, e3
TRI_PREFIX = (
    [("seed", 1), ("T", 1), ("T*", 1), ("T", 2), ("T", 3), ("T*", 2), ("T*", 3),
     ("T*", 4), ("seed", 2)]
    + [("T", t) for t in range(4, 10)]
    + [("T*", t) for t in range(5, 16)]
    + [("seed", 3)]
)


def shorthand(instr):
    if instr.kind == "seed":
        return ("seed", instr.seed_index)
    return ("T*" if instr.adjoint else "T", instr.src)


def take(program, n):
    return list(itertools.islice(program.instructions(), n))


def test_staircase_program_positions():
    first = take(staircase_program(), 30)
    assert first[0] == seed(1)
    assert first[1] == apply_op(1, adjoint=False)
    assert first[2] == apply_op(1, adjoint=True)
    assert first[3] == seed(2)
    assert first[4] == apply_op(2, adjoint=False)
    assert first[5] == apply_op(2, adjoint=True)
    # Seed(10) sits at position 28 = 3*10 - 2
    assert first[27] == seed(10)


def test_staircase_src_below_position():
    for pos, instr in enumerate(take(staircase_program(), 10000), start=1):
        if instr.kind == "apply":
            assert instr.src < pos


def test_tri_first_nine():
    got = [shorthand(w) for w in tri_word_sequence(9)]
    assert got == TRI_PREFIX[:9]


def test_tri_prefix_27():
    got = [shorthand(w) for w in tri_word_sequence(27)]
    assert got == TRI_PREFIX


def test_tri_seed_positions():
    seq = tri_word_sequence(3 ** 6)
    assert seq[0] == seed(1)
    for k in range(2, 7):
        assert seq[3 ** k - 1] == seed(k)
    seeds = [w.seed_index for w in seq if w.kind == "seed"]
    assert seeds == [1, 2, 3, 4, 5, 6]


def test_tri_region_structure():
    # stage k: T-applications, then T*-applications, then the closing seed
    for k in range(2, 7):
        s_prev, s = 3 ** (k - 1), 3 ** k
        n_k = 3 ** (k - 1) - 3 ** (k - 2)
        for n in range(s_prev + 1, s + 1):
            w = tri_word_raw(n)
            r = n - s_prev
            if r <= n_k:
                assert w.instruction.kind == "apply" and not w.instruction.adjoint
                assert w.token == 3 ** (k - 2) + r
                assert w.run_end == s_prev + n_k
            elif n < s:
                assert w.instruction.kind == "apply" and w.instruction.adjoint
                assert w.token == r + 1 - k
                assert w.run_end == s - 1
            else:
                assert w.instruction == seed(k)
            assert w.stage == k


def test_tri_applications_reference_earlier_positions():
    for n in range(1, 10000):
        w = tri_word_raw(n)
        if w.token is not None:
            assert 1 <= w.token < n


def test_tri_t_range_positions_10_to_15():
    tokens = [tri_word_raw(n).token for n in range(10, 16)]
    assert tokens == [4, 5, 6, 7, 8, 9]
    assert all(not tri_word_raw(n).instruction.adjoint for n in range(10, 16))


def test_tri_positions_must_be_integers():
    with pytest.raises(TypeError):
        tri_word_raw(2.5)
    word = tri_word_raw(np.int64(10))
    assert word == tri_word_raw(10)
    values = [word.token, word.run_end, word.stage, word.instruction.op_index,
              word.instruction.src]
    assert values == [4, 15, 3, 1, 4]
    assert all(type(x) is int for x in values)


def test_joint_cyclic_program():
    first = take(joint_cyclic_program(), 7)
    assert first[0] == seed_vec()
    # v, Tv, T*v, Tf2, T*f2, Tf3, T*f3
    for m in range(1, 4):
        assert first[2 * m - 1] == apply_op(m, adjoint=False)
        assert first[2 * m] == apply_op(m, adjoint=True)


def test_krylov_program():
    first = take(krylov_program(), 4)
    assert first == [seed_vec(), apply_op(1), apply_op(2), apply_op(3)]


def test_family_program_selfadjoint():
    prog = family_program(1, selfadjoint=True)
    assert prog.stride == 2
    assert take(prog, 4) == [seed(1), apply_op(1, op_index=1), seed(2),
                             apply_op(2, op_index=1)]
    prog2 = family_program(2, selfadjoint=True)
    assert prog2.stride == 3
    assert take(prog2, 6) == [
        seed(1), apply_op(1, op_index=1), apply_op(1, op_index=2),
        seed(2), apply_op(2, op_index=1), apply_op(2, op_index=2),
    ]


def test_family_program_general():
    prog = family_program(2, selfadjoint=False)
    assert prog.stride == 5
    assert take(prog, 5) == [
        seed(1),
        apply_op(1, adjoint=False, op_index=1), apply_op(1, adjoint=True, op_index=1),
        apply_op(1, adjoint=False, op_index=2), apply_op(1, adjoint=True, op_index=2),
    ]


def test_family_size_one_general_is_staircase():
    a = take(family_program(1, selfadjoint=False), 30)
    b = take(staircase_program(), 30)
    assert a == b


def stage_rule(p, opener, n_ops, adjoints):
    """Instruction at 1-based position p, read off the stage arithmetic: an
    opener takes position 1 once, otherwise e_n heads stage n; then S_k f_n
    (and S_k* f_n after it with adjoints) for k = 1..n_ops."""
    per = 2 if adjoints else 1
    if opener is not None:
        if p == 1:
            return opener
        n, r = divmod(p - 2, n_ops * per)
    else:
        n, r = divmod(p - 1, 1 + n_ops * per)
        if r == 0:
            return seed(n + 1)
        r -= 1
    k, adjoint = divmod(r, per)
    return apply_op(n + 1, adjoint=bool(adjoint), op_index=k + 1)


# program, kind, stride, n_ops, opener (None: a seed heads every stage), adjoints
STAGE_RULES = [
    (staircase_program(), "staircase", 3, 1, None, True),
    (joint_cyclic_program(), "joint_cyclic", 2, 1, seed_vec(), True),
    (direct_sum_program(), "direct_sum", 2, 1, seed(1), True),
    (krylov_program(), "krylov", 1, 1, seed_vec(), False),
] + [
    (family_program(n, selfadjoint=sa), "family_sa" if sa else "family_gen",
     1 + n * (1 if sa else 2), n, None, not sa)
    for n in (1, 2, 3) for sa in (True, False)
]


@pytest.mark.parametrize("program, kind, stride, n_ops, opener, adjoints", STAGE_RULES)
def test_programs_follow_their_stage_rule(program, kind, stride, n_ops, opener, adjoints):
    assert (program.kind, program.stride, program.n_ops) == (kind, stride, n_ops)
    expected = [stage_rule(p, opener, n_ops, adjoints) for p in range(1, 601)]
    assert take(program, 600) == expected
    # each call gives a fresh stream
    assert take(program, 600) == expected


def test_family_size_validation():
    with pytest.raises(ValueError):
        family_program(0, selfadjoint=True)


def test_survivor_map_resolution():
    state = SurvivorMap()
    for pos in (1, 2, 3):
        state.mark_accepted(pos)
    state.mark_rejected(4)
    state.mark_accepted(5)
    # the former fifth generated vector is now the fourth survivor
    assert state.resolve(5) == 4
    # references to the deleted position rebind to the next survivor
    assert state.resolve(4) == 4
    assert state.resolve(2) == 2


def test_survivor_map_two_deletions_compose():
    state = SurvivorMap()
    state.mark_accepted(1)
    state.mark_accepted(2)
    state.mark_rejected(3)
    state.mark_accepted(4)
    state.mark_rejected(5)
    state.mark_accepted(6)
    assert state.resolve(6) == 4
    assert state.resolve(4) == 3
    # a reference past every survivor points one past the end
    assert state.resolve(5) == 4


def test_survivor_map_guards():
    state = SurvivorMap()
    state.mark_accepted(1)
    with pytest.raises(ValueError):
        state.resolve(2)
    with pytest.raises(ValueError):
        state.mark_accepted(1)
    with pytest.raises(ValueError):
        state.mark_rejected(1)
    state.mark_rejected_range(2, 10)
    assert state.resolve(7) == 2
    assert state.survivors == 1


def test_no_deletions_is_identity():
    state = SurvivorMap()
    for pos in range(1, 20):
        state.mark_accepted(pos)
    assert [state.resolve(t) for t in range(1, 20)] == list(range(1, 20))


def test_trace_round_trip():
    samples = (
        take(staircase_program(), 9)
        + tri_word_sequence(27)
        + take(joint_cyclic_program(), 7)
        + take(family_program(3, selfadjoint=False), 15)
    )
    for instr in samples:
        assert parse_trace(instr.trace()) == instr
    with pytest.raises(ValueError):
        parse_trace("twist 3")
