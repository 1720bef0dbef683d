import pytest

from blocktrid.words import (
    direct_sum_program,
    family_program,
    joint_cyclic_program,
    krylov_program,
    staircase_program,
    trace,
)
from reference_executor import read_word


def seed(n):
    """The word offering e_n, or v when n is 0."""
    return 0, False, n


def apply_op(n, adjoint=False, op_index=1):
    return op_index, adjoint, n


def take(program, n):
    return [program.word(j) for j in range(n)]


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
    for pos, (op, _, n) in enumerate(take(staircase_program(), 10000), start=1):
        if op:
            assert n < pos


def test_joint_cyclic_program():
    first = take(joint_cyclic_program(), 7)
    assert first[0] == seed(0)
    # v, Tv, T*v, Tf2, T*f2, Tf3, T*f3
    for m in range(1, 4):
        assert first[2 * m - 1] == apply_op(m, adjoint=False)
        assert first[2 * m] == apply_op(m, adjoint=True)


def test_krylov_program():
    first = take(krylov_program(), 4)
    assert first == [seed(0), apply_op(1), apply_op(2), apply_op(3)]


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
    """Word at 1-based position p, read off the stage arithmetic: an
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


# program, name, stride, n_ops, opener (None: a seed heads every stage), adjoints
STAGE_RULES = [
    (staircase_program(), "staircase", 3, 1, None, True),
    (joint_cyclic_program(), "joint_cyclic", 2, 1, seed(0), True),
    (direct_sum_program(), "direct_sum", 2, 1, seed(1), True),
    (krylov_program(), "krylov", 1, 1, seed(0), False),
] + [
    (family_program(n, selfadjoint=sa), "family_sa" if sa else "family_gen",
     1 + n * (1 if sa else 2), n, None, not sa)
    for n in (1, 2, 3) for sa in (True, False)
]


@pytest.mark.parametrize("program, name, stride, n_ops, opener, adjoints", STAGE_RULES)
def test_programs_follow_their_stage_rule(program, name, stride, n_ops, opener, adjoints):
    assert (program.stride, program.n_ops, program.adjoints) == (stride, n_ops, adjoints), name
    # far indices too: a word is read off its index, not off a stream
    for j in [*range(600), 10 ** 6, 10 ** 9]:
        assert program.word(j) == stage_rule(j + 1, opener, n_ops, adjoints), (name, j)


def test_family_size_validation():
    with pytest.raises(ValueError):
        family_program(0, selfadjoint=True)


def test_trace_round_trip():
    assert [trace(w) for w in (seed(3), seed(0), apply_op(5, True, 2))] == [
        "seed 3", "seed v", "apply 2 1 5"]
    samples = (
        take(staircase_program(), 9)
        + take(joint_cyclic_program(), 7)
        + take(family_program(3, selfadjoint=False), 15)
    )
    for word in samples:
        assert read_word(trace(word)) == word
    with pytest.raises(ValueError):
        read_word("twist 3")
