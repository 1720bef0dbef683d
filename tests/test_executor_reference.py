"""The blocked executor against the one-offer-at-a-time reference.

Every program runs on the degenerate and scaled inputs below
through ``run_program`` and through ``reference_run``.  The accept and reject
decisions, their positions and the closures must agree; Krylov blocks hold
one offer, so a Krylov basis must agree bit for bit, and every other basis
to a tolerance set by how ill-conditioned its build was.

The one exception is an offer whose residual lies at the dependence
threshold itself, where the two executors' rounding decides.  Normal inputs
at d=128 reach one in the direct-sum and joint cyclic streams: their
residuals decay geometrically until one lands within about 20 percent of
``tol * max(1, |v|)``.  Such a flip must sit within a factor of two of the
threshold; the builds part ways after it, so nothing later is compared.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blocktrid import basis
from blocktrid.basis import run_program
from blocktrid.kernel import DEPENDENCE_TOL
from blocktrid.words import (
    direct_sum_program,
    family_program,
    joint_cyclic_program,
    krylov_program,
    staircase_program,
)
from reference_executor import basis_tolerance, offer_norm, reference_run
from reference_similarity import unitarity_max

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
FAMILIES = ("identity", "zero", "jordan", "rank_one", "normal", "graded", "coupled",
            *(f"gaussian_{c:g}" for c in SCALES))
DIMS = (1, 2, 7, 20, 64, 128)
PROGRAMS = ("staircase", "direct_sum", "joint_cyclic", "closure", "krylov",
            "family_sa", "family_gen")


def gaussian(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def make_input(family, d, rng):
    if family == "identity":
        return np.eye(d, dtype=np.complex128)
    if family == "zero":
        return np.zeros((d, d), dtype=np.complex128)
    if family == "jordan":
        return np.eye(d, k=1, dtype=np.complex128)
    if family == "rank_one":
        u, w = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        return np.outer(u, w.conj())
    if family == "normal":
        q, _ = np.linalg.qr(gaussian(rng, d))
        return (q * gaussian(rng, d)[0]) @ q.conj().T
    if family == "graded":
        return gaussian(rng, d) * np.logspace(0, -8, d)
    if family == "coupled":
        h = d // 2
        T = 1e-9 * gaussian(rng, d)
        T[:h, :h] = gaussian(rng, h)
        T[h:, h:] = gaussian(rng, d - h)
        return T
    return float(family.split("_")[1]) * gaussian(rng, d)


def build_args(program, T, S, v):
    """(operators, word program, keyword arguments) for one program on T."""
    d = T.shape[0]
    if program == "staircase":
        return [T], staircase_program(), {}
    if program == "direct_sum":
        return [T], direct_sum_program(), {}
    if program == "joint_cyclic":
        return [T], joint_cyclic_program(), {"seed_vector": v}
    if program == "closure":
        e1 = np.eye(d, dtype=np.complex128)[0]
        return [T], joint_cyclic_program(), {"seed_vector": e1, "pad_with_seeds": False}
    if program == "krylov":
        return [T], krylov_program(), {"seed_vector": v}
    if program == "family_sa":
        return [T + T.conj().T, S + S.conj().T], family_program(2, True), {}
    return [T, S], family_program(2, False), {}


def decisions(result):
    return [(e.position, e.instruction, e.accepted, e.survivor_index)
            for e in result.log.entries]


def check(program, ops, kwargs, blocked, reference):
    """Compare a blocked build with the reference build of the same input.

    When a decision differs, the builds part ways there: that offer must
    sit at the tolerance boundary, and nothing after it is compared.
    """
    got, want = decisions(blocked), decisions(reference)
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b)
        a, b = blocked.log.entries[i], reference.log.entries[i]
        assert (a.position, a.instruction) == (b.position, b.instruction)
        assert a.accepted != b.accepted
        seed_vector = kwargs.get("seed_vector")
        limit = DEPENDENCE_TOL * max(1.0, offer_norm(ops, reference.basis, b.instruction,
                                                     seed_vector))
        assert 0.5 * limit < min(a.residual_norm, b.residual_norm)
        assert max(a.residual_norm, b.residual_norm) < 2.0 * limit
        return
    assert blocked.closures == reference.closures
    if program == "krylov":
        assert np.array_equal(blocked.basis, reference.basis)
    else:
        tol = basis_tolerance(ops, reference, kwargs.get("seed_vector"))
        assert np.max(np.abs(blocked.basis - reference.basis), initial=0.0) <= tol
    if blocked.basis.shape[0] == blocked.basis.shape[1]:
        assert unitarity_max(blocked.basis) < 1e-12


def run_both(program, T, S, v):
    ops, prog, kwargs = build_args(program, T, S, v)
    blocked = run_program(ops, prog, DEPENDENCE_TOL, **kwargs)
    reference = reference_run(ops, prog, DEPENDENCE_TOL, **kwargs)
    check(program, ops, kwargs, blocked, reference)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", DIMS)
def test_blocked_executor_repeats_the_reference(family, d):
    rng = np.random.default_rng(100 * d + FAMILIES.index(family))
    T = make_input(family, d, rng)
    S, v = gaussian(rng, d), gaussian(rng, d)[0]
    for program in PROGRAMS:
        run_both(program, T, S, v)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(FAMILIES),
    program=st.sampled_from(PROGRAMS),
    d=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_blocked_executor_agrees_up_to_boundary_flips(family, program, d, seed):
    rng = np.random.default_rng(seed)
    T = make_input(family, d, rng)
    S, v = gaussian(rng, d), gaussian(rng, d)[0]
    run_both(program, T, S, v)


class LargeBlock(Exception):
    """A block of four or more offers reached ``mgs_append``."""


@pytest.mark.parametrize("family", FAMILIES)
def test_builds_of_small_blocks_repeat_the_reference_bit_for_bit(family, monkeypatch):
    # blocks of at most three offers are decided one offer at a time, so a
    # build that never reaches mgs_append (no block of four or more) must
    # write the reference's log, closures and basis bit for bit
    def refuse(*args):
        raise LargeBlock

    monkeypatch.setattr(basis, "mgs_append", refuse)
    exact = 0
    # at d = 6 a two-sided build ends on the block T f_2, T* f_2, T f_3, whose
    # two T words are formed by one matrix-vector product each, as the
    # reference forms them: one product of both rows would round otherwise
    for d in (*DIMS, 6):
        rng = np.random.default_rng(100 * d + FAMILIES.index(family))
        T = make_input(family, d, rng)
        S, v = gaussian(rng, d), gaussian(rng, d)[0]
        for program in PROGRAMS:
            ops, prog, kwargs = build_args(program, T, S, v)
            try:
                blocked = run_program(ops, prog, DEPENDENCE_TOL, **kwargs)
            except LargeBlock:
                continue
            reference = reference_run(ops, prog, DEPENDENCE_TOL, **kwargs)
            assert blocked.log.entries == reference.log.entries
            assert blocked.closures == reference.closures
            assert blocked.basis.tobytes() == reference.basis.tobytes()
            exact += 1
    # every Krylov build, and every build at d <= 2, holds small blocks only
    assert exact >= len(DIMS) + 2 * (len(PROGRAMS) - 1)


@pytest.mark.parametrize("family", ["graded", "coupled", "normal"])
@pytest.mark.parametrize("program", ["staircase", "joint_cyclic", "direct_sum",
                                     "family_sa", "family_gen"])
def test_blocked_bases_are_orthonormal_at_d128(family, program):
    # late rows of a block cancel against rows accepted before them; the
    # extra pass keeps them orthogonal to every accepted vector
    d = 128
    rng = np.random.default_rng(7)
    T = make_input(family, d, rng)
    S, v = gaussian(rng, d), gaussian(rng, d)[0]
    ops, prog, kwargs = build_args(program, T, S, v)
    assert unitarity_max(run_program(ops, prog, **kwargs).basis) <= 1e-13

