"""The triangular executor against its branch-per-case reference.

``run_program`` decides each triangular-stream position with one candidate
and one skip rule; ``reference_triangular`` decides seeds, zero offers,
repeated offers and computed rejections in separate branches.  On every
input below, in both orientations, the two must write the same log, the
same basis and the same raw vectors, bit for bit.  The scaled shifts whose
raw words overflow are left to ``test_tri_sparsify_of_a_scaled_shift_overflows``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blocktrid.basis import run_program
from blocktrid.words import tri_word_program
from reference_triangular import reference_triangular
from test_verdict_reference import OVERFLOWING_SHIFTS

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
FAMILIES = ("gaussian", "normal", "rank_one", "jordan", "identity", "zero", "graded",
            "direct_sum")
# stage boundaries of the stream sit at powers of three
DIMS = (1, 2, 3, 4, 5, 9, 10, 16, 33)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_input(family, d, rng):
    if family == "gaussian":
        return gaussian(rng, d, d)
    if family == "normal":
        q, _ = np.linalg.qr(gaussian(rng, d, d))
        return (q * gaussian(rng, d)) @ q.conj().T
    if family == "rank_one":
        return np.outer(gaussian(rng, d), gaussian(rng, d).conj())
    if family == "jordan":
        return np.eye(d, k=1, dtype=np.complex128)
    if family == "identity":
        return np.eye(d, dtype=np.complex128)
    if family == "zero":
        return np.zeros((d, d), dtype=np.complex128)
    if family == "graded":
        return gaussian(rng, d, d) * np.logspace(0, -8, d)
    # two reducing blocks on interleaved coordinates, so that e_1 generates
    # one of them and a later seed has to reach the other
    T = np.zeros((d, d), dtype=np.complex128)
    odd, even = np.arange(0, d, 2), np.arange(1, d, 2)
    T[np.ix_(odd, odd)] = gaussian(rng, len(odd), len(odd))
    T[np.ix_(even, even)] = gaussian(rng, len(even), len(even))
    return T


def assert_same_build(T):
    for op in (T, T.conj().T):
        got = run_program([op], tri_word_program())
        want = reference_triangular(op)
        assert got.log.to_json() == want.log.to_json()
        assert got.basis.tobytes() == want.basis.tobytes()
        assert got.closures == want.closures
        assert len(got.raw_vectors) == len(want.raw_vectors)
        for a, b in zip(got.raw_vectors, want.raw_vectors):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", DIMS)
def test_triangular_executor_repeats_the_reference(family, d):
    for scale in SCALES:
        if family == "jordan" and (d, scale) in OVERFLOWING_SHIFTS:
            continue
        rng = np.random.default_rng(100 * d + FAMILIES.index(family))
        assert_same_build(scale * make_input(family, d, rng))


def test_the_grid_reaches_every_skip():
    # rejected seeds, computed rejections over ranges, and zero or repeated
    # offers over one position and over ranges all occur in the grid's families
    kinds = set()
    for T in (np.zeros((9, 9)), np.eye(9), np.eye(10, k=1),
              make_input("direct_sum", 10, np.random.default_rng(3))):
        for e in run_program([T], tri_word_program()).log.entries:
            if e.accepted:
                continue
            seed = e.instruction.startswith("seed")
            kinds.add(("seed" if seed else "apply", e.residual_norm is None,
                       e.position_end > e.position))
    assert {("seed", False, False), ("apply", True, True), ("apply", False, True),
            ("apply", True, False)} <= kinds


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(FAMILIES),
    scale=st.sampled_from(SCALES[:4]),
    d=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_triangular_executor_agrees_on_random_inputs(family, scale, d, seed):
    # a shift scaled by 1e6 overflows its raw words from d = 27 on
    if family == "jordan":
        scale = min(scale, 1.0)
    assert_same_build(scale * make_input(family, d, np.random.default_rng(seed)))
