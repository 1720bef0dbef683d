"""The sketched similarity checks are certified, decisive and deterministic.

``unitarity_residual`` and ``reconstruction_residual`` are upper bounds on
the Frobenius norms of ``U*U - I`` and ``U M U* - T``, sketched from seeded
probes.  For bases U = Q + δF and for staircase forms whose M or U is
tampered with:

- each reported bound is at least the exact Frobenius norm it bounds;
- a tamper whose exact max-abs residual is at least 100 times its limit
  fails the form on that check;
- the same input gives byte-identical reports, run twice in this process,
  with another input between, and once in a fresh process.
"""

import dataclasses
import io
import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import blocktrid as bt
from blocktrid.kernel import FAILURE_PROBABILITY, MARGIN, PROBES, probes, unitarity_residual
from blocktrid.verify import RECONSTRUCTION_REL, SPAN_LIMIT, UNITARITY_LIMIT, full_report
from reference_similarity import (
    reconstruction_fro,
    reconstruction_max,
    unitarity_fro,
    unitarity_max,
)
from tamper import scaled_column

FORMS = {
    "staircase": lambda T: bt.staircase(T),
    "tri_sparsify": lambda T: bt.tri_sparsify(T),
    "polar_sparsify": lambda T: bt.polar_sparsify(T, alt=True),
    "family_staircase": lambda T: bt.family_staircase([T, T.conj().T])[1][1],
    "decompose": lambda T: bt.decompose(T),
}

# builds the named form of the matrix on stdin and writes its report
FRESH = """
import io
import sys
import numpy as np
from test_certificate import FORMS
T = np.load(io.BytesIO(sys.stdin.buffer.read()))
sys.stdout.write(FORMS[sys.argv[1]](T).report.to_json())
"""


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       log_delta=st.floats(-16.0, -1.0))
def test_unitarity_bound_holds_the_exact_frobenius_norm(d, seed, log_delta):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(_gaussian(rng, d, d))
    U = Q + 10.0 ** log_delta * _gaussian(rng, d, d)
    assert unitarity_residual(U) >= unitarity_fro(U) >= unitarity_max(U)


def _tampered(form, target, kind, delta, rng):
    """``form`` with U or M changed: by δ times a Gaussian matrix, by δ at one
    entry, or with one column scaled by 1 + δ."""
    A = (form.basis_change if target == "U" else form.matrix).copy()
    d = len(A)
    i, j = rng.integers(d, size=2)
    if kind == "dense":
        A += delta * _gaussian(rng, d, d)
    elif kind == "entry":
        A[i, j] += delta
    else:
        A[:, j] *= 1 + delta
    field = "basis_change" if target == "U" else "matrix"
    tampered = dataclasses.replace(form, **{field: A})
    tampered.report = full_report(tampered)
    return tampered


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       log_c=st.floats(-6.0, 6.0), target=st.sampled_from(["U", "M"]),
       kind=st.sampled_from(["dense", "entry", "column"]),
       log_delta=st.floats(-14.0, 0.0))
def test_tampered_forms_are_bounded_and_large_tampers_fail(d, seed, log_c, target,
                                                          kind, log_delta):
    rng = np.random.default_rng(seed)
    T = 10.0 ** log_c * _gaussian(rng, d, d)
    form = _tampered(bt.staircase(T), target, kind, 10.0 ** log_delta, rng)
    report = form.report
    T, U, M = form.input, form.basis_change, form.matrix
    assert report.unitarity_residual >= unitarity_fro(U)
    assert report.reconstruction_residual >= reconstruction_fro(T, U, M)
    failed = {c.check for c in report.failures}
    if unitarity_max(U) >= 100 * UNITARITY_LIMIT:
        assert "unitarity_residual" in failed
    limit = RECONSTRUCTION_REL * (1 + report.input_norm_max)
    if reconstruction_max(T, U, M) >= 100 * limit:
        assert "reconstruction_residual" in failed


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(sorted(FORMS)), d=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1), log_c=st.floats(-6.0, 6.0))
def test_reports_repeat_byte_for_byte_across_processes(name, d, seed, log_c):
    rng = np.random.default_rng(seed)
    T = 10.0 ** log_c * _gaussian(rng, d, d)
    first = FORMS[name](T).report.to_json()
    FORMS[name](_gaussian(rng, d, d))  # other probes are drawn in between
    assert FORMS[name](T).report.to_json() == first
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(bt.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([here, src])}
    npy = io.BytesIO()
    np.save(npy, T)
    fresh = subprocess.run([sys.executable, "-c", FRESH, name], input=npy.getvalue(),
                           env=env, capture_output=True, check=True, timeout=120)
    assert fresh.stdout.decode() == first


def test_probes_are_fixed_by_the_entries():
    # equal entries in either memory order give equal probes; one changed
    # entry gives others
    A = _gaussian(np.random.default_rng(5), 9, 9)
    X = probes(A)
    assert X.shape == (9, PROBES)
    assert probes(np.asfortranarray(A)).tobytes() == X.tobytes()
    B = A.copy()
    B[4, 2] += 1e-12
    assert not np.array_equal(probes(B), X)
    # standard complex Gaussians: real and imaginary parts of variance 1/2
    Z = probes(np.zeros((4096, 1)))
    assert abs(np.mean(np.abs(Z) ** 2) - 1) < 0.05
    assert abs(np.var(Z.real) - 0.5) < 0.025 and abs(np.var(Z.imag) - 0.5) < 0.025


def test_one_scaled_column_at_d256_fails_unitarity_and_no_span():
    # ε is the unitarity bound, about 2e-10 here, not d·max|U*U - I|: the
    # span values stay far below their limit while unitarity fails
    T = _gaussian(np.random.default_rng(256), 256, 256)
    with scaled_column(1, 1 + 1e-11):
        form = bt.staircase(T)
    failed = {c.check for c in form.report.failures}
    assert "unitarity_residual" in failed
    assert "span_residuals" not in failed
    assert max(r for _, _, r in form.report.span_residuals) < SPAN_LIMIT


def test_one_scaled_column_at_d8_now_fails_unitarity_below_its_max_abs_limit():
    # exact max|U*U - I| = ||U*U - I||_F = 4e-11 passes the old check, and the
    # old span ε = 8 · 4e-11 passed too; the bound is about 10 times the
    # Frobenius norm, so the form fails
    T = _gaussian(np.random.default_rng(8), 8, 8)
    with scaled_column(1, 1 + 2e-11):
        form = bt.staircase(T)
    assert unitarity_max(form.basis_change) < UNITARITY_LIMIT
    assert [c.check for c in form.report.failures] == ["unitarity_residual"]


def test_failure_probability_is_the_gamma_tail_rounded_up():
    # P(Gamma(k, 1) < x) for an integer k is the Poisson tail
    # e^-x sum_{j >= k} x^j / j!, summed here without cancellation
    x = PROBES / MARGIN ** 2
    tail = math.exp(-x) * math.fsum(x ** j / math.factorial(j) for j in range(PROBES, PROBES + 60))
    assert tail <= FAILURE_PROBABILITY < 1.01 * tail
