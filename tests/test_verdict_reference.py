"""The record rule of ``passing`` against the ten written-out comparisons of
``reference_verdict.py``, and ``to_json`` against the ``asdict`` encoder of
``reference_report_json.py``.

Every form runs on six kinds of input (Gaussian, normal, rank-one, the
nilpotent shift, identity, zero) at d in {5, 9, 16, 33}, each scaled by
1e-12, 1e-6, 1, 1e6 and 1e12, where a check on an absolute limit passes
vacuously or fails on roundoff; both rules must give the same verdict on
every report, family members and decompose's one report included, and
decompose's verdict must equal the coupling-and-summands rule it replaced.
The written-out rule still compares the trace and Frobenius drifts and the
largest tail and triangular-corner entries with their old absolute limits,
computed from each form, so equal verdicts also show that on this sweep no
form fails one of those and passes the report.  It reads exact unitarity and
reconstruction residuals and span values, so equal verdicts also show that
the report's sketched bounds, each at least its exact Frobenius norm on
every report here, decide as the exact values do.
Each of those reports must encode to the reference bytes and keep its
fields as they were.

The triangular form is now the QR walk down the block tridiagonal band, not
the raw triangular word stream.  Every triangular row at scale at most 1
passes, and ``TRI_FAIL_TO_PASS`` lists those that failed as builds of the
stream.  At 1e6 and 1e12 both builds leave roundoff of about 1e-10 in
claimed zeros, so a verdict there is a coin flip against the absolute
threshold (normal, d = 5, 1e6: the primary form passes now and its mirror
fails, the reverse of before), and only the parity of the two rules is
asserted.
"""

import copy
import warnings

import numpy as np
import pytest

import blocktrid as bt
from reference_report_json import reference_report_json
from reference_similarity import reconstruction_fro, unitarity_fro
from reference_verdict import reference_decompose_passing, reference_passing

KINDS = ("gaussian", "normal", "rank_one", "nilpotent", "identity", "zero")
SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)

#: (d, scale) of the shift N whose raw triangular words overflowed: the
#: stream's tri_sparsify and its mirror failed with "overflow encountered in
#: dot" there.
SCALED_SHIFTS = [(16, 1e12), (33, 1e6), (33, 1e12)]

#: (kind, d, scale, form) of the triangular rows of the sweep that failed as
#: builds of the raw triangular word stream and pass as the QR walk: Gaussian
#: and normal inputs at 1e-6, where the stream's words fell under the
#: dependence limit, and normal inputs at scale 1 from d = 16, where its
#: rejections left claimed zeros up to 0.77.
TRI_FAIL_TO_PASS = {
    *((kind, d, 1e-6, name) for kind in ("gaussian", "normal") for d in (5, 9, 16, 33)
      for name in ("tri_sparsify", "tri_sparsify alt")),
    *(("normal", d, 1.0, name) for d in (16, 33)
      for name in ("tri_sparsify", "tri_sparsify alt")),
}


def _input(kind, d):
    rng = np.random.default_rng(d)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "gaussian":
        return gaussian(d, d)
    if kind == "normal":
        Q, _ = np.linalg.qr(gaussian(d, d))
        return Q @ np.diag(gaussian(d)) @ Q.conj().T
    if kind == "rank_one":
        return np.outer(gaussian(d), gaussian(d).conj())
    if kind == "nilpotent":
        return np.diag(np.ones(d - 1), 1)
    return np.eye(d) if kind == "identity" else np.zeros((d, d))


def _forms(T):
    """(name, form) for every form of T but decompose, family members
    included."""
    e1 = bt.unit_vector(T.shape[0], 0)
    forms = {
        "staircase": lambda: bt.staircase(T),
        "block_tridiagonalize": lambda: bt.block_tridiagonalize(T),
        "polar_sparsify": lambda: bt.polar_sparsify(T),
        "polar_sparsify alt": lambda: bt.polar_sparsify(T, alt=True),
        "tri_sparsify": lambda: bt.tri_sparsify(T),
        "tri_sparsify alt": lambda: bt.tri_sparsify(T, alt=True),
        "krylov_hessenberg": lambda: bt.krylov_hessenberg(T, e1),
        "joint_cyclic_staircase": lambda: bt.joint_cyclic_staircase(T, e1),
    }
    for name, build in forms.items():
        yield name, build()
    for k, form in enumerate(bt.family_staircase([T, T.conj().T])[1]):
        yield f"family member {k + 1}", form


def _assert_matches_references(form, where):
    report = form.report
    fields = copy.deepcopy(vars(report))
    assert report.passing == reference_passing(form), where
    U, M, T = form.basis_change, form.matrix, form.input
    assert report.unitarity_residual >= unitarity_fro(U), where
    assert report.reconstruction_residual >= reconstruction_fro(T, U, M), where
    assert report.to_json() == reference_report_json(report), where
    assert vars(report) == fields, where


@pytest.mark.parametrize("d", [5, 9, 16, 33])
@pytest.mark.parametrize("kind", KINDS)
def test_record_verdict_matches_reference(kind, d):
    for scale in SCALES:
        T = scale * _input(kind, d)
        for name, form in _forms(T):
            _assert_matches_references(form, (scale, name))
            if name.startswith("tri") and scale <= 1:
                # the rows of TRI_FAIL_TO_PASS failed before; the others passed
                assert form.passing, (scale, name, (kind, d, scale, name) in TRI_FAIL_TO_PASS)
        res = bt.decompose(T)
        _assert_matches_references(res, (scale, "decompose"))
        assert res.passing == reference_decompose_passing(res), scale


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("d, scale", SCALED_SHIFTS)
def test_tri_sparsify_of_a_scaled_shift_passes_without_overflow(d, scale, alt):
    # the staircase build applies N only to unit vectors, so no word grows
    # like |N|^depth and no product overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        form = bt.tri_sparsify(scale * np.diag(np.ones(d - 1), 1), alt=alt)
    assert form.passing
