"""The pass/fail rule that ``VerificationReport.passing`` replaced with
check records: ten comparisons against the limits, written out, with the
limits as they stood when the rule was replaced; and the coupling-and-summands
rule ``decompose`` had before it was reported as one form.
``test_verdict_reference.py`` requires the record rule to give the same
verdict on a sweep of forms, inputs, sizes and scales.

Two of the ten comparisons read similarity drifts that the report no longer
carries, since its unitarity and reconstruction checks already check
similarity: :func:`similarity_drifts` computes them from the form's input and
matrix as the report did, so the sweep also shows that dropping them changes
no verdict.  Two more read the largest tail entry of a positive-block form
and the largest triangular-corner entry of a triangular form, against
absolute limits; the report checks those entries once, as entries outside its
pattern at the threshold.  :func:`tail_max` and :func:`corner_max` compute
them from the form's matrix, entry by entry, so the sweep also shows that at
the default threshold, which equals both limits, dropping them changes no
verdict.

The unitarity, reconstruction and span comparisons read exact values, which
:func:`exact_similarity` computes from the form's own arrays with full d^3
products: the report's sketched bounds must give the verdict these give.
"""

import numpy as np

from blocktrid import block_slices
from reference_similarity import reconstruction_max, unitarity_fro, unitarity_max

UNITARITY_LIMIT = 1e-10
RECONSTRUCTION_REL = 1e-8
SPAN_LIMIT = 1e-8
TRACE_REL = 1e-6
FROBENIUS_REL = 1e-8
HERMITIAN_LIMIT = 1e-9
PSD_EIG_REL = 1e-8
TAIL_LIMIT = 1e-10
TRIANGULAR_LIMIT = 1e-10
COUPLING_LIMIT = 1e-9


def similarity_drifts(T, M):
    """``|tr M^p - tr T^p|`` for p = 1, 2, 3 and ``|‖M‖_F - ‖T‖_F|``, with the
    products the report used: tr(A^3) = sum((A @ A) * A^T)."""
    T2, M2 = T @ T, M @ M
    drifts = [
        np.trace(M) - np.trace(T),
        np.trace(M2) - np.trace(T2),
        np.sum(M2 * M.T) - np.sum(T2 * T.T),
    ]
    frobenius = np.linalg.norm(M, "fro") - np.linalg.norm(T, "fro")
    return [float(abs(x)) for x in drifts], float(abs(frobenius))


def tail_positions(schedule, d, alt=False):
    """0-based (i, j) of every tail entry of the positive-block pattern: in
    each block right of the diagonal, the columns past its leading square
    (for ``alt``, the transposed positions below the diagonal)."""
    slices = block_slices(schedule, d)
    out = []
    for k in range(len(slices) - 1):
        (r0, r1), (c0, c1) = slices[k], slices[k + 1]
        for i in range(r0, r1):
            for j in range(c0 + (r1 - r0), c1):
                out.append((i, j))
    return [(j, i) for i, j in out] if alt else out


def corner_positions(schedule, d, alt=False):
    """0-based (i, j) of every entry the triangular pattern claims zero
    inside a block beside the diagonal: below the diagonal, the entries under
    the diagonal of the stacked square and all below it (B' upper triangular
    over zeros); above it, every entry past the leading square A' but the
    lower triangle of the next square A''.  ``alt`` transposes them."""
    slices = block_slices(schedule, d)
    out = []
    for k in range(len(slices) - 1):
        (r0, r1), (c0, c1) = slices[k], slices[k + 1]
        nk = r1 - r0
        for li in range(r1 - r0):
            for lj in range(c1 - c0):
                if lj >= nk and (lj >= 2 * nk or li < lj - nk):
                    out.append((r0 + li, c0 + lj))
        for li in range(c1 - c0):
            for lj in range(r1 - r0):
                if li > lj:
                    out.append((c0 + li, r0 + lj))
    return [(j, i) for i, j in out] if alt else out


def _largest(form, prefix, positions):
    """max |M| over ``positions`` of ``form``'s pattern if its kind starts with
    ``prefix``, else 0."""
    kind = form.pattern.kind
    if not kind.startswith(prefix):
        return 0.0
    M = form.matrix
    where = positions(form.pattern.schedule, M.shape[0], alt="_alt_" in kind)
    return max((abs(M[i, j]) for i, j in where), default=0.0)


def tail_max(form) -> float:
    """Largest |M| over the tails of a positive-block ``form``, 0 for another
    form: the largest value the report compared with ``TAIL_LIMIT``."""
    return _largest(form, "polar", tail_positions)


def corner_max(form) -> float:
    """Largest |M| over the triangular corners of a triangular ``form``, 0
    for another form: the largest value the report compared with
    ``TRIANGULAR_LIMIT``."""
    return _largest(form, "tri", corner_positions)


def exact_similarity(form):
    """(max|U*U - I|, max|U M U* - T|, span values) of ``form``'s own arrays.

    Each span value bounds the distance from e_n to the span of U's first m
    columns as the report's does, with the exact ε = ‖U*U - I‖_F, which bounds
    ‖U*U - I‖₂: (1 + ε)·‖U[n, m+1:]‖ + 2ε for ε <= 1/3, and 1 otherwise.
    """
    T, U, M = form.input, form.basis_change, form.matrix
    eps = unitarity_fro(U)
    spans = [(1 + eps) * float(np.linalg.norm(U[n - 1, m:])) + 2 * eps if eps <= 1 / 3 else 1.0
             for n, m in form.span_bounds]
    return unitarity_max(U), reconstruction_max(T, U, M), spans


def reference_passing(form) -> bool:
    """``form.report.passing`` as ten hand-written comparisons, the
    similarity residuals, span values, tails, corners and drifts among them
    computed from ``form.input``, ``form.basis_change`` and ``form.matrix``."""
    report = form.report
    unitarity, reconstruction, spans = exact_similarity(form)
    if unitarity > UNITARITY_LIMIT:
        return False
    if reconstruction > RECONSTRUCTION_REL * (1 + report.input_norm_max):
        return False
    if report.pattern_violations:
        return False
    if any(r > SPAN_LIMIT for r in spans):
        return False
    if any(r > HERMITIAN_LIMIT for _, r in report.hermitian_residuals):
        return False
    scales = dict(report.block_scales)
    for k, eig in report.psd_min_eigs:
        if eig < -PSD_EIG_REL * max(1.0, scales.get(k, 1.0)):
            return False
    if tail_max(form) > TAIL_LIMIT:
        return False
    if corner_max(form) > TRIANGULAR_LIMIT:
        return False
    base = report.input_norm_fro
    trace_drifts, frobenius_drift = similarity_drifts(form.input, form.matrix)
    for p, drift in enumerate(trace_drifts, start=1):
        if drift > TRACE_REL * max(1.0, base) ** p:
            return False
    if frobenius_drift > FROBENIUS_REL * (1 + base):
        return False
    return True


def reference_decompose_passing(result, threshold: float = 1e-10) -> bool:
    """The verdict ``decompose`` gave before it had one report, from
    ``result.matrix`` and ``result.dims`` alone: every entry coupling two
    summands at most the coupling limit, and no entry of a summand above
    ``threshold`` outside its joint cyclic support (column j support ends at
    row 2j, row i support at column 2i+1, in the summand's own indices).
    The summands' other checks read 0 by construction and never failed."""
    M = np.abs(result.matrix)
    label = np.repeat(np.arange(len(result.dims)), result.dims)
    local = np.concatenate([np.arange(1, n + 1) for n in result.dims])
    i, j = local[:, None], local[None, :]
    same = label[:, None] == label[None, :]
    support = same & (i <= 2 * j) & (j <= 2 * i + 1)
    return (M[~same].max(initial=0.0) <= COUPLING_LIMIT
            and not np.any(M[same & ~support] > threshold))
