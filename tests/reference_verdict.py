"""The pass/fail rule that ``VerificationReport.passing`` replaced with
check records: ten comparisons of the report's fields against the limits,
written out, with the limits as they stood when the rule was replaced.
``test_verdict_reference.py`` requires the record rule to give the same
verdict on a sweep of forms, inputs, sizes and scales.
"""

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


def reference_passing(report) -> bool:
    """``VerificationReport.passing`` as ten hand-written comparisons."""
    if report.unitarity_residual > UNITARITY_LIMIT:
        return False
    if report.reconstruction_residual > RECONSTRUCTION_REL * (1 + report.input_norm_max):
        return False
    if report.pattern_violations:
        return False
    if any(r > SPAN_LIMIT for _, _, r in report.span_residuals):
        return False
    if any(r > HERMITIAN_LIMIT for _, r in report.hermitian_residuals):
        return False
    scales = dict(report.block_scales)
    for k, eig in report.psd_min_eigs:
        if eig < -PSD_EIG_REL * max(1.0, scales.get(k, 1.0)):
            return False
    if any(r > TAIL_LIMIT for _, r in report.tail_residuals):
        return False
    if any(r > TRIANGULAR_LIMIT for _, _, r in report.triangular_residuals):
        return False
    base = report.input_norm_fro
    for p, drift in enumerate(report.trace_drifts, start=1):
        if drift > TRACE_REL * max(1.0, base) ** p:
            return False
    if report.frobenius_drift > FROBENIUS_REL * (1 + base):
        return False
    return True


def reference_decompose_passing(result) -> bool:
    """``DecompositionResult.passing`` with its coupling limit written out."""
    return (result.coupling_residual <= COUPLING_LIMIT
            and all(reference_passing(s.report) for s in result.summands))
