"""Sparsity pattern specifications and the verification report.

A pattern is a 1-based predicate allowed(i, j) naming the positions permitted
to be nonzero.  Checking is entrywise: anything above the magnitude threshold
sitting at a disallowed position is a violation.  The report bundles every
residual family relevant to a form (unitarity, reconstruction, pattern,
spanning, block positivity, block triangularity, similarity invariants) and
decides pass/fail against the documented thresholds.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .kernel import hermitian_eigvals, max_abs
from .schedules import BlockSchedule, block_slices

UNITARITY_LIMIT = 1e-10
RECONSTRUCTION_REL = 1e-8
SPAN_LIMIT = 1e-8
HERMITIAN_LIMIT = 1e-9
PSD_EIG_REL = 1e-8
TAIL_LIMIT = 1e-10
TRIANGULAR_LIMIT = 1e-10
TRACE_REL = 1e-6
FROBENIUS_REL = 1e-8
DEFAULT_THRESHOLD = 1e-10


@dataclass(frozen=True)
class PatternSpec:
    """Named support predicate, with the block schedule where one applies."""

    kind: str
    allowed: Callable[[int, int], bool]
    schedule: Optional[BlockSchedule] = None


def staircase_coarse() -> PatternSpec:
    """Row n support ends at column 3n, column n support ends at row 3n."""
    return PatternSpec("staircase_coarse", lambda i, j: j <= 3 * i and i <= 3 * j)


def staircase_refined() -> PatternSpec:
    """Column support ends one row earlier (2, 5, 8, ...) than the coarse form."""
    return PatternSpec("staircase_refined", lambda i, j: j <= 3 * i and i <= 3 * j - 1)


def family_stride(stride: int) -> PatternSpec:
    if stride < 1:
        raise ValueError("stride must be positive")
    return PatternSpec(
        f"family_stride_{stride}",
        lambda i, j: j <= stride * i and i <= stride * j,
    )


def hessenberg_pattern(cyclic_dim: Optional[int] = None) -> PatternSpec:
    """Upper Hessenberg on the leading cyclic block.

    Entries in columns past the cyclic block are unconstrained (the starting
    vector only generates that block; the completion columns carry whatever
    the operator does elsewhere).
    """
    mc = cyclic_dim if cyclic_dim is not None else 10 ** 9

    def allowed(i, j):
        return j > mc or i <= j + 1

    return PatternSpec("hessenberg", allowed)


def joint_cyclic_pattern(cyclic_dim: Optional[int] = None) -> PatternSpec:
    """Columns 2, 4, 6, rows 3, 5, 7 on the jointly cyclic block.

    The block generated from the starting vector is reducing, so entries
    coupling it to the rest are required to vanish; the complement block is
    unconstrained.
    """
    mc = cyclic_dim if cyclic_dim is not None else 10 ** 9

    def allowed(i, j):
        if i <= mc and j <= mc:
            return i <= 2 * j and j <= 2 * i + 1
        return i > mc and j > mc

    return PatternSpec("joint_cyclic", allowed)


class _BlockIndex:
    """Locate 1-based matrix indices inside a schedule clipped to dim."""

    def __init__(self, schedule: BlockSchedule, dim: int):
        self.slices = block_slices(schedule, dim)
        if not self.slices or self.slices[-1][1] < dim:
            raise ValueError(
                f"schedule spans {schedule.span}, too short for dimension {dim}"
            )
        self.stops = [stop for _, stop in self.slices]
        self.sizes = [stop - start for start, stop in self.slices]
        self.full_sizes = schedule.sizes

    def locate(self, index: int) -> Tuple[int, int]:
        """(block number 1-based, local index 1-based) of a matrix index."""
        b = bisect.bisect_left(self.stops, index)
        start = self.slices[b][0]
        return b + 1, index - start


def block_band(schedule: BlockSchedule, dim: int) -> PatternSpec:
    idx = _BlockIndex(schedule, dim)

    def allowed(i, j):
        bi, _ = idx.locate(i)
        bj, _ = idx.locate(j)
        return abs(bi - bj) <= 1

    return PatternSpec("block_band", allowed, schedule)


def polar_blocks(schedule: BlockSchedule, dim: int, alt: bool = False) -> PatternSpec:
    """Band pattern with the off-diagonal blocks on one side cut to squares.

    Primary: each block right of the diagonal is (P | 0), only its leading
    n_k columns may be nonzero.  Alt: each block below the diagonal is
    (P | 0) transposed, only its leading n_k rows may be nonzero.
    """
    idx = _BlockIndex(schedule, dim)

    def allowed(i, j):
        bi, li = idx.locate(i)
        bj, lj = idx.locate(j)
        if abs(bi - bj) > 1:
            return False
        if not alt and bj == bi + 1:
            return lj <= idx.sizes[bi - 1]
        if alt and bi == bj + 1:
            return li <= idx.sizes[bj - 1]
        return True

    return PatternSpec("polar_alt_blocks" if alt else "polar_blocks", allowed, schedule)


def tri_blocks(schedule: BlockSchedule, dim: int, alt: bool = False) -> PatternSpec:
    """Band pattern with triangular sub-block structure on both sides.

    Primary: below-diagonal blocks are (B' | 0) transposed with B' upper
    triangular; above-diagonal blocks are (A' | A'' | 0) with A'' lower
    triangular.  Alt mirrors both claims (square lower triangular above,
    free-then-upper-triangular stack below).
    """
    idx = _BlockIndex(schedule, dim)

    def allowed(i, j):
        bi, li = idx.locate(i)
        bj, lj = idx.locate(j)
        if abs(bi - bj) > 1:
            return False
        if bi == bj:
            return True
        if not alt:
            if bi == bj + 1:
                # stacked upper triangular square over zeros
                return li <= lj
            nk = idx.full_sizes[bi - 1]
            return lj <= nk or (lj <= 2 * nk and li >= lj - nk)
        if bj == bi + 1:
            # square lower triangular, zero tail
            nk = idx.full_sizes[bi - 1]
            return lj <= nk and li >= lj
        nk = idx.full_sizes[bj - 1]
        return li <= nk or (li <= 2 * nk and lj >= li - nk)

    return PatternSpec("tri_alt_blocks" if alt else "tri_blocks", allowed, schedule)


def check_pattern(M, spec: PatternSpec, threshold: float = DEFAULT_THRESHOLD):
    """All (i, j, magnitude) with |M(i,j)| > threshold outside the support."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    M = np.asarray(M)
    out = []
    rows, cols = M.shape
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            mag = abs(M[i - 1, j - 1])
            if mag > threshold and not spec.allowed(i, j):
                out.append((i, j, float(mag)))
    return out


def pattern_text(M, spec: PatternSpec, threshold: float = DEFAULT_THRESHOLD) -> str:
    """ASCII sketch: '*' above threshold, '.' allowed-but-zero, 'X' violation."""
    M = np.asarray(M)
    lines = []
    for i in range(1, M.shape[0] + 1):
        row = []
        for j in range(1, M.shape[1] + 1):
            hot = abs(M[i - 1, j - 1]) > threshold
            ok = spec.allowed(i, j)
            row.append("X" if hot and not ok else "*" if hot else "." if ok else " ")
        lines.append("".join(row))
    return "\n".join(lines)


@dataclass
class VerificationReport:
    """Every residual family for one sparsified form, with pass/fail."""

    form_kind: str
    threshold: float
    input_norm_max: float
    input_norm_fro: float
    unitarity_residual: float
    reconstruction_residual: float
    pattern_kind: str
    pattern_violations: List[Tuple[int, int, float]]
    span_residuals: List[Tuple[int, int, float]] = field(default_factory=list)
    hermitian_residuals: List[Tuple[int, float]] = field(default_factory=list)
    psd_min_eigs: List[Tuple[int, float]] = field(default_factory=list)
    tail_residuals: List[Tuple[int, float]] = field(default_factory=list)
    triangular_residuals: List[Tuple[str, int, float]] = field(default_factory=list)
    trace_drifts: List[float] = field(default_factory=list)
    frobenius_drift: float = 0.0
    closure_dim: Optional[int] = None
    block_scales: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def passing(self) -> bool:
        if self.unitarity_residual > UNITARITY_LIMIT:
            return False
        if self.reconstruction_residual > RECONSTRUCTION_REL * (1 + self.input_norm_max):
            return False
        if self.pattern_violations:
            return False
        if any(r > SPAN_LIMIT for _, _, r in self.span_residuals):
            return False
        if any(r > HERMITIAN_LIMIT for _, r in self.hermitian_residuals):
            return False
        scales = dict(self.block_scales)
        for k, eig in self.psd_min_eigs:
            if eig < -PSD_EIG_REL * max(1.0, scales.get(k, 1.0)):
                return False
        if any(r > TAIL_LIMIT for _, r in self.tail_residuals):
            return False
        if any(r > TRIANGULAR_LIMIT for _, _, r in self.triangular_residuals):
            return False
        base = self.input_norm_fro
        for p, drift in enumerate(self.trace_drifts, start=1):
            if drift > TRACE_REL * max(1.0, base) ** p:
                return False
        if self.frobenius_drift > FROBENIUS_REL * (1 + base):
            return False
        return True

    def to_json(self) -> str:
        payload = {
            "passing": self.passing,
            "form_kind": self.form_kind,
            "threshold": self.threshold,
            "input_norm_max": self.input_norm_max,
            "input_norm_fro": self.input_norm_fro,
            "unitarity_residual": self.unitarity_residual,
            "reconstruction_residual": self.reconstruction_residual,
            "pattern": {
                "kind": self.pattern_kind,
                "violations": [list(v) for v in self.pattern_violations],
            },
            "span_residuals": [list(v) for v in self.span_residuals],
            "hermitian_residuals": [list(v) for v in self.hermitian_residuals],
            "psd_min_eigs": [list(v) for v in self.psd_min_eigs],
            "block_scales": [list(v) for v in self.block_scales],
            "tail_residuals": [list(v) for v in self.tail_residuals],
            "triangular_residuals": [list(v) for v in self.triangular_residuals],
            "trace_drifts": self.trace_drifts,
            "frobenius_drift": self.frobenius_drift,
            "closure_dim": self.closure_dim,
        }
        return json.dumps(payload, sort_keys=True)


def _polar_block_checks(M, idx: _BlockIndex, alt: bool):
    """Hermitian/PSD/tail numbers for the square parts of the cut blocks."""
    herm, eigs, tails, scales = [], [], [], []
    for k in range(len(idx.slices) - 1):
        r0, r1 = idx.slices[k]
        c0, c1 = idx.slices[k + 1]
        blk = M[c0:c1, r0:r1] if alt else M[r0:r1, c0:c1]
        if alt:
            blk = blk.conj().T
        nk = r1 - r0
        square = blk[:, :nk]
        tail = blk[:, nk:]
        herm.append((k + 1, max_abs(square - square.conj().T)))
        sym = 0.5 * (square + square.conj().T)
        ev = hermitian_eigvals(sym)
        eigs.append((k + 1, float(ev[0]) if ev.size else 0.0))
        tails.append((k + 1, max_abs(tail)))
        scales.append((k + 1, max_abs(square)))
    return herm, eigs, tails, scales


def _tri_block_checks(M, idx: _BlockIndex, alt: bool):
    """Largest magnitude in each strictly-forbidden triangular region."""
    out = []
    for k in range(len(idx.slices) - 1):
        r0, r1 = idx.slices[k]
        c0, c1 = idx.slices[k + 1]
        above = M[r0:r1, c0:c1]
        below = M[c0:c1, r0:r1]
        nk = idx.full_sizes[k]
        if not alt:
            worst_b = 0.0
            for li in range(below.shape[0]):
                for lj in range(below.shape[1]):
                    if li > lj:
                        worst_b = max(worst_b, abs(below[li, lj]))
            out.append(("B", k + 1, worst_b))
            worst_a = 0.0
            for li in range(above.shape[0]):
                for lj in range(nk, above.shape[1]):
                    if lj >= 2 * nk or li < lj - nk:
                        worst_a = max(worst_a, abs(above[li, lj]))
            out.append(("A", k + 1, worst_a))
        else:
            worst_a = 0.0
            for li in range(above.shape[0]):
                for lj in range(above.shape[1]):
                    if lj >= nk or li < lj:
                        worst_a = max(worst_a, abs(above[li, lj]))
            out.append(("A", k + 1, worst_a))
            worst_b = 0.0
            for li in range(nk, below.shape[0]):
                for lj in range(below.shape[1]):
                    if li >= 2 * nk or lj < li - nk:
                        worst_b = max(worst_b, abs(below[li, lj]))
            out.append(("B", k + 1, worst_b))
    return out


def full_report(form, threshold: float = DEFAULT_THRESHOLD) -> VerificationReport:
    """Compute every residual family relevant to ``form``.

    ``form`` carries input, basis_change, matrix, form_kind, pattern,
    schedule, and span_bounds (see the transforms module).
    """
    from .basis import span_residual
    from .kernel import unitarity_residual

    T = form.input
    U = form.basis_change
    M = form.matrix
    d = T.shape[0]

    report = VerificationReport(
        form_kind=form.form_kind,
        threshold=threshold,
        input_norm_max=max_abs(T),
        input_norm_fro=float(np.linalg.norm(T, "fro")),
        unitarity_residual=unitarity_residual(U),
        reconstruction_residual=max_abs(U.conj().T @ T @ U - M),
        pattern_kind=form.pattern.kind,
        pattern_violations=check_pattern(M, form.pattern, threshold),
        closure_dim=form.extras.get("closure_dim"),
    )

    report.span_residuals = [
        (n, m, span_residual(n, U, m)) for n, m in form.span_bounds
    ]

    if form.form_kind in ("polar", "polar_alt") and form.schedule is not None:
        idx = _BlockIndex(form.schedule, d)
        herm, eigs, tails, scales = _polar_block_checks(M, idx, form.form_kind == "polar_alt")
        report.hermitian_residuals = herm
        report.psd_min_eigs = eigs
        report.tail_residuals = tails
        report.block_scales = scales
    if form.form_kind in ("triangular", "triangular_alt") and form.schedule is not None:
        idx = _BlockIndex(form.schedule, d)
        report.triangular_residuals = _tri_block_checks(
            M, idx, form.form_kind == "triangular_alt"
        )

    powT = T.copy()
    powM = M.copy()
    drifts = [abs(np.trace(powM) - np.trace(powT))]
    for _ in range(2):
        powT = powT @ T
        powM = powM @ M
        drifts.append(abs(np.trace(powM) - np.trace(powT)))
    report.trace_drifts = [float(x) for x in drifts]
    report.frobenius_drift = float(
        abs(np.linalg.norm(M, "fro") - np.linalg.norm(T, "fro"))
    )
    return report
