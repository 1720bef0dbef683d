"""Sparsity pattern specifications and the verification report.

A pattern is a 1-based predicate allowed(i, j) naming the positions permitted
to be nonzero; it takes ints or broadcast integer arrays, so one call on open
grids gives the whole support mask.  Checking is entrywise: anything above the
magnitude threshold sitting at a disallowed position is a violation.  The
report bundles every residual family relevant to a form (unitarity,
reconstruction, pattern, spanning, block positivity, block triangularity,
similarity invariants) and decides pass/fail against the documented thresholds.

Block patterns locate indices with the schedule's single partition locator,
:class:`~blocktrid.schedules.BlockIndex`.  Every mirrored (``alt``) pattern
is its primary pattern transposed, and a mirrored form's block checks are
the primary checks run on ``M*``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .kernel import hermitian_eigvals, max_abs
from .schedules import BlockIndex, BlockSchedule, block_slices

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
    """Named support predicate, with the block schedule where one applies.

    ``allowed(i, j)`` must accept 1-based ints and broadcast integer arrays.
    """

    kind: str
    allowed: Callable[[int, int], bool]
    schedule: Optional[BlockSchedule] = None


def staircase_coarse() -> PatternSpec:
    """Row n support ends at column 3n, column n support ends at row 3n."""
    return PatternSpec("staircase_coarse", lambda i, j: (j <= 3 * i) & (i <= 3 * j))


def staircase_refined() -> PatternSpec:
    """Column support ends one row earlier (2, 5, 8, ...) than the coarse form."""
    return PatternSpec("staircase_refined", lambda i, j: (j <= 3 * i) & (i <= 3 * j - 1))


def family_stride(stride: int) -> PatternSpec:
    if stride < 1:
        raise ValueError("stride must be positive")
    return PatternSpec(
        f"family_stride_{stride}",
        lambda i, j: (j <= stride * i) & (i <= stride * j),
    )


def hessenberg_pattern(cyclic_dim: Optional[int] = None) -> PatternSpec:
    """Upper Hessenberg on the leading cyclic block.

    Entries in columns past the cyclic block are unconstrained (the starting
    vector only generates that block; the completion columns carry whatever
    the operator does elsewhere).
    """
    mc = cyclic_dim if cyclic_dim is not None else 10 ** 9

    def allowed(i, j):
        return (j > mc) | (i <= j + 1)

    return PatternSpec("hessenberg", allowed)


def joint_cyclic_pattern(cyclic_dim: Optional[int] = None) -> PatternSpec:
    """Columns 2, 4, 6, rows 3, 5, 7 on the jointly cyclic block.

    The block generated from the starting vector is reducing, so entries
    coupling it to the rest are required to vanish; the complement block is
    unconstrained.
    """
    mc = cyclic_dim if cyclic_dim is not None else 10 ** 9

    def allowed(i, j):
        inside = (i <= mc) & (j <= mc) & (i <= 2 * j) & (j <= 2 * i + 1)
        return inside | ((i > mc) & (j > mc))

    return PatternSpec("joint_cyclic", allowed)


def _covering_index(schedule: BlockSchedule, dim: int) -> BlockIndex:
    idx = BlockIndex(schedule, dim)
    if idx.span < dim:
        raise ValueError(
            f"schedule spans {schedule.span}, too short for dimension {dim}"
        )
    return idx


def _mirrored(spec: PatternSpec, kind: str) -> PatternSpec:
    """``spec`` transposed: the support of a primary form of ``T*``, conjugate-transposed."""
    return PatternSpec(kind, lambda i, j: spec.allowed(j, i), spec.schedule)


def block_band(schedule: BlockSchedule, dim: int) -> PatternSpec:
    return PatternSpec("block_band", _covering_index(schedule, dim).in_band, schedule)


def polar_blocks(schedule: BlockSchedule, dim: int, alt: bool = False) -> PatternSpec:
    """Band pattern with the off-diagonal blocks on one side cut to squares.

    Primary: each block right of the diagonal is (P | 0), only its leading
    n_k columns may be nonzero.  Alt: the primary pattern transposed, so each
    block below the diagonal is (P | 0) transposed.
    """
    idx = _covering_index(schedule, dim)

    def allowed(i, j):
        bi, _ = idx.locate(i)
        bj, lj = idx.locate(j)
        return (abs(bi - bj) <= 1) & ((bj != bi + 1) | (lj <= idx.sizes[bi - 1]))

    spec = PatternSpec("polar_blocks", allowed, schedule)
    return _mirrored(spec, "polar_alt_blocks") if alt else spec


def tri_blocks(schedule: BlockSchedule, dim: int, alt: bool = False) -> PatternSpec:
    """Band pattern with triangular sub-block structure on both sides.

    Primary: below-diagonal blocks are (B' | 0) transposed with B' upper
    triangular; above-diagonal blocks are (A' | A'' | 0) with A'' lower
    triangular.  Alt: the primary pattern transposed (square lower triangular
    above, free-then-upper-triangular stack below).
    """
    idx = _covering_index(schedule, dim)

    def allowed(i, j):
        bi, li = idx.locate(i)
        bj, lj = idx.locate(j)
        # below: stacked upper triangular square over zeros; above: block bi
        # is not the last, so its size is unclipped
        below_ok = li <= lj
        nk = idx.sizes[bi - 1]
        above_ok = (lj <= nk) | ((lj <= 2 * nk) & (li >= lj - nk))
        return (bi == bj) | ((bj == bi + 1) & above_ok) | ((bi == bj + 1) & below_ok)

    spec = PatternSpec("tri_blocks", allowed, schedule)
    return _mirrored(spec, "tri_alt_blocks") if alt else spec


def _support_mask(spec: PatternSpec, shape: Tuple[int, int]) -> np.ndarray:
    """Boolean (rows, cols) array of the positions ``spec`` allows."""
    i, j = np.ogrid[1:shape[0] + 1, 1:shape[1] + 1]
    return np.broadcast_to(spec.allowed(i, j), shape)


def check_pattern(M, spec: PatternSpec, threshold: float = DEFAULT_THRESHOLD):
    """All (i, j, magnitude) with |M(i,j)| > threshold outside the support.

    Violations come in row-major order.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    M = np.asarray(M)
    mags = np.abs(M)
    rows, cols = np.nonzero((mags > threshold) & ~_support_mask(spec, M.shape))
    return list(zip((rows + 1).tolist(), (cols + 1).tolist(), mags[rows, cols].tolist()))


def pattern_text(M, spec: PatternSpec, threshold: float = DEFAULT_THRESHOLD) -> str:
    """ASCII sketch: '*' above threshold, '.' allowed-but-zero, 'X' violation."""
    M = np.asarray(M)
    hot = np.abs(M) > threshold
    ok = _support_mask(spec, M.shape)
    cells = np.where(hot, np.where(ok, "*", "X"), np.where(ok, ".", " "))
    return "\n".join("".join(row) for row in cells)


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
        payload = asdict(self)
        payload["pattern"] = {
            "kind": payload.pop("pattern_kind"),
            "violations": payload.pop("pattern_violations"),
        }
        payload["passing"] = self.passing
        return json.dumps(payload, sort_keys=True)


def _polar_block_checks(M, idx: BlockIndex):
    """Hermitian/PSD/tail numbers for the square parts of the cut blocks
    right of the diagonal."""
    herm, eigs, tails, scales = [], [], [], []
    for k in range(len(idx.slices) - 1):
        r0, r1 = idx.slices[k]
        c0, c1 = idx.slices[k + 1]
        blk = M[r0:r1, c0:c1]
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


def _tri_block_checks(M, schedule: BlockSchedule, below: str, above: str):
    """Largest magnitude off the triangular support, per off-diagonal block.

    Each pair lists the block below the diagonal, labelled ``below``, before
    the one above it, labelled ``above``.
    """
    d = M.shape[0]
    off = np.where(_support_mask(tri_blocks(schedule, d), M.shape), 0.0, np.abs(M))
    slices = block_slices(schedule, d)
    out = []
    for k in range(len(slices) - 1):
        r0, r1 = slices[k]
        c0, c1 = slices[k + 1]
        out += [(below, k + 1, max_abs(off[c0:c1, r0:r1])),
                (above, k + 1, max_abs(off[r0:r1, c0:c1]))]
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
        # backward error max|U M U* - T|: it does not repeat the products
        # that built M = U* T U, so it cannot cancel to zero by construction
        reconstruction_residual=max_abs(U @ M @ U.conj().T - T),
        pattern_kind=form.pattern.kind,
        pattern_violations=check_pattern(M, form.pattern, threshold),
        closure_dim=form.extras.get("closure_dim"),
    )

    if form.span_bounds:
        ns, ms = np.array(form.span_bounds).T
        dists = span_residual(ns, U, ms).tolist()
        report.span_residuals = [(n, m, r) for (n, m), r in zip(form.span_bounds, dists)]

    # a mirrored form is the primary form of T*, conjugate-transposed, so its
    # block checks are the primary ones run on M*; M*'s blocks below the
    # diagonal are M's above it, hence the swapped triangular labels
    mirrored = form.form_kind in ("polar_alt", "triangular_alt")
    Mp = M.conj().T if mirrored else M
    if form.form_kind in ("polar", "polar_alt") and form.schedule is not None:
        herm, eigs, tails, scales = _polar_block_checks(Mp, _covering_index(form.schedule, d))
        report.hermitian_residuals = herm
        report.psd_min_eigs = eigs
        report.tail_residuals = tails
        report.block_scales = scales
    if form.form_kind in ("triangular", "triangular_alt") and form.schedule is not None:
        labels = ("A", "B") if mirrored else ("B", "A")
        report.triangular_residuals = _tri_block_checks(Mp, form.schedule, *labels)

    # tr(A^2) = sum(A * A^T) and tr(A^3) = sum(A^2 * A^T): one product each
    T2, M2 = T @ T, M @ M
    drifts = [
        np.trace(M) - np.trace(T),
        np.sum(M * M.T) - np.sum(T * T.T),
        np.sum(M2 * M.T) - np.sum(T2 * T.T),
    ]
    report.trace_drifts = [float(abs(x)) for x in drifts]
    report.frobenius_drift = float(
        abs(np.linalg.norm(M, "fro") - np.linalg.norm(T, "fro"))
    )
    return report
