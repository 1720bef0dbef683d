"""Sparsity pattern specifications and the verification report.

A pattern is a 1-based predicate allowed(i, j) naming the positions permitted
to be nonzero; it takes ints or broadcast integer arrays, so one call on open
grids gives the whole support mask.  Every claimed zero, a triangular corner
or a positive block's tail among them, is one entry outside the support and is
checked once: it is a violation unless its magnitude is at most the threshold,
so a NaN is one.  The report bundles every residual family relevant to a form
(unitarity, reconstruction, pattern, spanning, block positivity) as
:class:`Check` records with their limits, and passes when ``failures``, the
records over their limits, is empty; ``blocktrid verify`` reads a pattern's
support and block records the same way.  The checks of the basis change alone
(unitarity, spans) are computed apart from those of the matrix, so forms
sharing one basis change can share them.

Unitarity and reconstruction are certified upper bounds on Frobenius norms,
sketched from seeded probes in O(d^2) (:mod:`blocktrid.kernel`); the report
states the sketch in its ``certificate`` entry.  The entry and block checks
read ``M`` exactly.

Block patterns locate indices with the schedule's single partition locator,
:class:`~blocktrid.schedules.BlockIndex`.  A pattern that claims what no entry
check sees (the Hermitian positive semidefinite squares of the positive-block
forms) carries the checks of that claim, and every report runs them.  Every
mirrored (``alt``) pattern is its primary pattern transposed, and its block
checks are the primary checks run on ``M*``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .basis import span_residual
from .kernel import (FAILURE_PROBABILITY, MARGIN, PROBES, hermitian_eigvals, max_abs,
                     reconstruction_residual, unitarity_residual)
from .schedules import BlockIndex, BlockSchedule, InvalidScheduleError, covering_index

UNITARITY_LIMIT = 1e-10
RECONSTRUCTION_REL = 1e-8
SPAN_LIMIT = 1e-8
HERMITIAN_REL = 1e-9
PSD_EIG_REL = 1e-8
DEFAULT_THRESHOLD = 1e-10

#: What the sketched unitarity and reconstruction bounds rest on.
CERTIFICATE = {"probes": PROBES, "margin": MARGIN, "failure_probability": FAILURE_PROBABILITY}


class Check(NamedTuple):
    """``value`` of the field ``check`` at ``at`` against ``limit``, a lower
    bound for ``psd_min_eigs`` and an upper one otherwise; a NaN value fails."""

    check: str
    at: object
    value: float
    limit: float

    @property
    def failed(self) -> bool:
        if self.check == "psd_min_eigs":
            return not self.value >= self.limit
        return not self.value <= self.limit


@dataclass(frozen=True)
class PatternSpec:
    """Named support predicate, with the block schedule where one applies.

    ``allowed(i, j)`` must accept 1-based ints and broadcast integer arrays.
    ``block_checks``, where the pattern claims more of its blocks than their
    support, maps a matrix to the report fields that check that claim.
    """

    kind: str
    allowed: Callable[[int, int], bool]
    schedule: Optional[BlockSchedule] = None
    block_checks: Optional[Callable[[np.ndarray], Dict[str, list]]] = None


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
    if cyclic_dim is not None and cyclic_dim < 1:
        raise ValueError("closure_dim must be positive")
    mc = cyclic_dim if cyclic_dim is not None else 10 ** 9

    def allowed(i, j):
        return (j > mc) | (i <= j + 1)

    return PatternSpec("hessenberg", allowed)


def _joint_cyclic(i, j):
    """Column j support ends at row 2j, row i support at column 2i+1."""
    return (i <= 2 * j) & (j <= 2 * i + 1)


def joint_cyclic_pattern(cyclic_dim: Optional[int] = None) -> PatternSpec:
    """Columns 2, 4, 6, rows 3, 5, 7 on the jointly cyclic block.

    The block generated from the starting vector is reducing, so entries
    coupling it to the rest are required to vanish; the complement block is
    unconstrained.
    """
    if cyclic_dim is not None and cyclic_dim < 1:
        raise ValueError("closure_dim must be positive")
    mc = cyclic_dim if cyclic_dim is not None else 10 ** 9

    def allowed(i, j):
        inside = (i <= mc) & (j <= mc) & _joint_cyclic(i, j)
        return inside | ((i > mc) & (j > mc))

    return PatternSpec("joint_cyclic", allowed)


def direct_sum_pattern(dims: Sequence[int]) -> PatternSpec:
    """Block diagonal over ``dims``, each diagonal block joint cyclic in its
    local indices; every entry coupling two blocks is a claimed zero."""
    idx = BlockIndex(BlockSchedule(tuple(dims)))

    def allowed(i, j):
        bi, li = idx.locate(i)
        bj, lj = idx.locate(j)
        return (bi == bj) & _joint_cyclic(li, lj)

    return PatternSpec("direct_sum", allowed)


def _mirrored(spec: PatternSpec, kind: str) -> PatternSpec:
    """``spec`` transposed: the support of a primary form of ``T*``,
    conjugate-transposed, whose block checks are ``spec``'s run on ``M*``."""
    checks = spec.block_checks
    return PatternSpec(kind, lambda i, j: spec.allowed(j, i), spec.schedule,
                       None if checks is None else lambda M: checks(M.conj().T))


def block_band(schedule: BlockSchedule, dim: int) -> PatternSpec:
    return PatternSpec("block_band", covering_index(schedule, dim).in_band, schedule)


def polar_blocks(schedule: BlockSchedule, dim: int, alt: bool = False) -> PatternSpec:
    """Band pattern with the off-diagonal blocks on one side cut to squares.

    Primary: each block right of the diagonal is (P | 0), only its leading
    n_k columns may be nonzero.  Alt: the primary pattern transposed, so each
    block below the diagonal is (P | 0) transposed.  Block sizes must not
    shrink inside the matrix, or a cut block has no leading square.
    """
    idx = covering_index(schedule, dim)
    if np.any(np.diff(idx.sizes) < 0):
        raise InvalidScheduleError(f"block sizes must be non-decreasing inside the "
                                   f"matrix, got {idx.sizes.tolist()}")

    def allowed(i, j):
        bi, _ = idx.locate(i)
        bj, lj = idx.locate(j)
        return (abs(bi - bj) <= 1) & ((bj != bi + 1) | (lj <= idx.sizes[bi - 1]))

    spec = PatternSpec("polar_blocks", allowed, schedule,
                       lambda M: _polar_block_checks(M, idx))
    return _mirrored(spec, "polar_alt_blocks") if alt else spec


def tri_blocks(schedule: BlockSchedule, dim: int, alt: bool = False) -> PatternSpec:
    """Band pattern with triangular sub-block structure on both sides.

    Primary: below-diagonal blocks are (B' | 0) transposed with B' upper
    triangular; above-diagonal blocks are (A' | A'' | 0) with A'' lower
    triangular.  Alt: the primary pattern transposed (square lower triangular
    above, free-then-upper-triangular stack below).
    """
    idx = covering_index(schedule, dim)

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


def _polar_block_checks(M, idx: BlockIndex) -> Dict[str, list]:
    """Hermitian and PSD numbers for the square parts of the cut blocks
    right of the diagonal; their tails are claimed zeros of the support."""
    herm, eigs, scales = [], [], []
    for k in range(len(idx.slices) - 1):
        r0, r1 = idx.slices[k]
        c0, _ = idx.slices[k + 1]
        square = M[r0:r1, c0:c0 + r1 - r0]
        herm.append((k + 1, max_abs(square - square.conj().T)))
        sym = 0.5 * (square + square.conj().T)
        ev = hermitian_eigvals(sym)
        eigs.append((k + 1, float(ev[0]) if ev.size else 0.0))
        scales.append((k + 1, max_abs(square)))
    return {"hermitian_residuals": herm, "psd_min_eigs": eigs, "block_scales": scales}


def _support_mask(spec: PatternSpec, shape: Tuple[int, int]) -> np.ndarray:
    """Boolean (rows, cols) array of the positions ``spec`` allows."""
    i, j = np.ogrid[1:shape[0] + 1, 1:shape[1] + 1]
    return np.broadcast_to(spec.allowed(i, j), shape)


def require_finite(threshold: float) -> None:
    """Reject a threshold no entry lies above (NaN, infinite) or every zero does (<= 0)."""
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")


def check_pattern(M, spec: PatternSpec, threshold: float = DEFAULT_THRESHOLD):
    """All (i, j, magnitude) outside the support whose magnitude is not at
    most ``threshold``, a NaN included.

    Violations come in row-major order.
    """
    require_finite(threshold)
    M = np.asarray(M)
    mags = np.abs(M)
    rows, cols = np.nonzero(~((mags <= threshold) | _support_mask(spec, M.shape)))
    return list(zip((rows + 1).tolist(), (cols + 1).tolist(), mags[rows, cols].tolist()))


def pattern_fields(M, spec: PatternSpec, threshold: float) -> Dict[str, object]:
    """The threshold, ``M``'s violations of ``spec`` and its block check fields."""
    return {"threshold": threshold, "pattern_violations": check_pattern(M, spec, threshold),
            **(spec.block_checks(M) if spec.block_checks else {})}


def pattern_checks(fields: Dict[str, object]) -> List[Check]:
    """Records of the support and block ``fields``; ``block_scales`` only scales
    the Hermitian and PSD limits, each to ``max(1, block scale)``."""
    scales = dict(fields.get("block_scales", ()))
    return [
        *(Check("pattern_violations", (i, j), mag, fields["threshold"])
          for i, j, mag in fields["pattern_violations"]),
        *(Check("hermitian_residuals", f"block {k}", r,
                HERMITIAN_REL * max(1.0, scales.get(k, 1.0)))
          for k, r in fields.get("hermitian_residuals", ())),
        *(Check("psd_min_eigs", f"block {k}", eig,
                -PSD_EIG_REL * max(1.0, scales.get(k, 1.0)))
          for k, eig in fields.get("psd_min_eigs", ())),
    ]


def pattern_text(M, spec: PatternSpec, threshold: float = DEFAULT_THRESHOLD) -> str:
    """ASCII sketch: '*' above threshold or NaN, '.' allowed-but-zero, 'X' violation."""
    require_finite(threshold)
    M = np.asarray(M)
    hot = ~(np.abs(M) <= threshold)
    ok = _support_mask(spec, M.shape)
    cells = np.where(hot, np.where(ok, "*", "X"), np.where(ok, ".", " "))
    return "\n".join("".join(row) for row in cells)


@dataclass
class VerificationReport:
    """Every residual family for one sparsified form, with pass/fail, and the
    parameters of the claim checked: ``closure_dim``, the block sizes of the
    pattern clipped at the dimension (``schedule``), ``dims`` and ``stride``."""

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
    closure_dim: Optional[int] = None
    schedule: Optional[List[int]] = None
    dims: Optional[List[int]] = None
    stride: Optional[int] = None
    block_scales: List[Tuple[int, float]] = field(default_factory=list)
    certificate: Dict[str, object] = field(default_factory=lambda: dict(CERTIFICATE))

    @property
    def failures(self) -> List[Check]:
        """The records over their limits, read from the fields as they are."""
        return [c for c in (
            Check("unitarity_residual", None, self.unitarity_residual, UNITARITY_LIMIT),
            Check("reconstruction_residual", None, self.reconstruction_residual,
                  RECONSTRUCTION_REL * (1 + self.input_norm_max)),
            *(Check("span_residuals", (n, m), r, SPAN_LIMIT)
              for n, m, r in self.span_residuals),
            *pattern_checks(vars(self)),
        ) if c.failed]

    @property
    def passing(self) -> bool:
        return not self.failures

    def json_object(self) -> Dict[str, object]:
        """The fields, not copied, with ``pattern`` nested and ``failures`` and
        ``passing``; a claim parameter the claim does not read is left out."""
        payload = {key: value for key, value in vars(self).items()
                   if value is not None or key not in ("schedule", "dims", "stride")}
        payload["pattern"] = {
            "kind": payload.pop("pattern_kind"),
            "violations": payload.pop("pattern_violations"),
        }
        payload["failures"] = self.failures
        payload["passing"] = not payload["failures"]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.json_object(), sort_keys=True)


def basis_checks(U, span_bounds: Sequence[Tuple[int, int]]
                 ) -> Tuple[float, List[Tuple[int, int, float]]]:
    """The checks that depend on the basis change alone.

    Returns the unitarity bound ε >= ‖U*U - I‖_F >= ‖U*U - I‖₂ of
    :func:`~blocktrid.kernel.unitarity_residual` and, for every (n, m) in
    ``span_bounds``, the triple (n, m, r): r bounds the distance from e_n to
    the span of U's first m columns from above.  For ε <= 1/3,
    r = (1 + ε)·‖U[n, m+1:]‖ + 2ε; for a larger ε, r = 1.
    """
    eps = unitarity_residual(U)
    spans = []
    if span_bounds:
        ns, ms = np.array(span_bounds).T
        dists = np.where(eps <= 1 / 3, (1 + eps) * span_residual(ns, U, ms) + 2 * eps, 1.0)
        spans = [(n, m, r) for (n, m), r in zip(span_bounds, dists.tolist())]
    return eps, spans


def full_report(form, threshold: float = DEFAULT_THRESHOLD) -> VerificationReport:
    """Compute every residual family relevant to ``form``.

    ``form`` carries input, basis_change, matrix, form_kind, pattern,
    span_bounds and extras (see the transforms module).
    """
    return matrix_report(form, threshold,
                         *basis_checks(form.basis_change, form.span_bounds))


def matrix_report(form, threshold: float, unitarity: float,
                  span_residuals: List[Tuple[int, int, float]]) -> VerificationReport:
    """``form``'s report from the :func:`basis_checks` of its basis change.

    Forms sharing one basis change can share its basis checks; every check
    of ``form.matrix`` is computed here, the block checks that
    ``form.pattern`` carries among them.  The report keeps
    ``span_residuals`` as given.
    """
    T = form.input
    U = form.basis_change
    M = form.matrix
    schedule = form.pattern.schedule

    return VerificationReport(
        form_kind=form.form_kind,
        input_norm_max=max_abs(T),
        input_norm_fro=float(np.linalg.norm(T, "fro")),
        unitarity_residual=unitarity,
        reconstruction_residual=reconstruction_residual(T, U, M),
        pattern_kind=form.pattern.kind,
        span_residuals=span_residuals,
        closure_dim=form.extras.get("closure_dim"),
        schedule=None if schedule is None else BlockIndex(schedule, len(M)).sizes.tolist(),
        dims=getattr(form, "dims", None),
        stride=form.extras.get("stride"),
        **pattern_fields(M, form.pattern, threshold),
    )
