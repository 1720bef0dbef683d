"""End-to-end sparsification pipelines.

Every pipeline returns a :class:`SparsifiedForm` bundling the input, the
unitary basis change, the transformed matrix, the sparsity pattern it claims,
and a verification report computed entrywise against that claim.  Patterns
are never assumed: the report re-checks them on the finished matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .basis import BuildLog, conjugate, run_program
from .kernel import (
    DEPENDENCE_TOL,
    adjoint,
    as_operator,
    max_abs,
    svd,
)
from .schedules import (
    CYCLIC,
    GENERAL,
    BlockSchedule,
    InvalidScheduleError,
    block_slices,
    canonical_covering,
    schedule_for_dim,
    validate,
)
from .verify import (
    DEFAULT_THRESHOLD,
    PatternSpec,
    VerificationReport,
    block_band,
    check_pattern,
    family_stride,
    full_report,
    hessenberg_pattern,
    joint_cyclic_pattern,
    polar_blocks,
    staircase_refined,
    tri_blocks,
)
from .words import (
    direct_sum_program,
    family_program,
    joint_cyclic_program,
    krylov_program,
    staircase_program,
    tri_word_program,
)


@dataclass
class SparsifiedForm:
    """One sparsified matrix with its inputs and verification report."""

    input: np.ndarray
    basis_change: np.ndarray
    matrix: np.ndarray
    form_kind: str
    pattern: PatternSpec
    schedule: Optional[BlockSchedule] = None
    span_bounds: List[Tuple[int, int]] = field(default_factory=list)
    log: Optional[BuildLog] = None
    extras: Dict = field(default_factory=dict)
    report: Optional[VerificationReport] = None

    @property
    def dim(self) -> int:
        return self.input.shape[0]

    @property
    def passing(self) -> bool:
        return self.report is not None and self.report.passing


def _finish(threshold: float, **fields) -> SparsifiedForm:
    form = SparsifiedForm(**fields)
    form.report = full_report(form, threshold)
    return form


def _build(T, program, tol: float, alt: bool = False, seed_vector=None):
    """Run ``program`` on T, or on T* when ``alt``; returns (build, U* base U)."""
    base = adjoint(T) if alt else T
    res = run_program([base], program, tol=tol, seed_vector=seed_vector)
    return res, conjugate(base, res.basis)


def _staircase_form(T, tol: float, threshold: float, **claim) -> SparsifiedForm:
    """The staircase build with its span bounds; ``claim`` gives the form
    kind, the claimed pattern and the schedule."""
    d = T.shape[0]
    res, M = _build(T, staircase_program(), tol)
    return _finish(
        threshold,
        input=T,
        basis_change=res.basis,
        matrix=M,
        span_bounds=[(n, min(3 * n, d)) for n in range(1, d + 1)],
        log=res.log,
        **claim,
    )


def staircase(T, tol: float = DEPENDENCE_TOL,
              threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Staircase form: column n support ends at row 3n-1, row n at column 3n."""
    return _staircase_form(as_operator(T), tol, threshold, form_kind="staircase",
                           pattern=staircase_refined())


def _require_general_cover(schedule: Optional[BlockSchedule], d: int) -> BlockSchedule:
    """The given schedule (default: the canonical one for d), checked to
    satisfy the doubling growth rule and to span d."""
    if schedule is None:
        schedule = schedule_for_dim(d, GENERAL)
    bad = validate(schedule.sizes, GENERAL)
    if bad is not None:
        raise InvalidScheduleError(
            f"block growth rule fails at k={bad}: "
            f"size {schedule.sizes[bad]} < 2*(n_1+...+n_{bad})"
        )
    if schedule.span < d:
        raise InvalidScheduleError(
            f"schedule spans {schedule.span} < matrix dimension {d}"
        )
    return BlockSchedule(schedule.sizes, GENERAL, d)


def block_tridiagonalize(T, schedule: Optional[BlockSchedule] = None,
                         tol: float = DEPENDENCE_TOL,
                         threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Staircase build re-read as a block tridiagonal matrix.

    Any schedule satisfying the doubling growth rule absorbs the staircase
    support into its band, so the same unitary works for every valid
    schedule; the pattern check is against the band of the given one.
    """
    T = as_operator(T)
    d = T.shape[0]
    schedule = _require_general_cover(schedule, d)
    return _staircase_form(T, tol, threshold, form_kind="block_tridiagonal",
                           pattern=block_band(schedule, d), schedule=schedule)


def _require_nondecreasing(schedule: BlockSchedule, d: int) -> List[Tuple[int, int]]:
    slices = block_slices(schedule, d)
    sizes = [b - a for a, b in slices]
    for a, b in zip(sizes, sizes[1:]):
        if b < a:
            raise InvalidScheduleError(
                f"block sizes must be non-decreasing inside the matrix, "
                f"got {sizes}"
            )
    return slices


def _polar_conjugator(Mb: np.ndarray, slices: List[Tuple[int, int]]) -> np.ndarray:
    """Block diagonal unitary turning each right-of-diagonal block into (P | 0).

    Walking down the band: with U_1 = I, take the SVD Y = W S V* of the
    n_k x n_{k+1} block Y = U_k* A_k and set U_{k+1} = V diag(W*, I); then
    Y U_{k+1} = (W S W* | 0), whose left part is the Hermitian square root
    of YY*.
    """
    d = Mb.shape[0]
    V = np.zeros((d, d), dtype=np.complex128)
    r0, r1 = slices[0]
    Us = [np.eye(r1 - r0, dtype=np.complex128)]
    for k in range(len(slices) - 1):
        r0, r1 = slices[k]
        c0, c1 = slices[k + 1]
        Y = Us[k].conj().T @ Mb[r0:r1, c0:c1]
        W, _, Uk1 = svd(Y)
        nk = r1 - r0
        Uk1[:, :nk] = Uk1[:, :nk] @ W.conj().T
        Us.append(Uk1)
    for (a, b), Uk in zip(slices, Us):
        V[a:b, a:b] = Uk
    return V


def polar_sparsify(T, schedule: Optional[BlockSchedule] = None, alt: bool = False,
                   tol: float = DEPENDENCE_TOL,
                   threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Block tridiagonal form with positive off-diagonal blocks on one side.

    The primary variant makes every block right of the diagonal (P_k | 0)
    with P_k Hermitian positive semidefinite; ``alt`` produces the mirrored
    form with stacked (P_k over 0) blocks below the diagonal, via the same
    construction on the adjoint.
    """
    T = as_operator(T)
    d = T.shape[0]
    schedule = _require_general_cover(schedule, d)
    slices = _require_nondecreasing(schedule, d)
    res, Mb = _build(T, staircase_program(), tol, alt)
    V = _polar_conjugator(Mb, slices)
    M = V.conj().T @ Mb @ V
    return _finish(
        threshold,
        input=T,
        basis_change=res.basis @ V,
        matrix=M.conj().T if alt else M,
        form_kind="polar_alt" if alt else "polar",
        pattern=polar_blocks(schedule, d, alt),
        schedule=schedule,
        log=res.log,
    )


def polar_sparsify_tridiagonal(Mb, schedule: BlockSchedule,
                               threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Positive-block form of a matrix already in block tridiagonal shape."""
    Mb = as_operator(Mb)
    d = Mb.shape[0]
    if schedule.span < d:
        raise InvalidScheduleError(
            f"schedule spans {schedule.span} < matrix dimension {d}"
        )
    slices = _require_nondecreasing(schedule, d)
    band = check_pattern(Mb, block_band(schedule, d), threshold)
    if band:
        i, j, mag = band[0]
        raise ValueError(
            f"input is not block tridiagonal for this schedule: "
            f"|M({i},{j})| = {mag:.3e}"
        )
    V = _polar_conjugator(Mb, slices)
    return _finish(
        threshold,
        input=Mb,
        basis_change=V,
        matrix=V.conj().T @ Mb @ V,
        form_kind="polar",
        pattern=polar_blocks(schedule, d, False),
        schedule=schedule,
    )


def _tri_span_bounds(d: int) -> List[Tuple[int, int]]:
    out = []
    n = 1
    while True:
        out.append((n, min(3 ** n, d)))
        if 3 ** n >= d or n >= d:
            break
        n += 1
    return out


def tri_sparsify(T, alt: bool = False, tol: float = DEPENDENCE_TOL,
                 threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Block tridiagonal form with triangular sub-block structure.

    Primary claims: each below-diagonal block is an upper triangular square
    stacked over zeros, and each above-diagonal block is (free | lower
    triangular | zero).  ``alt`` mirrors both.  Block sizes follow the
    doubling-by-three partition 1, 2, 6, 18, ... clipped at the dimension.
    """
    T = as_operator(T)
    d = T.shape[0]
    schedule = canonical_covering(d, GENERAL, 1)
    res, M = _build(T, tri_word_program(), tol, alt)
    return _finish(
        threshold,
        input=T,
        basis_change=res.basis,
        matrix=M.conj().T if alt else M,
        form_kind="triangular_alt" if alt else "triangular",
        pattern=tri_blocks(schedule, d, alt),
        schedule=schedule,
        span_bounds=_tri_span_bounds(d),
        log=res.log,
    )


def _cyclic(T, v, program, form_kind: str, pattern_for, tol: float, threshold: float,
            schedule: Optional[BlockSchedule] = None) -> SparsifiedForm:
    """Build from the seed vector v; ``pattern_for`` maps the closure size
    (d when v is cyclic) to the claimed pattern."""
    res, M = _build(T, program, tol, seed_vector=v)
    closure_dim = res.closures[0] if res.closures else None
    return _finish(
        threshold,
        input=T,
        basis_change=res.basis,
        matrix=M,
        form_kind=form_kind,
        pattern=pattern_for(T.shape[0] if closure_dim is None else closure_dim),
        schedule=schedule,
        log=res.log,
        extras={"closure_dim": closure_dim},
    )


def krylov_hessenberg(T, v, tol: float = DEPENDENCE_TOL,
                      threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Upper Hessenberg form on the subspace generated by v, Tv, T^2 v, ...

    When v is not cyclic the build pads with standard basis vectors; the
    Hessenberg claim then applies to the leading block of the reported
    closure size, and the block below it vanishes by invariance.
    """
    return _cyclic(as_operator(T), v, krylov_program(), "hessenberg",
                   hessenberg_pattern, tol, threshold)


def joint_cyclic_staircase(T, v, tol: float = DEPENDENCE_TOL,
                           threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Two-sided cyclic staircase: column n support 2n, row n support 2n+1.

    The subspace generated by words in T, T* from v is reducing, so with a
    non-cyclic v the matrix splits: the pattern holds on the leading closure
    block, the coupling blocks vanish, and the complement is unconstrained.
    """
    T = as_operator(T)
    return _cyclic(T, v, joint_cyclic_program(), "joint_cyclic", joint_cyclic_pattern,
                   tol, threshold, schedule=schedule_for_dim(T.shape[0], CYCLIC))


def family_staircase(operators: Sequence, selfadjoint: bool = False,
                     tol: float = DEPENDENCE_TOL,
                     threshold: float = DEFAULT_THRESHOLD):
    """One unitary putting a whole family into staircase form simultaneously.

    Returns (U, forms), one form per operator, each claiming the stride-s
    staircase pattern with s = N+1 for a selfadjoint family and s = 2N+1 in
    general.  The selfadjoint flag is verified entrywise.
    """
    ops = [as_operator(S, f"operator {k + 1}") for k, S in enumerate(operators)]
    if not ops:
        raise ValueError("family must contain at least one operator")
    d = ops[0].shape[0]
    for k, S in enumerate(ops):
        if S.shape != (d, d):
            raise ValueError(f"operator {k + 1} has shape {S.shape}, expected {(d, d)}")
    if selfadjoint:
        for k, S in enumerate(ops):
            drift = max_abs(S - S.conj().T)
            if drift > 1e-8:
                raise ValueError(
                    f"operator {k + 1} is not selfadjoint (|S - S*| = {drift:.3e})"
                )
    N = len(ops)
    program = family_program(N, selfadjoint)
    stride = program.stride
    res = run_program(ops, program, tol=tol)
    bounds = [(n, min(1 + (n - 1) * stride, d)) for n in range(1, d + 1)]
    forms = [
        _finish(
            threshold,
            input=S,
            basis_change=res.basis,
            matrix=conjugate(S, res.basis),
            form_kind="family",
            pattern=family_stride(stride),
            span_bounds=bounds,
            log=res.log,
            extras={"family_index": k + 1, "family_size": N, "stride": stride},
        )
        for k, S in enumerate(ops)
    ]
    return res.basis, forms


def reducing_closure(T, v, tol: float = DEPENDENCE_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the smallest reducing subspace
    containing v; v is a joint cyclic vector for the restriction."""
    res = run_program([as_operator(T)], joint_cyclic_program(), tol=tol,
                      seed_vector=v, pad_with_seeds=False)
    return res.basis


@dataclass
class DecompositionResult:
    """Direct-sum split into jointly-cyclic summands."""

    input: np.ndarray
    basis_change: np.ndarray
    matrix: np.ndarray
    summands: List[SparsifiedForm]
    dims: List[int]
    coupling_residual: float

    @property
    def passing(self) -> bool:
        return self.coupling_residual <= 1e-9 and all(s.passing for s in self.summands)


def decompose(T, tol: float = DEPENDENCE_TOL,
              threshold: float = DEFAULT_THRESHOLD) -> DecompositionResult:
    """Split the space into reducing subspaces with joint cyclic vectors.

    One Gram-Schmidt build: seed e_1 and close the span under T and T*;
    each time the span closes, offer the next standard seed and go on from
    the first one not captured yet.  Summands run between the recorded
    closures.  The basis change block-diagonalizes T with every diagonal
    block in the two-sided cyclic staircase form.
    """
    T = as_operator(T)
    res = run_program([T], direct_sum_program(), tol=tol)
    M = conjugate(T, res.basis)
    bounds = [0, *res.closures, T.shape[0]]
    ranges = [(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]

    summands = []
    for start, stop in ranges:
        R = M[start:stop, start:stop].copy()
        size = stop - start
        summands.append(_finish(
            threshold,
            input=R,
            basis_change=np.eye(size, dtype=np.complex128),
            matrix=R,
            form_kind="direct_summand",
            pattern=joint_cyclic_pattern(size),
            schedule=schedule_for_dim(size, CYCLIC),
            extras={"offset": start, "closure_dim": size},
        ))

    dims = [stop - start for start, stop in ranges]
    # summand number of every basis index; coupling is everything off the
    # diagonal blocks
    label = np.repeat(np.arange(len(dims)), dims)
    return DecompositionResult(
        input=T,
        basis_change=res.basis,
        matrix=M,
        summands=summands,
        dims=dims,
        coupling_residual=max_abs(M[label[:, None] != label[None, :]]),
    )
