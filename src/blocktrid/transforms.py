"""End-to-end sparsification pipelines and the one registry of forms.

Every pipeline returns a :class:`SparsifiedForm` bundling the input, the
unitary basis change, the transformed matrix, the sparsity pattern it claims,
and a verification report computed entrywise against that claim.  Patterns
are never assumed: the report re-checks them on the finished matrix.

:data:`FORMS`, one :class:`FormCommand` per form command of the CLI, is
the one registry of forms; :func:`named_pattern` and :func:`claim_of` rebuild
a form's pattern from its report's JSON object and the dimension.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .basis import BuildLog, conjugate, run_program
from .kernel import (
    DEPENDENCE_TOL,
    adjoint,
    as_operator,
    require_selfadjoint,
    svd,
)
from .schedules import (
    CYCLIC,
    GENERAL,
    BlockSchedule,
    InvalidScheduleError,
    block_slices,
    canonical_covering,
    covering_index,
    growth_violation,
    parse_spec,
    schedule_for_dim,
)
from .verify import (
    DEFAULT_THRESHOLD,
    PatternSpec,
    VerificationReport,
    basis_checks,
    block_band,
    check_pattern,
    direct_sum_pattern,
    family_stride,
    full_report,
    hessenberg_pattern,
    joint_cyclic_pattern,
    matrix_report,
    polar_blocks,
    staircase_coarse,
    staircase_refined,
    tri_blocks,
)
from .words import (
    direct_sum_program,
    family_program,
    joint_cyclic_program,
    krylov_program,
    staircase_program,
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


def _finish(threshold: float, form_class=SparsifiedForm, **fields) -> SparsifiedForm:
    form = form_class(**fields)
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
    bad = growth_violation(schedule.sizes, GENERAL)
    if bad is not None:
        raise InvalidScheduleError(bad)
    covering_index(schedule, d)
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


def _band_walk(Mb: np.ndarray, slices: List[Tuple[int, int]], factor) -> List[np.ndarray]:
    """Diagonal blocks [V_1, V_2, ...] of a block diagonal unitary V on
    ``slices``, walking down the band of Mb: V_1 = I, and
    V_{k+1} = factor(B, A, V_k) with B and A the blocks of Mb below and
    right of diagonal block k.  No d x d V is formed."""
    a, b = slices[0]
    blocks = [np.eye(b - a, dtype=np.complex128)]
    for (r0, r1), (c0, c1) in zip(slices, slices[1:]):
        blocks.append(factor(Mb[c0:c1, r0:r1], Mb[r0:r1, c0:c1], blocks[-1]))
    return blocks


def _polar_factor(B: np.ndarray, A: np.ndarray, Vk: np.ndarray) -> np.ndarray:
    """V_{k+1} = X diag(W*, I) from the SVD V_k* A = W S X* (polar_sparsify)."""
    W, _, X = svd(Vk.conj().T @ A)
    X[:, :len(W)] = X[:, :len(W)] @ W.conj().T
    return X


def _triangular_factor(B: np.ndarray, A: np.ndarray, Vk: np.ndarray) -> np.ndarray:
    """V_{k+1} = Q from the complete QR [B V_k | A* V_k] = Q R (tri_sparsify)."""
    return np.linalg.qr(np.hstack([B @ Vk, A.conj().T @ Vk]), mode="complete")[0]


def _band_conjugate(Mb: np.ndarray, U: np.ndarray, schedule: BlockSchedule,
                    factor, alt: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """(U V, V* Mb V) for V the band walk of Mb on the blocks of ``schedule``
    with ``factor``, V applied one block column at a time; the matrix is
    conjugate-transposed when ``alt``."""
    slices = block_slices(schedule, Mb.shape[0])
    blocks = _band_walk(Mb, slices, factor)

    def times_v(X):
        out = np.empty_like(X)
        for (a, b), Vk in zip(slices, blocks):
            out[:, a:b] = X[:, a:b] @ Vk
        return out

    # (V* Mb V)* = (Mb V)* V, every entry computed
    Madj = times_v(times_v(Mb).conj().T)
    return times_v(U), Madj if alt else Madj.conj().T


def _band_form(T, schedule: BlockSchedule, factor, alt: bool, tol: float,
               threshold: float, **claim) -> SparsifiedForm:
    """The staircase build of T (T* when ``alt``) conjugated by the band walk
    with ``factor`` on the blocks of ``schedule``; ``claim`` gives the form
    kind, the pattern and any span bounds."""
    res, Mb = _build(T, staircase_program(), tol, alt)
    W, M = _band_conjugate(Mb, res.basis, schedule, factor, alt)
    return _finish(threshold, input=T, basis_change=W, matrix=M, schedule=schedule,
                   log=res.log, **claim)


def polar_sparsify(T, schedule: Optional[BlockSchedule] = None, alt: bool = False,
                   tol: float = DEPENDENCE_TOL,
                   threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Block tridiagonal form with positive off-diagonal blocks on one side.

    The primary variant makes every block right of the diagonal (P_k | 0)
    with P_k Hermitian positive semidefinite; ``alt`` produces the mirrored
    form with stacked (P_k over 0) blocks below the diagonal, via the same
    construction on the adjoint.  The block tridiagonal form Mb on the
    schedule is conjugated by the band walk's block diagonal V, applied
    block by block.  With A the block of Mb right of diagonal block k, take
    the SVD Y = V_k* A = W S X* and set V_{k+1} = X diag(W*, I); then
    Y V_{k+1} = (W S W* | 0), whose left part is the Hermitian square root
    of YY*.
    """
    T = as_operator(T)
    d = T.shape[0]
    schedule = _require_general_cover(schedule, d)
    return _band_form(T, schedule, _polar_factor, alt, tol, threshold,
                      form_kind="polar_alt" if alt else "polar",
                      pattern=polar_blocks(schedule, d, alt))


def polar_sparsify_tridiagonal(Mb, schedule: BlockSchedule,
                               threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Positive-block form of a matrix already in block tridiagonal shape:
    the band walk of :func:`polar_sparsify` on Mb itself, with U = I."""
    Mb = as_operator(Mb)
    d = Mb.shape[0]
    pattern = polar_blocks(schedule, d)
    band = check_pattern(Mb, block_band(schedule, d), threshold)
    if band:
        i, j, mag = band[0]
        raise ValueError(f"input is not block tridiagonal for this schedule: "
                         f"|M({i},{j})| = {mag:.3e}")
    V, M = _band_conjugate(Mb, np.eye(d, dtype=np.complex128), schedule, _polar_factor)
    return _finish(threshold, input=Mb, basis_change=V, matrix=M, form_kind="polar",
                   pattern=pattern, schedule=schedule)


def tri_sparsify(T, alt: bool = False, tol: float = DEPENDENCE_TOL,
                 threshold: float = DEFAULT_THRESHOLD) -> SparsifiedForm:
    """Block tridiagonal form with triangular sub-block structure.

    Primary claims: each below-diagonal block is an upper triangular square
    stacked over zeros, and each above-diagonal block is (free | lower
    triangular | zero).  ``alt`` mirrors both, via the same construction on
    the adjoint.  The form is built from the block tridiagonal one: the
    staircase build, read on the partition 1, 2, 6, 18, ... clipped at the
    dimension, is block tridiagonal, Mb, and the band walk's block diagonal
    V, applied block by block, cuts the corners.  With B and A the blocks of
    Mb below and right of diagonal block k, take the complete QR
    [B V_k | A* V_k] = Q R and set V_{k+1} = Q.  Then Q* B V_k, the first
    n_k columns of R, is upper triangular over zeros, and V_k* A Q, the next
    n_k columns conjugate-transposed, is (A' | A'' | 0) with A'' lower
    triangular.  No rank is decided: a rank-deficient [B V_k | A* V_k] only
    adds zeros.  V mixes columns only inside a block, so e_n, in the span of
    the staircase's first 3n columns, stays in the span of the first columns
    up to the first block end at or past 3n.
    """
    T = as_operator(T)
    d = T.shape[0]
    schedule = canonical_covering(d, GENERAL, 1)
    ends = [b for _, b in block_slices(schedule, d)]
    return _band_form(T, schedule, _triangular_factor, alt, tol, threshold,
                      form_kind="triangular_alt" if alt else "triangular",
                      pattern=tri_blocks(schedule, d, alt),
                      span_bounds=[(n, ends[bisect_left(ends, min(3 * n, d))])
                                   for n in range(1, d + 1)])


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
    general.  The selfadjoint flag is verified entrywise, relative to each
    operator's largest entry (:func:`~blocktrid.kernel.require_selfadjoint`).
    The shared basis is checked once: every member's report carries the same
    unitarity and span residuals.
    """
    ops = [as_operator(S, f"operator {k + 1}") for k, S in enumerate(operators)]
    program = family_program(len(ops), selfadjoint)
    if selfadjoint:
        for k, S in enumerate(ops):
            require_selfadjoint(S, f"operator {k + 1}")
    stride = program.stride
    res = run_program(ops, program, tol=tol)
    U = res.basis
    d = U.shape[0]
    bounds = [(n, min(1 + (n - 1) * stride, d)) for n in range(1, d + 1)]
    unitarity, spans = basis_checks(U, bounds)
    forms = []
    for k, S in enumerate(ops):
        form = SparsifiedForm(
            input=S,
            basis_change=U,
            matrix=conjugate(S, U),
            form_kind="family",
            pattern=family_stride(stride),
            span_bounds=bounds,
            log=res.log,
            extras={"family_index": k + 1, "family_size": len(ops), "stride": stride},
        )
        form.report = matrix_report(form, threshold, unitarity, list(spans))
        forms.append(form)
    return U, forms


def reducing_closure(T, v, tol: float = DEPENDENCE_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the smallest reducing subspace
    containing v; v is a joint cyclic vector for the restriction."""
    res = run_program([as_operator(T)], joint_cyclic_program(), tol=tol,
                      seed_vector=v, pad_with_seeds=False)
    return res.basis


class Summand(NamedTuple):
    """One diagonal block of a decomposition: its size, its joint cyclic
    pattern, and ``extras`` with its ``offset`` and ``closure_dim``."""

    dim: int
    pattern: PatternSpec
    extras: Dict[str, int]


@dataclass(kw_only=True)
class DecompositionResult(SparsifiedForm):
    """Direct-sum split into jointly-cyclic summands: one form, reported
    against the ``direct_sum_pattern`` of ``dims``."""

    summands: List[Summand]
    dims: List[int]


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
    res, M = _build(T, direct_sum_program(), tol)
    bounds = [0, *res.closures, T.shape[0]]
    ranges = [(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]
    dims = [stop - start for start, stop in ranges]
    summands = [Summand(size, joint_cyclic_pattern(size), {"offset": start, "closure_dim": size})
                for (start, _), size in zip(ranges, dims)]
    return _finish(
        threshold,
        DecompositionResult,
        input=T,
        basis_change=res.basis,
        matrix=M,
        form_kind="decompose",
        pattern=direct_sum_pattern(dims),
        log=res.log,
        summands=summands,
        dims=dims,
    )


def _exact_dims(schedule: BlockSchedule, d: int) -> List[int]:
    """The dims of a direct sum of dimension d: they must sum to d exactly."""
    if schedule.span > d:
        raise InvalidScheduleError(f"direct-sum dims sum to {schedule.span}, "
                                   f"past dimension {d}")
    return covering_index(schedule, d).sizes.tolist()


class FormCommand(NamedTuple):
    """A form command: the ``transforms`` function it runs, looked up on each
    call so that a wrapper on it sees every call; its help; its flags beyond
    the common ones ("--input": repeated); per ``verify --pattern`` name, the
    form kind whose claim it checks (None: no form's) and its pattern from d
    and the claim's parameter; that parameter's report key, read from
    ``--schedule`` ("schedule", "dims") or ``name:N`` ("closure_dim",
    "stride"); ``--alt``'s help; and the schedule at dimension d that
    ``--schedule canonical``, or no ``--schedule``, names."""

    function: str
    help: str
    flags: Tuple[str, ...]
    patterns: Dict[str, Tuple[Optional[str], Callable[[int, object], PatternSpec]]]
    parameter: Optional[str] = None
    alt: Optional[str] = None
    canonical: Callable[[int], BlockSchedule] = schedule_for_dim

    def fit(self, spec: Optional[str], d: int) -> BlockSchedule:
        if spec is None or spec.strip() == "canonical":
            return self.canonical(d)
        return parse_spec(spec, d)


FORMS = {
    "staircase": FormCommand("staircase", "staircase form (3n bounds)", ("--svg",), {
        "staircase": ("staircase", lambda d, _: staircase_refined()),
        "coarse": (None, lambda d, _: staircase_coarse())}),
    "tridiag": FormCommand("block_tridiagonalize", "block tridiagonal form",
                           ("--svg", "--schedule"), {
        "band": ("block_tridiagonal", lambda d, s: block_band(s, d))}, "schedule"),
    "polar": FormCommand("polar_sparsify", "block tridiagonal with positive blocks",
                         ("--svg", "--schedule"), {
        "polar": ("polar", lambda d, s: polar_blocks(s, d)),
        "polar-alt": ("polar_alt", lambda d, s: polar_blocks(s, d, alt=True))},
        "schedule", "mirror the positive blocks below the diagonal"),
    "trisparse": FormCommand("tri_sparsify", "triangular sub-block form", ("--svg",), {
        "tri": ("triangular", lambda d, s: tri_blocks(s, d)),
        "tri-alt": ("triangular_alt", lambda d, s: tri_blocks(s, d, alt=True))},
        "schedule", "mirror the triangular claims", canonical_covering),
    "hessenberg": FormCommand("krylov_hessenberg", "Krylov upper Hessenberg form",
                              ("--svg", "--seed-vector"), {
        "hessenberg": ("hessenberg", lambda d, n: hessenberg_pattern(n))}, "closure_dim"),
    "jointcyclic": FormCommand("joint_cyclic_staircase", "two-sided cyclic staircase form",
                               ("--svg", "--seed-vector"), {
        "jointcyclic": ("joint_cyclic", lambda d, n: joint_cyclic_pattern(n))}, "closure_dim"),
    "family": FormCommand("family_staircase", "simultaneous staircase for a family",
                          ("--input", "--svg", "--selfadjoint"), {
        "family": ("family", lambda d, n: family_stride(n))}, "stride"),
    "decompose": FormCommand("decompose", "direct sum of jointly cyclic parts", (), {
        "direct-sum": ("decompose", lambda d, s: direct_sum_pattern(_exact_dims(s, d)))},
        "dims"),
}


def named_pattern(name: str, d: int, schedule: Optional[str] = None) -> PatternSpec:
    """The pattern ``blocktrid verify --pattern name --schedule schedule``
    checks at dimension d; a request it cannot read raises ``ValueError``."""
    base, colon, text = name.partition(":")
    form = next((f for f in FORMS.values() if base in f.patterns), None)
    takes_n = form is not None and form.parameter in ("closure_dim", "stride")
    if form is None or (colon and not takes_n) or (form.parameter == "stride" and not colon):
        raise ValueError(f"unknown pattern {name!r}")
    sizes = form.parameter in ("schedule", "dims")
    if sizes and not schedule:
        raise ValueError(f"pattern {name!r} needs --schedule")
    if not sizes and schedule is not None:
        raise ValueError(f"pattern {name!r} takes no --schedule")
    value = form.fit(schedule, d) if sizes else None
    if colon:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"cannot parse {form.parameter} in {name!r}")
    return form.patterns[base][1](d, value)


def claim_of(report: Dict) -> Tuple[str, Optional[str]]:
    """The ``verify`` pattern name and schedule of the claim a report's JSON
    object names: ``named_pattern(*claim_of(report), d)`` rebuilds it."""
    form, name = {kind: (f, n) for f in FORMS.values()
                  for n, (kind, _) in f.patterns.items()}[report["form_kind"]]
    value = report.get(form.parameter)
    if isinstance(value, list):
        return name, "custom:" + ",".join(map(str, value))
    return name if value is None else f"{name}:{value}", None
