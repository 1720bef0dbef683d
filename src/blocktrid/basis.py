"""Execute word programs against concrete matrices, producing basis changes.

The orthonormal-style executor feeds each offered vector to Gram-Schmidt and
stops once the basis is complete.  A reference to a basis vector that does
not exist yet means the span built so far is closed under the program's
words.  A program seeded by e_1 then offers the next standard seed and
retries the reference, so one build can run through a whole direct sum of
reducing subspaces; a program started from a vector v instead pads with
standard basis vectors to finish the square unitary, or stops.

The raw-style executor stores surviving generated vectors, resolves original
position references through the deletion rule, and skips runs of guaranteed
rejections in bulk, so degenerate inputs (zero, identity) finish in
polynomially many offers even though their seeds sit at exponentially distant
stream positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, count
from typing import List, Optional, Sequence

import numpy as np

from .kernel import (
    DEPENDENCE_TOL,
    as_operator,
    mgs_append,
    unit_vector,
    unitarity_residual,
)
from .words import (
    TRIANGULAR,
    SurvivorMap,
    WordProgram,
    seed,
    tri_word_raw,
)


class InstructionCapError(RuntimeError):
    """The executor ran past its instruction budget without completing."""


@dataclass(frozen=True)
class LogEntry:
    """Outcome of one offered vector, or of a skipped run of positions.

    position_end equals position for ordinary entries; a larger value records
    a contiguous run rejected in bulk (residual_norm is None there, since
    nothing was computed).  survivor_index is the 1-based basis slot filled
    by an accepted vector.
    """

    position: int
    position_end: int
    instruction: str
    accepted: bool
    residual_norm: Optional[float]
    survivor_index: Optional[int]


@dataclass
class BuildLog:
    entries: List[LogEntry] = field(default_factory=list)

    def add(self, position, instruction, accepted, residual_norm, survivor_index,
            position_end=None):
        self.entries.append(LogEntry(
            position=position,
            position_end=position if position_end is None else position_end,
            instruction=instruction,
            accepted=accepted,
            residual_norm=residual_norm,
            survivor_index=survivor_index,
        ))

    @property
    def accepted_count(self) -> int:
        return sum(1 for e in self.entries if e.accepted)

    def to_json(self) -> str:
        payload = [
            {
                "position": e.position,
                "position_end": e.position_end,
                "instruction": e.instruction,
                "accepted": e.accepted,
                "residual_norm": e.residual_norm,
                "survivor_index": e.survivor_index,
            }
            for e in self.entries
        ]
        return json.dumps(payload, sort_keys=True)


@dataclass
class BuildResult:
    """Basis produced by a word program plus its acceptance record.

    ``closures`` holds the basis size each time the program found its span
    closed, in build order.
    """

    basis: np.ndarray
    log: BuildLog
    closures: List[int] = field(default_factory=list)
    raw_vectors: Optional[List[np.ndarray]] = None


def run_program(
    operators: Sequence,
    program: WordProgram,
    tol: float = DEPENDENCE_TOL,
    seed_vector=None,
    pad_with_seeds: bool = True,
) -> BuildResult:
    """Execute ``program`` against ``operators``.

    operators is a list of d x d matrices of one shape (one per op_index the
    program uses); adjoints are derived.  An instruction referencing a basis
    vector that does not exist yet finds the span built so far closed, and
    its size goes to ``closures``.  A program not opened by ``seed v`` then
    offers the next standard seed in that position and retries the
    instruction in the next.  A cyclic program starts from ``seed_vector`` v
    (required, nonzero); at its closure, seeds e_1, e_2, ... finish the basis
    unless ``pad_with_seeds`` is false, in which case the returned basis
    holds the closure only.
    """
    ops = [as_operator(op, f"operator {i + 1}") for i, op in enumerate(operators)]
    if not ops:
        raise ValueError("need at least one operator")
    dim = ops[0].shape[0]
    for op in ops:
        if op.shape != (dim, dim):
            raise ValueError(f"operator shape {op.shape} does not match {(dim, dim)}")
    adjs = [op.conj().T.copy() for op in ops]

    if program.kind == TRIANGULAR:
        return _run_raw_triangular(ops[0], adjs[0], dim, tol)

    v = None
    if next(program.instructions()).kind == "seed_vec":
        if seed_vector is None:
            raise ValueError("this program starts from a seed vector; none given")
        v = np.asarray(seed_vector, dtype=np.complex128).reshape(-1)
        if v.shape != (dim,):
            raise ValueError(f"seed vector length {v.shape[0]} does not match dim {dim}")
        if np.linalg.norm(v) == 0.0:
            raise ValueError("seed vector must be nonzero")
    # at most stride words per basis vector, one position per seed (dim seeds
    # and v), and the one position at which a padded stream finds its closure
    cap = ((program.stride or 1) + 1) * dim + 2

    # orthonormal basis vectors as rows; B[:k] is the basis built so far
    B = np.zeros((dim, dim), dtype=np.complex128)
    k = 0
    log = BuildLog()
    closures: List[int] = []
    next_seed = 1
    position = 0
    words = stream = program.instructions()

    while k < dim:
        position += 1
        if position > cap:
            raise InstructionCapError(
                f"no completion after {cap} instructions (have {k}/{dim})"
            )
        instr = next(stream)
        if instr.kind == "apply" and instr.src > k:
            closures.append(k)
            if v is None:
                # offer the next seed here and the same instruction again at
                # the next position
                stream = chain([instr], words)
                instr = seed(next_seed)
            elif not pad_with_seeds:
                break
            else:
                # finish the square unitary with e_1, e_2, ...
                stream = map(seed, count(1))
                continue
        if instr.kind == "seed":
            if instr.seed_index > dim:
                raise InstructionCapError(
                    f"seed index {instr.seed_index} exceeds dimension {dim}"
                )
            next_seed = instr.seed_index + 1
            candidate = unit_vector(dim, instr.seed_index - 1)
        elif instr.kind == "seed_vec":
            candidate = v
        else:
            mat = adjs[instr.op_index - 1] if instr.adjoint else ops[instr.op_index - 1]
            candidate = mat @ B[instr.src - 1]
        out = mgs_append(B[:k], candidate, tol)
        if out.accepted:
            B[k] = out.vector
            k += 1
        log.add(position, instr.trace(), out.accepted, out.residual_norm,
                k if out.accepted else None)
    return BuildResult(B[:k].T, log, closures)


def _run_raw_triangular(T, Tadj, dim, tol) -> BuildResult:
    """Triangular-stream executor with the deletion rule and run skipping."""
    B = np.zeros((dim, dim), dtype=np.complex128)
    k = 0
    raw: List[np.ndarray] = []
    survivors = SurvivorMap()
    offered = set()
    log = BuildLog()
    n = 1
    while k < dim:
        word = tri_word_raw(n)
        if word.stage > dim + 1:
            raise InstructionCapError(
                f"stage {word.stage} exceeds dimension {dim}; seeds should have "
                "completed the basis"
            )
        instr = word.instruction
        if instr.kind == "seed":
            candidate = unit_vector(dim, instr.seed_index - 1)
            out = mgs_append(B[:k], candidate, tol)
            if out.accepted:
                raw.append(candidate)
                B[k] = out.vector
                k += 1
                survivors.mark_accepted(n)
                log.add(n, instr.trace(), True, out.residual_norm, k)
            else:
                survivors.mark_rejected(n)
                log.add(n, instr.trace(), False, out.residual_norm, None)
            n += 1
            continue

        token = word.token
        sigma = survivors.resolve(token)
        if sigma > survivors.survivors:
            # reference to a vector that does not exist yet: a zero offer,
            # and every later token in this run resolves the same way
            survivors.mark_rejected_range(n, word.run_end)
            log.add(n, instr.trace(), False, None, None, position_end=word.run_end)
            n = word.run_end + 1
            continue

        key = (instr.adjoint, sigma)
        if key in offered:
            residual = None
            accepted = False
        else:
            offered.add(key)
            mat = Tadj if instr.adjoint else T
            candidate = mat @ raw[sigma - 1]
            out = mgs_append(B[:k], candidate, tol)
            residual = out.residual_norm
            accepted = out.accepted
            if accepted:
                raw.append(candidate)
                B[k] = out.vector
                k += 1
                survivors.mark_accepted(n)
                log.add(n, instr.trace(), True, residual, k)
                n += 1
                continue

        # rejected (computed or a repeat offer): skip the rest of the run
        # while the token keeps resolving to the same survivor
        q = survivors.next_accepted_at_or_after(token)
        if q is None:
            skip_to = word.run_end
        else:
            skip_to = min(n + (q - token), word.run_end)
        survivors.mark_rejected_range(n, skip_to)
        log.add(n, instr.trace(), False, residual, None, position_end=skip_to)
        n = skip_to + 1

    return BuildResult(B.T, log, raw_vectors=raw)


def conjugate(T, U) -> np.ndarray:
    """U* T U, insisting that U actually is unitary."""
    T = as_operator(T)
    U = as_operator(U, "basis change")
    if T.shape != U.shape:
        raise ValueError(f"shapes {T.shape} and {U.shape} do not match")
    resid = unitarity_residual(U)
    if resid > 1e-8:
        raise ValueError(f"basis change is not unitary (residual {resid:.3e})")
    return U.conj().T @ T @ U


def span_residual(n, U, m):
    """Distance from e_n to the span of the first m basis columns of U.

    ``n`` and ``m`` may be equal-length integer arrays; every distance then
    comes from one projection pass, applied twice, and an ndarray is returned.
    """
    U = np.asarray(U, dtype=np.complex128)
    d = U.shape[0]
    ns, ms = np.broadcast_arrays(np.atleast_1d(n), np.atleast_1d(m))
    if np.any((ns < 1) | (ns > d)):
        raise ValueError(f"basis index {n} out of range for dimension {d}")
    R = np.eye(d, dtype=np.complex128)[:, ns - 1]
    keep = np.arange(U.shape[1])[:, None] < ms
    for _ in range(2):
        R -= U @ (keep * (U.conj().T @ R))
    dist = np.linalg.norm(R, axis=0)
    return float(dist[0]) if np.ndim(n) == np.ndim(m) == 0 else dist
