"""Execute word programs against concrete matrices, producing basis changes.

The executor offers a program's stream to Gram-Schmidt in blocks and stops
once the basis is complete.  With k vectors accepted, the first word on a
vector not accepted yet sits at stream index k·stride + 1: a block is the
range of upcoming indices before it, at most one per free basis slot, and
an empty range means the span is closed under the program's words.  A
block's candidates are formed once, in the free rows of the basis buffer.
A block of at most three offers, as most blocks of a degenerate input are,
takes one matrix-vector product per candidate and is decided row by row by
``offer_row``, in place: the arithmetic of the one-offer reference, which
for a few rows costs less than a matrix product that packs the whole basis.
In a larger block the rows one stride apart apply one operator to
consecutive basis vectors, one product of a slice of the basis per group,
and one ``mgs_append`` call decides the rows in stream order, as offering
one vector at a time would.  The caller's v is judged against its own norm.
Each offer leaves one raw record, its word, in the build's log.  At a
closure, a program not started from v offers the next standard seed in the
closing position and retries the closing word in the next, so one build
can run through a whole direct sum of reducing subspaces; a program started
from v skips the closing position and pads with e_1, e_2, ... to finish
the square unitary, or stops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import count
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .kernel import (
    DEPENDENCE_TOL,
    as_operator,
    check_tolerance,
    mgs_append,
    offer_row,
)
from .words import WordProgram, trace


class InstructionCapError(RuntimeError):
    """A closed span needed a standard seed past the dimension: every seed
    left was rejected before the basis was complete."""


class LogEntry(NamedTuple):
    """Outcome of one offered vector.

    instruction is the offered word's text (:func:`~blocktrid.words.trace`).
    residual_norm is the residual norm at which the offer was decided
    (``GsOutcome.residual_norm``): after one pass or two, or the candidate's
    own norm when that alone rejects it.  survivor_index is the 1-based basis
    slot filled by an accepted vector.  position_end, the last position the
    entry decides, equals position: one offer decides one position.  An
    immutable tuple of these fields.
    """

    position: int
    position_end: int
    instruction: str
    accepted: bool
    residual_norm: float
    survivor_index: Optional[int]


class BuildLog:
    """The outcome of every offer of a build, in offer order.

    ``add`` keeps one raw record per offer; its instruction is a word
    ``(op, adjoint, n)`` or its trace string.  Records become
    :class:`LogEntry` tuples, words formatted by ``trace``, only when
    ``entries`` or ``to_json`` is read; ``accepted_count`` counts the raw
    records.
    """

    def __init__(self):
        self._records = []
        self._entries: List[LogEntry] = []

    def add(self, position, instruction, accepted, residual_norm, survivor_index):
        self._records.append((position, instruction, accepted, residual_norm,
                              survivor_index))

    @property
    def entries(self) -> List[LogEntry]:
        """One ``LogEntry`` per offer; records added since the last read are
        formatted now."""
        for position, instr, *outcome in self._records[len(self._entries):]:
            text = instr if isinstance(instr, str) else trace(instr)
            self._entries.append(LogEntry(position, position, text, *outcome))
        return self._entries

    @property
    def accepted_count(self) -> int:
        return sum(1 for record in self._records if record[2])

    def to_json(self) -> str:
        return json.dumps([e._asdict() for e in self.entries], sort_keys=True)


@dataclass
class BuildResult:
    """Basis produced by a word program plus its acceptance record.

    ``closures`` holds the basis size each time the program found its span
    closed, in build order.
    """

    basis: np.ndarray
    log: BuildLog
    closures: List[int] = field(default_factory=list)


def run_program(
    operators: Sequence,
    program: WordProgram,
    tol: float = DEPENDENCE_TOL,
    seed_vector=None,
    pad_with_seeds: bool = True,
) -> BuildResult:
    """Execute ``program`` against ``operators``.

    operators is a list of d x d matrices of one shape, exactly one per
    operator the program applies; adjoints are derived.  When no upcoming
    word has its source vector, the span built so far is closed, and its
    size goes to ``closures``.  A program not started from v then offers the
    next standard seed in that position and retries the word in the next;
    a seed index past d raises ``InstructionCapError``.  A cyclic program
    starts from ``seed_vector`` v (required, of positive finite norm); at its
    closure, seeds e_1, e_2, ... finish the basis unless ``pad_with_seeds``
    is false, in which case the returned basis holds the closure only.  Any
    other program rejects a ``seed_vector``.  A ``tol`` outside [0, 1)
    raises ``ValueError`` before any offer.  Neither the operators nor v are
    written.
    """
    check_tolerance(tol)
    ops = [as_operator(op, f"operator {i + 1}") for i, op in enumerate(operators)]
    if len(ops) != program.n_ops:
        raise ValueError(f"this program applies {program.n_ops} operator(s), "
                         f"got {len(ops)}")
    dim = ops[0].shape[0]
    for i, op in enumerate(ops):
        if op.shape != (dim, dim):
            raise ValueError(f"operator {i + 1} shape {op.shape} does not match {(dim, dim)}")
    adjs = [op.conj().T.copy() for op in ops]

    v = v_tol = None
    if program.first == "v":
        if seed_vector is None:
            raise ValueError("this program starts from a seed vector; none given")
        v = np.asarray(seed_vector, dtype=np.complex128).reshape(-1)
        if v.shape != (dim,):
            raise ValueError(f"seed vector length {v.shape[0]} does not match dim {dim}")
        if not np.all(np.isfinite(v)):
            raise ValueError("seed vector contains non-finite entries")
        # ‖v‖ as offer_row computes it; v is judged against its own norm, so
        # v_tol turns offer_row's limit tol·max(1, ‖v‖) into tol·‖v‖
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if not 0.0 < norm < np.inf:
            raise ValueError("seed vector must be nonzero" if not v.any() else
                             f"the norm of the seed vector {'over' if norm else 'under'}flows")
        v_tol = tol * min(1.0, norm)
    elif seed_vector is not None:
        raise ValueError("this program does not start from a seed vector; one was given")
    stride = program.stride

    # orthonormal basis vectors as rows; B[:k] is the basis built so far
    B = np.zeros((dim, dim), dtype=np.complex128)

    k = 0
    log = BuildLog()
    closures: List[int] = []
    next_seed = 1
    position = 0  # of the last offer
    j = 0  # the next stream index
    padding = None  # the seeds e_1, e_2, ... that finish a closed cyclic span

    while k < dim:
        # the block: the upcoming stream indices before the first word on a
        # vector not accepted yet, at most one per free basis slot; seeds
        # that pad a closed cyclic span go one at a time, so a Krylov build
        # keeps the one-offer arithmetic throughout
        end = min(j + dim - k, k * stride + 1)
        if padding is None and j < end:
            block = [program.word(i) for i in range(j, end)]
            j = end
        else:
            if padding is None:
                # no upcoming word has its source: the span is closed.  A
                # cyclic build skips the closing position and pads; any other
                # offers a seed there and retries the closing word at the next
                closures.append(k)
                if v is not None:
                    if not pad_with_seeds:
                        break
                    padding = count(1)
                    position += 1
            n = next_seed if padding is None else next(padding)
            if n > dim:
                raise InstructionCapError(f"seed index {n} exceeds dimension {dim}")
            block = [(0, False, n)]

        # the candidates, in the free rows of B: a block's sources were
        # accepted before it started, so no candidate reads a row it writes.
        # The rows of a large block one stride apart hold one word on
        # consecutive sources; a small block keeps the rounding of one-offer
        # builds, which one product of two rows would change
        m = len(block)
        small = m <= 3
        step = m if small else stride
        C = B[k:k + m]
        for row, (op, adjoint, n) in enumerate(block[:step]):
            rows = C[row::step]
            size = len(rows)
            if op:
                mat = (adjs if adjoint else ops)[op - 1]
                if size == 1:
                    np.matmul(mat, B[n - 1], out=rows[0])
                else:
                    # the rows B[n-1:n-1+size] @ op.T are op @ B[n-1:n-1+size].T
                    rows[...] = B[n - 1:n - 1 + size] @ mat.T
            elif n:
                rows[...] = 0.0
                rows[:, n - 1:n - 1 + size] = np.eye(size)
                next_seed = n + size
            else:
                rows[0] = v
        outcomes = None if small else mgs_append(B[:k], C, tol)
        for row, word in enumerate(block):
            # a row of a small block is projected and normalized where it lies
            accepted, w, r = outcomes[row] if outcomes else offer_row(
                B[:k], C[row], v_tol if word == (0, False, 0) else tol)
            if accepted:
                B[k] = w
                k += 1
            position += 1
            log.add(position, word, accepted, r, k if accepted else None)
    return BuildResult(B[:k].T, log, closures)


def conjugate(T, U) -> np.ndarray:
    """U* T U, the plain product of two square matrices of one shape.

    U is not checked for unitarity here: every form's report bounds
    ‖U*U - I‖_F once, as its ``unitarity_residual`` check.
    """
    T = as_operator(T)
    U = as_operator(U, "basis change")
    if T.shape != U.shape:
        raise ValueError(f"shapes {T.shape} and {U.shape} do not match")
    return U.conj().T @ T @ U


def span_residual(n, U, m):
    """‖U[n, m+1:]‖, the tail of row n of a square U (1 <= n <= d, 0 <= m <= d):
    for a unitary U, the distance from e_n to the span of its first m columns.

    If ‖U*U - I‖₂ <= ε <= 1/3, that distance is at most (1 + ε)·tail + 2ε,
    the bound :func:`blocktrid.verify.basis_checks` reports.  ``n`` and ``m``
    may be equal-length integer arrays; an ndarray of tails is then returned.
    Any other type, or a bound out of range, raises ``ValueError``.
    """
    U = as_operator(U, "basis change")
    d = U.shape[0]
    ns, ms = np.broadcast_arrays(np.atleast_1d(n), np.atleast_1d(m))
    if not (np.issubdtype(ns.dtype, np.integer) and np.issubdtype(ms.dtype, np.integer)):
        raise ValueError(f"span bound ({n}, {m}) out of range for dimension {d}: "
                         f"not integers")
    bad = np.flatnonzero((ns < 1) | (ns > d) | (ms < 0) | (ms > d))
    if bad.size:
        raise ValueError(f"span bound ({ns[bad[0]]}, {ms[bad[0]]}) out of range "
                         f"for dimension {d}")
    dist = np.linalg.norm(U[ns - 1] * (np.arange(d) >= ms[:, None]), axis=1)
    return float(dist[0]) if np.ndim(n) == np.ndim(m) == 0 else dist
