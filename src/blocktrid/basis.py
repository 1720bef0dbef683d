"""Execute word programs against concrete matrices, producing basis changes.

The executor offers the stream to Gram-Schmidt in blocks
and stops once the basis is complete.  A block is the longest run of
upcoming instructions whose source vectors exist when it starts, at most one
per free basis slot.  A block of four or more offers forms its candidates in
one matrix product per operator, and one ``mgs_append`` call decides them in
stream order, so the accept and reject decisions are those of offering one
vector at a time.  A block of at most three offers, as most blocks of a
degenerate input are, is offered one vector at a time: for a few rows a
matrix product, which packs the whole basis, costs more than the
matrix-vector products it replaces.  Each of its candidates (a
matrix-vector product, a seed or a copy of v) goes through ``offer_row``
against every row accepted so far, with the arithmetic of the one-offer
reference: an offer costs two matrix-vector products, or four when its
first pass cancelled, and copies neither the basis nor the candidate.  The
candidate is formed inline, and the offer leaves one raw record in the
build's log, whose instruction is formatted only when the log is read.  A
reference to a basis vector that does not exist when a block starts means
the span built so far is closed under the program's words.  A program
seeded by e_1 then offers the next standard seed and retries the reference,
so one build can run through a whole direct sum of reducing subspaces; a
program started from a vector v instead pads with standard basis vectors
to finish the square unitary, or stops.
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
    unit_vector,
)
from .words import WordProgram, seed


class InstructionCapError(RuntimeError):
    """The executor ran past its instruction budget without completing."""


class LogEntry(NamedTuple):
    """Outcome of one offered vector.

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

    ``add`` keeps one raw record per offer; its instruction is a
    :class:`~blocktrid.words.WordInstruction` or its trace string.  Records
    become :class:`LogEntry` tuples, instructions formatted by ``trace()``,
    only when ``entries`` or ``to_json`` is read; ``accepted_count`` counts
    the raw records.
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
            text = instr if isinstance(instr, str) else instr.trace()
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
    op_index the program uses; adjoints are derived.  An instruction
    referencing a basis vector that does not exist yet finds the span built
    so far closed, and its size goes to ``closures``.  A program not opened
    by ``seed v`` then offers the next standard seed in that position and
    retries the instruction in the next.  A cyclic program starts from
    ``seed_vector`` v (required, finite and nonzero); at its closure, seeds
    e_1, e_2, ... finish the basis unless ``pad_with_seeds`` is false, in
    which case the returned basis holds the closure only.  Any other program
    rejects a ``seed_vector``.  A ``tol`` outside [0, 1) raises
    ``ValueError`` before any offer.  Neither the operators nor v are written.
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

    v = None
    if next(program.instructions()).kind == "seed_vec":
        if seed_vector is None:
            raise ValueError("this program starts from a seed vector; none given")
        v = np.asarray(seed_vector, dtype=np.complex128).reshape(-1)
        if v.shape != (dim,):
            raise ValueError(f"seed vector length {v.shape[0]} does not match dim {dim}")
        if not np.all(np.isfinite(v)):
            raise ValueError("seed vector contains non-finite entries")
        if np.linalg.norm(v) == 0.0:
            raise ValueError("seed vector must be nonzero")
    elif seed_vector is not None:
        raise ValueError("this program does not start from a seed vector; one was given")
    # the matrix each (op_index, adjoint) of an instruction applies
    mats = {(i + 1, adjoint): mat
            for i, pair in enumerate(zip(ops, adjs)) for adjoint, mat in enumerate(pair)}
    # at most stride words per basis vector, one position per seed (dim seeds
    # and v), and the one position at which a padded stream finds its closure
    cap = (program.stride + 1) * dim + 2

    # orthonormal basis vectors as rows; B[:k] is the basis built so far
    B = np.zeros((dim, dim), dtype=np.complex128)

    k = 0
    log = BuildLog()
    closures: List[int] = []
    next_seed = 1
    position = 0
    stream = program.instructions()
    pending = None  # an instruction read but not offered yet
    padding = False

    while k < dim:
        # the block: offers whose source vectors exist now, at most one per
        # free basis slot; seeds that pad a closed cyclic span go one at a
        # time, so a Krylov build keeps the one-offer arithmetic throughout
        room = 1 if padding else dim - k
        block = []
        while len(block) < room:
            instr = next(stream) if pending is None else pending
            pending = None
            missing = instr.kind == "apply" and instr.src > k
            if missing and block:
                # its source may be accepted in this block
                pending = instr
                break
            position += 1
            if position > cap:
                raise InstructionCapError(
                    f"no completion after {cap} instructions (have {k}/{dim})"
                )
            if missing:
                closures.append(k)
                if v is None:
                    # offer the next seed here and the same instruction again
                    # at the next position
                    pending, instr = instr, seed(next_seed)
                elif not pad_with_seeds:
                    break
                else:
                    # finish the square unitary with e_1, e_2, ...
                    stream = map(seed, count(1))
                    padding, room = True, 1
                    continue
            if instr.kind == "seed":
                if instr.seed_index > dim:
                    raise InstructionCapError(
                        f"seed index {instr.seed_index} exceeds dimension {dim}"
                    )
                next_seed = instr.seed_index + 1
            block.append(instr)
        if not block:
            break

        one_at_a_time = len(block) <= 3
        if not one_at_a_time:
            candidates = np.zeros((len(block), dim), dtype=np.complex128)
            groups = {}  # block rows by (op_index, adjoint)
            for row, instr in enumerate(block):
                if instr.kind == "apply":
                    groups.setdefault((instr.op_index, instr.adjoint), []).append(row)
                elif instr.kind == "seed":
                    candidates[row, instr.seed_index - 1] = 1.0
                else:
                    candidates[row] = v
            for key, rows in groups.items():
                if len(rows) == 1:
                    candidates[rows[0]] = mats[key] @ B[block[rows[0]].src - 1]
                else:
                    # one product: the rows B[srcs] @ op.T are op @ B[srcs].T
                    srcs = [block[row].src - 1 for row in rows]
                    candidates[rows] = B.take(srcs, axis=0) @ mats[key].T
            outcomes = mgs_append(B[:k], candidates, tol)
        # the offers of a block sit at consecutive positions
        first = position - len(block) + 1
        for row, instr in enumerate(block):
            if one_at_a_time:
                # the candidate, a fresh row that offer_row may overwrite, is
                # formed after the rows accepted before it are stored, as a
                # one-offer-at-a-time build would
                if instr.kind == "apply":
                    w = mats[instr.op_index, instr.adjoint] @ B[instr.src - 1]
                elif instr.kind == "seed":
                    w = unit_vector(dim, instr.seed_index - 1)
                else:
                    w = v.copy()
                accepted, w, r = offer_row(B[:k], w, tol)
            else:
                accepted, w, r = outcomes[row]
            if accepted:
                B[k] = w
                k += 1
            log.add(first + row, instr, accepted, r, k if accepted else None)
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
