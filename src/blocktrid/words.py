"""Symbolic instruction streams ordering the vectors fed to Gram-Schmidt.

Each :class:`WordProgram` carries its own stream.  The staircase, joint
cyclic, direct sum, Krylov and family programs apply operators to
already-orthonormalized basis vectors, so an instruction's ``src`` names the
src-th accepted vector.
The triangular stream instead applies operators to stored generated vectors
and is indexed by original position; when a generated vector is rejected it
is deleted from the sequence and every later reference shifts down, which
:class:`SurvivorMap` tracks without rewriting the stream.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Callable, Iterator, List, NamedTuple, Optional

STAIRCASE = "staircase"
TRIANGULAR = "triangular"
JOINT_CYCLIC = "joint_cyclic"
DIRECT_SUM = "direct_sum"
KRYLOV = "krylov"
FAMILY_SA = "family_sa"
FAMILY_GEN = "family_gen"


@dataclass(frozen=True)
class WordInstruction:
    """One step of a word program.

    kind is ``seed`` (offer the standard basis vector e_seed_index),
    ``seed_vec`` (offer the caller-supplied starting vector), or ``apply``
    (offer operator op_index, or its adjoint, applied to the src-th vector of
    the relevant sequence).  All indices are 1-based.
    """

    kind: str
    seed_index: Optional[int] = None
    op_index: int = 1
    adjoint: bool = False
    src: Optional[int] = None

    def trace(self) -> str:
        if self.kind == "seed":
            return f"seed {self.seed_index}"
        if self.kind == "seed_vec":
            return "seed v"
        return f"apply {self.op_index} {int(self.adjoint)} {self.src}"


def seed(k: int) -> WordInstruction:
    return WordInstruction("seed", seed_index=k)


def seed_vec() -> WordInstruction:
    return WordInstruction("seed_vec")


def apply_op(src: int, adjoint: bool = False, op_index: int = 1) -> WordInstruction:
    return WordInstruction("apply", op_index=op_index, adjoint=adjoint, src=src)


def parse_trace(line: str) -> WordInstruction:
    """Read back an instruction string as :meth:`WordInstruction.trace` writes
    it, e.g. the ``instruction`` fields of a serialized build log."""
    parts = line.split()
    if parts == ["seed", "v"]:
        return seed_vec()
    if len(parts) == 2 and parts[0] == "seed":
        return seed(int(parts[1]))
    if len(parts) == 4 and parts[0] == "apply":
        return apply_op(int(parts[3]), bool(int(parts[2])), int(parts[1]))
    raise ValueError(f"cannot parse instruction trace {line!r}")


@dataclass(frozen=True)
class WordProgram:
    """A deterministic instruction stream.

    ``stream`` returns a fresh iterator over the instructions; ``stride`` is
    the number of positions per stage where the program has one.
    """

    kind: str
    stream: Callable[[], Iterator[WordInstruction]]
    stride: Optional[int] = None

    def instructions(self) -> Iterator[WordInstruction]:
        return self.stream()


def _staircase_stream() -> Iterator[WordInstruction]:
    for n in count(1):
        yield seed(n)
        yield apply_op(n, adjoint=False)
        yield apply_op(n, adjoint=True)


def _joint_cyclic_stream(first: WordInstruction) -> Iterator[WordInstruction]:
    yield first
    for m in count(1):
        yield apply_op(m, adjoint=False)
        yield apply_op(m, adjoint=True)


def _krylov_stream() -> Iterator[WordInstruction]:
    yield seed_vec()
    for n in count(1):
        yield apply_op(n, adjoint=False)


def _family_stream(n_ops: int, adjoints: bool) -> Iterator[WordInstruction]:
    for n in count(1):
        yield seed(n)
        for k in range(1, n_ops + 1):
            yield apply_op(n, adjoint=False, op_index=k)
            if adjoints:
                yield apply_op(n, adjoint=True, op_index=k)


def staircase_program() -> WordProgram:
    """Stage n offers e_n, then T f_n, then T* f_n (positions 3n-2..3n)."""
    return WordProgram(STAIRCASE, _staircase_stream, stride=3)


def joint_cyclic_program() -> WordProgram:
    """v first, then T f_m at position 2m and T* f_m at position 2m+1."""
    return WordProgram(JOINT_CYCLIC, partial(_joint_cyclic_stream, seed_vec()), stride=2)


def direct_sum_program() -> WordProgram:
    """The joint cyclic stream opened by e_1 instead of v.  Each time the span
    closes, the executor offers the next standard seed and retries, so one
    build runs through the reducing summands one after another."""
    return WordProgram(DIRECT_SUM, partial(_joint_cyclic_stream, seed(1)), stride=2)


def krylov_program() -> WordProgram:
    """v first, then T f_n at position n+1 (upper Hessenberg ordering)."""
    return WordProgram(KRYLOV, _krylov_stream, stride=1)


def family_program(n_ops: int, selfadjoint: bool) -> WordProgram:
    """Stage n offers e_n then S_1 f_n .. S_N f_n, with adjoints interleaved
    (S_k f_n, S_k* f_n) in the general flavor.  Stride N+1 or 2N+1."""
    if n_ops < 1:
        raise ValueError("family needs at least one operator")
    if selfadjoint:
        return WordProgram(FAMILY_SA, partial(_family_stream, n_ops, False),
                           stride=n_ops + 1)
    return WordProgram(FAMILY_GEN, partial(_family_stream, n_ops, True),
                       stride=2 * n_ops + 1)


def tri_word_program() -> WordProgram:
    """Positions in original (deletion-free) order; see :func:`tri_word_raw`."""
    return WordProgram(TRIANGULAR, lambda: (tri_word_raw(n).instruction for n in count(1)))


class RawWord(NamedTuple):
    """Decoded triangular-stream instruction at one original position.

    ``token`` is the original index of the referenced generated vector (None
    for seeds); ``run_end`` is the last position of the homogeneous run this
    position sits in (same operator, consecutive tokens), which lets the
    executor skip deterministic rejections in bulk.
    """

    instruction: WordInstruction
    token: Optional[int]
    run_end: int
    stage: int


def tri_word_raw(n: int) -> RawWord:
    """Instruction at original position n >= 1 of the triangular stream.

    Base: position 1 seeds e_1, position 2 applies T to g_1, position 3
    applies T* to g_1.  For stage k >= 2 (positions 3^{k-1} < n <= 3^k, block
    sizes n_k = 2*3^{k-2}): the first n_k positions apply T to g_{s_{k-1}+r},
    the next n_{k+1}-1-n_k apply T* to g_{r+1-k}, and the stage closes by
    seeding e_k at position 3^k.
    """
    if n < 1:
        raise ValueError("positions are 1-based")
    if n == 1:
        return RawWord(seed(1), None, 1, 1)
    if n == 2:
        return RawWord(apply_op(1, adjoint=False), 1, 2, 1)
    if n == 3:
        return RawWord(apply_op(1, adjoint=True), 1, 3, 1)
    k = 2
    while 3 ** k < n:
        k += 1
    s_prev2 = 3 ** (k - 2)
    s_prev = 3 ** (k - 1)
    n_k = s_prev - s_prev2
    r = n - s_prev
    if r <= n_k:
        return RawWord(apply_op(s_prev2 + r, adjoint=False), s_prev2 + r, s_prev + n_k, k)
    if n < 3 ** k:
        return RawWord(apply_op(r + 1 - k, adjoint=True), r + 1 - k, 3 ** k - 1, k)
    return RawWord(seed(k), None, 3 ** k, k)


def tri_word_sequence(n_instructions: int) -> List[WordInstruction]:
    """First instructions of the triangular stream, deletion-free indexing."""
    if n_instructions < 1:
        raise ValueError("need at least one instruction")
    return [tri_word_raw(n).instruction for n in range(1, n_instructions + 1)]


@dataclass
class SurvivorMap:
    """Original-position bookkeeping for the deletion rule.

    ``accepted`` holds the original positions whose vectors survived, in
    order; ``frontier`` is the highest original position whose fate is known.
    A reference to original position j resolves to the surviving sequence as
    1 + (number of accepted positions before j): accepted positions map to
    their own surviving rank, rejected ones rebind to the next survivor, and
    a result beyond the current length denotes a vector that does not exist
    yet, which the executor treats as zero.
    """

    accepted: List[int] = field(default_factory=list)
    frontier: int = 0

    @property
    def survivors(self) -> int:
        return len(self.accepted)

    def resolve(self, token: int) -> int:
        if token < 1:
            raise ValueError("references are 1-based")
        if token > self.frontier:
            raise ValueError(
                f"reference to position {token} whose fate is undecided "
                f"(frontier {self.frontier})"
            )
        return 1 + bisect.bisect_left(self.accepted, token)

    def next_accepted_at_or_after(self, token: int) -> Optional[int]:
        idx = bisect.bisect_left(self.accepted, token)
        if idx == len(self.accepted):
            return None
        return self.accepted[idx]

    def mark_accepted(self, pos: int) -> None:
        if pos <= self.frontier:
            raise ValueError(f"position {pos} already decided")
        self.accepted.append(pos)
        self.frontier = pos

    def mark_rejected(self, pos: int) -> None:
        if pos <= self.frontier:
            raise ValueError(f"position {pos} already decided")
        self.frontier = pos

    def mark_rejected_range(self, start: int, stop: int) -> None:
        if start > stop:
            raise ValueError("empty rejection range")
        if start <= self.frontier:
            raise ValueError(f"position {start} already decided")
        self.frontier = stop
