"""Symbolic instruction streams ordering the vectors fed to Gram-Schmidt.

Each :class:`WordProgram` carries its own stream.  The staircase, joint
cyclic, direct sum, Krylov and family programs share one rule: a stream
opens with a fixed first vector (v or e_1) or with the seed e_n at the head
of every stage n, then offers S_k f_n, and S_k* f_n when adjoints are on,
for k = 1..N.  They apply operators to already-orthonormalized basis
vectors, so an instruction's ``src`` names the src-th accepted vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Callable, Iterator, NamedTuple, Optional

STAIRCASE = "staircase"
JOINT_CYCLIC = "joint_cyclic"
DIRECT_SUM = "direct_sum"
KRYLOV = "krylov"
FAMILY_SA = "family_sa"
FAMILY_GEN = "family_gen"


class WordInstruction(NamedTuple):
    """One step of a word program.

    kind is ``seed`` (offer the standard basis vector e_seed_index),
    ``seed_vec`` (offer the caller-supplied starting vector), or ``apply``
    (offer operator op_index, or its adjoint, applied to the src-th accepted
    basis vector).  All indices are 1-based; an immutable tuple.
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
    the number of positions per stage; ``n_ops``, the number of operators
    it applies, is set only by the functions below.
    """

    kind: str
    stream: Callable[[], Iterator[WordInstruction]]
    stride: int
    n_ops: int = field(default=1, init=False)

    def instructions(self) -> Iterator[WordInstruction]:
        return self.stream()


def _stream(first: Optional[WordInstruction], n_ops: int,
            adjoints: bool) -> Iterator[WordInstruction]:
    """The one stream rule: ``first`` once, or the seed e_n at the head of
    every stage n when ``first`` is None; then S_k f_n, followed by S_k* f_n
    when ``adjoints``, for k = 1..n_ops."""
    if first is not None:
        yield first
    for n in count(1):
        if first is None:
            yield seed(n)
        for k in range(1, n_ops + 1):
            yield apply_op(n, adjoint=False, op_index=k)
            if adjoints:
                yield apply_op(n, adjoint=True, op_index=k)


def staircase_program() -> WordProgram:
    """Stage n offers e_n, then T f_n, then T* f_n (positions 3n-2..3n)."""
    return WordProgram(STAIRCASE, partial(_stream, None, 1, True), stride=3)


def joint_cyclic_program() -> WordProgram:
    """v first, then T f_m at position 2m and T* f_m at position 2m+1."""
    return WordProgram(JOINT_CYCLIC, partial(_stream, seed_vec(), 1, True), stride=2)


def direct_sum_program() -> WordProgram:
    """The joint cyclic stream opened by e_1 instead of v.  Each time the span
    closes, the executor offers the next standard seed and retries, so one
    build runs through the reducing summands one after another."""
    return WordProgram(DIRECT_SUM, partial(_stream, seed(1), 1, True), stride=2)


def krylov_program() -> WordProgram:
    """v first, then T f_n at position n+1 (upper Hessenberg ordering)."""
    return WordProgram(KRYLOV, partial(_stream, seed_vec(), 1, False), stride=1)


def family_program(n_ops: int, selfadjoint: bool) -> WordProgram:
    """Stage n offers e_n then S_1 f_n .. S_N f_n, with adjoints interleaved
    (S_k f_n, S_k* f_n) in the general flavor.  Stride N+1 or 2N+1."""
    if n_ops < 1:
        raise ValueError("family needs at least one operator")
    kind, stride = (FAMILY_SA, n_ops + 1) if selfadjoint else (FAMILY_GEN, 2 * n_ops + 1)
    program = WordProgram(kind, partial(_stream, None, n_ops, not selfadjoint), stride=stride)
    object.__setattr__(program, "n_ops", n_ops)
    return program
