"""Word programs: the fixed order in which a build offers vectors to Gram-Schmidt.

Every program follows one rule.  Its stream opens with a fixed first vector
(v or e_1), or with the seed e_n at the head of every stage n; stage n then
offers S_k f_n, and S_k* f_n when adjoints are on, for k = 1..N, where f_n
is the n-th accepted basis vector.  So a program is three numbers, and what
it offers at stream index j follows from j by one division by its stride.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

#: (op, adjoint, n): operator op (1-based), or its adjoint, applied to the
#: n-th accepted basis vector; op 0 is the seed e_n, or the start vector v
#: when n is 0.
Word = Tuple[int, bool, int]


class WordProgram(NamedTuple):
    """A word program as data, an immutable tuple.

    ``first`` is ``"v"`` (the caller's start vector), ``"e1"``, or None,
    when the seed e_n heads every stage n.  ``n_ops`` is the number of
    operators applied, and ``adjoints`` says whether each is followed by its
    adjoint.
    """

    first: Optional[str]
    n_ops: int
    adjoints: bool

    @property
    def stride(self) -> int:
        """The number of stream indices per stage."""
        return self.n_ops * (1 + self.adjoints) + (self.first is None)

    def word(self, j: int) -> Word:
        """The word at 0-based stream index j.  Stage n holds the stride
        indices from (n - 1)·stride, shifted by one after a first vector, so
        with k vectors accepted the first word on a vector not accepted yet
        sits at index k·stride + 1."""
        head = self.first is None
        if not head:
            if j == 0:
                return 0, False, int(self.first == "e1")
            j -= 1
        n, r = divmod(j, self.stride)
        if head and r == 0:
            return 0, False, n + 1
        op, adjoint = divmod(r - head, 1 + self.adjoints)
        return op + 1, bool(adjoint), n + 1


def trace(word: Word) -> str:
    """The log's text for a word: ``seed n``, ``seed v`` or ``apply op adj n``."""
    op, adjoint, n = word
    if op == 0:
        return f"seed {n or 'v'}"
    return f"apply {op} {int(adjoint)} {n}"


def staircase_program() -> WordProgram:
    """Stage n offers e_n, then T f_n, then T* f_n (positions 3n-2..3n)."""
    return WordProgram(None, 1, True)


def joint_cyclic_program() -> WordProgram:
    """v first, then T f_m at position 2m and T* f_m at position 2m+1."""
    return WordProgram("v", 1, True)


def direct_sum_program() -> WordProgram:
    """The joint cyclic stream opened by e_1 instead of v.  Each time the span
    closes, the executor offers the next standard seed and retries, so one
    build runs through the reducing summands one after another."""
    return WordProgram("e1", 1, True)


def krylov_program() -> WordProgram:
    """v first, then T f_n at position n+1 (upper Hessenberg ordering)."""
    return WordProgram("v", 1, False)


def family_program(n_ops: int, selfadjoint: bool) -> WordProgram:
    """Stage n offers e_n then S_1 f_n .. S_N f_n, with adjoints interleaved
    (S_k f_n, S_k* f_n) in the general flavor.  Stride N+1 or 2N+1."""
    if n_ops < 1:
        raise ValueError("family needs at least one operator")
    return WordProgram(None, n_ops, not selfadjoint)
