"""Block-size schedules: canonical construction, validity, and band coverage.

A schedule is a finite list of diagonal block sizes n_1..n_K.  Two growth
rules appear:

* general kind: n_{k+1} >= 2*(n_1 + ... + n_k), the condition under which the
  block band absorbs the full staircase support (canonical sizes 1,2,6,18,...)
* cyclic kind: n_{k+1} >= n_1 + ... + n_k, enough for the sparser two-sided
  cyclic support (canonical sizes 1,2,4,8,...)

The partition has one walk, :func:`block_slices`, and one index search,
:class:`BlockIndex`; partial sums, clipped sizes, block numbers, the band
and every block pattern are read off those two.

Indices into matrices are 1-based throughout this module, matching the
partition arithmetic; callers converting to numpy subtract one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, islice, takewhile
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

GENERAL = "general"
CYCLIC = "cyclic"

#: n_{k+1} >= _GROWTH[kind] * (n_1 + ... + n_k)
_GROWTH = {GENERAL: 2, CYCLIC: 1}


class InvalidScheduleError(ValueError):
    """A schedule fails the growth rule required by the requested transform,
    or does not span the matrix it is fitted to."""


def _check_sizes(sizes: Sequence[int]) -> Tuple[int, ...]:
    out = tuple(int(n) for n in sizes)
    if len(out) == 0:
        raise ValueError("schedule needs at least one block size")
    if any(n <= 0 for n in out):
        raise ValueError(f"block sizes must be positive, got {list(out)}")
    return out


def validate(sizes: Sequence[int], kind: str) -> Optional[int]:
    """First k (1-based) where n_{k+1} breaks the growth rule, or None if valid."""
    sizes = _check_sizes(sizes)
    if kind not in _GROWTH:
        raise ValueError(f"unknown schedule kind {kind!r}")
    factor = _GROWTH[kind]
    total = sizes[0]
    for k in range(1, len(sizes)):
        if sizes[k] < factor * total:
            return k
        total += sizes[k]
    return None


def growth_violation(sizes: Sequence[int], kind: str) -> Optional[str]:
    """The first inequality ``sizes`` break under ``kind``'s growth rule, as
    text ("violation at k=2: n_3 = 5 < 2*(n_1+...+n_k) = 6"), or None."""
    bad = validate(sizes, kind)
    if bad is None:
        return None
    factor = _GROWTH[kind]
    rule = "n_1+...+n_k" if factor == 1 else f"{factor}*(n_1+...+n_k)"
    return (f"violation at k={bad}: n_{bad + 1} = {sizes[bad]} < {rule} = "
            f"{factor * sum(sizes[:bad])}")


@dataclass(frozen=True)
class BlockSchedule:
    """Diagonal block sizes with a growth-rule tag and an optional matrix dim.

    The constructor checks positivity only; use :func:`validate` or
    :attr:`is_valid` for the growth rule, since deliberately broken schedules
    are useful as counterexamples.  When ``dim`` is set, the final blocks are
    clipped to end at ``dim`` for all index computations.
    """

    sizes: Tuple[int, ...]
    kind: str = GENERAL
    dim: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "sizes", _check_sizes(self.sizes))
        if self.kind not in _GROWTH:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.dim is not None and self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")

    @property
    def partial_sums(self) -> Tuple[int, ...]:
        return tuple(stop for _, stop in block_slices(self, self.span))

    @property
    def span(self) -> int:
        return sum(self.sizes)

    @property
    def is_valid(self) -> bool:
        return validate(self.sizes, self.kind) is None

    @property
    def truncated_sizes(self) -> Tuple[int, ...]:
        """Sizes with blocks clipped at ``dim``; empty trailing blocks drop."""
        return tuple(stop - start for start, stop in block_slices(self))

    def describe(self) -> str:
        return ",".join(str(n) for n in self.sizes)


def _canonical_sums(n1: int, kind: str) -> Iterator[int]:
    """The canonical partial sums s_k = n1*3^{k-1} (general) or
    n1*(2^k - 1) (cyclic), k = 1, 2, ...; every canonical schedule reads them."""
    if n1 < 1:
        raise ValueError("n1 must be positive")
    if kind == GENERAL:
        return (n1 * 3 ** (k - 1) for k in count(1))
    if kind == CYCLIC:
        return (n1 * (2 ** k - 1) for k in count(1))
    raise ValueError(f"unknown schedule kind {kind!r}")


def _from_sums(sums: List[int], kind: str, dim: Optional[int] = None) -> BlockSchedule:
    return BlockSchedule(tuple(b - a for a, b in zip([0] + sums, sums)), kind, dim)


def canonical_schedule(blocks: int, n1: int = 1, kind: str = GENERAL) -> BlockSchedule:
    """Tight-growth schedule: [n1, 2n1, 6n1, 18n1, ...] or [n1, 2n1, 4n1, ...].

    The general sizes satisfy n_{k+1} = 2*(n_1+...+n_k) with partial sums
    n1*3^{k-1}; the cyclic sizes are n_k = 2^{k-1}*n1 with partial sums
    n1*(2^k - 1).
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    return _from_sums(list(islice(_canonical_sums(n1, kind), blocks)), kind)


def canonical_covering(dim: int, kind: str = GENERAL, n1: int = 1) -> BlockSchedule:
    """Smallest canonical schedule whose span reaches ``dim``, clipped to it."""
    if dim < 1:
        raise ValueError("dim must be positive")
    sums = []
    for s in _canonical_sums(n1, kind):
        sums.append(s)
        if s >= dim:
            return _from_sums(sums, kind, dim)


def schedule_for_dim(dim: int, kind: str = GENERAL, n1: int = 1) -> BlockSchedule:
    """Canonical schedule fitted to ``dim`` with the tail merged into one block.

    A canonical boundary s is kept only while 3s <= dim (general) or
    2s <= dim (cyclic); everything past the last kept boundary becomes the
    final block.  The result always spans exactly ``dim``, stays valid for its
    kind, and has non-decreasing sizes, unlike a naive truncation whose last
    clipped block can undershoot the growth rule.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    sums = _canonical_sums(n1, kind)
    factor = _GROWTH[kind] + 1
    return _from_sums([*takewhile(lambda s: factor * s <= dim, sums), dim], kind, dim)


def block_slices(schedule: BlockSchedule, dim: Optional[int] = None) -> List[Tuple[int, int]]:
    """0-based (start, stop) ranges of the blocks, clipped to ``dim``.

    ``dim`` defaults to the schedule's own dim, then to its span.
    """
    d = dim if dim is not None else schedule.dim
    if d is None:
        d = schedule.span
    out = []
    start = 0
    for stop in accumulate(schedule.sizes):
        if start >= d:
            break
        out.append((start, min(stop, d)))
        start = stop
    return out


class BlockIndex:
    """Locate 1-based matrix indices in the blocks of ``block_slices(schedule, dim)``.

    Every method takes ints or broadcast integer arrays.  Indices past the
    last block get block number ``len(slices) + 1``.
    """

    def __init__(self, schedule: BlockSchedule, dim: Optional[int] = None):
        self.slices = block_slices(schedule, dim)
        self.starts, self.stops = np.array(self.slices, dtype=int).reshape(-1, 2).T
        self.sizes = self.stops - self.starts
        self.span = int(self.stops[-1]) if self.slices else 0

    def block(self, index):
        """1-based block number of ``index``."""
        return np.searchsorted(self.stops, index) + 1

    def locate(self, index):
        """(block number, local index), both 1-based, of indices inside the span."""
        b = self.block(index)
        return b, index - self.starts[b - 1]

    def in_band(self, i, j):
        """True where (i, j) lies in the block tridiagonal band; an index
        past the last block lies in no block, so its entries are outside."""
        bi, bj = self.block(i), self.block(j)
        inside = (bi <= len(self.slices)) & (bj <= len(self.slices))
        return inside & (abs(bi - bj) <= 1)


def covering_index(schedule: BlockSchedule, dim: int) -> BlockIndex:
    """``BlockIndex(schedule, dim)``, after checking that the blocks reach
    ``dim``; the one place a schedule is checked to span a matrix."""
    idx = BlockIndex(schedule, dim)
    if idx.span < dim:
        raise InvalidScheduleError(
            f"schedule spans {schedule.span}, too short for dimension {dim}"
        )
    return idx


def block_of(index: int, schedule: BlockSchedule) -> int:
    """1-based block number containing matrix index ``index`` (also 1-based)."""
    idx = BlockIndex(schedule)
    if not 1 <= index <= idx.span:
        raise ValueError(f"index {index} outside 1..{idx.span}")
    return int(idx.block(index))


def covers(i: int, j: int, schedule: BlockSchedule) -> bool:
    """True when entry (i, j) lies inside the block tridiagonal band.

    Indices beyond the schedule's dim, or its span when it has none (the
    limit :func:`block_of` uses), belong to no block and are uncovered.
    """
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    return bool(BlockIndex(schedule).in_band(i, j))


def staircase_coverage_check(
    schedule: BlockSchedule,
    pattern: Callable[[int, int], bool],
    dim: int,
) -> List[Tuple[int, int]]:
    """All (i, j) up to ``dim`` allowed by ``pattern`` but outside the band.

    ``pattern`` is a 1-based support predicate (an ``allowed(i, j)`` callable
    or any object exposing one).  Invalid schedules are accepted on purpose:
    the nonempty result is the counterexample showing why the growth rule is
    needed.
    """
    allowed = getattr(pattern, "allowed", pattern)
    n = np.arange(1, dim + 1)
    band = BlockIndex(schedule, schedule.span).in_band(n[:, None], n[None, :])
    return [(i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)
            if allowed(i, j) and not band[i - 1, j - 1]]


def parse_spec(text: str, dim: Optional[int], kind: str = GENERAL) -> BlockSchedule:
    """Parse a CLI schedule argument.

    ``canonical`` fits the named kind to ``dim`` (tail-merged); ``cyclic`` is
    shorthand for the cyclic kind; ``custom:1,2,6,18`` uses the given sizes
    verbatim, so downstream growth-rule checks still apply to it.  ``dim``
    may be None only with ``custom:`` sizes.
    """
    text = text.strip()
    if text in ("canonical", "cyclic"):
        if dim is None:
            raise ValueError(f"schedule spec {text!r} needs a matrix dimension")
        return schedule_for_dim(dim, CYCLIC if text == "cyclic" else kind)
    if text.startswith("custom:"):
        body = text[len("custom:"):]
        try:
            sizes = tuple(int(part) for part in body.split(","))
        except ValueError:
            raise ValueError(f"cannot parse block sizes from {body!r}")
        return BlockSchedule(sizes, kind, dim)
    raise ValueError(
        f"unknown schedule spec {text!r}; use canonical, cyclic, or custom:n1,n2,..."
    )
