"""Cycle structure of the permutations f_a.

Although f_a permutes an infinite set, every orbit is finite, so the map is
a product of finite cycles.  A cycle (c1, c2, ..., cm) sends c1 to c2, c2
to c3, and cm back to c1.  Cycles are listed by ascending smallest element
and each tuple is rotated to start at its largest element, which for f_3
reproduces the record-block form (r, r-1, ..., t) running from a record
down to its turning point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .primes import twin_prime_pairs
from .records import cached_records
from .sequence import LimitExceededError, SequenceBuffer


class IncompleteCycleError(RuntimeError):
    """A cycle walk left the generated prefix and the cap forbids extending."""


class UnknownCycleValueError(KeyError):
    """The value is not covered by any indexed (nontrivial) cycle."""


@dataclass(frozen=True)
class Cycle:
    """One finite cycle; ``index`` counts nontrivial cycles, None for fixed points."""

    elements: tuple[int, ...]
    index: int | None

    def __len__(self) -> int:
        return len(self.elements)


def decompose(a: int, n: int, include_fixed: bool = False) -> list[Cycle]:
    """All complete cycles of f_a whose smallest element is <= n.

    Ordered by ascending smallest element.  Length-1 cycles (fixed points)
    are suppressed unless include_fixed is set; they never consume an index.
    The backing prefix starts at max(2n, 64) terms, clamped to the term
    cap, and is extended as needed to close each cycle, up to the cap.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    buf = SequenceBuffer(a)
    buf.extend_to(min(max(2 * n, 64), buf.cap))
    terms = buf.terms

    def reach(v: int, start: int) -> None:
        if v > len(buf):
            try:
                buf.extend_to(v)
            except LimitExceededError as exc:
                raise IncompleteCycleError(
                    f"cycle through {start} in f_{a} left the term cap: {exc}"
                ) from exc

    seen: set[int] = set()
    cycles: list[Cycle] = []
    next_index = 1
    for start in range(1, n + 1):
        if start in seen:
            continue
        path = [start]
        seen.add(start)
        reach(start, start)
        v = terms[start]
        while v != start:
            path.append(v)
            seen.add(v)
            reach(v, start)
            v = terms[v]
        if len(path) == 1:
            if include_fixed:
                cycles.append(Cycle((start,), None))
            continue
        top = path.index(max(path))
        cycles.append(Cycle(tuple(path[top:] + path[:top]), next_index))
        next_index += 1
    return cycles


class CycleIndexMap:
    """Value -> index of its nontrivial cycle in f_3, read from the records.

    The k-th record block [previous record + 1, record] is cycle k+1, after
    the initial cycle (3, 2).
    """

    def __init__(self, records: list[int], limit: int) -> None:
        self._records = records
        self._limit = limit

    @classmethod
    def for_f3(cls, limit: int) -> "CycleIndexMap":
        return cls(cached_records(limit), limit)

    def index_of(self, v: int) -> int:
        if v in (2, 3):
            return 1
        if 4 <= v <= self._limit:
            return 2 + bisect_right(self._records, v - 1)
        raise UnknownCycleValueError(v)


def twin_cycle_gaps(limit: int) -> list[tuple[int, int, int, int, int]]:
    """Cycle-index gaps of f_3 between consecutive twin-prime pairs.

    For pairs (m_j, M_j) and (m_{j+1}, M_{j+1}) the row is
    (j, m_j, M_j, gap_a, gap_b) with gap_a = C(m_{j+1}) - C(M_j) and
    gap_b = C(M_{j+1}) - C(m_j); both candidate series are emitted.
    Pairs are enumerated with M_j <= limit.
    """
    pairs = twin_prime_pairs(limit)
    if len(pairs) < 2:
        return []
    cmap = CycleIndexMap.for_f3(limit)
    rows = []
    for j in range(len(pairs) - 1):
        lo, hi = pairs[j]
        nxt_lo, nxt_hi = pairs[j + 1]
        rows.append(
            (
                j + 1,
                lo,
                hi,
                cmap.index_of(nxt_lo) - cmap.index_of(hi),
                cmap.index_of(nxt_hi) - cmap.index_of(lo),
            )
        )
    return rows
