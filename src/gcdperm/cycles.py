"""Cycle structure of the permutations f_a.

Although f_a permutes an infinite set, every orbit is finite, so the map is
a product of finite cycles.  A cycle (c1, c2, ..., cm) sends c1 to c2, c2
to c3, and cm back to c1.  Cycles are listed by ascending smallest element
and each tuple is rotated to start at its largest element, which for f_3
reproduces the record-block form (r, r-1, ..., t) running from a record
down to its turning point.
"""

from __future__ import annotations

from typing import NamedTuple

from .primes import twin_prime_pairs
from .records import record_count
from .sequence import LimitExceededError, SequenceBuffer


class IncompleteCycleError(RuntimeError):
    """A cycle walk left the generated prefix and the cap forbids extending."""


class Cycle(NamedTuple):
    """One nontrivial finite cycle; ``index`` counts them from 1.

    ``len(cycle)`` counts the elements, not the two fields.  ``_make`` and
    ``_replace`` check the field count with ``len``, so do not use them on
    a cycle.
    """

    elements: tuple[int, ...]
    index: int

    def __len__(self) -> int:
        return len(self.elements)


def decompose(a: int, n: int) -> list[Cycle]:
    """All complete nontrivial cycles of f_a whose smallest element is <= n.

    Ordered by ascending smallest element.  Fixed points are left out and
    never consume an index.
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
            continue
        top = path.index(max(path))
        cycles.append(Cycle(tuple(path[top:] + path[:top]), next_index))
        next_index += 1
    return cycles


def cycle_index(v: int) -> int:
    """Index of the nontrivial cycle of f_3 that holds v (v >= 2), read from the records.

    The cycle (3, 2) is cycle 1; after it, the k-th record block
    [previous record + 1, record] is cycle k + 1.  The fixed point 1 has no
    index: v < 2 raises ValueError.
    """
    if v < 2:
        raise ValueError(f"need v >= 2 (1 is a fixed point of f_3), got {v}")
    return 1 if v <= 3 else 2 + record_count(v - 1)


def twin_cycle_gaps(limit: int) -> list[tuple[int, int, int, int, int]]:
    """Cycle-index gaps of f_3 between consecutive twin-prime pairs.

    For pairs (m_j, M_j) and (m_{j+1}, M_{j+1}) the row is
    (j, m_j, M_j, gap_a, gap_b) with gap_a = C(m_{j+1}) - C(M_j) and
    gap_b = C(M_{j+1}) - C(m_j); both candidate series are emitted.
    Pairs are enumerated with M_j <= limit.
    """
    pairs = twin_prime_pairs(limit)
    index = [(cycle_index(lo), cycle_index(hi)) for lo, hi in pairs]
    return [
        (j, lo, hi, c_next_lo - c_hi, c_next_hi - c_lo)
        for j, ((lo, hi), (c_lo, c_hi), (c_next_lo, c_next_hi))
        in enumerate(zip(pairs, index, index[1:]), start=1)
    ]
