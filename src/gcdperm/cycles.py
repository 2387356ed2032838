"""Cycle structure of the permutations f_a.

Although f_a permutes an infinite set, every orbit is finite, so the map is
a product of finite cycles.  A cycle (c1, c2, ..., cm) sends c1 to c2, c2
to c3, and cm back to c1.  Cycles are listed by ascending smallest element
and each tuple is rotated to start at its largest element, which for f_3
reproduces the record-block form (r, r-1, ..., t) running from a record
down to its turning point.

The cycles follow from the classify certificate.  At its witness w, an
ETP or the identity onset, 1..w - 1 are all used by index w - 1, so f_a
maps [1, w - 1] onto itself.  From w on an identity seed has only fixed
points, and a c3 seed the record blocks (r, r - 1, ..., q + 1) of f_3,
one for each pair of consecutive records q < r with q >= w - 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import C3, classify, prefix_terms
from .primes import twin_prime_pairs
from .records import _certified_records, record_count


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
    never consume an index.  By the lemma above, with w the classify
    witness, the cycles through 1..min(n, w - 1) are walked on
    ``prefix_terms(a, w - 1, label)``, which reuses the label and does not
    classify the seed again, and a c3 seed adds the record blocks for
    w - 1 <= q < n from ``_certified_records(n)``.  The term cap
    (GCDPERM_MAX_TERMS) bounds w - 1 and, for those blocks, n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    label = classify(a)
    w = label.witness
    head = prefix_terms(a, max(w - 1, 2), label)  # a = 2 has witness 1 and no head
    seen: set[int] = set()
    cycles: list[Cycle] = []
    for start in range(1, min(n, w - 1) + 1):
        if start in seen:
            continue
        path = [start]
        v = head[start]
        while v != start:
            path.append(v)
            v = head[v]
        seen.update(path)
        if len(path) > 1:
            top = path.index(max(path))
            cycles.append(Cycle(tuple(path[top:] + path[:top]), len(cycles) + 1))
    if label.verdict == C3 and w <= n:
        records = _certified_records(n)
        i = records.index(w - 1)
        while records[i] < n:
            q, r = records[i], records[i + 1]
            cycles.append(Cycle(tuple(range(r, q, -1)), len(cycles) + 1))
            i += 1
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
