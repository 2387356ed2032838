"""Turning points, essential turning points, and the record machinery of f_3.

A turning point is an index where the sequence jumps by more than one (or
index 3 when f(3) is not the smallest available value); the value there is
a record.  An essential turning point (ETP) additionally has f(t-1) = t-2
with the values 1..t-1 fully used, which pins the whole future of the
recursion: the next ETP is f(t) + 1, and between the two the sequence just
counts upward.  One scanner, ``_turning_points``, holds these predicates;
``find_turning_points`` and ``classify`` both read it, from the first index
past the state a buffer starts from.

For f_3 this gives a closed enumeration of records with no sequence
generation at all: after a record r, the next record is (r-1) + p where p
is the smallest prime not dividing r-1.  The first record is 5 at index 4,
every later record r sits at index (previous record) + 1, every prime >= 5
shows up as a record, and every record is odd and congruent to 1 or 5 mod 6.

Point queries go to ``_records_around``: the consecutive records q <= v < r,
found by walking the recurrence from the largest prime <= v, with no list.
``is_record`` reads it, and so does classification, which takes the state
of an even seed a at index a from the records around a - 1.  Range work goes
to the shared list: one loop, ``extend_records``, enumerates records by
extending an ascending record list in place until it passes a limit, and
the shared list (``cached_records``) grows through it.  Annotation derives
``is_composite`` from one sieve up to the largest record of the list, not
from a primality test per record.

The records pin f_3 down completely: ``reconstruct_f3`` answers one index,
and ``f3_terms`` builds the whole prefix f_3(1..n) as an ``array('q')``
(8 bytes per term) by patching the counting stretch f_3(n) = n - 1 at each
turning point, with no simulation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .primes import is_prime, sieve_flags, smallest_prime_not_dividing
from .sequence import LimitExceededError, SequenceBuffer, max_terms_cap

FIRST_ETP = 4
FIRST_RECORD = 5


class TurningPoint(NamedTuple):
    t: int
    is_etp: bool
    record_value: int
    complete_below: bool  # the values 1..t-1 were all used before t


@dataclass(frozen=True)
class Record:
    """An f_3 record with its index and jump j = value - index."""

    value: int
    turning_point: int
    jump: int
    is_composite: bool


def _turning_points(buffer: SequenceBuffer, stop: int) -> Iterator[TurningPoint]:
    """Turning points of f_a at the indices past max(buffer.base, 2) up to stop,
    each with its ETP verdict.

    Index 3 is a turning point exactly when f(3) skips the smallest value
    outside {1, a}; later indices are turning points when the forward jump
    exceeds 1.  A buffer shorter than stop grows in chunks that double the
    stretch past its base; the buffer raises LimitExceededError past its cap.
    """
    a = buffer.a
    base = buffer.base
    terms = buffer.terms
    smallest_free = 3 if a == 2 else 2  # min of the naturals minus {1, a}
    running_max = buffer.head_max
    t = max(base, 2)  # last index scanned
    while t < stop:
        if len(buffer) == t:
            buffer.extend_to(min(2 * t - base + 1, stop))
        prev = terms[t - base]
        for t in range(t + 1, min(len(buffer), stop) + 1):
            v = terms[t - base]
            if v - prev > 1 if t > 3 else v != smallest_free:
                complete_below = running_max == t - 1  # {f(1..t-1)} == {1..t-1}
                is_etp = t > a and v != t and prev == t - 2 and complete_below
                yield TurningPoint(t, is_etp, v, complete_below)
            if v > running_max:
                running_max = v
            prev = v


def find_turning_points(buffer: SequenceBuffer) -> list[TurningPoint]:
    """All turning points of the buffered prefix, for any seed; nothing is generated."""
    n = len(buffer)
    if n < 3:
        raise ValueError(f"need at least 3 terms, have {n}")
    return list(_turning_points(buffer, n))


def next_record(r: int) -> int:
    """The f_3 record that follows the record r (r >= 5).

    Equals (r-1) + p with p the smallest prime not dividing r-1: the next
    record is the least value above r coprime to r-1, and r-1 kills every
    smaller offset.
    """
    if r < FIRST_RECORD:
        raise ValueError(f"records start at {FIRST_RECORD}, got {r}")
    m = r - 1
    return m + smallest_prime_not_dividing(m)


def _records_around(v: int) -> tuple[int, int]:
    """The consecutive f_3 records q <= v < r (v >= 5), found without the shared list.

    Rests on Cor 1: every prime >= 5 is a record and every record is
    6k +- 1.  So the walk steps down over the values 6k +- 1 to the largest
    prime p <= v, then follows ``next_record`` from p until it passes v; it
    costs about one prime gap.  Exact wherever ``is_prime`` is, that is for
    v < 3.3e24.
    """
    if v < FIRST_RECORD:
        raise ValueError(f"records start at {FIRST_RECORD}, got {v}")
    q = v - (1, 0, 1, 2, 3, 0)[v % 6]  # the largest 6k +- 1 <= v
    while not is_prime(q):
        q -= 2 if q % 6 == 1 else 4
    r = next_record(q)
    while r <= v:
        q, r = r, next_record(r)
    return q, r


def is_record(v: int) -> bool:
    """True iff v is an f_3 record, decided by ``_records_around`` without the shared list."""
    return v >= FIRST_RECORD and v % 6 in (1, 5) and _records_around(v)[0] == v


def extend_records(chain: list[int], limit: int) -> list[int]:
    """Extend an ascending record list in place until its last value passes limit.

    chain must end in a record; the recurrence is local, so any chain that
    does (the shared list, ``[FIRST_RECORD]``) continues the enumeration
    from where it stops.  Returns chain.
    """
    r = chain[-1]
    while r <= limit:
        r = next_record(r)
        chain.append(r)
    return chain


# Shared ascending record list, grown on demand.  Its tail always extends
# past any limit it was asked to cover, so "the record after x" is always
# resolvable for x <= limit.
_CACHE = [FIRST_RECORD]


def cached_records(limit: int) -> list[int]:
    """The shared record list, guaranteed to extend beyond limit.

    Returns the live internal list for zero-copy bisecting; do not mutate.
    """
    return extend_records(_CACHE, limit)


def record_values(limit: int) -> list[int]:
    """All f_3 record values <= limit, ascending."""
    if limit < FIRST_RECORD:
        return []
    recs = cached_records(limit)
    return recs[: bisect_right(recs, limit)]


def _annotated(values: Sequence[int]) -> Iterator[tuple[int, int, int, bool]]:
    """(value, turning_point, jump, is_composite) per record of a full
    ascending record-value list (starting at 5).

    The index of the first record is 4; each later record r follows the
    previous record q at index q + 1, so its jump is r - q - 1.
    Compositeness is read from one sieve up to the last value.
    """
    if not values:
        return
    if values[0] != FIRST_RECORD:
        raise ValueError(f"annotation needs the full list from {FIRST_RECORD}, got {values[0]}")
    prime = sieve_flags(values[-1])
    t = FIRST_ETP
    for r in values:
        yield r, t, r - t, not prime[r]
        t = r + 1


def records_from_values(values: Sequence[int]) -> list[Record]:
    """Annotate a full ascending record-value list (starting at 5)."""
    return [Record(*row) for row in _annotated(values)]


def record_stream_upto(limit: int) -> list[Record]:
    """All f_3 records <= limit with indices, jumps, and compositeness."""
    if limit < FIRST_RECORD:
        raise ValueError(f"limit must be >= {FIRST_RECORD}, got {limit}")
    return records_from_values(record_values(limit))


def reconstruct_f3(n: int) -> int:
    """f_3(n) straight from the record list, without sequential generation.

    If n-1 is a record, n is a turning point and f_3(n) is the next record;
    otherwise f_3(n) = n - 1 (counting stretch), with f(1)=1 and f(2)=3
    handled directly.  The shared record list is grown as needed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= 4:
        return (1, 3, 2, 5)[n - 1]
    records = cached_records(n + 1)
    i = bisect_left(records, n - 1)
    if i < len(records) and records[i] == n - 1:
        return records[i + 1]
    return n - 1


def f3_terms(n: int) -> array:
    """f_3(1..n) from the records, laid out like ``SequenceBuffer.terms``:
    ``terms[i] == f_3(i)`` and slot 0 is padding (0).

    Every index counts down, f_3(i) = i - 1, except the head 1, 3, 2, 5 and
    the index after each record q, where f_3(q + 1) is the record after q.
    Needs n >= 2 and obeys the engine's term cap (GCDPERM_MAX_TERMS).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 (f(1)=1 and f(2)=a are fixed), got {n}")
    cap = max_terms_cap()
    if n > cap:
        raise LimitExceededError.terms(3, n, cap)
    terms = array("q", range(-1, n))
    head = (0, 1, 3, 2, 5)[: n + 1]
    terms[: len(head)] = array("q", head)
    recs = cached_records(n + 1)
    # Records q <= n - 1 set terms[q + 1]; the cache extends past n + 1,
    # so each of them has a successor.
    for q, r in zip(islice(recs, bisect_right(recs, n - 1)), islice(recs, 1, None)):
        terms[q + 1] = r
    return terms
