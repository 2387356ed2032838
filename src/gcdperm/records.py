"""Turning points, essential turning points, and the record machinery of f_3.

A turning point is an index where the sequence jumps by more than one (or
index 3 when f(3) is not the smallest available value); the value there is
a record.  An essential turning point (ETP) additionally has f(t-1) = t-2
with the values 1..t-1 fully used, which pins the whole future of the
recursion: the next ETP is f(t) + 1, and between the two the sequence just
counts upward.  One scanner, ``_turning_points``, holds these predicates;
``find_turning_points`` and ``classify`` both read it.

For f_3 this gives a closed enumeration of records with no sequence
generation at all: after a record r, the next record is (r-1) + p where p
is the smallest prime not dividing r-1.  The first record is 5 at index 4,
every later record r sits at index (previous record) + 1, every prime >= 5
shows up as a record, and every record is odd and congruent to 1 or 5 mod 6.

One loop, ``extend_records``, enumerates records: it extends an ascending
record list in place until it passes a limit.  The shared cache
(``cached_records``) and a record-cache file loaded by the CLI both grow
through it.  Annotation derives ``is_composite`` from one sieve up to the
largest record of the list, not from a primality test per record.

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
from typing import Iterable, Iterator, Sequence

from .primes import sieve_flags, smallest_prime_not_dividing
from .sequence import LimitExceededError, SequenceBuffer, max_terms_cap

FIRST_ETP = 4
FIRST_RECORD = 5

CACHE_HEADER = "# a=3 records"

_FIRST_CHUNK = 8  # indices past the seed that a scan's first chunk covers


class InsufficientRecordsError(ValueError):
    """The supplied record list does not cover the requested index."""


@dataclass(frozen=True)
class TurningPoint:
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
    """Turning points of f_a at the indices 3..stop, each with its ETP verdict.

    Index 3 is a turning point exactly when f(3) skips the smallest value
    outside {1, a}; later indices are turning points when the forward jump
    exceeds 1.  A buffer shorter than stop grows in chunks under its term
    cap: the first ends _FIRST_CHUNK past a (no certificate sits at an
    index <= a), each later one doubles the stretch past a.
    """
    a = buffer.a
    terms = buffer.terms
    smallest_free = 3 if a == 2 else 2  # min of the naturals minus {1, a}
    running_max = a
    t = 2  # last index scanned
    while t < stop:
        if len(buffer) == t:
            buffer.extend_to(min(max(2 * t - a, a + _FIRST_CHUNK), stop, max(buffer.cap, t + 1)))
        for t in range(t + 1, min(len(buffer), stop) + 1):
            complete_below = running_max == t - 1  # {f(1..t-1)} == {1..t-1}
            v = terms[t]
            if v - terms[t - 1] > 1 if t > 3 else v != smallest_free:
                is_etp = t > a and v != t and terms[t - 1] == t - 2 and complete_below
                yield TurningPoint(t, is_etp, v, complete_below)
            if v > running_max:
                running_max = v


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


def extend_records(chain: list[int], limit: int) -> list[int]:
    """Extend an ascending record list in place until its last value passes limit.

    chain must end in a record; the recurrence is local, so any chain that
    does (a loaded cache, the shared list, ``[FIRST_RECORD]``) continues the
    enumeration from where it stops.  Returns chain.
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


def reconstruct_f3(n: int, records: Sequence[int] | None = None) -> int:
    """f_3(n) straight from the record list, without sequential generation.

    If n-1 is a record, n is a turning point and f_3(n) is the next record;
    otherwise f_3(n) = n - 1 (counting stretch), with f(1)=1 and f(2)=3
    handled directly.  ``records`` is an ascending record-value list
    covering at least n+1; by default the shared cache is used and grown
    as needed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= 4:
        return (1, 3, 2, 5)[n - 1]
    if records is None:
        records = cached_records(n + 1)
    elif not records or records[-1] < n + 1:
        have = records[-1] if records else None
        raise InsufficientRecordsError(
            f"reconstructing f_3({n}) needs records through {n + 1}, have {have}"
        )
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


def save_record_cache(path, records: Iterable[int]) -> None:
    """Write a plain-text record cache: header line, one value per line."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CACHE_HEADER + "\n")
        for r in records:
            fh.write(f"{r}\n")


def load_record_cache(path, verify: bool = False) -> list[int]:
    """Read a record cache written by save_record_cache.

    Always checks the header and strict monotonicity; with verify=True also
    replays the record recurrence across the list.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != CACHE_HEADER:
        raise ValueError(f"{path}: missing record-cache header {CACHE_HEADER!r}")
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
    for prev, cur in zip(values, values[1:]):
        if cur <= prev:
            raise ValueError(f"{path}: record values must increase ({prev} -> {cur})")
    if verify:
        for prev, cur in zip(values, values[1:]):
            expected = next_record(prev)
            if cur != expected:
                raise ValueError(f"{path}: {cur} does not follow {prev} (expected {expected})")
    return values
