"""Turning points, essential turning points, and the record machinery of f_3.

A turning point is an index where the sequence jumps by more than one (or
index 3 when f(3) is not the smallest available value); the value there is
a record.  An essential turning point (ETP) additionally has f(t-1) = t-2
with the values 1..t-1 fully used, which pins the whole future of the
recursion: the next ETP is f(t) + 1, and between the two the sequence just
counts upward.  One scanner, ``_turning_points``, holds these predicates;
``find_turning_points``, ``classify`` and cor1 read it, from the first index
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
to the shared ascending record list, which this module alone reads:
``cached_records`` grows it until it passes a limit, and ``record_count``
bisects it; every other module asks ``record_count`` or ``record_values``.
The list is an ``array('q')``, 8 bytes per record, and it grows one block
of 30030 = 2*3*5*7*11*13 values at a time.  This is the primorial
periodicity of the recurrence: the step after a record r is
spnd(r - 1), the smallest prime not dividing r - 1, and that is a
function of (r - 1) mod 30030 unless 30030 divides r - 1.  So the records
of a block follow from the offset of the record that enters it; a memo
keyed by that offset holds them, and only a record r = 1 (mod 30030)
needs ``smallest_prime_not_dividing``.  Few offsets ever enter a block (4
up to 5e7), so the memo stays small.  Annotation yields the columns of
the records in chunks, and derives ``is_composite`` from one sieve up to
the largest record, not from a primality test per record.

The records pin f_3 down completely: ``reconstruct_f3`` answers one index,
and ``f3_terms`` builds the whole prefix f_3(1..n) as an ``array('q')``
(8 bytes per term), with no simulation.  Between consecutive records
q < r the terms on the indices q + 1..r are r, q + 1, ..., r - 1, so the
terms of a block also follow from the offset of the record that enters it.
The same memo holds them next to the records, and one block walker,
``_step_block``, appends either kind, a block per int addition.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import chain
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from .primes import _WHEEL, _WHEEL_SPND, is_prime, sieve_flags, smallest_prime_not_dividing
from .sequence import LimitExceededError, SequenceBuffer, max_terms_cap

FIRST_ETP = 4
FIRST_RECORD = 5


class TurningPoint(NamedTuple):
    t: int
    is_etp: bool
    record_value: int
    complete_below: bool  # the values 1..t-1 were all used before t


class Record(NamedTuple):
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
    v < 3.3e24; from there on ``is_prime`` raises ValueError.
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


def _f3_at(n: int) -> int:
    """f_3(n) from ``_records_around(n - 1)``, without the shared list (n >= 1).

    Past the head 1, 3, 2, 5, 4, f_3(n) is the record after n - 1 when
    n - 1 is a record, and n - 1 otherwise.
    """
    if n <= 5:
        return (1, 3, 2, 5, 4)[n - 1]
    q, r = _records_around(n - 1)
    return r if q == n - 1 else n - 1


# Shared ascending record list, grown on demand.  Its tail always extends
# past any limit it was asked to cover, so "the record after x" is always
# resolvable for x <= limit.
_CACHE = array("q", [FIRST_RECORD])

# Block memo: for a record r with o = (r - 1) % _WHEEL > 0, _BLOCKS[o] holds
# what r fixes up to the first record r* past the block of r - 1: at index
# _RECORDS the records after r through r*, at index _TERMS the terms
# f_3(r + 1..r*), both less the block base r - 1 - o.  Each pattern is
# filled the first time it is asked for.
_BLOCKS: dict[int, list] = {}
_RECORDS, _TERMS = 0, 1


def _block_pattern(o: int, kind: int) -> tuple[int, int, int, int]:
    """The ``_BLOCKS[o][kind]`` pattern for offset o (0 < o < _WHEEL).

    The records come from the recurrence m -> m + spnd(m) - 1 on m = r - 1,
    stepped on offsets within the block.  The terms lag their index,
    f_3(i) = i - 1, except f_3(q + 1) = q' for consecutive records q < q'.
    A pattern is (packed, ones, size, last): the lanes as the bytes of an
    ``array('q')`` read as one int, the int with a 1 in each 8-byte lane,
    the byte count, and the offset of r*.  packed + base * ones then holds
    base + lane in every lane, since no lane overflows.
    """
    records = array("q")
    m = o
    while m < _WHEEL:
        m += _WHEEL_SPND[m] - 1
        records.append(m + 1)
    lanes = records
    if kind == _TERMS:  # lane k holds the term at index r + 1 + k
        lanes = array("q", range(o + 1, records[-1]))
        q = o + 1
        for nxt in records:
            lanes[q - o - 1] = nxt
            q = nxt
    data = lanes.tobytes()
    ones = array("q", [1]).tobytes() * len(lanes)
    return (int.from_bytes(data, sys.byteorder), int.from_bytes(ones, sys.byteorder),
            len(data), records[-1])


def _step_block(out: array, r: int, kind: int) -> int:
    """Append to out what the record r fixes up to the first record r* past
    the block of r - 1, and return r*.

    kind _RECORDS appends the records after r through r*, kind _TERMS the
    terms f_3(r + 1..r*).  One int addition per block, except at r = 1
    (mod _WHEEL), where spnd(r - 1) >= 17 depends on r - 1 itself and not
    only on its offset.
    """
    m = r - 1
    o = m % _WHEEL
    if not o:
        nxt = m + smallest_prime_not_dividing(m)
        out.append(nxt)
        if kind == _TERMS:
            out.extend(range(r + 1, nxt))
        return nxt
    entry = _BLOCKS.setdefault(o, [None, None])
    pattern = entry[kind]
    if pattern is None:
        pattern = entry[kind] = _block_pattern(o, kind)
    packed, ones, size, last = pattern
    base = m - o
    out.extend(array("q", (packed + base * ones).to_bytes(size, sys.byteorder)))
    return base + last


def cached_records(limit: int) -> array:
    """The shared record list, grown block by block until it extends beyond limit.

    Returns the live internal array; do not mutate.
    """
    cache = _CACHE
    r = cache[-1]
    while r <= limit:
        r = _step_block(cache, r, _RECORDS)
    return cache


def record_count(x: int) -> int:
    """Number of f_3 records <= x (3 = f_3(2) is not one)."""
    return bisect_right(cached_records(x), x)


def _record_array(limit: int) -> array:
    """All f_3 record values <= limit, ascending, as an ``array('q')``."""
    return _CACHE[: record_count(limit)]


def record_values(limit: int) -> list[int]:
    """All f_3 record values <= limit, ascending."""
    return _record_array(limit).tolist()


# bytes.translate table: sieve flag 1 (prime) -> 0, 0 -> 1.
_NOT = bytes([1, 0]) + bytes(254)


def _annotated(values: Sequence[int], chunk: int) -> Iterator[tuple[Sequence[int], ...]]:
    """Columns (value, turning_point, jump, is_composite) of a full ascending
    record-value list (starting at 5), in chunks of at most chunk records.

    The index of the first record is 4; each later record r follows the
    previous record q at index q + 1, so its jump is r - q - 1.
    Compositeness (1 or 0) is read from one sieve up to the last value.
    """
    if not values:
        return
    if values[0] != FIRST_RECORD:
        raise ValueError(f"annotation needs the full list from {FIRST_RECORD}, got {values[0]}")
    composite = sieve_flags(values[-1]).translate(_NOT)
    for s in range(0, len(values), chunk):
        rs = values[s : s + chunk]
        before = values[s - 1 : s - 1 + len(rs)] if s else chain((FIRST_ETP - 1,), rs[:-1])
        ts = list(map((1).__add__, before))
        yield rs, ts, list(map(sub, rs, ts)), bytes(map(composite.__getitem__, rs))


def records_from_values(values: Sequence[int]) -> list[Record]:
    """Annotate a full ascending record-value list (starting at 5)."""
    return [
        Record(r, t, j, c == 1)
        for columns in _annotated(values, len(values))
        for r, t, j, c in zip(*columns)
    ]


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
    # record_count grows the list past n + 1, so a record n - 1 has its successor in it.
    k = record_count(n + 1)
    i = k - 2 if _CACHE[k - 1] == n + 1 else k - 1  # the largest record <= n
    if _CACHE[i] == n - 1:
        return _CACHE[i + 1]
    return n - 1


def f3_terms(n: int) -> array:
    """f_3(1..n) from the records, laid out like ``SequenceBuffer.terms``:
    ``terms[i] == f_3(i)`` and slot 0 is padding (0).

    Past the head 1, 3, 2, 5, 4, the terms between consecutive records
    q < r are r, q + 1, ..., r - 1 on the indices q + 1..r.  They come a
    block of 30030 values at a time from the ``_BLOCKS`` memo, with no
    simulation and without the shared record list.  Needs n >= 2 and obeys
    the engine's term cap (GCDPERM_MAX_TERMS).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 (f(1)=1 and f(2)=a are fixed), got {n}")
    cap = max_terms_cap()
    if n > cap:
        raise LimitExceededError.terms(3, n, cap)
    terms = array("q", (0, 1, 3, 2, 5, 4))
    r = FIRST_RECORD  # the record at the last index, len(terms) - 1
    while r < n:
        r = _step_block(terms, r, _TERMS)
    del terms[n + 1 :]
    return terms
