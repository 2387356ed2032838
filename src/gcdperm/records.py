"""Turning points, essential turning points, and the record machinery of f_3.

A turning point is an index where the sequence jumps by more than one (or
index 3 when f(3) is not the smallest available value); the value there is
a record.  An essential turning point (ETP) additionally has f(t-1) = t-2
with the values 1..t-1 fully used, which pins the whole future of the
recursion: the next ETP is f(t) + 1, and between the two the sequence just
counts upward.  One scanner, ``_turning_points``, holds these predicates;
``classify``, thm1 and thm2 read it, from the first index past the state a
buffer starts from, and ``find_turning_points`` lists what it yields.

For f_3 this gives a closed enumeration of records with no sequence
generation at all: after a record r, the next record is (r-1) + p where p
is the smallest prime not dividing r-1.  The first record is 5 at index 4,
every later record r sits at index (previous record) + 1, every prime >= 5
shows up as a record, and every record is odd and congruent to 1 or 5 mod 6.

On m = r - 1 the recurrence is the walk m -> m + spnd(m) - 1 from m = 4,
spnd(m) the smallest prime not dividing m.  Inside a block [30030 j,
30030 (j + 1)), 30030 = 2*3*5*7*11*13, spnd(m) depends only on m mod 30030,
except at the block start.  The walk C through block 0 has 8,855 points
from 4 to 30028, steps from 30028 to exactly 30030, and holds p - 1 for
every prime 17 <= p < 30030.  So block j >= 1 holds 30030 j and then
30030 j + c for every c in C from spnd(30030 j) - 1 on, below P_3248, the
product of the primes up to 30029, where spnd(30030 j) first passes 30030.
``_records_around`` (read by ``is_record``, ``reconstruct_f3`` and
classification) and ``record_count`` take one divmod, one spnd and a bisect
in C, and ``record_count`` one term per prime p for the blocks whose start
has spnd p; from P_3248 on they raise ValueError.  ``cached_records``, the
one dense enumerator, returns a new ``array('q')`` of the records up to a
limit, a block at a time from one pattern, the records of block 0 from 5
on: every block j >= 1 enters C at its point spnd(30030 j) - 1, so it
holds that pattern plus 30030 j from there on.  A block stops at the
limit's lane, and block 0, the pattern itself, is sliced, not unpacked.

The block walker and the annotation work on packed lanes: ``_pack`` reads
the 8-byte lanes of an ``array('q')`` as one int, so one int addition or
subtraction acts on every lane at once, and ``_unpack`` turns the int
back.  Every value lies below 2^63 and stays non-negative, so no lane
overflows into or borrows from its neighbour.  ``_residues`` gives v mod m,
2 <= m <= 31, for every lane v: each of the 8 byte columns maps by one
table to b 256^k mod m, and the columns add with one byte per lane, where
eight terms of at most 30 cannot carry.  ``_gather`` reads a sieve at
every value, a byte each, by one ``itemgetter`` per 16,384 values: the one
read of prime flags at the records.  Annotation, ``_annotated``,
returns a chunk function: the columns of any slice of the records, so
that a writer may format its chunks in any order or process.  The
turning points are the previous records plus a 1 in each lane, the jumps
the records less the turning points, and ``is_composite`` one ``_gather``
from one sieve up to the largest record, built once before any chunk,
not a primality test per record.  The jump and compositeness of a row
come as one key byte, 2 jump + is_composite: the jump after a record q
is spnd(q - 1) - 2 <= 51 below 2^63, so 2 jump + 1 fits one byte, and
the low byte column of the jumps' lanes, doubled, and the flags add as
ints of one byte per lane without carry.

The records pin f_3 down completely: ``reconstruct_f3`` answers one index,
and ``f3_terms`` builds the whole prefix f_3(1..n) as an ``array('q')``
(8 bytes per term), with no simulation.  Between consecutive records
q < r the terms on the indices q + 1..r are r, q + 1, ..., r - 1, so the
terms of a block also follow from the point where it enters C.  One
pattern of block 0 per kind, and one block walker, ``_step_block``,
append either kind, a block per int addition.

The same identity gives f_3's rows as decimal text, with no term built.
Block j holds the 30030 indices n from 30030 j + 2 on, and from its entry
on, f_3(n) = 30030 j + f_3(n - 30030 j).  ``_row_digits`` reads them as
the lanes n 10^(w+2) + f_3(n) 10 of 2w + 2 digits of one
``decimal.Decimal``: block 0's lanes (a pattern per width) plus 30030 j
times the lane 10^(w+2) + 10 in every lane, one ``fma``, and one ``str``.
A leading 1 keeps the leading zeros.  The entry stretch, the first c =
spnd(30030 j) - 1 lanes of a block j >= 1, differs from block 0: there f_3
is 30030 j + c + 1 at 30030 j + 2 and then n - 1.  That correction depends
on c and w alone, so it is added to the pattern once per (w, c), c = 0 in
block 0.  Each lane is exact when n and f_3(n) have w digits; when one has
more, the lane carries 1 into the last digit of the lane before it, a 0
that the writer overwrites (block 0 below w = 5 keeps their low w digits).
The module imports ``decimal`` only when it first builds a width's lanes,
and computes in one exact context of its own, never the thread's.

The suites that check f_3 against its definition do not trust that walk:
``_certified_records`` proves the records against the greedy rule, by
induction on H(q): "f_3(1..q) is a permutation of 1..q and f_3(q) = q - 1".
The engine simulates f_3(1..5) = 1, 3, 2, 5, 4, which is H(3) and H(5).
For consecutive records q < r from ``cached_records``, with m = q - 1 and
d = r - m, H(q) gives H(r) when d >= 3, every prime below d divides m,
and gcd(d, m) = 1.  Each value q + 1..r - 1 is m + k with 2 <= k < d, so
it shares a prime below d with m, while r is coprime to m: f(q + 1) = r.
Then gcd(q + 1, r) = gcd(m + 2, d - 2) = 1, since d is odd (2 divides m)
and each prime factor of d - 2 is odd and below d, so divides m and not
m + 2: f(q + 2) = q + 1, and f(q + j) = q + j - 1 on up to the index r.
A step with d <= 13 names only primes that divide 30030, so it holds at
m exactly when it holds at m mod 30030.  The records 5..30031 of block 0
are proven step by step, one C-level map per condition over their packed
lanes m and d, each step with d <= 13.  A later block j starts at its
record 30030 j + 1; its first step, d = spnd(30030 j), is proven alone,
and every lane after it, through the next block's first record, is one
comparison of packed ints with block 0 plus 30030 j: each of those steps
is a step of block 0 moved by 30030 j.  Whatever does not match is
proven step by step, a chunk of up to 65,536 steps at a time, a chunk
that fails halved and retried from its first step, so a step that fails
cuts the list at the last proven record.  The proven records through r
fix f_3 on 1..r: past index 2, f_3(i) = i - 1, except that f_3(q + 1) is
the record after q.  So the suites read f_3 from the list and build no
term.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from math import gcd, prod
from operator import itemgetter, mod
from typing import Callable, Iterator, NamedTuple, Sequence

from .primes import (_WHEEL, _WHEEL_SPND, nth_prime, primes_upto, primorial, sieve_flags,
                     smallest_prime_not_dividing)
from .sequence import SequenceBuffer, check_cap, generate_prefix, short_int

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
        if buffer.last_index == t:
            buffer.extend_to(min(2 * t - base + 1, stop))
        prev = terms[t - base]
        for t in range(t + 1, min(buffer.last_index, stop) + 1):
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


# C, the walk m -> m + spnd(m) - 1 from m = 4 through block 0 and on to
# 30030, as a list (it bisects about twice as fast as an array); filled by
# _block.
_WALK: list[int] = []

# The records are exact below P_3248, the product of the primes below
# 30030; _block refuses from there on.
PRIMORIAL_CEILING = 3248


def _block(v: int) -> tuple[list[int], int, int, int]:
    """(C, 30030 j, v - 1 - 30030 j, c) for the block j of m = v - 1
    (v < P_3248): block j holds 30030 j + C[:-1] from its point c on, and
    block j >= 1 holds 30030 j too, with c = spnd(30030 j) - 1 (0 in block 0)."""
    if not _WALK:
        m, walk = 4, [4]
        while m < _WHEEL:
            m += _WHEEL_SPND[m] - 1
            walk.append(m)
        _WALK[:] = walk
    # P_3248 has 42,966 bits; it is read off the primorial table only for a value that long.
    if v.bit_length() > 42_965 and v >= primorial(PRIMORIAL_CEILING):
        raise ValueError(f"the f_3 records are exact only below P_{PRIMORIAL_CEILING}, the "
                         "product of the primes up to 30029 (about 6.9e12933)")
    j, off = divmod(v - 1, _WHEEL)
    return _WALK, v - 1 - off, off, smallest_prime_not_dividing(_WHEEL * j) - 1 if j else 0


def _records_around(v: int) -> tuple[int, int]:
    """The consecutive f_3 records q <= v < r (5 <= v < P_3248), from C."""
    if v < FIRST_RECORD:
        raise ValueError(f"records start at {FIRST_RECORD}, got {v}")
    walk, base, off, first = _block(v)
    if off < first:  # past the block start, before the walk rejoins C
        return base + 1, base + first + 1
    i = bisect_right(walk, off)
    return base + walk[i - 1] + 1, base + walk[i] + 1


def is_record(v: int) -> bool:
    """True iff v is an f_3 record, decided by ``_records_around``."""
    return v >= FIRST_RECORD and v % 6 in (1, 5) and _records_around(v)[0] == v


def reconstruct_f3(n: int) -> int:
    """f_3(n) from ``_records_around(n - 1)`` (n >= 1), without sequential generation.

    Past the head 1, 3, 2, 5, 4, f_3(n) is the record after n - 1 when
    n - 1 is a record, and n - 1 otherwise.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= 5:
        return (1, 3, 2, 5, 4)[n - 1]
    q, r = _records_around(n - 1)
    return r if q == n - 1 else n - 1


def record_count(x: int) -> int:
    """Number of f_3 records <= x (x < P_3248; 3 = f_3(2) is not one)."""
    if x < FIRST_RECORD:
        return 0
    walk, base, off, first = _block(x)
    # Block 0 holds len(walk) - 1 records, so with the start of block j:
    count = max(0, bisect_right(walk, off) - bisect_left(walk, first)) + (len(walk) if base else 0)
    # Of the full blocks b = 1..n, t = n // Q have Q | b, and spnd(30030 b)
    # is p for those where p does not divide b / Q too.
    t, k = base // _WHEEL - 1, 7  # p_7 = 17
    while t > 0:
        p = nth_prime(k)
        q = t // p
        count += (t - q) * (len(walk) - bisect_left(walk, p - 1))
        t = q
        k += 1
    return count


# The pattern of one block per kind, filled the first time it is asked
# for: at _RECORDS the records 7..30031 after the record 5, at _TERMS the
# terms f_3(6..30031).
_PATTERNS: dict[int, tuple[array, int, int]] = {}
_RECORDS, _TERMS = 0, 1
_ONE = array("q", [1])


def _pack(lanes: array) -> int:
    """The 8-byte lanes of an ``array('q')`` as one int, its bytes read in
    the native byte order.  Adding or subtracting such ints adds or
    subtracts lane by lane, as long as every lane of the result stays in
    0..2^63 - 1: then no lane carries into or borrows from the next."""
    return int.from_bytes(lanes, sys.byteorder)


def _unpack(packed: int, count: int) -> array:
    """The ``array('q')`` of count lanes that ``_pack`` maps to packed."""
    return array("q", packed.to_bytes(8 * count, sys.byteorder))


_RESIDUE_LANES = 1 << 16


def _residues(values, m: int) -> bytearray:
    """One byte v mod m per lane v >= 0 of an ``array('q')`` or its
    memoryview, for 2 <= m <= 31.

    A lane is sum_k b_k 256^k over its bytes b_k, so v mod m is
    sum_k (b_k w_k mod m) mod m with w_k = 256^k mod m.  Byte column k,
    the byte of significance k of every lane (at offset k of the lane in
    the little-endian order, 7 - k in the big-endian), maps by one
    ``translate`` to b w_k mod m, and the columns add as ints of one byte
    per lane: eight terms of at most m - 1 <= 30 stay below 256, so no
    lane carries.  One more ``translate`` reduces each sum mod m.  A column
    with w_k = 0 is not read, so m = 2 reads one.  The lanes are copied
    65,536 at a time into a result allocated once, so beside it only one
    chunk is alive.
    """
    view = memoryview(values)
    little = sys.byteorder == "little"
    columns = []
    for k in range(8):
        w = pow(256, k, m)
        if w:
            columns.append((k if little else 7 - k, bytes(b * w % m for b in range(256))))
    reduce = bytes(s % m for s in range(256))
    out = bytearray(len(view))
    for i in range(0, len(view), _RESIDUE_LANES):
        raw = bytes(view[i : i + _RESIDUE_LANES])
        n = len(raw) // 8
        total = 0
        for k, table in columns:
            total += int.from_bytes(raw[k::8].translate(table), "little")
        out[i : i + n] = total.to_bytes(n, "little").translate(reduce)
        del raw  # before the next chunk is copied
    return out


def _block_pattern(kind: int) -> tuple[array, int, int]:
    """The ``_PATTERNS[kind]`` pattern of block 0, from the record 5 on.

    The records are c + 1 for the points c of C past 4, the last 30031.
    The terms f_3(6..30031) lag their index, f_3(i) = i - 1, except
    f_3(q + 1) = q' for consecutive records q < q'.
    A pattern is (lanes, packed, ones): the lanes, and ``_pack`` of them
    and of as many ones.  packed + base * ones then holds base + lane in
    every lane.
    """
    walk = _block(FIRST_RECORD)[0]
    lanes = records = array("q", [c + 1 for c in walk[1:]])
    if kind == _TERMS:  # lane k holds f_3(6 + k)
        lanes = array("q", range(FIRST_RECORD, _WHEEL + 1))
        q = FIRST_RECORD
        for nxt in records:
            lanes[q - FIRST_RECORD] = nxt
            q = nxt
    return lanes, _pack(lanes), _pack(_ONE * len(lanes))


# The decimal lanes of f_3's rows: at the key 0 the five-digit decimals of
# n and of f_3(n) on block 0's 30030 lanes n = 2, 3, ...; at a width w,
# (context, pattern, ones) of block 0; at (w, c), the same with the pattern
# corrected for a block that enters C at c.  Filled by _row_lanes.
_LANES: dict = {}


def _row_lanes(w: int, c: int) -> tuple:
    """(context, pattern, ones) of the lanes of 2w + 2 digits of a block j
    that enters C at its point c (``_block``: 0 for block 0).

    pattern is a 1 and then block 0's 30030 lanes n 10^(w+2) + f_3(n) 10
    from n = 2 on, with the first c lanes set to block j's less 30030 j;
    ones is 10^(w+2) + 10 in every lane.  The context is exact for both,
    however long: no operation on them rounds.  The pattern is parsed from
    one text, whose digit columns are set by stride from the low w of the
    five-digit decimals of n and f_3(n); ones is built by doubling.
    """
    import decimal  # here, so that importing the package loads no decimal

    if 0 not in _LANES:
        digits = bytearray(5 * 10**5)  # the five-digit decimals of 0..99999
        for d in range(5):
            digits[4 - d :: 5] = b"".join(b"%d" % v * 10**d for v in range(10)) * 10 ** (4 - d)
        fs = digits[5 : 5 + 5 * _WHEEL]  # f_3(n) = n - 1 on the lane n - 2, except:
        walk = [0, 2, *_block(FIRST_RECORD)[0]]
        for c0, c1 in zip(walk, walk[1:]):  # f_3(q + 1) = q' for the records q = c0 + 1 < q'
            fs[5 * c0 : 5 * c0 + 5] = digits[5 * c1 + 5 : 5 * c1 + 10]
        _LANES[0] = digits[10 : 10 + 5 * _WHEEL], bytes(fs)
    ns, fs = _LANES[0]
    size = 2 * w + 2
    if w not in _LANES:
        ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                              Emin=decimal.MIN_EMIN)
        text = bytearray(b"0") * (1 + _WHEEL * size)
        text[0] = ord("1")
        for d in range(max(0, 5 - w), 5):
            text[w - 4 + d :: size] = ns[d::5]
            text[2 * w - 3 + d :: size] = fs[d::5]
        ones, lanes = decimal.Decimal(0), 0  # ones holds a 1 in each of its lanes
        for bit in bin(_WHEEL)[2:]:
            ones = ctx.add(ctx.scaleb(ones, lanes * size), ones)
            lanes *= 2
            if bit == "1":
                ones = ctx.add(ctx.scaleb(ones, size), 1)
                lanes += 1
        _LANES[w] = ctx, decimal.Decimal(text.decode("ascii")), ctx.multiply(ones, 10**(w + 2) + 10)
    ctx, pattern, ones = _LANES[w]
    # Block j from its entry: f_3 is 30030 j + c + 1 on the lane 0, and n - 1 on the lanes 1..c - 1.
    entry = 0
    for k in range(c):
        entry = entry * 10**size + ((k + 1 if k else c + 1) - int(fs[5 * k : 5 * k + 5])) * 10
    pattern = ctx.add(pattern, ctx.scaleb(decimal.Decimal(entry), (_WHEEL - c) * size))
    _LANES[w, c] = ctx, pattern, ones
    return _LANES[w, c]


def _row_digits(base: int, w: int) -> str:
    """A 1 and then the 30030 lanes n 10^(w+2) + f_3(n) 10 of 2w + 2 digits
    each from n = base + 2 on, for base = 30030 j: one ``str`` of
    ``pattern + base * ones`` (``_row_lanes``).  A lane whose n and f_3(n)
    both have w digits reads them with a 0 after each; any other lane is
    wrong, and a lane past 10^(2w+2) adds 1 to the last digit of the lane
    before it."""
    c = _block(base + 1)[3]
    ctx, pattern, ones = _LANES.get((w, c)) or _row_lanes(w, c)
    return str(ctx.fma(ones, base, pattern))


def _step_block(out: array, r: int, kind: int, top: int) -> int:
    """Append to out what the record r fixes up to the first record past
    the block of r - 1, 30030 j + 30031, and return that record.

    kind _RECORDS appends the records after r, kind _TERMS the terms
    f_3(r + 1..).  One call per block: a record r = 30030 j + 1 enters
    block j >= 1, and the record after it, 30030 j + spnd(30030 j), is a
    point of C, from which the block is the pattern plus 30030 j.  The
    pattern's lanes past the record top, or past the term at the index
    top, are left out.
    """
    walk, base, o, first = _block(r)
    if not o:
        out.append(base + first + 1)
        if kind == _TERMS:
            out.extend(range(r + 1, base + first + 1))
        o = first
    pattern = _PATTERNS.get(kind)
    if pattern is None:
        pattern = _PATTERNS[kind] = _block_pattern(kind)
    lanes, packed, ones = pattern
    if kind == _TERMS:  # lane k holds f_3(base + 6 + k)
        lane = o - FIRST_ETP
        end = max(0, top - base - FIRST_RECORD)
    else:  # lane k holds the record base + C[k + 1] + 1
        lane = bisect_left(walk, o)
        end = max(0, bisect_right(walk, top - base - 1) - 1)
    # Block 0 is the pattern itself: its lanes are sliced, not unpacked.
    out.extend(_unpack(packed + base * ones, len(lanes))[lane:end] if base else lanes[lane:end])
    return base + _WHEEL + 1


def cached_records(limit: int) -> array:
    """All f_3 records <= limit, ascending, as a new ``array('q')``, a block at a time."""
    out = array("q", [FIRST_RECORD])
    r = FIRST_RECORD
    while r <= limit:
        r = _step_block(out, r, _RECORDS, limit)
    del out[bisect_right(out, limit):]
    return out


def _between(values: Sequence[int], lo: int, hi: int) -> Sequence[int]:
    """The slice of the ascending values v with lo <= v <= hi."""
    return values[bisect_left(values, lo) : bisect_right(values, hi)]


def record_values(limit: int) -> list[int]:
    """All f_3 record values <= limit, ascending."""
    return cached_records(limit).tolist()


# bytes.translate table: sieve flag 1 (prime) -> 0, 0 -> 1.
_NOT = bytes([1, 0]) + bytes(254)
# The CLI writer's chunk, cli.WRITE_CHUNK_LINES: a records chunk is one lookup.
_GATHER_LANES = 1 << 14


def _gather(flags, values) -> bytes:
    """flags[v] for each value v, a byte each, by one ``itemgetter`` per 16,384
    values; values of at most 16,384 are not copied, and a chunk of one
    value, for which ``itemgetter`` returns no tuple, is read by index."""
    parts = []
    for i in range(0, len(values), _GATHER_LANES):
        part = values[i : i + _GATHER_LANES] if len(values) > _GATHER_LANES else values
        parts.append(bytes(itemgetter(*part)(flags)) if len(part) > 1 else bytes((flags[part[0]],)))
    return b"".join(parts)


# A record row's key is 2 jump + is_composite, one byte: the jump of a
# record is at most 51 below 2^63, and a chunk refuses a lane outside
# 0..127, which has a bit of _JUMP_MASK set.
_JUMP_MASK = (1 << 64) - 128


def _keys(jumps: int, flags: bytes) -> bytes:
    """One byte 2 j + c per lane: j the lanes, each in 0..127, of the
    ``_pack``ed jumps, c the byte of flags (0 or 1) at the same position.

    Such a jump is its lane's low byte, at offset 0 of the lane in the
    little-endian order and 7 in the big-endian, so one slice of the
    jumps' bytes reads the column.  Twice that column plus the flags, as
    ints of one byte per lane, stays below 256 in every lane, so no lane
    carries.
    """
    count = len(flags)
    low = jumps.to_bytes(8 * count, sys.byteorder)[0 if sys.byteorder == "little" else 7 :: 8]
    return (2 * int.from_bytes(low, "little") + int.from_bytes(flags, "little")).to_bytes(
        count, "little")


def _annotated(values: array) -> Callable[[int, int], tuple[Sequence[int], ...]]:
    """The chunk function of the full ascending, nonempty ``array('q')`` of
    records from 5: chunk(s, e) gives the columns (value, turning_point, key)
    of values[s:e], for 0 <= s < e <= len(values): the values and turning
    points as lists of ints, the keys as bytes, one byte per row,
    2 jump + is_composite.

    The index of the first record is 4; each later record r follows the
    previous record q at index q + 1, so its jump is r - q - 1 >= 1.  A
    chunk takes two int operations on ``_pack``ed lanes: the turning
    points are packed(previous records) plus ones, the jumps are
    packed(records) less the turning points.  Every value lies below 2^63
    and every jump is at least 1, so no lane overflows or borrows.  The
    array is read in slices, not copied.  Compositeness (1 or 0) is a
    ``_gather`` from one sieve up to the last value, built here, once.

    The keys fit one byte: r = (q - 1) + spnd(q - 1), so the jump is
    spnd(q - 1) - 2, and spnd(m) <= 53 for m < 2^63, since the primes up
    to 53 multiply past 2^63.  So 2 jump + 1 <= 103 < 256, and ``_keys``
    adds the columns of 2 jump and of the flags without carry.  A list
    that is not the records, with a jump below 0 or above 127, raises
    ValueError: one ``&`` of the packed jumps with ``_JUMP_MASK`` in every
    lane, before the gather, finds it; a negative int, whose top lane
    borrowed, has every high bit set.  The packed ones and jump mask are
    built once per chunk length.
    """
    if values[0] != FIRST_RECORD:
        raise ValueError(f"annotation needs the full list from {FIRST_RECORD}, got {values[0]}")
    composite = sieve_flags(values[-1]).translate(_NOT)
    lanes: dict[int, tuple[int, int]] = {}  # chunk length -> packed (ones, jump mask)

    def chunk(s: int, e: int) -> tuple[Sequence[int], ...]:
        rs = values[s:e]
        n = len(rs)
        before = values[s - 1 : e - 1] if s else array("q", [FIRST_ETP - 1]) + rs[:-1]
        packed = lanes.get(n)
        if packed is None:
            ones = _pack(_ONE * n)
            packed = lanes[n] = ones, ones * _JUMP_MASK
        ones, mask = packed
        ts = _pack(before) + ones
        jumps = _pack(rs) - ts
        if jumps & mask:
            raise ValueError("not a list of f_3 records: a jump below 0 or above 127")
        # Lists, not arrays: a writer interleaves a list's ints by one copy,
        # and the values' ints serve the gather as well.
        rs = rs.tolist()
        return rs, _unpack(ts, n).tolist(), _keys(jumps, _gather(composite, rs))

    return chunk


def records_from_values(values: Sequence[int]) -> list[Record]:
    """Annotate a full ascending record-value list (starting at 5); a list
    with a jump below 0 or above 127 is not the records and raises
    ValueError."""
    values = array("q", values)
    if not values:
        return []
    rows = zip(*_annotated(values)(0, len(values)))
    return [Record(r, t, k >> 1, k & 1 == 1) for r, t, k in rows]


def record_stream_upto(limit: int) -> list[Record]:
    """All f_3 records <= limit with indices, jumps, and compositeness."""
    if limit < FIRST_RECORD:
        raise ValueError(f"limit must be >= {FIRST_RECORD}, got {limit}")
    return records_from_values(cached_records(limit))


def f3_terms(n: int) -> array:
    """f_3(1..n) from the records, laid out like ``SequenceBuffer.terms``:
    ``terms[i] == f_3(i)`` and slot 0 is padding (0).

    Past the head 1, 3, 2, 5, 4, the terms between consecutive records
    q < r are r, q + 1, ..., r - 1 on the indices q + 1..r.  They come a
    block of 30030 values at a time from one block pattern, with no
    simulation and no record list.  Needs n >= 2 and obeys
    the engine's term cap (GCDPERM_MAX_TERMS).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 (f(1)=1 and f(2)=a are fixed), got {n}")
    check_cap(n, f"{short_int(n)} terms of f_3")
    terms = array("q", (0, 1, 3, 2, 5, 4))
    r = FIRST_RECORD  # the record at the last index, len(terms) - 1
    while r < n:
        r = _step_block(terms, r, _TERMS, n)
    del terms[n + 1 :]
    return terms


# The primes up to 53 multiply past 2^63, so no lane m has every prime
# below a step d > 53 as a divisor.  _BELOW[d] is the product of the
# primes below d, for d <= 53.
_MAX_STEP = 53
_SMALL_PRIMES = primes_upto(_MAX_STEP)
_BELOW = [prod(p for p in _SMALL_PRIMES if p < d) for d in range(_MAX_STEP + 1)]
# A step d <= 13 holds at m exactly when it holds at m mod 30030: every
# prime its conditions name is at most 13, so divides 30030.
_WHEEL_STEP = 13


def _steps_hold(records: array, below: list[int]) -> bool:
    """True iff each step q < r of the two or more records has
    3 <= d < len(below), every prime below d dividing m (below[d] is their
    product), and gcd(d, m) = 1, for m = q - 1 and d = r - m.  A record
    below the one before it fails: its lane of d borrows, to a negative d
    or, past the top lane, OverflowError."""
    steps = len(records) - 1
    try:
        ms = _unpack(_pack(records[:-1]) - _pack(_ONE * steps), steps)
        ds = _unpack(_pack(records[1:]) - _pack(ms), steps)
    except OverflowError:
        return False
    return (3 <= min(ds) and max(ds) < len(below) and max(map(gcd, ds, ms)) == 1
            and not any(map(mod, ms, map(below.__getitem__, ds))))


def _certified_records(n: int) -> array:
    """The f_3 records from 3 = f_3(2) through the first one past n, as an
    ``array('q')``, proven against the greedy rule; a step that fails cuts
    the list at the last proven record.

    The engine simulates the base f_3(1..5), whose records 3 and 5 = f_3(4)
    start the list.  The later records come from ``cached_records`` and
    pass the step of the module docstring: the records 5..30031 of block 0
    by one ``_steps_hold`` with d <= 13; each later block j, from its
    record 30030 j + 1, by one ``_steps_hold`` of its first step and one
    comparison of ``_pack``ed ints of its other lanes with block 0 plus
    30030 j; and from the first block that does not match on, by one
    ``_steps_hold`` per chunk of up to 65,536 steps, a chunk that fails
    halved and retried from its first step.  On the indices
    3..min(n, last record), f_3(i) = i - 1 except that f_3(q + 1) is the
    record after q.  Obeys the engine's term cap (GCDPERM_MAX_TERMS).
    """
    check_cap(n, f"{short_int(n)} terms of f_3")
    proven = array("q", generate_prefix(3, FIRST_RECORD).terms[2::2])
    # The record after q <= n is q - 1 + spnd(q - 1) < n + _MAX_STEP.
    records = cached_records(n + _MAX_STEP)
    if records[:1] != proven[1:]:  # a source that does not start at 5 proves nothing
        records = proven[1:]
    steps, done, size = len(records) - 1, 0, 1 << 16
    block0 = records[: bisect_right(records, _WHEEL + 1)]
    if block0[-1] == _WHEEL + 1 and _steps_hold(block0, _BELOW[: _WHEEL_STEP + 1]):
        done, base = len(block0) - 1, _WHEEL
        # records[done] is 30030 j + 1 for the block j of base = 30030 j.
        while done < steps and _steps_hold(records[done : done + 2], _BELOW):
            k = bisect_left(block0, records[done + 1] - base)
            count = min(len(block0) - k, steps - done)
            # No lane of block 0 plus 30030 j < 2^63 + 30031 carries, so the
            # ints are equal exactly when every lane is.
            if _pack(records[done + 1 : done + 1 + count]) != (
                    _pack(block0[k : k + count]) + base * _pack(_ONE * count)):
                break
            done += count
            base += _WHEEL
    while done < steps and size:
        end = min(done + size, steps)
        if _steps_hold(records[done : end + 1], _BELOW):
            done = end
        else:
            size = (end - done) // 2
    # Cut the source in place and prepend 3, so no second record-sized copy is made.
    del records[done + 1 :]
    records[:0] = proven[:1]
    del records[bisect_right(records, n) + 1 :]
    return records
