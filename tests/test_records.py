import random
import tracemalloc
from array import array
from bisect import bisect_right
from math import prod

import pytest

from gcdperm import (
    FIRST_RECORD,
    LimitExceededError,
    f3_terms,
    find_turning_points,
    generate_prefix,
    is_record,
    next_record,
    reconstruct_f3,
    record_stream_upto,
    record_values,
)
from gcdperm import records
from gcdperm.records import (_GATHER_LANES, _RECORDS, _TERMS, _WHEEL, _annotated, _between,
                             _block, _gather, _keys, _pack, _records_around, _residues,
                             _step_block, _unpack, record_count, records_from_values)
from gcdperm.primes import is_prime, primes_upto, primorial, smallest_prime_not_dividing

RECORDS_7_TO_211 = [
    7, 11, 13, 17, 19, 23, 25, 29, 31,
    37, 41, 43, 47, 49, 53, 55, 59, 61,
    67, 71, 73, 77, 79, 83, 85, 89, 91,
    97, 101, 103, 107, 109, 113, 115, 119, 121,
    127, 131, 133, 137, 139, 143, 145, 149, 151,
    157, 161, 163, 167, 169, 173, 175, 179, 181,
    187, 191, 193, 197, 199, 203, 205, 209, 211,
]

MULTIPLES_OF_5_TO_500 = [25, 55, 85, 115, 145, 175, 205, 235, 265, 295, 325, 355, 385,
                         415, 445, 475]
MULTIPLES_OF_7_TO_470 = [49, 77, 91, 119, 133, 161, 175, 203, 259, 287, 301, 329, 343,
                         371, 385, 413, 469]
MULTIPLES_OF_11_TO_600 = [55, 77, 121, 143, 187, 209, 253, 319, 341, 385, 407, 451,
                          473, 517, 539, 583]


def test_turning_points_f3():
    buf = generate_prefix(3, 24)
    tps = find_turning_points(buf)
    assert [tp.t for tp in tps] == [4, 6, 8, 12, 14, 18, 20, 24]
    assert [tp.record_value for tp in tps] == [5, 7, 11, 13, 17, 19, 23, 25]
    assert all(tp.is_etp for tp in tps)


def test_turning_points_f4():
    tps = find_turning_points(generate_prefix(4, 8))
    assert [(tp.t, tp.record_value) for tp in tps] == [(3, 3), (5, 5)]
    assert not any(tp.is_etp for tp in tps)  # t=3 fails t > a; t=5 has f(t) = t


def test_turning_points_f2_empty():
    assert find_turning_points(generate_prefix(2, 100)) == []


def test_turning_points_f36():
    tps = find_turning_points(generate_prefix(36, 38))
    assert tps[0].t == 3 and tps[0].record_value == 5  # f(3)=5 skips 2
    assert not any(tp.is_etp for tp in tps)  # settles to the identity instead


def test_turning_points_match_direct_definition():
    # Independent re-derivation of the defining jump condition.
    for a in (3, 7, 36, 216):
        buf = generate_prefix(a, 500)
        terms = buf.terms
        expected = [t for t in range(4, 501) if terms[t] - terms[t - 1] > 1]
        smallest_free = 2 if a != 2 else 3
        if terms[3] != smallest_free:
            expected.insert(0, 3)
        assert [tp.t for tp in find_turning_points(buf)] == expected


def test_turning_point_flags_match_set_definition():
    for a in (3, 7, 9, 36, 96, 216, 995):
        buf = generate_prefix(a, 1100)
        terms = buf.terms
        for tp in find_turning_points(buf):
            t = tp.t
            assert tp.record_value == terms[t]
            assert tp.complete_below == (set(terms[1:t]) == set(range(1, t))), (a, t)
            assert tp.is_etp == (tp.complete_below and t > a and terms[t] != t
                                 and terms[t - 1] == t - 2), (a, t)


def test_next_record_examples():
    assert next_record(23) == 25
    assert next_record(7) == 11
    assert next_record(25) == 29
    assert next_record(5) == 7
    with pytest.raises(ValueError):
        next_record(4)


def test_record_values_through_31():
    assert record_values(31) == [5, 7, 11, 13, 17, 19, 23, 25, 29, 31]
    assert record_values(4) == []


def test_records_match_simulated_turning_points():
    # The recurrence-driven list must equal the records seen by simulation.
    buf = generate_prefix(3, 10_001)
    simulated = [tp.record_value for tp in find_turning_points(buf)]
    assert record_values(10_000) == [r for r in simulated if r <= 10_000]


def test_record_table_7_to_211():
    values = [r for r in record_values(211) if r >= 7]
    assert values == RECORDS_7_TO_211
    assert len(values) == 63


def test_composite_records_below_100():
    recs = record_stream_upto(100)
    composites = [(r.value, r.jump) for r in recs if r.is_composite]
    assert composites == [(25, 1), (49, 1), (55, 1), (77, 3), (85, 1), (91, 1)]


def test_record_annotations():
    recs = record_stream_upto(31)
    assert [(r.value, r.turning_point) for r in recs[:4]] == [(5, 4), (7, 6), (11, 8), (13, 12)]
    by_value = {r.value: r for r in recs}
    assert by_value[25].turning_point == 24 and by_value[25].jump == 1
    assert by_value[25].is_composite and not by_value[23].is_composite


def test_composite_flags_match_miller_rabin():
    # The annotation reads compositeness from a sieve; Miller-Rabin is the oracle.
    recs = record_stream_upto(100_000)
    assert recs[-1].value > 99_000
    assert [r.value for r in recs if r.is_composite != (not is_prime(r.value))] == []


def _records_by_rows(values):
    """(value, turning point, jump, is_composite) one record at a time."""
    rows, t = [], 4
    for r in values:
        rows.append((r, t, r - t, not is_prime(r)))
        t = r + 1
    return rows


def test_records_from_values_on_a_list_matches_a_row_by_row_oracle():
    values = record_values(200_000)
    assert isinstance(values, list)
    assert [tuple(r) for r in records_from_values(values)] == _records_by_rows(values)
    assert [tuple(r) for r in records_from_values([5])] == [(5, 4, 1, False)]
    assert records_from_values([]) == []


@pytest.mark.parametrize("chunk", [1, 2, 7, 1000])
def test_annotated_chunks_match_a_row_by_row_oracle(chunk):
    # Chunk size 1 takes the one-value padding of the compositeness gather.
    values = records.cached_records(30_100)
    annotate = _annotated(values)
    chunks = [annotate(s, min(s + chunk, len(values))) for s in range(0, len(values), chunk)]
    assert all(type(keys) is bytes for _, _, keys in chunks)
    # Each key byte is 2 jump + is_composite.
    got = [(r, t, k >> 1, k & 1) for columns in chunks for r, t, k in zip(*columns)]
    want = [(r, t, j, int(c)) for r, t, j, c in _records_by_rows(values)]
    assert got == want
    sizes = [len(columns[0]) for columns in chunks]
    assert sum(sizes) == len(values) and set(sizes[:-1]) <= {chunk}


def test_keys_read_the_low_byte_of_big_endian_lanes(monkeypatch):
    # Every jump a key can hold, past a few bytes of the flags.
    jumps = array("q", [*range(128), *range(127, -1, -1)] * 40)
    flags = bytes(random.Random(1).randrange(2) for _ in jumps)
    want = bytes(2 * j + c for j, c in zip(jumps, flags))
    assert _keys(_pack(jumps), flags) == want
    swapped = array("q", jumps)
    swapped.byteswap()  # the bytes of each lane as a big-endian host holds them
    monkeypatch.setattr(records.sys, "byteorder", "big")
    assert _keys(_pack(swapped), flags) == want


@pytest.mark.parametrize("values", [[5, 1000], [5, 1000, 1001], [5, 135], [5, 7, 6],
                                    [5, 4, 9], [5, 7, 7]])
def test_records_from_values_refuses_a_list_that_is_not_the_records(values):
    # 1000 follows 5 by a jump of 994, and 135 by one of 129; 6 and 4 fall
    # below the record before them, and the second 7 by a jump of -1: none
    # fits a key byte.  So the top lane, a middle lane, a lane past the
    # low byte and a borrow are each refused.
    with pytest.raises(ValueError, match="not a list of f_3 records"):
        records_from_values(values)


def test_packed_lanes_round_trip_without_carry():
    lanes = array("q", [0, 1, 2**63 - 2, 5, 2**62])
    ones = _pack(array("q", [1]) * len(lanes))
    assert _unpack(_pack(lanes), len(lanes)) == lanes
    assert list(_unpack(_pack(lanes) + ones, len(lanes))) == [x + 1 for x in lanes]
    assert list(_unpack(_pack(lanes) + ones - ones, len(lanes))) == list(lanes)


# Lane counts around the 65,536-lane chunk of _residues, and past two chunks.
RESIDUE_LENGTHS = [0, 1, 65_535, 65_536, 65_537, 140_000]


@pytest.mark.parametrize("top", [2**8, 2**31, 2**63 - 1])
def test_residues_match_the_lanewise_mod(top):
    rng = random.Random(top)
    values = array("q", [0, top - 1, *(rng.randrange(top) for _ in range(140_001))])
    view = memoryview(values)
    for m in range(2, 32):
        want = bytes(v % m for v in values)
        for n in RESIDUE_LENGTHS:
            assert _residues(values[:n], m) == want[:n], (m, n)
            # A view that starts at an odd lane, so no chunk starts at lane 0.
            assert _residues(view[1 : 1 + n], m) == want[1 : 1 + n], (m, n)
        assert _residues(view[3:], m) == want[3:], m


def test_residues_read_the_columns_of_big_endian_lanes(monkeypatch):
    values = array("q", [0, 1, 255, 256, 2**31 + 7, 2**63 - 1, *range(10**12, 10**12 + 70_000, 7)])
    swapped = array("q", values)
    swapped.byteswap()  # the bytes of each lane as a big-endian host holds them
    want = {m: _residues(values, m) for m in range(2, 32)}
    monkeypatch.setattr(records.sys, "byteorder", "big")
    for m in range(2, 32):
        assert _residues(swapped, m) == want[m] == bytes(v % m for v in values), m


def test_residues_copy_one_chunk_of_lanes_at_a_time():
    # A copy of the whole slice would add 8 bytes a lane; one chunk of
    # 65,536 lanes and its columns stay under 1 MiB, whatever the length.
    values = array("q", range(3, 3 + 2 * 10**6, 2))
    view = memoryview(values)[1:]
    tracemalloc.start()
    try:
        got = _residues(view, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 10**6 - 1 and set(got) == {0, 1, 2}
    assert peak <= len(got) + 2**20


def test_block_start_spnd_matches_the_search():
    js = list(range(1, 2_001))
    js += [17 * k for k in range(1, 400)] + [17 * 19 * k for k in range(1, 200)]
    js += [17 * 19 * 23 * k for k in range(1, 100)]
    js += [17 * 19 * 23 * 29 * 31 * 37, 10**30 * 17 * 19 * 23]
    # Block j >= 1 enters the walk at its point spnd(30030 j) - 1.
    def start_spnd(j):
        return _block(_WHEEL * j + 1)[3] + 1

    bad = [j for j in js if start_spnd(j) != smallest_prime_not_dividing(_WHEEL * j)]
    assert bad == []
    assert [start_spnd(j) for j in (1, 17, 17 * 19, 17 * 19 * 23)] == [17, 19, 23, 29]


def test_record_jumps_match_inverse(f3_million):
    # jump = value - index of the value in the sequence itself
    terms = f3_million.terms
    for rec in record_stream_upto(3000):
        assert terms[rec.turning_point] == rec.value
        assert rec.jump == rec.value - rec.turning_point


def test_reconstruct_examples():
    assert reconstruct_f3(8) == 11
    assert reconstruct_f3(9) == 8
    assert reconstruct_f3(54) == 55
    assert [reconstruct_f3(n) for n in range(1, 5)] == [1, 3, 2, 5]


WHEEL = 30_030  # 2*3*5*7*11*13: the block of the record walk


def _plain_walk(limit):
    """Records from 5 by one ``next_record`` call each, through the first one past limit."""
    walk = [FIRST_RECORD]
    while walk[-1] <= limit:
        walk.append(next_record(walk[-1]))
    return walk


@pytest.fixture(scope="module")
def walk_1e7():
    return _plain_walk(10**7)


def test_block_stepper_matches_the_plain_walk(monkeypatch, walk_1e7):
    # One records pattern answers every block; only a record r = 1 (mod 30030)
    # needs smallest_prime_not_dividing.  The plain walk is the oracle.
    monkeypatch.setattr(records, "_PATTERNS", {})
    limit = 10**7
    walk = walk_1e7
    assert record_values(limit) == walk[:-1]
    fallbacks = [r for r in walk if r % WHEEL == 1 and r < limit]
    assert fallbacks == list(range(WHEEL + 1, limit, WHEEL)) and len(fallbacks) == 333
    assert sorted(records._PATTERNS) == [_RECORDS]  # no terms pattern, one per kind


def test_block_stepper_resumes_from_any_record():
    walk = _plain_walk(4 * WHEEL)
    for end in (WHEEL + 1, max(r for r in walk if r < 2 * WHEEL)):
        out = array("q", [r for r in walk if r <= end])
        r = end
        while r <= 4 * WHEEL:
            r = _step_block(out, r, _RECORDS, 4 * WHEEL + 1)
        assert out.tolist() == walk[: len(out)] and out[-1] > 4 * WHEEL


def test_cached_records_match_the_plain_walk_at_every_limit_into_block_1():
    # A limit inside block 0 slices the lanes it needs from the pattern; the
    # limits run over every value of block 0 and past the record 30031.
    walk = array("q", _plain_walk(30_100))
    for limit in range(FIRST_RECORD, 30_101):
        assert records.cached_records(limit) == walk[: bisect_right(walk, limit)], limit


def test_records_and_terms_inside_block_0_unpack_nothing(monkeypatch):
    def refuse(packed, count):
        raise AssertionError(f"unpacked {count} lanes")

    want = f3_terms(WHEEL + 1)
    monkeypatch.setattr(records, "_unpack", refuse)
    assert records.cached_records(WHEEL).tolist() == _plain_walk(WHEEL)[:-1]
    for n in (6, 7, 100, WHEEL + 1):
        assert f3_terms(n) == want[: n + 1]


@pytest.mark.parametrize("p", [17, 53])
def test_block_stepper_leaves_out_the_lanes_past_top(p):
    # Past the entry record 30030 j + spnd(30030 j), which a block appends
    # whatever top is, a block stops at the last record <= top.
    base = WHEEL * prod(q for q in primes_upto(p - 1) if q >= 17)
    walk = [base + 1]
    while walk[-1] < base + WHEEL + 1:
        walk.append(next_record(walk[-1]))
    for top in (base + 1, walk[1], walk[1] + 1, walk[5] - 1, walk[5], walk[-2], walk[-1] - 1):
        out = array("q")
        assert _step_block(out, base + 1, _RECORDS, top) == walk[-1]
        assert out.tolist() == walk[1 : max(2, bisect_right(walk, top))], top


@pytest.mark.parametrize("p", [p for p in primes_upto(53) if p >= 17])
def test_block_stepper_enters_far_blocks(p):
    # Below 2^63 spnd(30030 j) runs from 17 to 53; the least j with
    # spnd(30030 j) = p is the product of the primes from 17 below p.
    j = prod(q for q in primes_upto(p - 1) if q >= 17)
    base = WHEEL * j
    assert smallest_prime_not_dividing(base) == p and base + WHEEL + 1 < 2**63
    end = base + WHEEL + 1
    walk = [base + 1]
    while walk[-1] < end:
        walk.append(next_record(walk[-1]))
    for kind in (_RECORDS, _TERMS):
        out = array("q")
        r = base + 1
        while r < end:
            r = _step_block(out, r, kind, end)
        assert r == end
        if kind == _RECORDS:
            assert out.tolist() == walk[1:], p
        else:
            assert out.tolist() == [reconstruct_f3(i) for i in range(base + 2, end + 1)], p


def test_reconstruct_reads_only_the_shared_record_list():
    # No caller-supplied record list can stand in for the records.
    with pytest.raises(TypeError):
        reconstruct_f3(8, [5, 7, 9, 13])


def test_reconstruct_matches_simulation_sampled():
    buf = generate_prefix(3, 30_000)
    terms = buf.terms
    recs = record_values(30_100)
    rng = random.Random(11)
    sample = rng.sample(range(1, 30_001), 500)
    sample += [t for r in recs if r < 29_000 for t in (r, r + 1, r + 2)]
    for n in sample:
        assert reconstruct_f3(n) == terms[n]


def test_record_parity_and_form():
    recs = record_stream_upto(100_000)
    assert all(r.value % 2 == 1 for r in recs)
    assert all(r.value % 6 in (1, 5) for r in recs)
    assert all(r.turning_point % 2 == 0 for r in recs)


def test_every_f3_turning_point_is_an_etp():
    # Breaks only happen at block boundaries, so none sits between two ETPs.
    buf = generate_prefix(3, 10_000)
    tps = find_turning_points(buf)
    assert all(tp.is_etp for tp in tps)
    assert all(nxt.t == cur.record_value + 1 for cur, nxt in zip(tps, tps[1:]))


def test_prime_completeness_to_1e5():
    recs = set(record_values(100_000))
    assert all(p in recs for p in primes_upto(100_000) if p >= 5)


def test_is_record_matches_the_record_list():
    assert [v for v in range(-1, 100_001) if is_record(v)] == record_values(100_000)
    # Near 1e7, against a walk of the recurrence from the first record that
    # stores only the window (the full list would hold about 3e6 records).
    lo, hi = 10**7 - 20_000, 10**7
    window = []
    r = FIRST_RECORD
    while r <= hi:
        if r >= lo:
            window.append(r)
        r = next_record(r)
    assert [v for v in range(lo, hi + 1) if is_record(v)] == window


def test_records_around_brackets_v_with_consecutive_records():
    recs = record_values(100_100)
    for v in range(5, 100_001, 7):
        i = bisect_right(recs, v)
        assert _records_around(v) == (recs[i - 1], recs[i]), v
    with pytest.raises(ValueError):
        _records_around(4)


def test_between_keeps_both_ends():
    values = array("q", [5, 7, 11, 13, 17, 19])
    assert _between(values, 7, 17).tolist() == [7, 11, 13, 17]  # values at each end
    assert _between(values, 8, 16).tolist() == [11, 13]  # one past each end
    assert _between(values, 6, 18).tolist() == [7, 11, 13, 17]  # one before each end
    assert _between(values, 5, 19) == values
    assert _between(values, 20, 30).tolist() == _between(values, 8, 10).tolist() == []


def test_block_zero_walk_holds_every_prime_from_17():
    # C: the walk m -> m + spnd(m) - 1 on m = r - 1 from 4 through block 0 to 30030.
    walk = records._block(FIRST_RECORD)[0]
    assert len(walk) == 8855 + 1 and walk[:5] == [4, 6, 10, 12, 16]
    assert walk[-2:] == [WHEEL - 2, WHEEL]  # 30028 steps to exactly 30030
    assert walk == [r - 1 for r in _plain_walk(WHEEL)]
    assert set(walk) >= {p - 1 for p in primes_upto(WHEEL) if p >= 17}


def test_point_queries_and_counts_match_the_plain_walk(walk_1e7):
    walk = walk_1e7
    values = [*range(1, 200_001), *(k * WHEEL + d for k in range(1, 333) for d in range(-3, 4))]
    for v in values:
        i = bisect_right(walk, v)
        assert record_count(v) == i, v
        if v >= FIRST_RECORD:
            assert _records_around(v) == (walk[i - 1], walk[i]), v


def _records_around_by_primes(v):
    """The records q <= v < r by Cor 1: every prime >= 5 is a record, so step
    down over the values 6k +- 1 to the largest prime <= v, then follow
    ``next_record`` past v (exact while ``is_prime`` is, v < 3.3e24)."""
    q = v - (1, 0, 1, 2, 3, 0)[v % 6]  # the largest 6k +- 1 <= v
    while not is_prime(q):
        q -= 2 if q % 6 == 1 else 4
    r = next_record(q)
    while r <= v:
        q, r = r, next_record(r)
    return q, r


def test_far_point_queries_match_the_walk_from_the_prime_below():
    rng = random.Random(18)
    values = [rng.randrange(5, 10 ** rng.randint(2, 22)) for _ in range(2000)]
    values += [k * primorial(n) + d for n in range(7, 19) for k in (1, 2, 3, 17)
               for d in (-2, -1, 0, 1, 2)]
    assert [_records_around(v) for v in values] == [_records_around_by_primes(v) for v in values]


def test_record_count_far_out():
    assert record_count(10**40) == 2947698237257608450096420380653878597023


def test_records_end_below_p_3248():
    # The closed form holds below the product of the primes up to 30029.
    bound = primorial(3248)
    # Only a value past 42,965 bits is compared with the bound.
    assert bound.bit_length() == 42_966 and (2 * primorial(3247) + 1).bit_length() == 42_952
    assert is_record(bound - 1) and record_count(bound - 1) > 0
    for query in (is_record, record_count):
        with pytest.raises(ValueError, match="only below P_3248") as caught:
            query(bound + 1)
        assert str(caught.value) == ("the f_3 records are exact only below P_3248, the product "
                                     "of the primes up to 30029 (about 6.9e12933)")


@pytest.mark.parametrize("count", [0, 1, _GATHER_LANES, _GATHER_LANES + 1])
def test_gather_reads_one_flag_per_value(count):
    # The annotation passes a list; cor1 a memoryview slice of an array('q').
    flags = bytes(random.Random(count).choices(range(256), k=5_000))
    values = random.Random(count + 1).choices(range(len(flags)), k=count)
    view = memoryview(array("q", [0, *values]))[1:]
    assert _gather(flags, values) == _gather(flags, view) == bytes(flags[v] for v in values)
    assert type(_gather(flags, values)) is bytes


def test_sparse_f3_matches_the_prefix():
    terms = f3_terms(10_000)
    assert [reconstruct_f3(i) for i in range(1, 10_001)] == terms[1:].tolist()
    # Past 30030 * 34 = 1,021,020 too, where a record r = 1 (mod 30030) sits.
    span = range(1_021_000, 1_021_100)
    terms = f3_terms(span[-1])
    assert [reconstruct_f3(i) for i in span] == [terms[i] for i in span]


def test_prime_multiple_records():
    # The composite records divisible by p, read off the record list.
    recs = record_values(600)
    for p, limit, want in ((5, 500, MULTIPLES_OF_5_TO_500), (7, 470, MULTIPLES_OF_7_TO_470),
                           (11, 600, MULTIPLES_OF_11_TO_600)):
        assert [r for r in recs if r <= limit and r % p == 0 and r != p] == want


def test_twin_records_equal_jump_one_records():
    # Consecutive records two apart are exactly the records with jump 1.
    # The first record 5 also has jump 1, but its predecessor 3 = f(2) is
    # not an enumerated record, so the equivalence starts at the second.
    recs = record_values(10_000)
    pairs = [(lo, hi) for lo, hi in zip(recs, recs[1:]) if hi - lo == 2]
    assert pairs[:5] == [(5, 7), (11, 13), (17, 19), (23, 25), (29, 31)]
    assert (53, 55) in pairs
    from_jumps = [
        (r.value - 2, r.value)
        for r in record_stream_upto(10_000)
        if r.jump == 1 and r.value > 5
    ]
    assert pairs == from_jumps


def test_f3_terms_equals_simulation():
    for n in range(2, 301):
        assert list(f3_terms(n)) == generate_prefix(3, n).terms, n
    n = 200_000
    assert list(f3_terms(n)) == generate_prefix(3, n).terms


def test_f3_terms_equals_naive_generator(naive_prefix):
    naive = naive_prefix(3, 20_000)
    for n in (2, 3, 4, 5, 6, 7, 1000, 20_000):
        assert list(f3_terms(n)) == naive[: n + 1], n


def test_f3_terms_layout_and_input_checks():
    terms = f3_terms(12)
    assert terms.typecode == "q" and terms.itemsize == 8
    assert list(terms) == [0, 1, 3, 2, 5, 4, 7, 6, 11, 8, 9, 10, 13]
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            f3_terms(n)


def test_f3_terms_obeys_term_cap(monkeypatch):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "40")
    with pytest.raises(LimitExceededError, match="cap is 40"):
        f3_terms(41)
    assert len(f3_terms(40)) == 41
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("GCDPERM_MAX_TERMS", bad)
        with pytest.raises(LimitExceededError, match="GCDPERM_MAX_TERMS"):
            f3_terms(10)


def _f3_by_rows(n):
    """f_3(0..n) one index at a time from ``record_values``: the head 1, 3, 2, 5,
    then f_3(i) is the record after i - 1 when i - 1 is a record, else i - 1."""
    recs = record_values(2 * n + 10)  # the record after each record <= n - 1
    after = dict(zip(recs, recs[1:]))
    return [0, 1, 3, 2, 5][: n + 1] + [after.get(i - 1, i - 1) for i in range(5, n + 1)]


def test_block_built_terms_match_a_row_by_row_oracle(monkeypatch):
    # A block of terms ends at the first record past a multiple of 30030;
    # the first records r = 1 (mod 30030) take the smallest_prime_not_dividing
    # path, whose stretch r + 1..r' runs up to the record r' after r.
    monkeypatch.setattr(records, "_PATTERNS", {})
    edges = [k * WHEEL + d for k in (1, 2, 3, 34) for d in (-1, 0, 1, 2)]
    fallbacks = [r for r in range(WHEEL + 1, 10**7, WHEEL) if is_record(r)][:3]
    assert fallbacks == [WHEEL + 1, 2 * WHEEL + 1, 3 * WHEEL + 1]
    around = [n for r in fallbacks for s in (r, next_record(r)) for n in (s - 1, s, s + 1)]
    for n in [*range(2, 13), *edges, *around]:
        assert list(f3_terms(n)) == _f3_by_rows(n), n


def test_block_built_terms_match_simulation_at_a_million(f3_million):
    terms = f3_terms(10**6)
    assert list(terms) == _f3_by_rows(10**6)
    assert list(terms) == f3_million.terms


def test_block_built_terms_from_a_cold_and_a_warm_memo(monkeypatch):
    # The terms pattern fills lazily beside the records pattern of one
    # table; a table warmed by either kind gives the same terms as an empty one.
    n = 5 * WHEEL + 7
    monkeypatch.setattr(records, "_PATTERNS", {})
    cold = f3_terms(n)
    assert sorted(records._PATTERNS) == [_TERMS]
    assert f3_terms(n) == cold

    monkeypatch.setattr(records, "_PATTERNS", {})
    record_values(n)
    assert sorted(records._PATTERNS) == [_RECORDS]
    assert f3_terms(n) == cold
    assert sorted(records._PATTERNS) == [_RECORDS, _TERMS]


@pytest.mark.parametrize("call,message", [
    (lambda: reconstruct_f3(0), "need n >= 1, got 0"),
    (lambda: find_turning_points(generate_prefix(3, 2)), "need at least 3 terms, have 2"),
    (lambda: record_stream_upto(4), "limit must be >= 5, got 4"),
    (lambda: _annotated(array("q", [7])), "annotation needs the full list from 5, got 7"),
], ids=["reconstruct_f3", "find_turning_points", "record_stream_upto", "_annotated"])
def test_input_guards_name_the_bad_input(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
