import math
import random
from bisect import bisect_right

import pytest

from gcdperm import (
    FIRST_RECORD,
    LimitExceededError,
    extend_records,
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
from gcdperm.records import _records_around
from gcdperm.primes import is_prime, primes_upto

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


def test_record_jumps_match_inverse(f3_million):
    # jump = value - index of the value in the sequence itself
    terms = f3_million.terms
    for rec in record_stream_upto(3000):
        assert terms[rec.turning_point] == rec.value
        assert rec.jump == rec.value - rec.turning_point


def test_extend_records_from_a_seed_record():
    chain = [FIRST_RECORD]
    assert extend_records(chain, 31) is chain
    assert chain == [5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 37]  # one past the limit
    extend_records(chain, 36)
    assert len(chain) == 11  # already past 36: untouched

    # The recurrence is local: a chain seeded at a later record continues
    # exactly like the full enumeration, without replaying the start.
    seeded = extend_records([31], 41)
    assert seeded == [31, 37, 41, 43]
    full = extend_records([FIRST_RECORD], 10_000)
    tail = extend_records(full[100:101], 10_000)
    assert tail == full[100:]
    assert full[:-1] == record_values(10_000)
    with pytest.raises(ValueError):
        extend_records([3], 10)  # 3 = f_3(2) starts no record chain


def test_reconstruct_examples():
    assert reconstruct_f3(8) == 11
    assert reconstruct_f3(9) == 8
    assert reconstruct_f3(54) == 55
    assert [reconstruct_f3(n) for n in range(1, 5)] == [1, 3, 2, 5]


def test_reconstruct_requires_coverage(monkeypatch):
    # The shared record list grows to cover n + 1, so the record after n - 1
    # is always at hand.
    monkeypatch.setattr(records, "_CACHE", [FIRST_RECORD])
    assert reconstruct_f3(8) == 11
    assert records._CACHE[-1] > 9
    terms = generate_prefix(3, 1000).terms
    assert [reconstruct_f3(n) for n in range(990, 1001)] == list(terms[990:1001])
    assert records._CACHE[-1] > 1001


def test_reconstruct_reads_only_the_shared_record_list():
    # No caller-supplied record list can stand in for the shared one.
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


def _naive_f3(n):
    # f_3(1..n) by the definition, with a set of used values; slot 0 is 0.
    terms = [0, 1, 3]
    used = {1, 3}
    low = 2
    while len(terms) <= n:
        while low in used:
            low += 1
        c, last = low, terms[-1]
        while c in used or math.gcd(c, last) != 1:
            c += 1
        used.add(c)
        terms.append(c)
    return terms[: n + 1]


def test_f3_terms_equals_simulation():
    for n in range(2, 301):
        assert list(f3_terms(n)) == generate_prefix(3, n).terms, n
    n = 200_000
    assert list(f3_terms(n)) == generate_prefix(3, n).terms


def test_f3_terms_equals_naive_generator():
    naive = _naive_f3(20_000)
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
