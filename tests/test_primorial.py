import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from gcdperm import (
    build_density_ledger,
    generate_prefix,
    kappa_bounds,
    kappa_coarse_bounds,
    kappa_empirical,
    next_record,
    nth_prime,
    prime_ratio_series,
    primes_within_records_series,
    derivative_bound_check,
    s_count,
    verify_primorial_records,
    verify_translation,
    w_count,
)
from gcdperm import primes
from gcdperm import primorial as primorial_module
from gcdperm.primes import primorial
from gcdperm.records import cached_records


def test_primorial_values():
    assert [primorial(n) for n in range(1, 8)] == [2, 6, 30, 210, 2310, 30030, 510510]
    assert nth_prime(1) == 2 and nth_prime(5) == 11
    with pytest.raises(ValueError):
        primorial(0)


def test_primorial_table_grows(monkeypatch):
    # Start from the one-prime table, so each call below has to grow it.
    monkeypatch.setattr(primes, "_PRIMES", [2])
    monkeypatch.setattr(primes, "_PRIMORIALS", [2])
    assert primorial(6) == 30030
    assert nth_prime(10) == 29
    assert primorial(6) == primorial(5) * nth_prime(6)


def test_s_counts():
    assert [s_count(n) for n in (1, 2, 3, 9, 10, 16)] == [0, 1, 1, 2, 1, 2]


def test_w_counts():
    assert w_count(1) == 1  # the window [3, 3] holds the seed record 3
    assert w_count(2) == 2  # {5, 7}
    assert w_count(3) == 9  # {7, 11, ..., 31}
    assert w_count(4) == 62


def test_w_recurrence():
    ledger = build_density_ledger(5)
    assert ledger.s[:4] == (0, 1, 1, 1)
    assert ledger.w == (1, 2, 9, 62, 681)  # 681 = 62 * 11 - 1
    assert ledger.recurrence_holds()
    assert ledger.ratios_non_increasing()


def test_density_ratios_compare_as_ints():
    ledger = build_density_ledger(60)

    def by_fractions(w):
        ratios = [Fraction(wn, primorial(i + 1)) for i, wn in enumerate(w)]
        return all(b <= a for a, b in zip(ratios, ratios[1:]))

    for n in range(2, 61):
        assert ledger._replace(w=ledger.w[:n]).ratios_non_increasing() is by_fractions(
            ledger.w[:n]) is True
    for i in (1, 5, 59):  # raise w_{i+1} just past w_i p_{i+1}
        w = list(ledger.w)
        w[i] = w[i - 1] * nth_prime(i + 1) + 1
        assert ledger._replace(w=tuple(w)).ratios_non_increasing() is by_fractions(w) is False


def test_primorial_record_reports():
    for n, samples in [(2, (5, 7, 11, 13)), (3, (29, 31, 59, 61)), (4, (209, 211))]:
        report = verify_primorial_records(n)
        assert report.passed, report.missing
        assert all(v in report.checked for v in samples)
    assert verify_primorial_records(2).checked == (5, 7, 11, 13, 17, 19, 23, 25)
    # No record cap: each target is one is_record query, near 2e8 for n = 8
    # and near 1.3e16 for n = 13.
    for n, values in [(8, 44), (13, 84)]:
        report = verify_primorial_records(n)
        assert report.passed and len(report.checked) == values
    with pytest.raises(ValueError):
        verify_primorial_records(1)


def test_translation_ranges():
    r2 = verify_translation(2)
    assert r2.stated == (5, 24) and r2.holds_on_stated
    assert r2.maximal == (5, 25)

    r3 = verify_translation(3)
    assert r3.stated == (7, 180) and r3.holds_on_stated
    assert r3.maximal == (7, 181)

    r4 = verify_translation(4)
    assert r4.stated == (11, 2100) and r4.holds_on_stated
    assert r4.maximal == (9, 2101)


def _simulated_translation(n):
    """(stated, failures, maximal) of the translation identity, read from a
    simulated prefix of P_n * (p_{n+1} + 1) terms: every failing k in the
    stated range, and the maximal range probed as far as the prefix allows."""
    pn = primorial(n)
    p_next = nth_prime(n + 1)
    lo, hi = p_next, (p_next - 1) * pn
    terms = generate_prefix(3, pn * p_next + pn).terms
    failures = tuple(k for k in range(lo, hi + 1) if terms[pn + k] != terms[k] + pn)
    if failures:
        return (lo, hi), failures, (0, 0)
    k_lo, k_hi = lo, hi
    while k_lo > 1 and terms[pn + k_lo - 1] == terms[k_lo - 1] + pn:
        k_lo -= 1
    while pn + k_hi + 1 < len(terms) and terms[pn + k_hi + 1] == terms[k_hi + 1] + pn:
        k_hi += 1
    return (lo, hi), (), (k_lo, k_hi)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_translation_matches_simulation(n):
    report = verify_translation(n)
    assert (report.stated, report.failures, report.maximal) == _simulated_translation(n)


def test_translation_far_primorials():
    # n = 7 needs 10,210,200 simulated terms, past the default term cap.
    assert verify_translation(7).maximal == (19, 9_189_181)
    for n in range(8, 18):
        report = verify_translation(n)
        hi = report.stated[1]
        assert hi == (nth_prime(n + 1) - 1) * primorial(n)
        assert report.holds_on_stated and report.maximal[1] == hi + 1, n


def test_translation_start_mismatch(monkeypatch):
    # Hide the record 37 = P_3 + 7 from the walk that starts at P_3 + lo - 1
    # = 36: it then starts at 41, and k = 8 (7 a record, 37 not) fails first.
    around = primorial_module._records_around
    monkeypatch.setattr(primorial_module, "_records_around",
                        lambda v: (35, 41) if v == 36 else around(v))
    report = verify_translation(3)
    assert report.failures == (8,) and report.maximal == (0, 0)


@pytest.mark.parametrize("n,j", [(3, 1), (3, 4), (3, 5), (5, 7), (5, 11)])
def test_translation_break_at_a_multiple_of_the_primorial(monkeypatch, n, j):
    # A changed spnd((j + 1) P_n) makes the walks past the record j P_n + 1
    # part, so k = j P_n + 2 is the first k where the identity fails.
    pn = primorial(n)
    spnd = primorial_module.smallest_prime_not_dividing
    monkeypatch.setattr(primorial_module, "smallest_prime_not_dividing",
                        lambda m: 2 if m == (j + 1) * pn else spnd(m))
    report = verify_translation(n)
    assert report.failures == (j * pn + 2,)
    assert report.maximal == (0, 0) and not report.holds_on_stated


def test_translation_break_past_the_stated_range(monkeypatch):
    # j = p_{n+1} - 1 parts the walks past the record hi + 1, outside the range.
    spnd = primorial_module.smallest_prime_not_dividing
    monkeypatch.setattr(primorial_module, "smallest_prime_not_dividing",
                        lambda m: 2 if m == 7 * 30 else spnd(m))
    assert verify_translation(3).holds_on_stated


def test_kappa_coarse_bounds():
    bounds = kappa_coarse_bounds()
    assert bounds.upper == Fraction(296, 1000)
    assert bounds.lower == Fraction(782, 3000)
    lo, hi = float(bounds.lower), float(bounds.upper)
    assert abs(lo - 0.26067) < 5e-5
    assert abs(hi - 0.296) < 1e-12


def test_reciprocal_series_bracket():
    # The partial sums of 1/P_k bracket the series constant inside the
    # [0.704, 0.706] window the coarse bounds rest on.
    partial = sum(Fraction(1, primorial(k)) for k in range(1, 9))
    tail = Fraction(3, 4 * primorial(8))
    assert Fraction(704, 1000) < partial < partial + tail < Fraction(706, 1000)


def test_kappa_bounds_partial_sums():
    b4 = kappa_bounds(4)
    b8 = kappa_bounds(8)
    assert b4.lower < b8.lower < b8.upper < b4.upper
    # the sharper window estimates land inside the coarse ones
    coarse = kappa_coarse_bounds()
    assert coarse.lower < b8.lower and b8.upper < coarse.upper
    with pytest.raises(ValueError):
        kappa_bounds(3)


def test_kappa_bounds_bracket_from_one_window_count():
    # Exact against a window count bisected from one record list.
    recs = cached_records(primorial(8) + 1)
    for n in range(4, 9):
        pn = primorial(n)
        w = bisect_right(recs, pn + 1) - bisect_left(recs, nth_prime(n + 1))
        assert kappa_bounds(n) == (Fraction(w - 2, pn), Fraction(w, pn)), n
    # The brackets nest: w_N / P_N never rises, and the lower end rises
    # because s_{N+1} + 2 <= 2 p_{N+1}.
    bounds = [kappa_bounds(n) for n in range(4, 61)]
    assert all(a.lower < b.lower and b.upper <= a.upper for a, b in zip(bounds, bounds[1:]))
    far = kappa_empirical(10**40)
    coarse = kappa_coarse_bounds()
    for n in (20, 30, 100, 1000, 3000):
        b = kappa_bounds(n)
        assert abs(float(b.upper) - far) < 1e-15, n
        assert coarse.lower < b.lower < b.upper < coarse.upper, n
    # Window counts need record_count, exact below P_3248.
    for n in (3, 3248):
        with pytest.raises(ValueError):
            kappa_bounds(n)


def test_kappa_empirical():
    assert kappa_empirical(10) == 0.2  # {5, 7}
    assert kappa_empirical(211) == 64 / 211
    coarse = kappa_coarse_bounds()
    sharp = kappa_bounds(8)
    for n in (10_000, 100_000):
        emp = Fraction(kappa_empirical(n))
        assert coarse.lower <= emp <= coarse.upper
        # Finite-range densities approach the limit from above, so only the
        # lower side of the sharp interval constrains them.
        assert sharp.lower <= emp


def test_prime_ratio_series():
    rows = prime_ratio_series(23)
    # records 5..23 are all prime, so each point is just ln(record)
    assert [r for r, _ in rows] == [5, 7, 11, 13, 17, 19, 23]
    assert all(abs(v - math.log(r)) < 1e-12 for r, v in rows)

    rows = prime_ratio_series(31)
    assert abs(rows[-1][1] - 9 / 10 * math.log(31)) < 1e-12  # 25 is composite


def test_primes_within_records_series():
    rows = primes_within_records_series(31)
    assert rows[-1] == (31, 9)  # 9 primes among the 10 records through 31


def _series_by_rows(limit):
    # One row per record, walked by next_record, with a running count of
    # the prime records by Miller-Rabin.
    ratio, within = [], []
    primes_seen, k, r = 0, 0, 5
    while r <= limit:
        k += 1
        primes_seen += primes.is_prime(r)
        ratio.append((r, primes_seen / k * math.log(r)))
        within.append((r, primes_seen))
        r = next_record(r)
    return ratio, within


@pytest.mark.parametrize("limit", [5, 6, 24, 25, 30029, 30031, 100_000])
def test_series_match_a_row_by_row_oracle(limit):
    # Exact equality, floats included: the same expression on the same ints.
    ratio, within = _series_by_rows(limit)
    assert prime_ratio_series(limit) == ratio
    assert primes_within_records_series(limit) == within


def test_prime_ratio_trend(records_million):
    # The scaled ratio drifts toward the reciprocal of the record density,
    # which the bounds place in [1/0.296, 1/0.26067].
    last = prime_ratio_series(1_000_000)[-1]
    assert 3.38 <= last[1] <= 3.84


def test_prop3_examples():
    rows = derivative_bound_check(2, 5)
    assert rows[0].k == 1 and rows[0].q == 7
    assert rows[0].derivative == 5 and rows[0].bound == 5 and rows[0].ok

    rows = derivative_bound_check(3, 5)
    assert rows[0].q == 31 and rows[0].derivative == 7 and rows[0].ok

    rows = derivative_bound_check(4, 5)
    assert rows[0].q == 211 and rows[0].derivative == 11 and rows[0].bound == 9

    # n=1: q = 3 and q = 5 are excluded by q > 5; the first usable k is 3
    rows = derivative_bound_check(1, 5)
    assert rows[0].k == 3 and rows[0].q == 7 and rows[0].bound == 3

    # vacuous run: 30031 and 60061 are composite
    assert derivative_bound_check(6, 2) == []


def test_prop3_many_multipliers():
    for n in (2, 3):
        assert all(row.ok for row in derivative_bound_check(n, 50))


@pytest.mark.parametrize("call,message", [
    (lambda: verify_translation(1), "need n >= 2, got 1"),
    (lambda: kappa_empirical(0), "need n >= 1, got 0"),
    (lambda: derivative_bound_check(0, 1), "need n >= 1, got 0"),
    (lambda: build_density_ledger(1), "need n_max >= 2, got 1"),
], ids=["verify_translation", "kappa_empirical", "derivative_bound_check", "build_density_ledger"])
def test_input_guards_name_the_bad_input(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
