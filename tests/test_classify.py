import math
from fractions import Fraction

import pytest

from gcdperm import (
    C3,
    IDENTITY,
    BudgetExhaustedError,
    ClassLabel,
    LimitExceededError,
    classify,
    eventually_identity_by_primorial,
    eventually_identity_by_record,
    exceptional_seed_density,
    generate_prefix,
    scan_identity_seeds,
)
from gcdperm.classify import MERGE_WINDOW
from gcdperm.records import _FIRST_CHUNK


def test_identity_verdicts():
    for a, m in [(2, 1), (4, 5), (6, 7), (12, 13), (18, 19), (24, 25), (30, 31), (36, 38)]:
        label = classify(a)
        assert label.verdict == IDENTITY and label.witness == m, (a, label)


def test_merge_verdicts():
    for a, merge in [(3, 4), (5, 6), (7, 8), (9, 12), (216, 222)]:
        label = classify(a)
        assert label.verdict == C3 and label.witness == merge, (a, label)


def test_identity_tail_holds():
    for a in (4, 6, 12, 30, 36, 210):
        label = classify(a)
        assert label.verdict == IDENTITY
        m = label.witness
        buf = generate_prefix(a, m + 1000)
        terms = buf.terms
        assert all(terms[n] == n for n in range(m, m + 1001))
        if m > 1:
            assert terms[m - 1] != m - 1  # witness is minimal


def test_merge_tail_matches_f3():
    f3 = generate_prefix(3, 2000)
    for a in (7, 9, 216, 995):
        label = classify(a)
        assert label.verdict == C3
        t = label.witness
        fa = generate_prefix(a, t + 500)
        assert fa.terms[t : t + 501] == f3.terms[t : t + 501]


def test_budget_exhaustion():
    with pytest.raises(BudgetExhaustedError):
        classify(3, budget=3)
    assert classify(3, budget=100).verdict == C3


def test_budget_exhaustion_reports_the_budget_tried(monkeypatch):
    # The default budget is the term cap less the merge window and slack,
    # so the merge check fits.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1000")
    clamped = 1000 - MERGE_WINDOW - 2
    with pytest.raises(BudgetExhaustedError) as exc:
        classify(995)  # certified at 998, beyond the clamped budget
    assert exc.value.budget == clamped
    assert str(exc.value) == f"f_995: no certificate within {clamped} terms"
    assert classify(501).witness == 504  # certificates inside the clamp still come
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "10")  # no room for the merge window
    with pytest.raises(BudgetExhaustedError, match="within 0 terms"):
        classify(3)
    monkeypatch.delenv("GCDPERM_MAX_TERMS")
    assert classify(995).witness == 998


def _naive_label(a):
    """(verdict, witness, etps) of f_a from the definitions: a set-based
    generator, the identity certificate with a walk back to its onset, and
    "ETP of f_3" from the naive record recurrence."""
    if a == 2:
        return IDENTITY, 1, ()
    smallest_free = 2  # min of the naturals minus {1, a} for a >= 3
    terms = [0, 1, a]
    used = {1, a}
    low = 2  # smallest unused value
    records = [5]
    etps = []
    t = 2
    while True:
        t += 1
        complete_below = low >= t  # 1..t-1 all used before t
        last = terms[-1]
        c = low
        while c in used or math.gcd(c, last) != 1:
            c += 1
        terms.append(c)
        used.add(c)
        while low in used:
            low += 1
        turning = c - last > 1 if t > 3 else c != smallest_free
        if turning and complete_below and t > a and c != t and last == t - 2:
            etps.append(t)
            while records[-1] < t - 1:
                m = records[-1] - 1
                p = 2
                while m % p == 0 or any(p % d == 0 for d in range(2, p)):
                    p += 1
                records.append(m + p)
            if t == 4 or t - 1 in records:
                return C3, t, tuple(etps)
        if c == t and low > t:
            m = t
            while terms[m - 1] == m - 1:
                m -= 1
            return IDENTITY, m, tuple(etps)


def test_classify_matches_naive_oracle():
    bad = []
    for a in range(2, 601):
        label = classify(a)
        if (label.verdict, label.witness, label.etps) != _naive_label(a):
            bad.append(a)
    assert bad == []


@pytest.mark.parametrize("a", [4, 9, 36, 216, 995, 213])
def test_budget_boundary(a):
    # A certificate at index t is found with budget t and not with t - 1.
    label = classify(a)
    assert classify(a, budget=label.witness) == label
    with pytest.raises(BudgetExhaustedError):
        classify(a, budget=label.witness - 1)


def test_budget_boundary_seed_lies_past_the_first_chunk():
    # The scan's first chunk reaches a + _FIRST_CHUNK; seed 213 is certified
    # one index later, so test_budget_boundary covers a second chunk.
    assert classify(213).witness == 213 + _FIRST_CHUNK + 1


def test_explicit_budget_obeys_the_term_cap(monkeypatch):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "100")
    # Certificate and merge window (32..95) fit the cap.
    assert classify(31, budget=5000) == ClassLabel(C3, 32, (32,))
    # An identity certificate needs no merge window.
    assert classify(96, budget=5000) == ClassLabel(IDENTITY, 98)
    # Certified at 38, but the merge window would need 101 terms.
    with pytest.raises(LimitExceededError, match="requested 101 terms of f_33; cap is 100"):
        classify(33, budget=5000)
    # Certified at 102: the scan itself reaches the cap first.
    with pytest.raises(LimitExceededError, match="requested 101 terms of f_98; cap is 100"):
        classify(98, budget=5000)
    with pytest.raises(LimitExceededError, match="seed 150 exceeds the term cap 100"):
        classify(150, budget=5000)
    # A budget that ends below the cap still reports exhaustion.
    with pytest.raises(BudgetExhaustedError, match="within 37 terms"):
        classify(33, budget=37)


def test_classify_decides_seeds_above_a_million():
    label = classify(1_000_003)
    assert label.verdict == C3 and label.witness == 1_000_004


def test_classify_even_seed_with_a_large_pool():
    # 3 does not divide this even seed, so about a unused values sit below
    # it while the first a terms are generated.
    assert classify(999_998) == ClassLabel(C3, 1_000_002, (1_000_002,))


def test_etps_recorded_and_even():
    label = classify(9)
    assert label.etps == (10, 12)  # 10 is not shared with f_3; 12 is
    for a in range(3, 200, 2):
        label = classify(a)
        assert label.verdict == C3
        assert all(t % 2 == 0 for t in label.etps)


def test_record_membership_test():
    assert eventually_identity_by_record(2)
    assert eventually_identity_by_record(4)
    assert eventually_identity_by_record(6)
    assert eventually_identity_by_record(12)
    assert eventually_identity_by_record(36)
    assert not eventually_identity_by_record(216)
    assert not eventually_identity_by_record(7)  # odd
    assert not eventually_identity_by_record(8)  # even but not 0 mod 6


def test_primorial_membership_test():
    assert eventually_identity_by_primorial(2)
    assert eventually_identity_by_primorial(4)
    assert eventually_identity_by_primorial(36)
    assert not eventually_identity_by_primorial(216)  # 216 = 210 + 6
    assert not eventually_identity_by_primorial(426)  # 426 = 2*210 + 6
    assert not eventually_identity_by_primorial(2316)  # 2316 = 2310 + 6
    assert not eventually_identity_by_primorial(7)
    assert eventually_identity_by_primorial(210)
    assert eventually_identity_by_primorial(222)  # 222 = 210 + 12 needs t <= 1


def test_density_partial_sums():
    assert exceptional_seed_density(3) == 0
    assert exceptional_seed_density(4) == Fraction(1, 210)
    sums = [exceptional_seed_density(k) for k in range(4, 13)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert all(s < 1 for s in sums)


def test_density_against_brute_force_count():
    # Independent oracle: count the excluded multiples of 6 below 1e6 via
    # the membership test and compare with the closed-form partial sum.
    horizon = 1_000_000
    count = sum(
        1 for a in range(6, horizon + 1, 6) if not eventually_identity_by_primorial(a)
    )
    assert count == 4794
    partial = float(exceptional_seed_density(12))
    assert abs(partial - count / horizon) < 2e-6


def test_scan_agreement_small():
    rows = scan_identity_seeds(300)
    assert all(r.agree for r in rows)
    by_a = {r.a: r for r in rows}
    assert by_a[36].verdict == IDENTITY and by_a[36].witness == 38
    assert by_a[216].verdict == C3
    assert by_a[2].verdict == IDENTITY
    assert [r.a for r in rows[:4]] == [2, 4, 6, 12]


def test_scan_below_six():
    assert [r.a for r in scan_identity_seeds(5)] == [2, 4]


def test_scan_identity_members_to_40():
    rows = scan_identity_seeds(40)
    identity_seeds = [r.a for r in rows if r.verdict == IDENTITY]
    assert identity_seeds == [2, 4, 6, 12, 18, 24, 30, 36]


def test_classify_validates_seed():
    with pytest.raises(ValueError):
        classify(1)
