from fractions import Fraction

import pytest

from gcdperm import (
    C3,
    IDENTITY,
    BudgetExhaustedError,
    classify,
    eventually_identity_by_primorial,
    eventually_identity_by_record,
    exceptional_seed_density,
    generate_prefix,
    scan_identity_seeds,
)
from gcdperm.classify import MERGE_WINDOW


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
    # The default ladder (10a = 9950, then the floor 10^4) is clamped so that
    # the attempt's buffer, budget + window + 2 terms, fits the term cap.
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


def test_classify_decides_seeds_above_a_million():
    label = classify(1_000_003)
    assert label.verdict == C3 and label.witness == 1_000_004


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
