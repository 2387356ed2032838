import math
from bisect import bisect_right
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
    find_turning_points,
    generate_prefix,
    record_values,
    scan_identity_seeds,
)
from gcdperm.classify import _attempt, _even_seed_buffer


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


def _window(label, a):
    """Terms simulated past an even seed a: up to its first ETP, else its identity onset."""
    return (label.etps[0] if label.etps else label.witness) - a


def test_budget_exhaustion(monkeypatch):
    # Seed 216 reaches its first ETP 6 terms past the seed.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5")
    with pytest.raises(BudgetExhaustedError):
        classify(216)
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "6")
    assert classify(216).verdict == C3
    # An odd seed simulates nothing: the smallest cap decides it.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1")
    assert classify(995) == ClassLabel(C3, 998, (996, 998))


def test_budget_exhaustion_reports_the_budget_tried(monkeypatch):
    # The cap counts the terms simulated past the seed.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5")
    with pytest.raises(BudgetExhaustedError) as exc:
        classify(216)  # first ETP at 222, 6 terms past the seed
    assert exc.value.budget == 5
    assert str(exc.value) == "f_216: no certificate within 5 terms"
    assert classify(36).witness == 38  # certificates inside the cap still come
    monkeypatch.delenv("GCDPERM_MAX_TERMS")
    assert classify(216).witness == 222


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
def test_budget_boundary(a, monkeypatch):
    # An even seed certified w terms past a is decided under a cap of w
    # terms and not under one term less; an odd seed simulates nothing.
    label = classify(a)
    if a % 2:
        monkeypatch.setenv("GCDPERM_MAX_TERMS", "1")
        assert classify(a) == label
        return
    w = _window(label, a)
    monkeypatch.setenv("GCDPERM_MAX_TERMS", str(w))
    assert classify(a) == label
    assert _attempt(a, w - 1) is None
    if w > 1:  # the cap must be positive
        monkeypatch.setenv("GCDPERM_MAX_TERMS", str(w - 1))
        with pytest.raises(BudgetExhaustedError, match=f"within {w - 1} terms"):
            classify(a)


def test_budget_boundary_seed_lies_past_the_first_chunk(monkeypatch):
    # The scan's chunks end 1, 3, 7, 15 and 31 terms past the seed, clamped
    # to the cap.  Seed 30032 is certified 16 terms past it, in the fifth
    # chunk, the largest window among the even seeds to 2e5.
    label = classify(30032)
    assert _window(label, 30032) == 16
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "16")
    assert classify(30032) == label
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "15")
    with pytest.raises(BudgetExhaustedError, match="within 15 terms"):
        classify(30032)


def test_explicit_budget_obeys_the_term_cap(monkeypatch):
    # _attempt takes an explicit budget (the benchmark tracer wraps it); its
    # buffer is still held to GCDPERM_MAX_TERMS terms past the seed.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5")
    assert _attempt(36, 5000) == ClassLabel(IDENTITY, 38)
    assert _attempt(995, 5000) == ClassLabel(C3, 998, (996, 998))
    # Certified 6 terms past the seed: the scan reaches the cap first.
    with pytest.raises(LimitExceededError, match="terms of f_216; cap is 5"):
        _attempt(216, 5000)
    # A budget that ends below the cap leaves the seed undecided.
    assert _attempt(216, 4) is None


def test_seeds_above_the_cap_are_decided(monkeypatch):
    # The cap bounds the terms simulated past the seed, not the seed.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "100")
    assert classify(151) == ClassLabel(C3, 152, (152,))
    assert classify(10**7 + 2) == ClassLabel(C3, 10_000_008, (10_000_008,))
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5")
    with pytest.raises(BudgetExhaustedError, match="within 5 terms"):
        classify(10**7 + 2)


def test_classify_and_scan_take_no_budget():
    # The term cap is the one limit on classification.
    with pytest.raises(TypeError):
        classify(3, budget=100)
    with pytest.raises(TypeError):
        scan_identity_seeds(40, budget=100)


def test_classify_decides_seeds_above_a_million():
    label = classify(1_000_003)
    assert label.verdict == C3 and label.witness == 1_000_004


def test_classify_even_seed_with_a_large_pool():
    # 3 does not divide this even seed, and a - 1 is no record: about a
    # values below a are unused by index a.
    assert classify(999_998) == ClassLabel(C3, 1_000_002, (1_000_002,))


def test_even_seed_state_matches_simulation():
    # The state the even-seed lemma derives at index a against f_a(1..a+1)
    # simulated from the seed: f(a), f(a+1), the used values and the
    # running maximum of f(1..a).
    for a in range(4, 2001, 2):
        buf = _even_seed_buffer(a)
        head_max = buf.head_max
        buf.extend_to(a + 1)
        terms = generate_prefix(a, a + 1).terms
        assert (buf[a], buf[a + 1]) == (terms[a], terms[a + 1]), a
        used = set(range(1, buf._low)) | buf._above
        assert used == set(terms[1:]), a
        assert head_max == max(terms[1 : a + 1]), a


def _prefix_label(a, records):
    """(verdict, witness, etps) of f_a by simulating it from the seed and
    scanning every turning point; records is a set of f_3 records."""
    etps = []
    for tp in find_turning_points(generate_prefix(a, a + 64)):
        if tp.is_etp:
            etps.append(tp.t)
            if tp.t == 4 or tp.t - 1 in records:
                return C3, tp.t, tuple(etps)
        elif tp.record_value == tp.t and tp.complete_below:
            return IDENTITY, tp.t, tuple(etps)
    raise AssertionError(f"f_{a}: no certificate within {a + 64} terms")


def test_classify_matches_prefix_simulation_on_even_seeds():
    records = set(record_values(4100))
    bad = []
    for a in range(4, 4001, 2):
        label = classify(a)
        if (label.verdict, label.witness, label.etps) != _prefix_label(a, records):
            bad.append(a)
    assert bad == []


def test_classify_decides_large_seeds():
    assert classify(10**7 + 1) == ClassLabel(C3, 10_000_008, (10_000_002, 10_000_004, 10_000_008))
    for a in (10**7 + 2, 10**7 + 4):
        assert classify(a) == ClassLabel(C3, 10_000_008, (10_000_008,))
    assert classify(10**12 + 1) == ClassLabel(C3, 10**12 + 2, (10**12 + 2,))
    assert classify(10**12 + 2) == ClassLabel(IDENTITY, 10**12 + 3)
    # Past any simulated prefix, so hold the verdicts to both membership tests.
    for a in [10**12 + 1] + list(range(10**12 + 2, 10**12 + 600, 6)):
        is_id = classify(a).verdict == IDENTITY
        assert is_id == eventually_identity_by_record(a) == eventually_identity_by_primorial(a), a


def test_scan_agreement_to_1e5():
    assert all(r.agree for r in scan_identity_seeds(10**5))


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


def test_record_membership_matches_a_record_list_bisect():
    # is_record against the shared record list: a record in [a-1, a+1].
    recs = record_values(60_001)

    def by_list(a):
        i = bisect_right(recs, a + 1)
        return i > 0 and recs[i - 1] >= a - 1

    seeds = range(6, 60_001, 6)
    assert ([a for a in seeds if eventually_identity_by_record(a)]
            == [a for a in seeds if by_list(a)])


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
