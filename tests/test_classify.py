import importlib
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
    prefix_terms,
    record_values,
    scan_identity_seeds,
)
from gcdperm.classify import _bands, _excluded_flags, _seed_buffer
from gcdperm.primes import nth_prime, primorial, smallest_prime_not_dividing
from gcdperm.sequence import SequenceBuffer

# The module itself: the package binds the name classify to the function.
classify_module = importlib.import_module("gcdperm.classify")


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
        buf = _seed_buffer(a)
        head_max = buf.head_max
        buf.extend_to(a + 1)
        terms = generate_prefix(a, a + 1).terms
        assert buf.terms[a - buf.base :] == terms[a:], a
        used = set(range(1, buf._low)) | buf._above
        assert used == set(terms[1:]), a
        assert head_max == max(terms[1 : a + 1]), a


def test_even_seed_buffer_head_max_and_pool_peak():
    # At index a the largest value so far is max f(1..a), and the values
    # unused below it number that maximum minus a.
    for a in range(6, 61, 2):
        buf = _seed_buffer(a)
        head_max = max(generate_prefix(a, a).terms[1:])
        assert (len(buf), buf.head_max, buf.pool_peak) == (a, head_max, head_max - a), a


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


@pytest.mark.parametrize("a", [2**63 - 2, 2**63 + 2, 6 * 10**30, 6 * 10**30 + 2, 6 * 10**40 + 4])
def test_classify_decides_seeds_past_the_machine_word(a):
    # The engine resumes at index a; len() of such a buffer would overflow.
    is_id = classify(a).verdict == IDENTITY
    assert is_id == eventually_identity_by_record(a) == eventually_identity_by_primorial(a)


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
    # is_record against a record list: a record in [a-1, a+1].
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


def _primorial_membership_by_definition(a):
    # The test as first written: P_k and T_k read afresh for every seed.
    if a in (2, 4):
        return True
    if a < 2 or a % 6:
        return False
    k = 4
    while (pk := primorial(k)) + 6 <= a:
        t_max = (nth_prime(k + 1) - 2) // 6
        m = (a - 6) // pk
        if m >= 1 and 6 <= a - m * pk <= 6 * t_max:
            return False
        k += 1
    return True


def test_primorial_membership_test_matches_its_definition():
    seeds = list(range(300_001)) + list(range(10**12, 10**12 + 3_000))
    assert [a for a in seeds
            if eventually_identity_by_primorial(a) != _primorial_membership_by_definition(a)] == []


def _band_rows(k_top):
    """The band table's rows (P_k, T_{k-1}, T_k) for k = 4..k_top, from the definition."""
    return [(primorial(k), (nth_prime(k) - 2) // 6, (nth_prime(k + 1) - 2) // 6)
            for k in range(4, k_top + 1)]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_bands_yield_the_rows_up_to_the_limit(warm, monkeypatch):
    monkeypatch.setattr(classify_module, "_BANDS", [])
    if warm:  # a far seed grows the memo through P_12 > 10^12
        eventually_identity_by_primorial(10**12 + 2)
        assert len(classify_module._BANDS) == 9
    for k in range(4, 8):
        pk = primorial(k)
        assert list(_bands(pk + 5)) == _band_rows(k - 1), k
        assert list(_bands(pk + 6)) == _band_rows(k), k


def test_membership_after_a_far_seed(monkeypatch):
    # A memo grown past every small seed still stops at each seed's own rows.
    monkeypatch.setattr(classify_module, "_BANDS", [])
    seeds = [10**12 + 2, *range(217)]
    assert ([eventually_identity_by_primorial(a) for a in seeds]
            == [_primorial_membership_by_definition(a) for a in seeds])


def test_excluded_flags_match_the_membership_test():
    # The sieve marks the seeds 6i that the per-seed test excludes, and no other.
    flags = _excluded_flags(1_000_000)
    assert len(flags) == 166_667 and flags[0] == 0
    assert [i for i in range(1, len(flags))
            if flags[i] != (not eventually_identity_by_primorial(6 * i))] == []


def test_density_partial_sums():
    assert exceptional_seed_density(3) == 0
    assert exceptional_seed_density(4) == Fraction(1, 210)
    sums = [exceptional_seed_density(k) for k in range(4, 13)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert all(s < 1 for s in sums)
    assert exceptional_seed_density(12) == Fraction(17792378719, 3710369067405)


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


# The term builder: f3_terms with the seed's head up to a, the engine from a
# to the classify witness, then f_3 or the identity.  The engine and the
# naive generator are its oracles.


def test_prefix_terms_equals_the_engine_on_small_seeds():
    for a in range(2, 601):
        n = 3 * a + 300
        terms = prefix_terms(a, n)
        assert terms.typecode == "q" and list(terms) == generate_prefix(a, n).terms, a


@pytest.mark.parametrize("a", [7, 216, 30_030, 999_998])
def test_prefix_terms_equals_the_engine_at_a_million(a):
    n = 10**6 + 100  # past the witness of 999998 too
    assert list(prefix_terms(a, n)) == generate_prefix(a, n).terms


def test_prefix_terms_equals_the_naive_generator(naive_prefix):
    for a in (2, 3, 4, 6, 7, 216, 426):
        assert list(prefix_terms(a, 20_000)) == naive_prefix(a, 20_000), a


@pytest.mark.parametrize("a", [2, 7, 216, 30_030])
def test_prefix_terms_at_the_seed_and_the_witness(a):
    w = classify(a).witness
    for n in {2, a - 1, a, a + 1, w - 1, w, w + 1}:
        if n >= 2:
            assert list(prefix_terms(a, n)) == generate_prefix(a, n).terms, n


def test_prefix_terms_equals_the_engine_at_every_piece_boundary():
    # Each seed against one engine run to its witness + 40, at the ends of
    # every piece: the head 3..lo - 1 of a multiple of 6, the shifted f_3
    # slice lo..a, the simulated window a + 1..w - 1 and the tail from w.
    for a in range(2, 3001):
        w = classify(a).witness
        lo = smallest_prime_not_dividing(a) + 1 if a % 6 == 0 else 3
        engine = generate_prefix(a, w + 40).terms
        for n in {2, 3, lo - 1, lo, a - 1, a, a + 1, w - 1, w, w + 40}:
            if n >= 2:
                assert list(prefix_terms(a, n)) == engine[: n + 1], (a, n)


def test_prefix_terms_simulates_only_past_the_seed(monkeypatch):
    # The head up to a comes from f3_terms: the engine never runs from the
    # seed, and from the state at index a it adds at most w - a - 1 terms.
    def refuse(a, n):
        raise AssertionError(f"generate_prefix({a}, {n})")

    monkeypatch.setattr(classify_module, "generate_prefix", refuse, raising=False)
    simulated = []
    extend_to = SequenceBuffer.extend_to

    def counted(self, n):
        before = self.last_index
        extend_to(self, n)
        simulated.append(self.last_index - before)

    monkeypatch.setattr(SequenceBuffer, "extend_to", counted)
    for a in (7, 216, 30_030, 999_998, 1_999_998):
        label = classify(a)
        simulated.clear()
        prefix_terms(a, label.witness + 100, label)
        assert sum(simulated) <= label.witness - a - 1, a


def test_prefix_terms_up_to_the_seed_past_the_classify_limit(naive_prefix):
    # Seeds past P_3248, where classify raises: n <= a classifies nothing.
    for a in (10**13000 + 1, 6 * 10**13000):
        with pytest.raises(ValueError):
            classify(a)
        assert list(prefix_terms(a, 6)) == naive_prefix(a, 6)


def test_prefix_terms_obeys_the_term_cap_for_its_seed(monkeypatch):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "100")
    with pytest.raises(LimitExceededError, match="requested 101 terms of f_7; cap is 100"):
        prefix_terms(7, 101)
    assert len(prefix_terms(7, 100)) == 101
