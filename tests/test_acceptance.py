"""Acceptance suite: every release criterion, one test each, at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion."""

import math
import random
import time

from gcdperm import (
    C3,
    IDENTITY,
    classify,
    cycle_index,
    decompose,
    eventually_identity_by_primorial,
    eventually_identity_by_record,
    generate_prefix,
    kappa_coarse_bounds,
    kappa_empirical,
    nth_prime,
    derivative_bound_check,
    reconstruct_f3,
    record_stream_upto,
    record_values,
    s_count,
    scan_identity_seeds,
    verify_primorial_records,
    verify_translation,
    w_count,
)
from gcdperm.cli import main as cli_main
from gcdperm.primes import sieve_flags

MILLION = 1_000_000

F3_24 = [1, 3, 2, 5, 4, 7, 6, 11, 8, 9, 10, 13, 12, 17, 14, 15, 16, 19, 18, 23, 20, 21, 22, 25]
F7_12 = [1, 7, 2, 3, 4, 5, 6, 11, 8, 9, 10, 13]
F36_38 = [1, 36, 5, 2, 3, 4, 7, 6, 11, 8, 9, 10, 13, 12, 17, 14, 15, 16, 19, 18,
          23, 20, 21, 22, 25, 24, 29, 26, 27, 28, 31, 30, 37, 32, 33, 34, 35, 38]

RECORDS_7_TO_211 = [
    7, 11, 13, 17, 19, 23, 25, 29, 31,
    37, 41, 43, 47, 49, 53, 55, 59, 61,
    67, 71, 73, 77, 79, 83, 85, 89, 91,
    97, 101, 103, 107, 109, 113, 115, 119, 121,
    127, 131, 133, 137, 139, 143, 145, 149, 151,
    157, 161, 163, 167, 169, 173, 175, 179, 181,
    187, 191, 193, 197, 199, 203, 205, 209, 211,
]


def report(num: int, text: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_golden_prefixes():
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        got3 = generate_prefix(3, 24).terms[1:]
        got7 = generate_prefix(7, 12).terms[1:]
        got36 = generate_prefix(36, 38).terms[1:]
        best = min(best, time.perf_counter() - t0)
    ok = got3 == F3_24 and got7 == F7_12 and got36 == F36_38 and best < 1e-3
    report(1, f"golden prefixes for seeds 3, 7, 36 ({best * 1e6:.0f} us)", ok)


def test_criterion_02_reconstruction_equals_simulation():
    t0 = time.perf_counter()
    buf = generate_prefix(3, MILLION)
    terms = buf.terms
    mismatches = [n for n in range(1, MILLION + 1) if reconstruct_f3(n) != terms[n]]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    report(2, f"record reconstruction == simulation for n <= 1e6 ({elapsed:.2f} s)", ok)


def test_criterion_03_record_table():
    values = [r for r in record_values(211) if r >= 7]
    composites = [(r.value, r.jump) for r in record_stream_upto(100) if r.is_composite]
    ok = (
        values == RECORDS_7_TO_211
        and len(values) == 63
        and composites == [(25, 1), (49, 1), (55, 1), (77, 3), (85, 1), (91, 1)]
    )
    report(3, "record table on [7, 211] and composite records below 100", ok)


def test_criterion_04_prime_completeness(records_million):
    flags = sieve_flags(MILLION)
    record_set = set(records_million)
    missing = [p for p in range(5, MILLION + 1) if flags[p] and p not in record_set]
    report(4, "every prime in [5, 1e6] is a record", not missing)


def test_criterion_05_window_counts():
    s_ok = [s_count(n) for n in (1, 2, 3, 9, 10, 16)] == [0, 1, 1, 2, 1, 2]
    w_ok = [w_count(n) for n in (2, 3, 4)] == [2, 9, 62]
    rec_ok = all(
        w_count(n + 1) == w_count(n) * nth_prime(n + 1) - s_count(n + 1)
        for n in range(1, 5)
    )
    report(5, "window counts s_n, w_n and their recurrence for n <= 4", s_ok and w_ok and rec_ok)


def test_criterion_06_density(records_million):
    emp = kappa_empirical(MILLION)
    bounds = kappa_coarse_bounds()
    lo, hi = float(bounds.lower), float(bounds.upper)
    ok = (
        0.26067 <= emp <= 0.296
        and abs(emp - 0.294) <= 0.005
        and abs(hi - 0.296) < 1e-12
        and abs(lo - 0.26067) < 5e-5
    )
    report(6, f"empirical density {emp:.6f} inside [{lo:.5f}, {hi:.3f}], near 0.294", ok)


def test_criterion_07_translation():
    t0 = time.perf_counter()
    r3 = verify_translation(3)
    r4 = verify_translation(4)
    elapsed = time.perf_counter() - t0
    ok = (
        r3.holds_on_stated
        and r3.maximal == (7, 181)
        and r4.holds_on_stated
        and r4.maximal == (9, 2101)
        and elapsed < 5.0
    )
    report(7, f"translation identity on [7,181] and [9,2101] ({elapsed:.2f} s)", ok)


def test_criterion_08_primorial_records():
    reports = [verify_primorial_records(n) for n in (2, 3, 4)]
    ok = all(r.passed for r in reports)
    detail = ", ".join(f"n={r.n}: {len(r.checked)} values" for r in reports)
    report(8, f"r * P_n +- 1 all records ({detail})", ok)


def test_criterion_09_classification():
    t0 = time.perf_counter()
    rows = scan_identity_seeds(5000)
    by_a = {r.a: r for r in rows}
    scan_ok = (
        all(r.agree for r in rows)
        and by_a[36].verdict == IDENTITY
        and by_a[36].witness == 38
        and by_a[216].verdict == C3
    )
    odd_ok = True
    for a in range(3, 1000, 2):
        label = classify(a)
        if label.verdict != C3 or any(t % 2 for t in label.etps):
            odd_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = scan_ok and odd_ok and elapsed < 60.0
    report(9, f"classification scan to 5000 plus odd seeds to 999 ({elapsed:.1f} s)", ok)


def test_criterion_10_derivative_lower_bound():
    ok = True
    firsts = []
    for n in (2, 3, 4):
        rows = derivative_bound_check(n, 10)
        first = rows[0]
        firsts.append((n, first.q, first.derivative))
        ok = ok and first.ok
    report(10, f"derivative bound at first prime primorial indices {firsts}", ok)


def test_criterion_11_property_suite(f3_million):
    terms = f3_million.terms

    inj_ok = len(set(terms[1:])) == MILLION

    replay_ok = True
    used = {1, 3}
    for n in range(3, 3001):
        prev, chosen = terms[n - 1], terms[n]
        if chosen in used or math.gcd(chosen, prev) != 1:
            replay_ok = False
            break
        if any(v not in used and math.gcd(v, prev) == 1 for v in range(1, chosen)):
            replay_ok = False
            break
        used.add(chosen)

    prop1_ok = all(terms[2 * k + 1] == 2 * k for k in range(1, 100_001))
    prop2_ok = all(terms[3 * k + 1] == 3 * k for k in range(2, 100_001))

    cycles = decompose(3, 10_000)
    cycle_ok = all(
        terms[v] == cyc.elements[(i + 1) % len(cyc)]
        for cyc in cycles
        for i, v in enumerate(cyc.elements)
    )

    by_value = {v: c.index for c in decompose(3, 25) for v in c.elements}
    index_ok = (
        all(cycle_index(v) == by_value[v] for v in range(2, 26))
        and cycle_index(23) == 8
        and cycle_index(25) == 9
    )

    ok = inj_ok and replay_ok and prop1_ok and prop2_ok and cycle_ok and index_ok
    report(11, "injectivity, minimality replay, index identities, cycles, C(23)/C(25)", ok)


def test_criterion_12_deterministic_exports(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        assert cli_main(["export-figures", "all", "--out-dir", str(d), "--limit", "120"]) == 0
        g = d / "gen.csv"
        assert cli_main(["generate", "--a", "3", "--n", "300", "--out", str(g)]) == 0
        pairs.append(d)
    same = all(
        (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "gen.csv")
    )
    report(12, "repeated exports are byte-identical", same)
