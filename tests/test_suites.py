import gc
import math
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from operator import eq
from pathlib import Path

import pytest

from gcdperm import derivative_bound_check, generate_prefix, reconstruct_f3, records, suites
from gcdperm.classify import IDENTITY, ClassLabel
from gcdperm.cli import main
from gcdperm.primes import primes_upto
from gcdperm.records import _certified_records, _turning_points
from gcdperm.sequence import SequenceBuffer
from gcdperm.suites import SUITES, TABLE


def _verify(capsys, *argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_suite_is_in_the_table_and_runnable():
    assert list(SUITES) == list(TABLE)
    assert len(TABLE) == 14
    assert all(TABLE[name].check is check for name, check in SUITES.items())


@pytest.mark.parametrize("suite,params", [
    ("prop3", {"n": 0}),
    ("prop3", {"kmax": 0}),
    ("prop3", {"n": 0, "kmax": 0}),
    ("thm2", {"bound": 0}),
    ("thm2", {"bound": -3}),
    ("thm4", {"bound": -1}),
    ("thm1", {"limit": 2}),
    ("cor1", {"limit": 0}),
    ("prop1", {"limit": 0}),
    ("thm5", {"n": 1}),
    ("thm7", {"n": 0}),
    ("thm8-recurrence", {"n": 1}),
    ("cor2", {"limit": 0}),
    ("thm3", {"bound": 0}),
])
def test_explicit_out_of_range_value_raises(suite, params):
    # An explicit value is never swapped for the default.
    with pytest.raises(ValueError, match="must be >="):
        SUITES[suite](**params)


def test_thm2_catches_a_wrong_first_etp_of_an_odd_seed(monkeypatch):
    # An odd branch that put the first ETP at a + 3: the verdict and the
    # parity lines still pass, the simulated first ETP does not.
    classify = suites.classify

    def mutated(a):
        label = classify(a)
        return label._replace(etps=(a + 3,) + label.etps[1:]) if a % 2 else label

    monkeypatch.setattr(suites, "classify", mutated)
    results = SUITES["thm2"](bound=99)
    assert [(r.name, r.ok) for r in results] == [
        ("odd seeds merge into f_3", True),
        ("all ETPs even", True),
        ("first ETP as simulated", False),
    ]
    assert results[2].detail.startswith("failed: [3, 5, 7, 9, 11]")


def _mislabel(monkeypatch, relabel):
    """Route the suites' classify through relabel(a, label)."""
    classify = suites.classify
    monkeypatch.setattr(suites, "classify", lambda a: relabel(a, classify(a)))


def test_thm2_fails_on_an_odd_seed_labelled_identity(monkeypatch):
    _mislabel(monkeypatch, lambda a, label: label._replace(verdict=IDENTITY) if a == 7 else label)
    results = SUITES["thm2"](bound=99)
    assert [(r.name, r.ok) for r in results] == [
        ("odd seeds merge into f_3", False),
        ("all ETPs even", True),
        ("first ETP as simulated", True),
    ]
    assert results[0].detail == "failed: [7]"


def test_thm2_fails_on_a_label_with_no_etps(monkeypatch):
    # An identity label may carry no ETP; the first-ETP line fails on it.
    _mislabel(monkeypatch, lambda a, label: ClassLabel(IDENTITY, 1) if a == 7 else label)
    results = SUITES["thm2"](bound=99)
    assert [r.ok for r in results] == [False, True, False]
    assert results[2].detail == "failed: [7]"


@pytest.mark.parametrize("suite,bound,seed", [("thm2", 99, 9), ("thm3", 60, 12)])
def test_an_odd_etp_fails_the_parity_line(monkeypatch, suite, bound, seed):
    odd = 2 * seed + 1
    _mislabel(monkeypatch,
              lambda a, label: label._replace(etps=label.etps + (odd,)) if a == seed else label)
    results = SUITES[suite](bound=bound)
    assert [r.name for r in results if not r.ok] == ["all ETPs even"]


def test_thm5_passes_past_the_primality_bound():
    # Each target is one is_record query; P_30 is about 3.2e46, past the
    # bound of is_prime, which no record query needs.
    results = SUITES["thm5"](n=30)
    assert len(results) == 29 and all(r.ok for r in results)


def test_prop3_counts_its_prime_indices():
    # Each prime index q asks two reconstruct_f3 queries; q reaches about 3e6.
    results = SUITES["prop3"](n=6, kmax=100)
    assert [r.items for r in results] == [43, 51, 51, 46, 42, 40] and all(r.ok for r in results)


def test_prop3_derivative_matches_the_record_reconstruction():
    for n in (1, 2, 3, 4):
        rows = derivative_bound_check(n, 40)
        assert rows
        assert all(row.derivative == reconstruct_f3(row.q + 1) - reconstruct_f3(row.q)
                   for row in rows)


@pytest.mark.parametrize("limit,count", [
    (6, 0), (215, 0), (216, 1), (1000, 4), (2316, 11), (30_030, 142),
    (100_000, 479), (500_000, 2396), (1_000_000, 4794),
])
def test_cor2_exact_count_matches_the_brute_force_count(limit, count):
    # The band count is exact at every limit, not only near the default.
    [result] = SUITES["cor2"](limit=limit)
    assert result.ok, result.detail
    assert result.detail.startswith(f"count {count}, exact {count}, density ")
    assert result.items == limit // 6


def test_cor2_fails_on_a_wrong_band_count(capsys, monkeypatch):
    exact = suites._excluded_count
    monkeypatch.setattr(suites, "_excluded_count", lambda limit: exact(limit) + 1)
    code, out, _ = _verify(capsys, "cor2", "--limit", "1000000")
    assert code == 1
    assert out.startswith("FAIL  [cor2] exact band count vs brute-force count  "
                          "count 4794, exact 4795, ")


def test_cor2_obeys_the_term_cap(capsys, monkeypatch):
    # One byte per seed 6i <= limit: the default cap allows a limit of 3e7.
    monkeypatch.delenv("GCDPERM_MAX_TERMS", raising=False)
    [result] = SUITES["cor2"](limit=30_000_000)
    assert result.ok and result.items == 5_000_000
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1000")
    assert _verify(capsys, "cor2", "--limit", "6005")[0] == 0
    code, out, err = _verify(capsys, "cor2", "--limit", "6006")
    assert (code, out) == (2, "")
    assert err == ("error: requested the 1001 seeds 6i up to 6006; cap is 1000 "
                   "(set GCDPERM_MAX_TERMS to raise it)\n")


def test_suites_take_only_their_own_parameters():
    with pytest.raises(TypeError):
        SUITES["prop3"](bound=7)
    with pytest.raises(TypeError):
        SUITES["thm2"](bound=9, budget=5)
    assert TABLE["prop3"].flags == {"n": 4, "kmax": 8}
    assert TABLE["thm10"].flags == {"bound": 300}


# Each suite's verify flags with their defaults, in table and parameter order.
SUITE_FLAGS = {
    "thm1": {"limit": 10_000},
    "cor1": {"limit": 100_000},
    "prop1": {"limit": 100_000},
    "prop2": {"limit": 100_000},
    "prop3": {"n": 4, "kmax": 8},
    "thm2": {"bound": 999},
    "thm3": {"bound": 300},
    "thm4": {"bound": 300},
    "thm5": {"n": 4},
    "thm6": {"n": 3},
    "thm7": {"n": 3},
    "thm8-recurrence": {"n": 5},
    "thm10": {"bound": 300},
    "cor2": {"limit": 1_000_000},
}


def test_suite_flags_are_pinned():
    got = [(name, list(suite.flags.items())) for name, suite in TABLE.items()]
    assert got == [(name, list(flags.items())) for name, flags in SUITE_FLAGS.items()]
    # flags is a copy: changing it leaves the check's defaults alone.
    TABLE["prop3"].flags["n"] = 0
    assert TABLE["prop3"].flags == {"n": 4, "kmax": 8}


def test_suite_parameters_are_keyword_only():
    for name, check in SUITES.items():
        with pytest.raises(TypeError):
            check(*SUITE_FLAGS[name].values())


def test_explicit_small_values_run_as_given():
    # Before, prop3(n=..., kmax=...) fell back to n=4, k<=8 on a falsy value;
    # the smallest in-range values now run as written.
    results = SUITES["prop3"](n=1, kmax=3)
    assert [(r.name, r.detail, r.items) for r in results] == [
        ("n=1 derivative >= 3", "1 prime indices, k <= 3", 1)
    ]
    assert [r.items for r in SUITES["prop2"](limit=1)] == [0]  # 2 <= k <= 1: vacuous


def test_readme_table_lists_each_suite_with_its_flags():
    # One row per suite in README's verify table, its last cell the suite's
    # flags with their defaults, so the documented flags cannot go stale.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Verification suites", 1)[1].split("\n#", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| `")]
    documented = [(cells[0].strip().strip("`"), cells[-1].strip().strip("`"))
                  for cells in rows]
    assert sorted(name for name, _ in documented) == sorted(TABLE)
    for name, flags in documented:
        want = " ".join(f"--{flag} {default}" for flag, default in TABLE[name].flags.items())
        assert flags == want, name


def test_definition_suites_obey_the_term_cap(capsys, monkeypatch):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "100")
    for argv, n in ((["prop1", "--limit", "60"], 121), (["cor1", "--limit", "101"], 101)):
        code, out, err = _verify(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"requested {n} terms of f_3; cap is 100" in err, argv
    assert _verify(capsys, "cor1", "--limit", "100")[0] == 0
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "1000")
    assert _verify(capsys, "prop2", "--limit", "334") == (
        2, "", "error: requested 1003 terms of f_3; cap is 1000 "
               "(set GCDPERM_MAX_TERMS to raise it)\n")
    assert _verify(capsys, "prop2", "--limit", "333")[0] == 0
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5000")
    for argv in (["prop1", "--limit", "2000"], ["cor1", "--limit", "4500"]):
        code, out, _ = _verify(capsys, *argv)
        assert code == 0 and "FAIL" not in out, argv


def _live_buffers():
    gc.collect()
    return sum(isinstance(obj, SequenceBuffer) for obj in gc.get_objects())


@pytest.mark.parametrize("name,limit", [("thm1", 3000), ("cor1", 3000), ("prop1", 700),
                                        ("prop2", 2000)])
def test_no_buffer_outlives_a_suite_call(name, limit):
    before = _live_buffers()
    assert all(r.ok for r in SUITES[name](limit=limit))
    assert _live_buffers() == before


def test_truncated_prefix_fails_the_index_identity():
    # Records through q fix f_3 through the index q: the check reads f_3(121).
    recs = _certified_records(2 * 60 + 1)
    assert recs[-3:].tolist() == [119, 121, 127]
    for enough in (recs, recs[:-1]):
        assert suites._index_identity("prop1", enough, 2, 1, 60).ok
    for short in (recs[:-2], recs[:-3], recs[:5], recs[:0]):
        assert not suites._index_identity("prop1", short, 2, 1, 60).ok
    # Records that reach further than the check reads pass as ones that reach far enough.
    assert suites._index_identity("prop1", _certified_records(500), 2, 1, 60).ok
    # A multiple of m listed as a record breaks the identity at it: f_3(4) = 5, not 3.
    assert not suites._index_identity("prop2", recs, 3, 1, 40).ok
    assert suites._index_identity("prop2", recs, 3, 2, 40).ok
    assert not suites._index_identity("prop1", array("q", sorted([*recs, 60])), 2, 1, 60).ok


@pytest.mark.parametrize("m,k_lo,k_max", [(2, 1, 60), (3, 2, 40)])
def test_index_identity_reads_both_ends(m, k_lo, k_max):
    # A multiple of m listed as a record breaks the identity at it.
    recs = _certified_records(m * k_max + 1)
    assert suites._index_identity("prop", recs, m, k_lo, k_max).ok
    for k, ok in ((k_lo - 1, True), (k_lo, False), (k_max, False), (k_max + 1, True)):
        listed = array("q", sorted({*recs, m * k}))
        assert suites._index_identity("prop", listed, m, k_lo, k_max).ok == ok, k


# A value planted after a record q = 1 mod 6 past the first 65,536 lanes of
# every slice a residue check reads, fed to the suites as proven records.
@pytest.mark.parametrize("fault,cor1_ok,prop1_ok,prop2_ok", [
    (None, [True] * 4, True, True),  # the true records
    # An even value, 2 mod 6: a turning point, not a record, and not 3k.
    (lambda q: q + 1, [False, True, False, False], False, True),
    # 3 mod 6: odd and a multiple of 3, so a record in neither form.
    (lambda q: q + 2, [True, True, True, False], True, False),
])
def test_a_planted_record_fails_its_residue_checks(monkeypatch, fault, cor1_ok, prop1_ok,
                                                    prop2_ok):
    recs = _certified_records(300_000)
    if fault:
        i = next(i for i in range(65_540, len(recs)) if recs[i] % 6 == 1)
        recs.insert(i + 1, fault(recs[i]))
        assert recs[i] < recs[i + 1] < recs[i + 2]
    monkeypatch.setattr(suites, "_certified_records", lambda n: array("q", recs))
    assert [r.ok for r in SUITES["cor1"](limit=250_000)] == cor1_ok
    assert [r.ok for r in SUITES["prop1"](limit=125_000)] == [prop1_ok]
    assert [r.ok for r in SUITES["prop2"](limit=83_333)] == [prop2_ok]


def test_cor1_counts_the_primes_missing_from_the_records():
    recs = array("q", (r for r in _certified_records(1000) if 5 <= r <= 1000))
    assert 101 in recs and 25 in recs  # a prime and a composite record
    check = suites._primes_are_records(recs, 1000)
    assert (check.ok, check.detail, check.items) == (True, "limit 1000", 166)
    without_101 = array("q", (r for r in recs if r != 101))
    check = suites._primes_are_records(without_101, 1000)
    assert (check.ok, check.detail, check.items) == (False, "1 missing", 166)
    assert suites._primes_are_records(array("q", (r for r in recs if r != 25)), 1000).ok
    # No record and one record read the sieve as a longer list does.
    assert suites._primes_are_records(array("q"), 4)[2:] == (True, "limit 4", 0)
    assert suites._primes_are_records(array("q", [5]), 5)[2:] == (True, "limit 5", 1)
    assert suites._primes_are_records(array("q"), 5)[2:] == (False, "1 missing", 1)


@pytest.mark.parametrize("count", [4095, 4096, 4097, 8193])
def test_cor1_gathers_the_prime_flags_a_chunk_at_a_time(count):
    # Record counts on both sides of the 4,096-record gather, and one that
    # leaves a chunk of one record.
    recs = memoryview(_certified_records(100_000))[1 : count + 1]
    limit = recs[-1]
    primes = primes_upto(limit)
    assert suites._primes_are_records(recs, limit)[2:] == (True, f"limit {limit}", len(primes) - 2)
    without_last = array("q", (r for r in recs if r != primes[-1]))
    check = suites._primes_are_records(without_last, limit)
    assert check[2:] == (False, "1 missing", len(primes) - 2)


@pytest.mark.parametrize("bound,identities", [
    (1, 0), (2, 1), (4, 2), (6, 3), (300, 51), (1200, 197), (30_030, 4865),
])
def test_thm10_identity_count_matches_the_band_count(bound, identities):
    result = SUITES["thm10"](bound=bound)[-1]
    assert result.name == "identity count vs band count"
    assert result.ok and result.detail.startswith(f"identity {identities}, bands ")


# cor1, prop1 and prop2 as they were when each simulated its own prefix of
# f_3 with the engine: the oracle of the suites that read the proven records.
def _engine_index_identity(suite, terms, m, k_lo, k_max):
    top = m * k_max + 1
    got = map(terms.__getitem__, range(m * k_lo + 1, top + 1, m))
    ok = len(terms) > top and all(map(eq, got, range(m * k_lo, top, m)))
    detail = f"k <= {k_max}" if k_lo == 1 else f"{k_lo} <= k <= {k_max}"
    return suites.CheckResult(suite, f"f_3({m}k+1) = {m}k", ok, detail,
                              max(k_max - k_lo + 1, 0))


def _engine_cor1(*, limit):
    suites._at_least(3, limit=limit)
    buf = generate_prefix(3, limit)
    recs = set()
    tps = 0
    parity_ok = True
    for tp in _turning_points(buf, limit):
        tps += 1
        parity_ok = parity_ok and tp.t % 2 == 0 and tp.record_value % 2 == 1
        if tp.record_value <= limit:
            recs.add(tp.record_value)
    primes = [p for p in primes_upto(limit) if p >= 5]
    missing = [p for p in primes if p not in recs]
    form_ok = all(r % 6 in (1, 5) for r in recs)
    return [
        _engine_index_identity("cor1", buf.terms, 2, 1, (limit - 1) // 2),
        suites.CheckResult("cor1", "every prime in [5, limit] is a record", not missing,
                           f"{len(missing)} missing" if missing else f"limit {limit}",
                           len(primes)),
        suites.CheckResult("cor1", "turning points even, records odd", parity_ok, items=tps),
        suites.CheckResult("cor1", "records are 6k +- 1", form_ok, items=len(recs)),
    ]


def _engine_prop1(*, limit):
    suites._at_least(1, limit=limit)
    return [_engine_index_identity("prop1", generate_prefix(3, 2 * limit + 1).terms, 2, 1, limit)]


def _engine_prop2(*, limit):
    suites._at_least(1, limit=limit)
    return [_engine_index_identity("prop2", generate_prefix(3, 3 * limit + 1).terms, 3, 2, limit)]


ENGINE_SUITES = {"cor1": _engine_cor1, "prop1": _engine_prop1, "prop2": _engine_prop2}
# Around the first block ends of 30030 and its half, for each suite's reach.
ORACLE_LIMITS = [*range(1, 41), 15014, 15015, 15016, 30029, 30030, 30031, 30032, 60061]


@pytest.mark.parametrize("name", list(ENGINE_SUITES))
def test_definition_suites_match_the_engine(name):
    for limit in ORACLE_LIMITS:
        try:
            want = ENGINE_SUITES[name](limit=limit)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                SUITES[name](limit=limit)
            continue
        assert SUITES[name](limit=limit) == want, limit


# The limits the benchmark's verify_suites workload runs each suite at.
@pytest.mark.parametrize("name,limit", [("cor1", 500_000), ("prop1", 300_000),
                                        ("prop2", 200_000)])
def test_definition_suites_match_the_engine_at_the_benchmark_limits(name, limit):
    assert SUITES[name](limit=limit) == ENGINE_SUITES[name](limit=limit)


def test_cor1_at_limit_3_checks_only_the_index_identity(capsys):
    code, out, _ = _verify(capsys, "cor1", "--limit", "3")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["PASS"] + ["VACUOUS"] * 3


# The output of `verify cor1` at the limits with no record (3, 4), one (5, 6)
# and two (7): the prime-flag gather takes each case.
COR1_HEAD = {
    3: ("PASS  [cor1] f_3(2k+1) = 2k                         k <= 1\n"
        "VACUOUS  [cor1] every prime in [5, limit] is a record  limit 3\n"
        "VACUOUS  [cor1] turning points even, records odd\n"
        "VACUOUS  [cor1] records are 6k +- 1\n"
        "cor1: 1/1 checks passed, 3 vacuous\n"),
    4: ("PASS  [cor1] f_3(2k+1) = 2k                         k <= 1\n"
        "VACUOUS  [cor1] every prime in [5, limit] is a record  limit 4\n"
        "PASS  [cor1] turning points even, records odd\n"
        "VACUOUS  [cor1] records are 6k +- 1\n"
        "cor1: 2/2 checks passed, 2 vacuous\n"),
    **{limit: (f"PASS  [cor1] f_3(2k+1) = 2k                         k <= {(limit - 1) // 2}\n"
               f"PASS  [cor1] every prime in [5, limit] is a record  limit {limit}\n"
               "PASS  [cor1] turning points even, records odd\n"
               "PASS  [cor1] records are 6k +- 1\n"
               "cor1: 4/4 checks passed\n") for limit in (5, 6, 7)},
}


@pytest.mark.parametrize("limit", sorted(COR1_HEAD))
def test_cor1_output_at_the_smallest_limits(capsys, limit):
    assert _verify(capsys, "cor1", "--limit", str(limit)) == (0, COR1_HEAD[limit], "")


def _f3_from_records(recs):
    """f_3(1..recs[-1]) from records that start at 3 = f_3(2), laid out like
    ``SequenceBuffer.terms``: past index 2, f_3(i) = i - 1, except that
    f_3(q + 1) is the record after q."""
    terms = [0, 1, 3, *range(2, recs[-1])]
    for q, r in zip(recs, recs[1:]):
        terms[q + 1] = r
    return terms


def _shift(by):
    def corrupt(recs):
        recs[50] += by
    return corrupt


def _insert_after(gap, offset):
    """Insert records[i] + offset after the first record i >= 50 whose step
    to the next record exceeds gap."""
    def corrupt(recs):
        i = next(i for i in range(50, len(recs)) if recs[i + 1] - recs[i] > gap)
        recs.insert(i + 1, recs[i] + offset)
    return corrupt


CORRUPTIONS = {
    "shifted by +2": _shift(2),
    "shifted by +6": _shift(6),
    "dropped": lambda recs: recs.pop(50),
    "inserted non-record": _insert_after(2, 2),
    "step d = 2": _insert_after(1, 1),  # q + 1 after q: d = (q + 1) - (q - 1)
    "repeated": _insert_after(1, 0),  # q after q: d = 1, which only d >= 3 rejects
    "wrong head": lambda recs: recs.pop(0),
}


def _corrupt_the_record_source(monkeypatch, corrupt):
    """Make records.cached_records apply corrupt to its array; return the true one."""
    source = records.cached_records

    def corrupted(limit):
        recs = source(limit)
        corrupt(recs)
        return recs

    monkeypatch.setattr(records, "cached_records", corrupted)
    return source


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_a_failed_certificate_cuts_at_the_last_proven_record(monkeypatch, case):
    true = _corrupt_the_record_source(monkeypatch, CORRUPTIONS[case])(1100)
    recs = _certified_records(1000)
    last = recs[-1]
    assert list(recs) == [3] + [r for r in true if r <= last]
    assert last < 1000 and (case != "wrong head" or last == 5)
    assert _f3_from_records(recs) == generate_prefix(3, last).terms


@pytest.mark.parametrize("case", list(CORRUPTIONS))
@pytest.mark.parametrize("argv", [["cor1", "--limit", "1000"], ["prop1", "--limit", "500"],
                                  ["prop2", "--limit", "333"]])
def test_a_failed_certificate_fails_the_suite(capsys, monkeypatch, case, argv):
    _corrupt_the_record_source(monkeypatch, CORRUPTIONS[case])
    code, out, _ = _verify(capsys, *argv)
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())


def test_cor1_fails_when_the_record_at_its_last_turning_point_is_unproven(capsys, monkeypatch):
    # Shifting records[50] proves f_3 only through q = records[49].  At the
    # limit q + 1 the index identity, the primes and the 6k +- 1 form hold
    # on what is proven; the record at the turning point q + 1 is unproven.
    q = _corrupt_the_record_source(monkeypatch, CORRUPTIONS["shifted by +2"])(1000)[49]
    code, out, _ = _verify(capsys, "cor1", "--limit", str(q + 1))
    assert code == 1
    assert [line.split()[0] for line in out.splitlines()[:-1]] == ["PASS", "PASS", "FAIL", "PASS"]


@pytest.mark.parametrize("index,value,last", [
    (16385, None, 16384),  # shifted by +2
    (16384, 7, 16383),  # below its predecessor: a lane inside the step lanes borrows
    # The steps are proven 65,536 at a time, so records[65536] ends the
    # first chunk and starts the second: the last two steps of the first
    # chunk fail, the first step of the second, and the top lane of the
    # first, a record below its predecessor.
    (65535, None, 65534),
    (65537, None, 65536),
    (65536, 7, 65535),
])
def test_a_failed_certificate_past_the_first_chunk(monkeypatch, index, value, last):
    def corrupt(recs):
        recs[index] = recs[index] + 2 if value is None else value

    limit = 60_000 if index < 65_535 else 250_000  # the source must reach past index
    true = _corrupt_the_record_source(monkeypatch, corrupt)(limit)
    recs = _certified_records(limit)
    assert list(recs) == [3, *true[: last + 1]]
    assert _f3_from_records(recs) == generate_prefix(3, true[last]).terms


def test_a_failed_certificate_at_a_borrowing_top_lane(monkeypatch):
    # The source ends in 7 after records[index - 1]: the last step lane
    # borrows past the top of the packed int, in the first chunk of 65,536
    # steps and at the start of the second.
    for index, limit in [(16384, 60_000), (65_536, 250_000)]:
        def corrupt(recs):
            recs[index:] = array("q", [7])

        with monkeypatch.context() as patch:
            true = _corrupt_the_record_source(patch, corrupt)(limit)
            assert records.cached_records(limit + 53)[-2:].tolist() == [true[index - 1], 7]
            assert list(_certified_records(limit)) == [3, *true[:index]]


@pytest.mark.parametrize("n,first", [(1, [3]), (2, [3]), (3, [3, 5]), (4, [3, 5]),
                                     (5, [3, 5, 7]), (6, [3, 5, 7]), (7, [3, 5, 7, 11])])
def test_certified_records_run_through_the_first_record_past_n(n, first):
    assert list(_certified_records(n)) == first


def _plain_cut(recs, start):
    """The index of the last record of recs that a step-by-step proof from
    recs[start] reaches: the step q < r holds when d >= 3, gcd(d, m) = 1
    and every prime below d divides m, for m = q - 1 and d = r - m."""
    i = start
    while i + 1 < len(recs):
        m = recs[i] - 1
        d = recs[i + 1] - m
        if not (d >= 3 and math.gcd(d, m) == 1
                and all(m % p == 0 for p in range(2, d) if all(p % f for f in range(2, p)))):
            break
        i += 1
    return i


# The source ends inside block 5, which starts at its record 30030 * 5 + 1.
PLAIN_LIMIT = 170_000
SINGLE_LANE_CORRUPTIONS = {
    "+2": lambda recs, i: recs.__setitem__(i, recs[i] + 2),
    "-2": lambda recs, i: recs.__setitem__(i, recs[i] - 2),
    "set to 7": lambda recs, i: recs.__setitem__(i, 7),
    "dropped": lambda recs, i: recs.pop(i),
    "duplicated": lambda recs, i: recs.insert(i, recs[i]),
}


def _lanes_to_corrupt():
    """Source lanes around the first records 30030 j + 1 of blocks 1, 2 and
    5, the first lanes and the last lane of block 0, and one tail lane."""
    true = records.cached_records(PLAIN_LIMIT + 53)
    entries = [true.index(30030 * j + 1) for j in (1, 2, 5)]
    around = [i + o for i in entries for o in range(-2, 3)]
    assert entries[0] == 8855 and true[8855] == 30031
    return sorted({0, 1, 8854, 8855, 8856, *around, bisect_right(true, PLAIN_LIMIT) - 3})


def test_the_plain_prover_proves_the_true_records():
    true = records.cached_records(PLAIN_LIMIT + 53)
    assert _plain_cut(true, 0) == len(true) - 1


@pytest.mark.parametrize("index", _lanes_to_corrupt())
def test_certified_records_agree_with_a_plain_prover(monkeypatch, index):
    # The source is the true records up to index - 1, whose steps the plain
    # prover proves (the test above), so it starts two lanes before index.
    for name, corrupt in SINGLE_LANE_CORRUPTIONS.items():
        with monkeypatch.context() as patch:
            clean = _corrupt_the_record_source(patch, lambda recs: corrupt(recs, index))
            true, source = clean(PLAIN_LIMIT + 53), records.cached_records(PLAIN_LIMIT + 53)
            got = list(_certified_records(PLAIN_LIMIT))
        start = max(0, index - 2)
        assert source[:start] == true[:start]
        proven = [3, 5, *source[1 : _plain_cut(source, start) + 1]] if source[0] == 5 else [3, 5]
        assert got == proven[: bisect_right(proven, PLAIN_LIMIT) + 1], name


def test_certified_records_prove_block_0_and_one_step_per_later_block(monkeypatch):
    # Block 0 takes its 8,855 steps; each later block its first step, and
    # its other lanes one comparison with block 0.
    steps_hold = records._steps_hold
    counted = []

    def counting(lanes, below):
        counted.append(len(lanes) - 1)
        return steps_hold(lanes, below)

    monkeypatch.setattr(records, "_steps_hold", counting)
    recs = _certified_records(2_000_000)
    blocks = (2_000_000 + 53) // 30030 + 1
    assert list(recs[1:]) == list(records.cached_records(recs[-1]))
    assert 8855 <= sum(counted) <= 8855 + 2 * blocks


def test_certified_records_prove_a_chunk_at_a_time():
    # One chunk of step lanes is alive at a time, so the peak is the record
    # source, the result and a little more.
    tracemalloc.start()
    try:
        recs = _certified_records(2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * recs.itemsize * len(recs)


def test_certified_records_cut_the_source_in_place():
    # The result is the record source itself, cut and with 3 prepended, so
    # no second record-sized array is alive beside it.
    tracemalloc.start()
    try:
        recs = _certified_records(2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * recs.itemsize * len(recs)


def test_cor1_reads_the_proven_records_without_a_copy():
    # cor1 bisects and slices a memoryview of the records, so beside the
    # proven records only the sieve and one chunk of step lanes are alive.
    # Two slice copies of the records would lift the peak to about 3x.
    recs = _certified_records(10**6)
    size = recs.itemsize * len(recs)
    tracemalloc.start()
    try:
        checks = suites.cor1(limit=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert peak <= 2.6 * size


@pytest.mark.parametrize("limit", [30_030, 60_061])
def test_definition_suites_build_no_term_array(monkeypatch, limit):
    # They read f_3 from the proven records: no term builder runs, and the
    # engine simulates only the base f_3(1..5).
    def refuse(n):
        raise AssertionError(f"f3_terms({n})")

    engine = records.generate_prefix

    def short_engine(a, n):
        assert n <= 5, n
        return engine(a, n)

    monkeypatch.setattr(records, "f3_terms", refuse)
    monkeypatch.setattr(records, "generate_prefix", short_engine)
    for name in ENGINE_SUITES:
        assert all(r.ok and not r.vacuous for r in SUITES[name](limit=limit)), name


@pytest.mark.parametrize("value", [0, 7, [], [3, 5], (1,), (2, 9, 62)])
def test_shown_matches_str_within_the_int_limit(value):
    assert suites._shown(value) == str(value)


def test_shown_shortens_an_int_past_the_int_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any length")
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert suites._shown(10**4300 - 1) == "9" * 4300
        assert suites._shown(10**4300 + 1) == "10000...00001 (4301 digits)"
        assert suites._shown([2 * 10**5000 - 7, 5]) == "[19999...99993 (5001 digits), 5]"
        sys.set_int_max_str_digits(0)  # no limit
        assert suites._shown(10**4300 + 1) == "1" + "0" * 4299 + "1"
    finally:
        sys.set_int_max_str_digits(before)


def test_thm5_forms_no_primorial_outside_the_table(monkeypatch):
    # P_3200 has 42,253 bits: the record queries near it stay below the
    # 42,966 bits of P_3248 and compare with no primorial.
    def refuse(*args):
        raise AssertionError("records.prod called")

    monkeypatch.setattr(records, "prod", refuse)
    results = SUITES["thm5"](n=3200)
    assert results and all(r.ok for r in results)


@pytest.mark.parametrize("name", ["thm5", "thm8-recurrence"])
def test_suites_past_the_int_limit_pass(name):
    # P_1400 has 4,988 digits, past the interpreter's 4,300 for str().
    results = SUITES[name](n=1400)
    assert results and all(r.ok for r in results), name
