import gc
from pathlib import Path

import pytest

from gcdperm import derivative_bound_check, generate_prefix, reconstruct_f3, suites
from gcdperm.cli import main
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
    terms = generate_prefix(3, 2 * 60 + 1).terms
    assert suites._index_identity("prop1", terms, 2, 1, 60).ok
    for short in (terms[:-1], terms[:-2], terms[:50]):
        assert not suites._index_identity("prop1", short, 2, 1, 60).ok
    # A prefix that holds more than the check reads passes as one that holds enough.
    assert suites._index_identity("prop1", generate_prefix(3, 500).terms, 2, 1, 60).ok


@pytest.mark.parametrize("bound,identities", [
    (1, 0), (2, 1), (4, 2), (6, 3), (300, 51), (1200, 197), (30_030, 4865),
])
def test_thm10_identity_count_matches_the_band_count(bound, identities):
    result = SUITES["thm10"](bound=bound)[-1]
    assert result.name == "identity count vs band count"
    assert result.ok and result.detail.startswith(f"identity {identities}, bands ")
