from pathlib import Path

import pytest

from gcdperm import derivative_bound_check, reconstruct_f3, records
from gcdperm.suites import SUITES, TABLE


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


def test_thm5_leaves_the_shared_record_list_alone():
    # Each target is one is_record query; P_12 is about 7.4e12.
    before = len(records._CACHE)
    results = SUITES["thm5"](n=12)
    assert len(results) == 11 and all(r.ok for r in results)
    assert len(records._CACHE) == before


def test_prop3_leaves_the_shared_record_list_alone():
    # Each prime index q asks two is_record queries; q reaches about 3e6.
    before = len(records._CACHE)
    results = SUITES["prop3"](n=6, kmax=100)
    assert [r.items for r in results] == [43, 51, 51, 46, 42, 40] and all(r.ok for r in results)
    assert len(records._CACHE) == before


def test_prop3_derivative_matches_the_record_reconstruction():
    for n in (1, 2, 3, 4):
        rows = derivative_bound_check(n, 40)
        assert rows
        assert all(row.derivative == reconstruct_f3(row.q + 1) - reconstruct_f3(row.q)
                   for row in rows)


def test_suites_take_only_their_own_parameters():
    with pytest.raises(TypeError):
        SUITES["prop3"](bound=7)
    with pytest.raises(TypeError):
        SUITES["thm2"](bound=9, budget=5)
    assert TABLE["prop3"].flags == {"n": 4, "kmax": 8}
    assert TABLE["thm10"].flags == {"bound": 300}


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
