"""The result records are frozen ``NamedTuple``s.

Each keeps the field names, field order, defaults, properties and methods
it had as a frozen dataclass; being a tuple, it also iterates, indexes and
compares equal to a tuple of the same values.
"""

from fractions import Fraction

import pytest

from gcdperm import (
    ClassLabel,
    Cycle,
    DensityLedger,
    DerivativeCheck,
    KappaBounds,
    PrimorialRecordReport,
    Record,
    ScanRow,
    TranslationReport,
    build_density_ledger,
    classify,
    decompose,
    derivative_bound_check,
    kappa_bounds,
    kappa_coarse_bounds,
    record_stream_upto,
    scan_identity_seeds,
    verify_primorial_records,
    verify_translation,
)
from gcdperm.suites import SUITES, CheckResult

FIELDS = {
    ClassLabel: ("verdict", "witness", "etps"),
    ScanRow: ("a", "verdict", "witness", "record_test", "primorial_test"),
    Record: ("value", "turning_point", "jump", "is_composite"),
    Cycle: ("elements", "index"),
    CheckResult: ("suite", "name", "ok", "detail", "items"),
    PrimorialRecordReport: ("n", "r_range", "checked", "missing"),
    TranslationReport: ("n", "stated", "failures", "maximal"),
    KappaBounds: ("lower", "upper"),
    DerivativeCheck: ("k", "q", "derivative", "bound"),
    DensityLedger: ("s", "w", "kappa_empirical"),
}

# kappa_bounds(k) for k = 4..12 as (lower, upper), as the dataclass version gave them.
KAPPA_BOUNDS = {
    4: ("241/840", "31/105"),
    5: ("2677/9240", "227/770"),
    6: ("34829/120120", "4426/15015"),
    7: ("2169/7480", "50161/170170"),
    8: ("11250649/38798760", "1429588/4849845"),
    9: ("258764981/892371480", "1992759/6760390"),
    10: ("2501394843/8626257640", "953535181/3234846615"),
    11: ("1007055067/3472908920", "59119181221/200560490130"),
    12: ("662099973673/2283304041480", "21445193188/72752334655"),
}


def _samples():
    """One instance of every record type, as the library builds it."""
    return [
        classify(7),
        scan_identity_seeds(12)[-1],
        record_stream_upto(30)[-1],
        decompose(3, 11)[-1],
        SUITES["thm5"](n=2)[0],
        verify_primorial_records(2),
        verify_translation(2),
        kappa_bounds(4),
        derivative_bound_check(1, 8)[0],
        build_density_ledger(2),
    ]


def test_every_type_is_sampled():
    assert [type(obj) for obj in _samples()] == list(FIELDS)


@pytest.mark.parametrize("obj", _samples(), ids=lambda obj: type(obj).__name__)
def test_fields_follow_the_dataclass_order(obj):
    assert type(obj)._fields == FIELDS[type(obj)]


@pytest.mark.parametrize("obj", _samples(), ids=lambda obj: type(obj).__name__)
def test_assigning_a_field_raises(obj):
    for field in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)


@pytest.mark.parametrize("obj", _samples(), ids=lambda obj: type(obj).__name__)
def test_equal_by_value(obj):
    values = [getattr(obj, field) for field in obj._fields]
    copy = type(obj)(*values)
    assert copy is not obj and copy == obj and hash(copy) == hash(obj)
    assert obj == tuple(values)


def test_defaults():
    assert ClassLabel("c3", 4).etps == ()
    result = CheckResult("thm5", "check", True)
    assert result.detail == "" and result.items is None


def test_properties():
    assert CheckResult("s", "n", True, items=0).vacuous
    assert not CheckResult("s", "n", True).vacuous
    assert not CheckResult("s", "n", True, items=3).vacuous
    assert ScanRow(6, "identity", 7, True, True).agree
    assert not ScanRow(6, "identity", 7, True, False).agree
    assert ScanRow(30, "c3", 32, False, False).agree
    assert PrimorialRecordReport(2, (1, 4), (5, 7), ()).passed
    assert not PrimorialRecordReport(2, (1, 4), (5, 7), (7,)).passed
    assert TranslationReport(2, (5, 24), (), (1, 30)).holds_on_stated
    assert not TranslationReport(2, (5, 24), (9,), (0, 0)).holds_on_stated
    assert DerivativeCheck(1, 7, 3, 3).ok
    assert not DerivativeCheck(1, 7, 2, 3).ok
    ledger = build_density_ledger(4)
    assert ledger.recurrence_holds() and ledger.ratios_non_increasing()


def test_len_of_a_cycle_counts_its_elements():
    cycle = Cycle((11, 10, 9, 8), 4)
    assert len(cycle) == len(cycle.elements) == 4
    assert [len(c) for c in decompose(3, 25)] == [len(c.elements) for c in decompose(3, 25)]
    assert len(Cycle((1,), None)) == 1


def test_kappa_bounds_are_the_same_fractions():
    for k, (lower, upper) in KAPPA_BOUNDS.items():
        bounds = kappa_bounds(k)
        assert type(bounds.lower) is Fraction and type(bounds.upper) is Fraction
        assert bounds == (Fraction(lower), Fraction(upper)), k
    coarse = kappa_coarse_bounds()
    assert type(coarse.lower) is Fraction and type(coarse.upper) is Fraction
    assert coarse == (Fraction(391, 1500), Fraction(37, 125))
