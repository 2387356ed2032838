import pytest

from gcdperm import (
    IncompleteCycleError,
    cycle_index,
    decompose,
    generate_prefix,
    record_values,
    twin_cycle_gaps,
)
from gcdperm.cli import main
from gcdperm.primes import primes_upto

F3_CYCLES_TO_25 = [
    (3, 2),
    (5, 4),
    (7, 6),
    (11, 10, 9, 8),
    (13, 12),
    (17, 16, 15, 14),
    (19, 18),
    (23, 22, 21, 20),
    (25, 24),
]


def test_f3_cycle_display():
    cycles = decompose(3, 25)
    assert [c.elements for c in cycles] == F3_CYCLES_TO_25
    assert [c.index for c in cycles] == list(range(1, 10))


def test_identity_class_decompositions():
    # f_6 splits into two cycles; the walk 6 -> f(6)=4 -> f(4)=2 -> f(2)=6
    # closes one, and 3 <-> 5 the other.
    assert [c.elements for c in decompose(6, 6)] == [(6, 4, 2), (5, 3)]
    assert [c.elements for c in decompose(12, 12)] == [(12, 10, 8, 6, 4, 2), (5, 3), (11, 9)]


def test_cycles_roundtrip():
    for a in (3, 6, 7, 12, 36, 216):
        buf = generate_prefix(a, 1000)
        terms = buf.terms
        for cyc in decompose(a, 200):
            elems = cyc.elements
            for i, v in enumerate(elems):
                assert terms[v] == elems[(i + 1) % len(elems)]


def test_cycles_partition_covered_range():
    cycles = decompose(3, 100, include_fixed=True)
    covered = sorted(v for c in cycles for v in c.elements if v <= 100)
    assert covered == list(range(1, 101))


def test_fixed_points():
    with_fixed = decompose(12, 13, include_fixed=True)
    fixed = [c.elements[0] for c in with_fixed if len(c) == 1]
    assert fixed == [1, 7, 13]
    assert all(c.index is None for c in with_fixed if len(c) == 1)
    # suppressed by default, and indices unaffected either way
    assert [c.index for c in decompose(12, 13)] == [1, 2, 3]
    assert [c.index for c in with_fixed if c.index] == [1, 2, 3]


def _index_by_value(cycles):
    return {v: c.index for c in cycles if c.index is not None for v in c.elements}


def test_cycle_index_examples():
    assert _index_by_value(decompose(3, 25)) == {v: cycle_index(v) for v in range(2, 26)}
    assert cycle_index(23) == 8
    assert cycle_index(25) == 9
    assert cycle_index(5) == 2
    assert cycle_index(24) == 9  # whole block shares the index
    assert cycle_index(26) == 10  # no limit: the record list grows on demand


def test_record_backed_index_agrees_with_decomposition():
    limit = 10_000
    by_value = _index_by_value(decompose(3, limit))
    for v in range(2, limit + 1):
        assert cycle_index(v) == by_value[v]


@pytest.mark.parametrize("v", [1, 0, -5])
def test_cycle_index_rejects_values_below_2(v):
    # 1 is the lone fixed point of f_3: it has no nontrivial cycle.
    with pytest.raises(ValueError):
        cycle_index(v)


def test_f3_cycles_are_record_blocks():
    # Each nontrivial cycle runs from a record down to its turning point.
    # The block through 10_000 can top out above it, hence the headroom.
    recs = set(record_values(10_200))
    for cyc in decompose(3, 10_000):
        top, bottom = cyc.elements[0], cyc.elements[-1]
        assert cyc.elements == tuple(range(top, bottom - 1, -1))
        if top > 3:
            assert top in recs


def test_twin_cycle_gaps_examples():
    rows = twin_cycle_gaps(100)
    by_pair = {(m, big): (ga, gb) for _, m, big, ga, gb in rows}
    # consecutive pairs (5,7) -> (11,13): C(11)-C(7) = 4-3,  C(13)-C(5) = 5-2
    assert by_pair[(5, 7)] == (1, 3)
    # consecutive pairs (11,13) -> (17,19): C(17)-C(13) = 6-5
    assert by_pair[(11, 13)][0] == 1
    assert rows[0][1:3] == (3, 5)  # the enumeration starts at the pair (3, 5)
    assert [r[0] for r in rows] == list(range(1, len(rows) + 1))


def test_fig1_rows_match_gaps_from_the_decomposition(tmp_path):
    # Every fig1 row at --limit 10000 against the cycle indices that
    # decompose(3, ...) assigns, with no record list involved.
    assert main(["--quiet", "export-figures", "fig1", "--limit", "10000",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "fig1.csv").read_text().splitlines()
    assert lines[0] == "j,m_j,M_j,gap_a,gap_b"
    index = _index_by_value(decompose(3, 10_000))
    primes = set(primes_upto(10_000))
    pairs = [(p, p + 2) for p in sorted(primes) if p + 2 in primes]
    want = [
        f"{j},{lo},{hi},{index[nlo] - index[hi]},{index[nhi] - index[lo]}"
        for j, ((lo, hi), (nlo, nhi)) in enumerate(zip(pairs, pairs[1:]), start=1)
    ]
    assert lines[1:] == want


def test_twin_cycle_gaps_degenerate():
    assert twin_cycle_gaps(4) == []
    assert twin_cycle_gaps(6) == []  # single pair (3,5): nothing to difference


def test_twin_cycle_gap_range_probe():
    # Observed range of the second gap series up to 1e6; reported, not asserted.
    rows = twin_cycle_gaps(1_000_000)
    assert rows
    gaps_b = [gb for *_, gb in rows]
    negatives = sum(g < 0 for g in gaps_b)
    print(
        f"twin cycle gap series up to 1e6: {len(rows)} rows, "
        f"gap_b range [{min(gaps_b)}, {max(gaps_b)}], {negatives} negative"
    )


def test_incomplete_cycle_error(monkeypatch):
    # The cycle (11, 10) of f_9 needs terms up to index 11.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "10")
    with pytest.raises(IncompleteCycleError):
        decompose(9, 10)
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "12")
    cycles = decompose(9, 10)
    assert cycles[-1].elements == (11, 10)


def test_seed_above_the_term_cap_decomposes_within_it(monkeypatch):
    # The cap bounds the terms walked, not the seed: f_7 starts 1, 7, 2, 3,
    # so the cycle through 1 closes at once and the one through 2 needs f(7).
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "5")
    assert [c.elements for c in decompose(7, 1, include_fixed=True)] == [(1,)]
    with pytest.raises(IncompleteCycleError, match="cycle through 2 in f_7"):
        decompose(7, 2)
