import pytest

from gcdperm import (
    CycleIndexMap,
    IncompleteCycleError,
    UnknownCycleValueError,
    decompose,
    generate_prefix,
    record_values,
    twin_cycle_gaps,
)

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


def test_cycle_index_examples():
    cmap = CycleIndexMap.from_cycles(decompose(3, 25))
    assert cmap.index_of(23) == 8
    assert cmap.index_of(25) == 9
    assert cmap.index_of(5) == 2
    assert cmap.index_of(24) == 9  # whole block shares the index
    with pytest.raises(UnknownCycleValueError):
        cmap.index_of(26)


def test_record_backed_index_agrees_with_decomposition():
    limit = 10_000
    from_cycles = CycleIndexMap.from_cycles(decompose(3, limit))
    fast = CycleIndexMap.for_f3(limit)
    for v in range(2, limit + 1):
        assert fast.index_of(v) == from_cycles.index_of(v)
    with pytest.raises(UnknownCycleValueError):
        fast.index_of(1)  # the lone fixed point has no nontrivial cycle


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


def test_incomplete_cycle_error():
    # The cycle (11, 10) of f_9 needs terms up to index 11.
    with pytest.raises(IncompleteCycleError):
        decompose(9, 10, max_terms=10)
    cycles = decompose(9, 10, max_terms=12)
    assert cycles[-1].elements == (11, 10)
