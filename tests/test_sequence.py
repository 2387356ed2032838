import math
import random

import pytest

from gcdperm import LimitExceededError, SequenceBuffer, find_turning_points, generate_prefix

F3_24 = [1, 3, 2, 5, 4, 7, 6, 11, 8, 9, 10, 13, 12, 17, 14, 15, 16, 19, 18, 23, 20, 21, 22, 25]
F7_12 = [1, 7, 2, 3, 4, 5, 6, 11, 8, 9, 10, 13]
F36_18 = [1, 36, 5, 2, 3, 4, 7, 6, 11, 8, 9, 10, 13, 12, 17, 14, 15, 16]
F36_38 = F36_18 + [19, 18, 23, 20, 21, 22, 25, 24, 29, 26, 27, 28, 31, 30, 37, 32, 33, 34, 35, 38]


def test_golden_prefixes():
    assert list(generate_prefix(3, 24)) == F3_24
    assert list(generate_prefix(7, 12)) == F7_12
    assert list(generate_prefix(36, 18)) == F36_18
    assert list(generate_prefix(36, 38)) == F36_38


def test_extend_single_steps():
    buf = SequenceBuffer(3)
    assert buf.extend() == 2
    buf = SequenceBuffer(2)
    assert buf.extend() == 3
    buf = generate_prefix(3, 23)
    assert buf.extend() == 25
    assert len(buf) == 24


def test_extend_matches_bulk_generation():
    for a in (2, 3, 4, 7, 36, 41, 216):
        step = SequenceBuffer(a)
        for _ in range(300 - 2):
            step.extend()
        assert list(step) == list(generate_prefix(a, 300))


def test_indexing_and_iteration():
    buf = generate_prefix(3, 24)
    assert buf[1] == 1 and buf[2] == 3 and buf[24] == 25
    assert len(buf) == 24
    with pytest.raises(IndexError):
        buf[0]
    with pytest.raises(IndexError):
        buf[25]


@pytest.mark.parametrize("a,n", [(7, 40), (36, 20), (3, 11), (216, 216)])
def test_resume_continues_from_a_given_state(a, n, monkeypatch):
    # f_a's state at index n, read off a full prefix, resumed: the same terms
    # and turning points past n, and only f(n) stored below them.
    full = generate_prefix(a, n + 200)
    terms = full.terms
    used = set(terms[1 : n + 1])
    low = min(set(range(1, n + 2)) - used)
    buf = SequenceBuffer.resume(a, n, terms[n], low, {v for v in used if v > low})
    assert len(buf) == n and buf.head_max == max(used)
    buf.extend_to(n + 200)
    assert buf.terms == terms[n:] and list(buf) == terms[n:] and buf[n] == terms[n]
    with pytest.raises(IndexError):
        buf[n - 1]
    assert find_turning_points(buf) == [tp for tp in find_turning_points(full) if tp.t > n]
    # The cap counts the terms past the base.
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "10")
    buf = SequenceBuffer.resume(a, n, terms[n], low, {v for v in used if v > low})
    buf.extend_to(n + 10)
    with pytest.raises(LimitExceededError, match=f"requested 11 terms of f_{a}; cap is 10"):
        buf.extend()


def test_engine_matches_naive_generator(naive_prefix):
    for a in range(2, 301):
        n = 3 * a + 300
        assert generate_prefix(a, n).terms == naive_prefix(a, n), a
    # Seeds whose unused values 2..a-1 wait below a for about a terms.
    for a in (20_002, 30_030, 200_002):
        assert generate_prefix(a, 2 * a).terms == naive_prefix(a, 2 * a), a


def test_pool_peak_against_running_maximum():
    # pool_peak: the most unused values below the largest assigned value.
    for a, n in ((2, 500), (3, 5000), (7, 997), (36, 500), (1001, 3000), (20_002, 40_004)):
        buf = generate_prefix(a, n)
        top = peak = 0
        for i, v in enumerate(buf, 1):
            top = max(top, v)
            if i >= 2:
                peak = max(peak, top - i)
        assert buf.pool_peak == peak, a
        buf.extend()
        assert buf.pool_peak >= peak


def test_injectivity():
    for a in (2, 3, 4, 7, 36, 216, 1001):
        buf = generate_prefix(a, 3000)
        assert len(set(buf)) == len(buf)


def test_coprimality_invariant():
    for a in (3, 7, 36, 216):
        buf = generate_prefix(a, 2000)
        terms = buf.terms
        assert all(math.gcd(terms[n], terms[n - 1]) == 1 for n in range(3, 2001))


def test_minimality_replay():
    # Re-check, from scratch, that each term really was the smallest unused
    # value coprime to its predecessor.
    rng = random.Random(42)
    for a in (3, 7, 36):
        buf = generate_prefix(a, 20_000)
        terms = buf.terms
        sample = set(rng.sample(range(3, 20_001), 40)) | set(range(3, 300))
        used = {1, a}
        for n in range(3, 20_001):
            prev = terms[n - 1]
            chosen = terms[n]
            if n in sample:
                assert chosen not in used and math.gcd(chosen, prev) == 1
                for v in range(1, chosen):
                    assert v in used or math.gcd(v, prev) != 1
            used.add(chosen)


def test_surjectivity_growth(f3_million):
    # Every value n <= 1e5 has appeared by index 2n.
    first_seen = [0] * (100_001)
    terms = f3_million.terms
    for i in range(1, len(terms)):
        v = terms[i]
        if v <= 100_000 and first_seen[v] == 0:
            first_seen[v] = i
    latest = 0
    for n in range(1, 100_001):
        assert first_seen[n] > 0
        latest = max(latest, first_seen[n])
        assert latest <= 2 * n


def test_odd_index_identity_to_1e5(f3_million):
    terms = f3_million.terms
    assert all(terms[2 * k + 1] == 2 * k for k in range(1, 100_001))


def test_multiples_of_three_identity_to_1e5(f3_million):
    terms = f3_million.terms
    assert all(terms[3 * k + 1] == 3 * k for k in range(2, 100_001))


def test_pool_stays_small_over_a_million_terms(f3_million):
    assert f3_million.pool_peak <= 64


def test_seed_validation():
    with pytest.raises(ValueError):
        SequenceBuffer(1)
    with pytest.raises(ValueError):
        SequenceBuffer(0)
    with pytest.raises(ValueError):
        generate_prefix(3, 1)
    assert SequenceBuffer(2).a == 2


def test_term_cap(monkeypatch, naive_prefix):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "50")
    with pytest.raises(LimitExceededError):
        generate_prefix(3, 100)
    buf = generate_prefix(3, 50)
    assert buf.cap == 50
    with pytest.raises(LimitExceededError):
        buf.extend()
    # The cap bounds the terms, not the seed: a seed above the cap starts,
    # and its terms stop at the cap.
    assert list(generate_prefix(100, 50)) == naive_prefix(100, 50)[1:]
    with pytest.raises(LimitExceededError, match="requested 51 terms of f_100; cap is 50"):
        generate_prefix(100, 51)


def test_term_cap_env_override(monkeypatch):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", "40")
    with pytest.raises(LimitExceededError):
        generate_prefix(3, 41)
    assert len(generate_prefix(3, 40)) == 40


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-40"])
def test_term_cap_env_must_be_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("GCDPERM_MAX_TERMS", raw)
    with pytest.raises(LimitExceededError, match="positive integer"):
        generate_prefix(5, 10)
