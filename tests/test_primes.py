import random
from math import prod

import pytest

from gcdperm import is_record, next_record, primes
from gcdperm.primes import (is_prime, nth_prime, primes_upto, primorial,
                            sieve_flags, smallest_prime_not_dividing)

# psi_12 (Sorenson & Webster 2017): the smallest strong pseudoprime to every
# prime base up to 37.
PSI_12 = 318_665_857_834_031_151_167_461


def naive_spnd(m):
    """Least prime not dividing m, by trial over every integer from 2."""
    p = 2
    while m % p == 0 or any(p % d == 0 for d in range(2, p)):
        p += 1
    return p


def test_spnd_matches_naive_scan_over_two_wheel_periods():
    # 1..60060 covers every residue mod 30030 = 2*3*5*7*11*13 twice,
    # including the two multiples of 30030 that take the fallback scan.
    bad = [m for m in range(1, 60_061) if smallest_prime_not_dividing(m) != naive_spnd(m)]
    assert bad == []


@pytest.mark.parametrize(
    "m,want",
    [
        (30030, 17),
        (510510, 19),
        (9699690, 23),
        (223092870, 29),
        (2 * 30030, 17),
        (16 * 30030, 17),
        (18 * 30030, 17),
        (1001 * 30030, 17),
        (12345 * 30030, 17),
    ],
)
def test_spnd_fallback_at_multiples_of_30030(m, want):
    assert smallest_prime_not_dividing(m) == want == naive_spnd(m)


def _trial_spnd(m, primes):
    """Least prime not dividing m, by trial division over an ascending prime list."""
    return next(p for p in primes if m % p)


def test_spnd_primorial_search_matches_trial_division():
    ps = primes_upto(13_000)  # p_1501 = 12,569
    assert [m for m in range(1, 100_001) if smallest_prime_not_dividing(m) != _trial_spnd(m, ps)] == []
    rng = random.Random(2023)
    assert [m for m in (rng.randrange(1, 2**64) for _ in range(1_000))
            if smallest_prime_not_dividing(m) != _trial_spnd(m, ps)] == []
    below = [1]  # below[i] is the product of the first i primes, P_i
    for p in ps[:1_501]:
        below.append(below[-1] * p)
    for n in range(1, 1_501):
        for c in (1, 2, ps[n] - 1):
            m = c * below[n]
            p = smallest_prime_not_dividing(m)
            i = ps.index(p)
            # Trial division stops at ps[i] exactly when ps[i] does not divide
            # m and every smaller prime does, so their product P_i divides m.
            assert m % p and m % below[i] == 0, (n, c)
            if n <= 300:
                assert p == _trial_spnd(m, ps), (n, c)


@pytest.mark.parametrize("n", [50, 400, 1400])
def test_spnd_grows_the_primorial_table_to_about_twice_its_answer(monkeypatch, n):
    # spnd(c P_n) = p_(n+1).  From a cold table the search steps 1, 2, 4, ...
    # past the table's end, so it stops below twice the answer's index; on a
    # table that holds P_n it adds at most P_(n+1).
    ps = primes_upto(13_000)
    pn = prod(ps[:n])
    for c in (1, 2):
        monkeypatch.setattr(primes, "_PRIMORIALS", [2])
        assert smallest_prime_not_dividing(c * pn) == ps[n]
        assert len(primes._PRIMORIALS) <= 2 * (n + 1), c
    monkeypatch.setattr(primes, "_PRIMORIALS", [2])
    assert primorial(n) == pn
    assert smallest_prime_not_dividing(pn) == ps[n]
    assert len(primes._PRIMORIALS) <= n + 1


def test_spnd_rejects_nonpositive():
    with pytest.raises(ValueError):
        smallest_prime_not_dividing(0)


def test_is_prime_rejects_psi12():
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    assert is_prime(399_165_290_221) and is_prime(798_330_580_441)
    assert not is_prime(PSI_12)


def test_is_prime_refuses_from_the_proven_bound():
    # 3,317,044,064,679,887,385,961,981 is the least strong pseudoprime to
    # all 13 bases; below it the answer is proven, from it on there is none.
    bound = 3_317_044_064_679_887_385_961_981
    assert is_prime(bound - 1) is False
    assert is_prime(bound - 168) and not any(is_prime(bound - d) for d in range(1, 168))
    for n in (bound, bound + 2, 10**36):
        with pytest.raises(ValueError, match="3,317,044,064,679,887,385,961,981"):
            is_prime(n)


def test_psi12_is_a_composite_record():
    # The largest prime below psi_12 is psi_12 - 20; the record walk from
    # there reaches psi_12, so it is a record although it is not prime.
    p = PSI_12 - 20
    assert is_prime(p) and not any(is_prime(v) for v in range(p + 1, PSI_12 + 1))
    walk = [p]
    while walk[-1] < PSI_12:
        walk.append(next_record(walk[-1]))
    assert [r - PSI_12 for r in walk] == [-20, -18, -14, -12, -8, -6, -2, 0]
    assert is_record(PSI_12)


def test_primes_upto_reads_the_sieve():
    assert [primes_upto(n) for n in (-1, 0, 1, 2, 3, 4)] == [[], [], [], [2], [2, 3], [2, 3]]
    flags = sieve_flags(10_000)
    assert primes_upto(10_000) == [i for i, f in enumerate(flags) if f]
    assert primes_upto(9_973)[-1] == 9_973 and len(primes_upto(10_000)) == 1_229


def next_prime(p):
    """The prime after the prime p, by Miller-Rabin on each odd candidate."""
    k = 3 if p == 2 else p + 2
    while not is_prime(k):
        k += 2
    return k


def test_nth_prime_table_matches_a_next_prime_chain(monkeypatch):
    # Start from the one-prime table; the sieve grows it at least twofold each time.
    monkeypatch.setattr(primes, "_PRIMES", [2])
    monkeypatch.setattr(primes, "_PRIMORIALS", [2])
    chain = [2]
    while len(chain) < 3_500:
        chain.append(next_prime(chain[-1]))
    assert [nth_prime(n) for n in range(1, 3_501)] == chain
    assert [primorial(n) for n in range(1, 60)] == [prod(chain[:n]) for n in range(1, 60)]


def test_primorial_3248_is_the_product_of_the_primes_up_to_30029(monkeypatch):
    monkeypatch.setattr(primes, "_PRIMES", [2])
    monkeypatch.setattr(primes, "_PRIMORIALS", [2])
    assert nth_prime(3_248) == 30_029
    assert primorial(3_248) == prod(primes_upto(30_029))
    assert len(primes._PRIMORIALS) == 3_248


@pytest.mark.parametrize("n", [0, 1])
def test_zero_and_one_are_not_prime(n):
    assert is_prime(n) is False
