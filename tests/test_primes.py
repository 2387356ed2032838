import pytest

from gcdperm.primes import smallest_prime_not_dividing


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


def test_spnd_rejects_nonpositive():
    with pytest.raises(ValueError):
        smallest_prime_not_dividing(0)
