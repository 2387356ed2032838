"""Prime utilities: sieve, Miller-Rabin primality proven exact below
3,317,044,064,679,887,385,961,981 (about 3.3e24) and refused from there on
by check_proven, the table of primes and primorials, and the smallest
prime non-divisor read off the wheel and the primorial table."""

import math
from itertools import compress

# The first 13 primes as Miller-Rabin witnesses: deterministic for every
# n < 3,317,044,064,679,887,385,961,981, the smallest strong pseudoprime to
# all of them (Sorenson & Webster 2017).  The first 12 fail already at
# 318,665,857,834,031,151,167,461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def check_proven(n: int) -> None:
    """Raise ValueError when is_prime(n) would have no proven answer: n >= 3.3e24."""
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is proven exact only below {_MR_BOUND:,}; got {n:,}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test (see _MR_BASES); check_proven refuses n >= 3.3e24."""
    check_proven(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_flags(n: int) -> bytearray:
    """Bytearray of length n+1 with flags[i] == 1 iff i is prime."""
    if n < 0:
        return bytearray()
    flags = bytearray(b"\x01") * (n + 1)
    flags[0 : min(2, n + 1)] = b"\x00" * min(2, n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return flags


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return list(compress(range(n + 1), sieve_flags(n)))


# p_1, p_2, ... from a sieve, and the exact primorials P_n = p_1 * ... * p_n
# up to the largest n asked of ``primorial``.
_PRIMES = [2]
_PRIMORIALS = [2]


def nth_prime(n: int) -> int:
    """The n-th prime, 1-based: p_1 = 2."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if len(_PRIMES) < n:
        # At least double the table; p_k < k (ln k + ln ln k) for k >= 6
        # (Rosser & Schoenfeld 1962), and p_6 = 13.
        k = max(n, 2 * len(_PRIMES), 6)
        _PRIMES[:] = primes_upto(int(k * (math.log(k) + math.log(math.log(k)))) + 1)
    return _PRIMES[n - 1]


def primorial(n: int) -> int:
    """Product of the first n primes: 2, 6, 30, 210, 2310, ..."""
    if not 0 < n <= len(_PRIMORIALS):
        nth_prime(n)
        for p in _PRIMES[len(_PRIMORIALS) : n]:
            _PRIMORIALS.append(_PRIMORIALS[-1] * p)
    return _PRIMORIALS[n - 1]


# _WHEEL = 2*3*5*7*11*13.  _WHEEL_SPND[m % _WHEEL] is the least prime <= 13
# not dividing m, or 0 when all of them divide m.  Built by overwriting with
# each prime from the largest down, keeping the entries at its multiples.
_WHEEL = 30030


def _wheel_table() -> bytearray:
    table = bytearray(_WHEEL)
    for p in (13, 11, 7, 5, 3, 2):
        row = bytearray([p]) * _WHEEL
        row[::p] = table[::p]
        table = row
    return table


_WHEEL_SPND = _wheel_table()


def smallest_prime_not_dividing(m: int) -> int:
    """Least prime that is not a factor of m (m >= 1).

    P_k | m exactly when p_1, ..., p_k all divide m, so the k with P_k | m
    form a prefix, and the answer is p_k for the least k with P_k not
    dividing m.  One lookup in the wheel table answers unless P_6 | m, and
    one modulo by P_7 unless P_7 | m.  Past that, k is bisected on the
    primorial table, up to its end or to the first k with 4k - 10 >= the
    bit length of m, since P_k >= 2^18 * 16^(k - 7) > m there.  When P_k
    divides m at the table's end, the search first steps 1, 2, 4, ... past
    it.  Each modulo is by a P_k about as large as m, so it is short.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    p = _WHEEL_SPND[m % _WHEEL]
    if p:
        return p
    if m % (17 * _WHEEL):  # P_7 = 510510
        return 17
    # Keep P_lo | m, and step hi until P_hi does not divide m: at hi = lo + 1
    # that is p_hi not dividing m, which grows no table.
    lo, hi, step = 7, max(8, min(len(_PRIMORIALS), (m.bit_length() + 13) // 4)), 1
    while m % (nth_prime(hi) if hi == lo + 1 else primorial(hi)) == 0:
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if m % _PRIMORIALS[mid - 1]:
            hi = mid
        else:
            lo = mid
    return nth_prime(hi)


def twin_prime_pairs(limit: int) -> list[tuple[int, int]]:
    """All pairs (p, p+2) of primes with p + 2 <= limit, ascending."""
    flags = sieve_flags(limit)
    return [(p, p + 2) for p in range(3, limit - 1, 2) if flags[p] and flags[p + 2]]
