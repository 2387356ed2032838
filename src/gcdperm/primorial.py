"""Primorial structure of the f_3 records: translation, counts, density.

The record set is nearly periodic with the primorials P_n = p_1 * ... * p_n
as periods: every r * P_n +- 1 is a record for r up to p_{n+1} - 1, and
f_3(P_n + k) = f_3(k) + P_n across a long k-range.  Both are checked from
the records alone, with no simulation of f_3: the translation follows from
two record walks P_n apart, which stay in step except past a record
j * P_n + 1 (see ``verify_translation``).  Counting records in primorial
windows gives an exact recurrence

    w_{n+1} = w_n * p_{n+1} - s_{n+1}

with s_n the record count in [p_n, p_{n+1}) and w_n the count in
[p_{n+1}, P_n + 1].  The asymptotic record density (about 0.2948) is taken
to be the limit of w_n / P_n, and one count w_n brackets it in an interval
2 / P_n wide (``kappa_bounds``).  The brackets are exact ``Fraction``s; the
functions that build them import ``fractions`` when they run, so importing
the module does not.  The reports are frozen ``NamedTuple``s.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .primes import is_prime, nth_prime, primorial, sieve_flags, smallest_prime_not_dividing
from .records import (FIRST_RECORD, _gather, _records_around, cached_records, is_record,
                      reconstruct_f3, record_count)

if TYPE_CHECKING:
    from fractions import Fraction


def _count_records(lo: int, hi: int) -> int:
    """Number of records in [lo, hi].

    Interval counters treat 3 = f_3(2) as a record (the window [3, 3]
    holds one); ``record_count`` counts from 5 on, hence the offset.
    """
    return record_count(hi) - record_count(lo - 1) + (lo <= 3 <= hi)


def s_count(n: int) -> int:
    """Number of records in [p_n, p_{n+1})."""
    return _count_records(nth_prime(n), nth_prime(n + 1) - 1)


def w_count(n: int) -> int:
    """Number of records in [p_{n+1}, P_n + 1]."""
    return _count_records(nth_prime(n + 1), primorial(n) + 1)


class PrimorialRecordReport(NamedTuple):
    """Outcome of checking that every r * P_n +- 1 is a record."""

    n: int
    r_range: tuple[int, int]
    checked: tuple[int, ...]
    missing: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.missing


def verify_primorial_records(n: int) -> PrimorialRecordReport:
    """Check r * P_n +- 1 with ``is_record`` for r = 1 .. p_{n+1} - 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pn = primorial(n)
    r_hi = nth_prime(n + 1) - 1
    targets = tuple(r * pn + eps for r in range(1, r_hi + 1) for eps in (-1, 1))
    missing = tuple(v for v in targets if not is_record(v))
    return PrimorialRecordReport(n, (1, r_hi), targets, missing)


class TranslationReport(NamedTuple):
    """Outcome of checking f_3(P_n + k) = f_3(k) + P_n over a k-range.

    ``stated`` is the range the window recurrence rests on,
    [p_{n+1}, (p_{n+1} - 1) * P_n]; ``failures`` is empty when the identity
    holds there, and otherwise holds the first k of it where the identity
    fails; ``maximal`` is the widest contiguous range around it that
    actually holds, found by probing outward (it is (0, 0) when the stated
    range itself fails somewhere).
    """

    n: int
    stated: tuple[int, int]
    failures: tuple[int, ...]
    maximal: tuple[int, int]

    @property
    def holds_on_stated(self) -> bool:
        return not self.failures


def _first_record_from(v: int) -> int:
    """The least f_3 record >= v (v >= 5)."""
    q, r = _records_around(v)
    return q if q == v else r


def verify_translation(n: int) -> TranslationReport:
    """Check f_3(P_n + k) = f_3(k) + P_n on the stated range from two record
    walks, and probe its true extent; nothing is simulated.

    The identity holds at k exactly when k - 1 and P_n + k - 1 are both
    records with successors P_n apart, or neither is a record.  The step
    after a record r is spnd(r - 1), and spnd(m) = spnd(m + P_n) unless P_n
    divides m, so walks that start P_n apart stay in step except past a
    record j * P_n + 1 with spnd(j * P_n) != spnd((j + 1) * P_n).  The
    maximal range is probed with ``reconstruct_f3`` down to k = 1 and up to
    k = P_n * p_{n+1}.  The record queries need no primality test, so they
    are exact below P_3248, far past any n the probes can reach in time.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pn = primorial(n)
    p_next = nth_prime(n + 1)
    lo, hi = p_next, (p_next - 1) * pn
    a = _first_record_from(max(lo - 1, FIRST_RECORD))
    b = _first_record_from(pn + lo - 1)
    if b - pn != a:
        return TranslationReport(n, (lo, hi), (min(a, b - pn) + 1,), (0, 0))
    for j in range(1, p_next - 1):
        if (smallest_prime_not_dividing(j * pn) != smallest_prime_not_dividing((j + 1) * pn)
                and is_record(j * pn + 1)):
            return TranslationReport(n, (lo, hi), (j * pn + 2,), (0, 0))
    k_lo, k_hi = lo, hi
    while k_lo > 1 and reconstruct_f3(pn + k_lo - 1) == reconstruct_f3(k_lo - 1) + pn:
        k_lo -= 1
    while k_hi < pn * p_next and reconstruct_f3(pn + k_hi + 1) == reconstruct_f3(k_hi + 1) + pn:
        k_hi += 1
    return TranslationReport(n, (lo, hi), (), (k_lo, k_hi))


class KappaBounds(NamedTuple):
    """Rigorous two-sided estimate of the record density, as exact fractions."""

    lower: Fraction
    upper: Fraction


def kappa_bounds(k_max: int) -> KappaBounds:
    """Bracket the record density from one window count, N = k_max:

        (w_N - 2) / P_N  <  kappa  <=  w_N / P_N

    The premise, which the module docstring and ``verify thm8-recurrence``
    rest on too, is that kappa is the limit of w_N / P_N.  Dividing
    w_k = w_{k-1} p_k - s_k by P_k and telescoping gives kappa = w_N / P_N
    - sum_{k>N} s_k / P_k.  Every s_k >= 0 gives the upper side.
    s_k <= p_{k+1} - p_k < p_k (Bertrand), so s_k / P_k < 1 / P_{k-1};
    primorial reciprocals shrink by a factor >= 2, so the tail is below
    2 / P_N.  Needs 4 <= k_max < 3248, as ``record_count`` does.
    """
    if k_max < 4:
        raise ValueError(f"need k_max >= 4, got {k_max}")
    from fractions import Fraction

    w, pn = w_count(k_max), primorial(k_max)
    return KappaBounds(Fraction(w - 2, pn), Fraction(w, pn))


def kappa_coarse_bounds() -> KappaBounds:
    """The coarse density bracket from bounding the primorial reciprocal series.

    With 0.704 <= 1/2 + 1/6 + 1/30 + 1/210 + ... <= 0.706:

        lower = 3/10 - (0.706 - 1/2 - 1/6)        = 782/3000
        upper = 3/10 - (0.704 - 1/2 - 1/6 - 1/30) = 296/1000

    Much wider than kappa_bounds, but exact round numbers, handy as a
    reference interval.
    """
    from fractions import Fraction

    return KappaBounds(Fraction(782, 3000), Fraction(296, 1000))


def kappa_empirical(n: int) -> float:
    """Record density in [1, n]: #records <= n divided by n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return record_count(n) / n


def _prime_record_counts(limit: int) -> Iterator[tuple[int, int]]:
    """(r, prime records up to and including r) for every record r <= limit,
    from one ``_gather`` of sieve flags over the records."""
    recs = cached_records(limit)
    return zip(recs, accumulate(_gather(sieve_flags(limit), recs)))


def prime_ratio_series(limit: int) -> list[tuple[int, float]]:
    """Series of (prime records / records) * ln(record value).

    One point per record r <= limit, counting records and prime records up
    to and including r.  The series drifts toward the reciprocal of the
    record density.
    """
    return [(r, primes / k * math.log(r))
            for k, (r, primes) in enumerate(_prime_record_counts(limit), start=1)]


def primes_within_records_series(limit: int) -> list[tuple[int, int]]:
    """Cumulative count of prime records at every record <= limit."""
    return list(_prime_record_counts(limit))


class DerivativeCheck(NamedTuple):
    """One probe of the forward difference at a prime index q = k * P_n + 1."""

    k: int
    q: int
    derivative: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.derivative >= self.bound


def derivative_bound_check(n: int, k_max: int) -> list[DerivativeCheck]:
    """Check g(q) >= 2n + 1 at every prime q = k * P_n + 1 with q > 5, k <= k_max.

    The report may be empty (vacuous) when no k in range yields a prime.
    The derivative g(q) = f_3(q + 1) - f_3(q) is read from the records by
    ``reconstruct_f3``.  ``is_prime`` raises ValueError for q from about 3.3e24 on.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    pn = primorial(n)
    rows = []
    for k in range(1, k_max + 1):
        q = k * pn + 1
        if q <= 5 or not is_prime(q):
            continue
        rows.append(DerivativeCheck(k, q, reconstruct_f3(q + 1) - reconstruct_f3(q), 2 * n + 1))
    return rows


class DensityLedger(NamedTuple):
    """Window record counts with the empirical record density."""

    s: tuple[int, ...]  # s[i] = s_{i+1}
    w: tuple[int, ...]  # w[i] = w_{i+1}
    kappa_empirical: float

    def recurrence_holds(self) -> bool:
        # 0-based tuples: w[i] is the count w_{i+1}.
        return all(
            self.w[i + 1] == self.w[i] * nth_prime(i + 2) - self.s[i + 1]
            for i in range(len(self.w) - 1)
        )

    def ratios_non_increasing(self) -> bool:
        # As P_{n+1} = P_n p_{n+1}: w_{n+1} / P_{n+1} <= w_n / P_n iff w_{n+1} <= w_n p_{n+1}.
        return all(self.w[i + 1] <= self.w[i] * nth_prime(i + 2) for i in range(len(self.w) - 1))


def build_density_ledger(n_max: int = 5) -> DensityLedger:
    """Ledger of s_1..s_{n_max}, w_1..w_{n_max}, and the record density in [1, 100000]."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    s = tuple(s_count(i) for i in range(1, n_max + 1))
    w = tuple(w_count(i) for i in range(1, n_max + 1))
    return DensityLedger(s, w, kappa_empirical(100_000))
