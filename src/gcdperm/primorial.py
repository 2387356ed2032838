"""Primorial structure of the f_3 records: translation, counts, density.

The record set is nearly periodic with the primorials P_n = p_1 * ... * p_n
as periods: every r * P_n +- 1 is a record for r up to p_{n+1} - 1, and
f_3(P_n + k) = f_3(k) + P_n across a long k-range.  Counting records in
primorial windows gives an exact recurrence

    w_{n+1} = w_n * p_{n+1} - s_{n+1}

with s_n the record count in [p_n, p_{n+1}) and w_n the count in
[p_{n+1}, P_n + 1], from which the asymptotic record density (about 0.2948)
is bracketed rigorously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .primes import is_prime, nth_prime, primorial, sieve_flags
from .records import is_record, next_record, record_count, record_values
from .sequence import generate_prefix


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


@dataclass(frozen=True)
class PrimorialRecordReport:
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


@dataclass(frozen=True)
class TranslationReport:
    """Outcome of checking f_3(P_n + k) = f_3(k) + P_n over a k-range.

    ``stated`` is the range the window recurrence rests on,
    [p_{n+1}, (p_{n+1} - 1) * P_n]; ``maximal`` is the widest contiguous
    range around it that actually holds, found by probing outward (it is
    (0, 0) when the stated range itself fails somewhere).
    """

    n: int
    stated: tuple[int, int]
    failures: tuple[int, ...]
    maximal: tuple[int, int]

    @property
    def holds_on_stated(self) -> bool:
        return not self.failures


def verify_translation(n: int) -> TranslationReport:
    """Check the primorial translation identity for f_3 and find its true extent."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pn = primorial(n)
    p_next = nth_prime(n + 1)
    lo, hi = p_next, (p_next - 1) * pn
    prefix = generate_prefix(3, pn * p_next + pn)
    terms = prefix.terms
    failures = tuple(k for k in range(lo, hi + 1) if terms[pn + k] != terms[k] + pn)
    if failures:
        return TranslationReport(n, (lo, hi), failures, (0, 0))
    k_lo, k_hi = lo, hi
    while k_lo > 1 and terms[pn + k_lo - 1] == terms[k_lo - 1] + pn:
        k_lo -= 1
    while pn + k_hi + 1 < len(terms) and terms[pn + k_hi + 1] == terms[k_hi + 1] + pn:
        k_hi += 1
    return TranslationReport(n, (lo, hi), (), (k_lo, k_hi))


@dataclass(frozen=True)
class KappaBounds:
    """Rigorous two-sided estimate of the record density."""

    lower: Fraction
    upper: Fraction


def kappa_bounds(k_max: int) -> KappaBounds:
    """Bracket the record density via primorial partial sums.

        3/10 - sum_{k>=4} (p_{k+1} - p_k) / (2 P_k)  <=  kappa
        kappa  <=  3/10 - sum_{k>=4} 1 / P_k

    Sums are truncated at k_max; the lower bound subtracts a tail estimate
    (each tail term is at most 1/(2 P_{k-1}) and successive primorial
    reciprocals shrink by a factor >= 3, so the tail is below (3/4)/P_k_max),
    which keeps both sides rigorous.
    """
    if k_max < 4:
        raise ValueError(f"need k_max >= 4, got {k_max}")
    lower_sum = Fraction(0)
    upper_sum = Fraction(0)
    for k in range(4, k_max + 1):
        pk = nth_prime(k)
        pk1 = nth_prime(k + 1)
        prim = primorial(k)
        lower_sum += Fraction(pk1 - pk, 2 * prim)
        upper_sum += Fraction(1, prim)
    tail = Fraction(3, 4 * primorial(k_max))
    return KappaBounds(
        lower=Fraction(3, 10) - lower_sum - tail,
        upper=Fraction(3, 10) - upper_sum,
    )


def kappa_coarse_bounds() -> KappaBounds:
    """The coarse density bracket from bounding the primorial reciprocal series.

    With 0.704 <= 1/2 + 1/6 + 1/30 + 1/210 + ... <= 0.706:

        lower = 3/10 - (0.706 - 1/2 - 1/6)        = 782/3000
        upper = 3/10 - (0.704 - 1/2 - 1/6 - 1/30) = 296/1000

    Weaker than kappa_bounds (the lower side drops a factor 1/2) but exact
    round numbers, handy as a reference interval.
    """
    series_lo = Fraction(704, 1000)
    series_hi = Fraction(706, 1000)
    head2 = Fraction(1, 2) + Fraction(1, 6)
    head3 = head2 + Fraction(1, 30)
    return KappaBounds(
        lower=Fraction(3, 10) - (series_hi - head2),
        upper=Fraction(3, 10) - (series_lo - head3),
    )


def kappa_empirical(n: int) -> float:
    """Record density in [1, n]: #records <= n divided by n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return record_count(n) / n


def _prime_record_counts(limit: int, stride: int) -> list[tuple[int, int, int]]:
    """(r, k, prime records among the first k) for every stride-th record r <= limit,
    r being the k-th record."""
    if stride < 1:
        raise ValueError(f"need stride >= 1, got {stride}")
    flags = sieve_flags(limit)
    out = []
    prime_count = 0
    for k, r in enumerate(record_values(limit), start=1):
        prime_count += flags[r]
        if k % stride == 0:
            out.append((r, k, prime_count))
    return out


def prime_ratio_series(limit: int, stride: int = 1) -> list[tuple[int, float]]:
    """Sampled series of (prime records / records) * ln(record value).

    One point per stride-th record r <= limit, counting records and prime
    records up to and including r.  The series drifts toward the reciprocal
    of the record density.
    """
    return [(r, primes / k * math.log(r)) for r, k, primes in _prime_record_counts(limit, stride)]


def primes_within_records_series(limit: int, stride: int = 1) -> list[tuple[int, int]]:
    """Cumulative count of prime records at every stride-th record <= limit."""
    return [(r, primes) for r, _, primes in _prime_record_counts(limit, stride)]


@dataclass(frozen=True)
class DerivativeCheck:
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
    The derivative is read from the records: f_3(m) is the record after
    m - 1 when m - 1 is a record, else m - 1; ``is_record`` answers each
    query without growing the shared record list.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    pn = primorial(n)
    rows = []
    for k in range(1, k_max + 1):
        q = k * pn + 1
        if q <= 5 or not is_prime(q):
            continue
        f3_q, f3_after = (next_record(m - 1) if is_record(m - 1) else m - 1 for m in (q, q + 1))
        g = f3_after - f3_q
        rows.append(DerivativeCheck(k, q, g, 2 * n + 1))
    return rows


@dataclass(frozen=True)
class DensityLedger:
    """Window record counts with the density estimates they support."""

    s: tuple[int, ...]  # s[i] = s_{i+1}
    w: tuple[int, ...]  # w[i] = w_{i+1}
    kappa_empirical: float
    bounds: KappaBounds

    def recurrence_holds(self) -> bool:
        # 0-based tuples: w[i] is the count w_{i+1}.
        return all(
            self.w[i + 1] == self.w[i] * nth_prime(i + 2) - self.s[i + 1]
            for i in range(len(self.w) - 1)
        )

    def ratios_non_increasing(self) -> bool:
        ratios = [Fraction(wn, primorial(i + 1)) for i, wn in enumerate(self.w)]
        return all(b <= a for a, b in zip(ratios, ratios[1:]))


def build_density_ledger(n_max: int = 5, kappa_at: int = 100_000) -> DensityLedger:
    """Ledger of s_1..s_{n_max}, w_1..w_{n_max}, and the density estimates."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    s = tuple(s_count(i) for i in range(1, n_max + 1))
    w = tuple(w_count(i) for i in range(1, n_max + 1))
    return DensityLedger(s, w, kappa_empirical(kappa_at), kappa_bounds(max(4, n_max)))
