"""Classification of the maps f_a into the two observed equivalence classes.

Two maps are equivalent when they agree from some index on.  Empirically
every f_a lands in one of two classes: eventually the identity, or
eventually equal to f_3.  ``classify`` decides from the ETP chain, with a
short simulation past the seed for even seeds only, and returns a
machine-checkable certificate:

* identity: a turning point t with f(t) = t and values 1..t-1 used before
  t; from there f(n) = n is forced (the smallest unused value is n and
  gcd(n, n-1) = 1), and f(t-1) < t-1, so t is the identity onset, the
  witness.  Conversely the onset M is such a turning point: 1..M are used
  by index M, so f(M-1) <= M-2 and the jump at M is at least 2.
* merge into f_3: an index t that is an ETP of f_a and of f_3 (t = 4 or
  t-1 a record).  The state at any ETP is fully determined (values 1..t-1
  used, last term t-2), so both recursions coincide from t on; the witness
  is t.

No identity certificate follows an ETP: from one ETP to the next f counts
upward below the index.  The term cap (GCDPERM_MAX_TERMS) is the one limit;
it bounds the terms simulated past an even seed, and an even seed with no
certificate within the cap of its buffer raises BudgetExhaustedError.

``prefix_terms`` builds f_a on ``f3_terms``: the head up to a in closed
form, the engine only from index a to the witness, then f_3 or the
identity.

Two closed-form membership tests for the eventually-identity seeds are
provided alongside, one in terms of records adjacent to a, one in terms of
primorial-offset representations of a, plus the density of the multiples
of 6 that both tests exclude, an exact ``Fraction`` (``fractions`` is
imported when it is asked for).  The primorial test, the exact count of
the excluded seeds (``_excluded_count``) and their sieve
(``_excluded_flags``) read one band table: ``_bands(limit)`` yields its
rows (P_k, T_{k-1}, T_k) with P_k + 6 <= limit from a memo that it grows.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .primes import nth_prime, primorial, smallest_prime_not_dividing
from .records import _records_around, _turning_points, f3_terms, is_record, next_record
from .sequence import SequenceBuffer, check_cap, short_int

if TYPE_CHECKING:
    from fractions import Fraction

IDENTITY = "identity"
C3 = "c3"


class BudgetExhaustedError(RuntimeError):
    """No certificate within the term cap of terms simulated past an even seed; raise the cap."""

    def __init__(self, a: int, budget: int):
        super().__init__(f"f_{a}: no certificate within {budget} terms")
        self.a = a
        self.budget = budget


class ClassLabel(NamedTuple):
    """Verdict with its witness index.

    For ``identity`` the witness is the smallest M with f(n) = n for all
    n >= M; for ``c3`` it is the shared ETP from which f_a = f_3 pointwise.
    ``etps`` lists the ETP indices of f_a seen up to certification.
    """

    verdict: str
    witness: int
    etps: tuple[int, ...] = ()


def _seed_buffer(a: int) -> SequenceBuffer:
    """The engine at index a of f_a for a >= 3: f(a) = a - 1 with 1..a used
    for odd a, and the state of the even-seed lemma for even a (see classify)."""
    if a % 2:
        return SequenceBuffer.resume(a, a, a - 1, a + 1, set())
    q, r = _records_around(a - 1) if a > 4 else (3, 5)
    low, above = (a + 1, set()) if q == a - 1 else (a - 1, {a, r})
    return SequenceBuffer.resume(a, a, a - 2, low, above)


def _attempt(a: int) -> ClassLabel:
    if a == 2:
        return ClassLabel(IDENTITY, 1)
    if a % 2:
        t = a + 1  # f(n) = n - 1 on 3..a, so a + 1 is the first ETP
    else:
        buffer = _seed_buffer(a)
        for tp in _turning_points(buffer, a + buffer.cap):
            if tp.is_etp:
                t = tp.t
                break
            if tp.record_value == tp.t and tp.complete_below:
                return ClassLabel(IDENTITY, tp.t)
        else:
            raise BudgetExhaustedError(a, buffer.cap)
    # Thm 1: the next ETP is one past the record at this one.
    etps = [t]
    while not (t == 4 or is_record(t - 1)):
        t = next_record(t - 1) + 1
        etps.append(t)
    return ClassLabel(C3, t, tuple(etps))


def classify(a: int) -> ClassLabel:
    """Decide the class of f_a from its ETP chain.

    Odd a: f(n) = n - 1 on 3..a, so a + 1 is the first ETP.  Even a >= 4
    (the even-seed lemma): let lo = 3 if 3 does not divide a, and
    lo = p + 1 with p = spnd(a) if 6 divides a (spnd: the smallest prime
    not dividing).  Then f_a(n) = f_3(n - 1) for lo <= n <= a + 1, and on
    3..lo-1 f_a is p, 2, 3, ..., lo - 3: every prime below p divides a, so
    every value in 2..p - 1 shares a factor with a and f(3) = p; p is odd,
    so f(4) = 2; after that i - 2 is the least unused value and is coprime
    to f(i - 1) = i - 3, so f(i) = i - 2 up to i = lo - 1.  (From lo on both
    maps continue greedily from the same last term with used sets that
    differ by a alone, and f_3 first reaches a at index a + 1.)  So
    f_a(a) = a - 2, and by index a f_a has used a and the values f_3 used
    by a - 1: 1..a - 1 if a - 1 is 3 or a record, else 1..a - 2 and the
    record after a - 1.  From that state the engine simulates until the
    first ETP or identity certificate, at most the term cap
    (GCDPERM_MAX_TERMS) of terms; BudgetExhaustedError signals an
    undecided seed.  Past the first ETP the chain is the record recurrence
    (Thm 1): t -> ``next_record``(t - 1) + 1 until t is an ETP of f_3 too.
    """
    if a < 2:
        raise ValueError(f"seed must be >= 2, got {a}")
    return _attempt(a)


def prefix_terms(a: int, n: int, label: ClassLabel | None = None) -> array | list[int]:
    """f_a(1..n) as an ``array('q')``, ``terms[i] == f_a(i)``; slot 0 is padding.

    One construction on ``f3_terms``, with no head simulated: f_a(1..2) =
    1, a; on 3..a, f(i) = i - 1 for odd a, and for even a the even-seed
    lemma (see classify), whose f_3 part f_3(lo - 1..a - 1) is one shifted
    slice.  Only for n > a is the seed classified: the engine, resumed at
    index a, simulates a + 1..w - 1 for the witness w, and from w on f_a
    is f_3 or the identity.  A caller that holds ``classify(a)`` passes it
    as label, so the seed is not classified again.  Needs n >= 2 and obeys
    the term cap (GCDPERM_MAX_TERMS).  A term past 2^63 - 1, which only a
    seed a >= 2^63 gives, does not fit in the array: then a list of ints
    is returned instead.
    """
    check_cap(n, f"{short_int(n)} terms of f_{short_int(a)}")
    h = min(n, a)
    if n > a and label is None:
        label = classify(a)
    identity = n > a and label.verdict == IDENTITY
    terms = f3_terms(h if identity else n)
    if a % 2:
        terms[3 : h + 1] = array("q", range(2, h))  # f(i) = i - 1
    else:
        lo = 3 if a % 3 else smallest_prime_not_dividing(a) + 1
        terms[lo : h + 1] = terms[lo - 1 : h]  # f_a(i) = f_3(i - 1)
        if lo > 3:  # p, 2, 3, ..., lo - 3 on 3..lo - 1, cut at h
            terms[3:lo] = array("q", [lo - 1, *range(2, lo - 2)][: h - 2])
    if n > a:
        if label.witness > a + 1:
            buffer = _seed_buffer(a)
            buffer.extend_to(min(n, label.witness - 1))
            terms[a + 1 : a + len(buffer.terms)] = array("q", buffer.terms[1:])
        if identity:
            terms.extend(range(len(terms), n + 1))
    try:
        terms[2] = a
    except OverflowError:  # a seed of 2^63 or more stays a Python int
        terms = terms.tolist()
        terms[2] = a
    return terms


def eventually_identity_by_record(a: int) -> bool:
    """Membership test for the eventually-identity seeds via records.

    True iff a is 2 or 4, or a is a multiple of 6 with an f_3 record within
    distance 1 of a.
    """
    return a in (2, 4) or a % 6 == 0 and (is_record(a - 1) or is_record(a + 1))


def _band_top(k: int) -> int:
    """T_k = (p_{k+1} - 2) // 6, the top of the band of offsets of P_k; T_3 = 0."""
    return (nth_prime(k + 1) - 2) // 6


# The band table: (P_k, T_{k-1}, T_k) for k = 4, 5, ..., each primorial of at
# least four primes with the tops of the bands of offsets of P_{k-1} and P_k.
# Grown on demand by ``_bands`` until the last primorial exceeds every limit
# asked about.
_BANDS: list[tuple[int, int, int]] = []


def _bands(limit: int) -> Iterator[tuple[int, int, int]]:
    """The rows (P_k, T_{k-1}, T_k) of the band table with P_k + 6 <= limit, in order of k."""
    last = limit - 6
    bands = _BANDS
    while not bands or bands[-1][0] <= last:
        k = len(bands) + 4
        bands.append((primorial(k), _band_top(k - 1), _band_top(k)))
    for row in bands:
        if row[0] > last:
            return
        yield row


def eventually_identity_by_primorial(a: int) -> bool:
    """Membership test for the eventually-identity seeds via primorials.

    True iff a is 2 or 4, or a is a multiple of 6 admitting no
    representation a = m * P + 6t with P a primorial of at least four
    primes, m >= 1 and 1 <= t <= floor((p-2)/6) for p the prime after P.
    """
    if a in (2, 4):
        return True
    if a < 2 or a % 6:
        return False
    for pk, _, top in _bands(a):
        # 6 T_k < P_k, so only the largest m with a - m P_k = 6t >= 6 can
        # fit; P_k + 6 <= a makes that m at least 1.  Then 6t - 6 is
        # (a - 6) % P_k, and t <= T_k is 6t - 6 < 6 T_k.
        if (a - 6) % pk < 6 * top:
            return False
    return True


def exceptional_seed_density(k_max: int) -> Fraction:
    """Density of the multiples of 6 excluded by the primorial test.

    Partial sum over k = 4..k_max of
    (floor((p_{k+1}-2)/6) - floor((p_k-2)/6)) / p_k#, exact.  The excluded
    set is a disjoint union of arithmetic progressions mod p_k#, one band
    of offsets per k, which is where the summand comes from.
    """
    from fractions import Fraction

    return sum(
        (Fraction(_band_top(k) - _band_top(k - 1), primorial(k)) for k in range(4, k_max + 1)),
        Fraction(0),
    )


def _excluded_count(limit: int) -> int:
    """Multiples of 6 up to limit that the primorial test excludes, counted exactly.

    They are the disjoint progressions m P_k + 6t with m >= 1 and
    T_{k-1} < t <= T_k, so each t contributes max(0, (limit - 6t) // P_k).
    """
    return sum(max(0, (limit - 6 * t) // pk)
               for pk, below, top in _bands(limit) for t in range(below + 1, top + 1))


def _excluded_flags(limit: int) -> bytearray:
    """flags[i] == 1 iff the primorial test excludes the seed 6i <= limit.

    Marks the definition of ``eventually_identity_by_primorial``: every
    a = m P_k + 6t with m >= 1 and 1 <= t <= T_k, one slice of stride
    P_k / 6 per (k, t).  The bands of t overlap across k, so the count of
    these flags checks, and does not share, the disjointness that
    ``_excluded_count`` assumes.  One byte per seed: more seeds than the
    term cap (GCDPERM_MAX_TERMS) raise LimitExceededError.
    """
    seeds = limit // 6
    check_cap(seeds, f"the {short_int(seeds)} seeds 6i up to {short_int(limit)}")
    flags = bytearray(seeds + 1)
    for pk, _, top in _bands(limit):
        q = pk // 6
        for t in range(1, top + 1):
            flags[q + t :: q] = b"\x01" * len(range(q + t, seeds + 1, q))
    return flags


class ScanRow(NamedTuple):
    a: int
    verdict: str
    witness: int
    record_test: bool
    primorial_test: bool

    @property
    def agree(self) -> bool:
        is_id = self.verdict == IDENTITY
        return is_id == self.record_test == self.primorial_test


def scan_identity_seeds(bound: int) -> list[ScanRow]:
    """Cross-check simulation and both membership tests for 2, 4, 6, 12, ... <= bound."""
    seeds = [a for a in (2, 4) if a <= bound] + list(range(6, bound + 1, 6))
    rows = []
    for a in seeds:
        label = classify(a)
        rows.append(
            ScanRow(
                a,
                label.verdict,
                label.witness,
                eventually_identity_by_record(a),
                eventually_identity_by_primorial(a),
            )
        )
    return rows
