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
it bounds the terms simulated past an even seed.

``prefix_terms`` builds f_a from the certificate: a simulated head, then
``f3_terms`` or the identity.

Two closed-form membership tests for the eventually-identity seeds are
provided alongside, one in terms of records adjacent to a, one in terms of
primorial-offset representations of a, plus the density of the multiples
of 6 that both tests exclude, an exact ``Fraction`` (``fractions`` is
imported when it is asked for).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, NamedTuple

from .primes import nth_prime, primorial
from .records import _records_around, _turning_points, f3_terms, is_record, next_record
from .sequence import LimitExceededError, SequenceBuffer, generate_prefix, max_terms_cap

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


def _even_seed_buffer(a: int) -> SequenceBuffer:
    """The engine at index a of f_a for even a >= 4, by the even-seed lemma (see classify)."""
    q, r = _records_around(a - 1) if a > 4 else (3, 5)
    low, above = (a + 1, set()) if q == a - 1 else (a - 1, {a, r})
    return SequenceBuffer.resume(a, a, a - 2, low, above)


def _attempt(a: int) -> ClassLabel | None:
    if a == 2:
        return ClassLabel(IDENTITY, 1)
    if a % 2:
        t = a + 1  # f(n) = n - 1 on 3..a, so a + 1 is the first ETP
    else:
        buffer = _even_seed_buffer(a)
        for tp in _turning_points(buffer, a + buffer.cap):
            if tp.is_etp:
                t = tp.t
                break
            if tp.record_value == tp.t and tp.complete_below:
                return ClassLabel(IDENTITY, tp.t)
        else:
            return None  # no certificate within the term cap
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
    lo = spnd(a) + 1 if 6 divides a (spnd: the smallest prime not
    dividing).  Then f_a(n) = f_3(n - 1) for lo <= n <= a + 1, and f_a
    takes on 3..lo-1 the values f_3 takes on 2..lo-2.  (From lo on both
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
    label = _attempt(a)
    if label is None:
        raise BudgetExhaustedError(a, max_terms_cap())
    return label


def prefix_terms(a: int, n: int) -> array:
    """f_a(1..n) as an ``array('q')``, ``terms[i] == f_a(i)``; slot 0 is padding.

    Simulates only the head up to the classify witness, at most about
    a + 16 terms: from there f_a is f_3 or the identity.  Needs n >= 2 and
    obeys the term cap (GCDPERM_MAX_TERMS).
    """
    cap = max_terms_cap()
    if n > cap:
        raise LimitExceededError.terms(a, n, cap)
    if n <= a:  # every witness of a seed a >= 3 lies past a
        return array("q", generate_prefix(a, n).terms)
    label = classify(a)
    # a = 2 has witness 1, but the engine's shortest prefix is f(1..2).
    head = generate_prefix(a, max(2, min(n, label.witness))).terms
    terms = f3_terms(n) if label.verdict == C3 else array("q", range(n + 1))
    terms[: len(head)] = array("q", head)
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


# (P_k, 6 T_k) for k = 4, 5, ...: each primorial of at least four primes with
# the top of its band of offsets.  Grown on demand until the last primorial
# exceeds every seed asked about.
_BANDS: list[tuple[int, int]] = []


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
    bands = _BANDS
    while not bands or bands[-1][0] + 6 <= a:
        k = len(bands) + 4
        bands.append((primorial(k), 6 * _band_top(k)))
    for pk, top in bands:
        if pk + 6 > a:
            break
        # 6 T_k < P_k, so only the largest m with a - m P_k >= 6 can fit;
        # P_k + 6 <= a makes that m at least 1.
        if (a - 6) % pk + 6 <= top:
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
    count = 0
    k = 4
    while (pk := primorial(k)) + 6 <= limit:
        bands = range(_band_top(k - 1) + 1, _band_top(k) + 1)
        count += sum(max(0, (limit - 6 * t) // pk) for t in bands)
        k += 1
    return count


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
