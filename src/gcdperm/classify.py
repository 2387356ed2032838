"""Classification of the maps f_a into the two observed equivalence classes.

Two maps are equivalent when they agree from some index on.  Empirically
every f_a lands in one of two classes: eventually the identity, or
eventually equal to f_3.  ``classify`` decides by simulation and returns a
machine-checkable certificate:

* identity: an index m with f(m) = m and values 1..m all used; from there
  f(n) = n is forced (the smallest unused value is n and gcd(n, n-1) = 1).
  The witness is the smallest index from which the map is the identity.
* merge into f_3: an index t that is an ETP of f_a and of f_3 (t = 4 or
  t-1 a record).  The state at any ETP is fully determined (values 1..t-1
  used, last term t-2), so both recursions coincide from t on; the witness
  is t.  A comparison window after t double-checks the agreement.

Two closed-form membership tests for the eventually-identity seeds are
provided alongside, one in terms of records adjacent to a, one in terms of
primorial-offset representations of a, plus the density of the multiples
of 6 that both tests exclude.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .primorial import nth_prime, primorial
from .records import cached_records, reconstruct_f3
from .sequence import SequenceBuffer, max_terms_cap

IDENTITY = "identity"
C3 = "c3"

DEFAULT_BUDGET_FLOOR = 10_000
MERGE_WINDOW = 64


class BudgetExhaustedError(RuntimeError):
    """No certificate within the simulation budget; retry with a larger one."""

    def __init__(self, a: int, budget: int):
        super().__init__(f"f_{a}: no certificate within {budget} terms")
        self.a = a
        self.budget = budget


@dataclass(frozen=True)
class ClassLabel:
    """Verdict with its witness index.

    For ``identity`` the witness is the smallest M with f(n) = n for all
    n >= M; for ``c3`` it is the shared ETP from which f_a = f_3 pointwise.
    ``etps`` lists the ETP indices of f_a seen up to certification.
    """

    verdict: str
    witness: int
    etps: tuple[int, ...] = ()


def _attempt(a: int, budget: int, window: int) -> ClassLabel | None:
    if a > budget + window + 2:
        return None  # buffer could not even reach the seed: undecided
    buf = SequenceBuffer(a, max_terms=budget + window + 2)
    terms = buf.terms
    f3_records = cached_records(budget + window + 4)
    etps: list[int] = []
    running_max = max(1, a)
    n = 2
    if a == 2:
        return ClassLabel(IDENTITY, 1)
    while n < budget:
        complete_below = running_max == n  # {f(1..n)} == {1..n}
        v = buf.extend()
        n += 1
        if complete_below and terms[n - 1] == n - 2 and n > a and v != n:
            # ETP of f_a at n (v >= n+1 is forced, so the jump test holds).
            etps.append(n)
            i = bisect_right(f3_records, n - 1)
            if n == 4 or (i > 0 and f3_records[i - 1] == n - 1):
                # ETP of f_3 as well: same state, the maps merge here.
                buf.extend_to(n + window - 1)
                for m in range(n, n + window):
                    if terms[m] != reconstruct_f3(m, f3_records):
                        raise RuntimeError(
                            f"f_{a} and f_3 disagree at {m} after shared ETP {n}; "
                            "generation engine is inconsistent"
                        )
                return ClassLabel(C3, n, tuple(etps))
        if v > running_max:
            running_max = v
        if running_max == n and v == n:
            # Values 1..n all used and f(n) = n: identity from here on.
            m = n
            k = n - 1
            while k >= 1 and terms[k] == k:
                m = k
                k -= 1
            return ClassLabel(IDENTITY, m, tuple(etps))
    return None


def classify(a: int, budget: int | None = None, window: int = MERGE_WINDOW) -> ClassLabel:
    """Decide the class of f_a by simulation.

    With an explicit budget a single attempt is made and
    BudgetExhaustedError signals an undecided run.  By default the budget
    starts at max(10a, 10^4) and doubles up to the term cap
    (GCDPERM_MAX_TERMS) less the buffer's room for the merge window;
    certificates normally appear near the first prime record above a, so
    the first attempt almost always suffices.  When the capped attempt
    fails, the error reports the capped budget, the one actually tried.
    """
    if a < 2:
        raise ValueError(f"seed must be >= 2, got {a}")
    if budget is not None:
        label = _attempt(a, budget, window)
        if label is None:
            raise BudgetExhaustedError(a, budget)
        return label
    # _attempt holds budget + window + 2 terms; keep that within the term cap.
    ceiling = max(max_terms_cap() - window - 2, 0)
    b = max(10 * a, DEFAULT_BUDGET_FLOOR)
    while True:
        tried = min(b, ceiling)
        label = _attempt(a, tried, window)
        if label is not None:
            return label
        if tried == ceiling:
            raise BudgetExhaustedError(a, tried)
        b *= 2


def eventually_identity_by_record(a: int) -> bool:
    """Membership test for the eventually-identity seeds via records.

    True iff a is 2 or 4, or a is a multiple of 6 with an f_3 record within
    distance 1 of a.
    """
    if a in (2, 4):
        return True
    if a < 2 or a % 6:
        return False
    recs = cached_records(a + 1)
    i = bisect_right(recs, a + 1)
    return i > 0 and recs[i - 1] >= a - 1


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
    k = 4
    while (pk := primorial(k)) + 6 <= a:
        t_max = (nth_prime(k + 1) - 2) // 6
        # 6*t_max < P_k, so only the largest m with a - m*P_k >= 6 can fit.
        m = (a - 6) // pk
        if m >= 1 and 6 <= a - m * pk <= 6 * t_max:
            return False
        k += 1
    return True


def exceptional_seed_density(k_max: int) -> Fraction:
    """Density of the multiples of 6 excluded by the primorial test.

    Partial sum over k = 4..k_max of
    (floor((p_{k+1}-2)/6) - floor((p_k-2)/6)) / p_k#, exact.  The excluded
    set is a disjoint union of arithmetic progressions mod p_k#, one band
    of offsets per k, which is where the summand comes from.
    """
    return sum(
        (Fraction((nth_prime(k + 1) - 2) // 6 - (nth_prime(k) - 2) // 6, primorial(k))
         for k in range(4, k_max + 1)),
        Fraction(0),
    )


@dataclass(frozen=True)
class ScanRow:
    a: int
    verdict: str
    witness: int
    record_test: bool
    primorial_test: bool

    @property
    def agree(self) -> bool:
        is_id = self.verdict == IDENTITY
        return is_id == self.record_test == self.primorial_test


def scan_identity_seeds(bound: int, budget: int | None = None) -> list[ScanRow]:
    """Cross-check simulation and both membership tests for 2, 4, 6, 12, ... <= bound."""
    seeds = [a for a in (2, 4) if a <= bound] + list(range(6, bound + 1, 6))
    rows = []
    for a in seeds:
        label = classify(a, budget=budget)
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
