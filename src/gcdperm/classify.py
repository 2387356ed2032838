"""Classification of the maps f_a into the two observed equivalence classes.

Two maps are equivalent when they agree from some index on.  Empirically
every f_a lands in one of two classes: eventually the identity, or
eventually equal to f_3.  ``classify`` decides by simulation and returns a
machine-checkable certificate:

* identity: a turning point t with f(t) = t and values 1..t-1 used before
  t; from there f(n) = n is forced (the smallest unused value is n and
  gcd(n, n-1) = 1), and f(t-1) < t-1, so t is the identity onset, the
  witness.  Conversely the onset M is such a turning point: 1..M are used
  by index M, so f(M-1) <= M-2 and the jump at M is at least 2.
* merge into f_3: an index t that is an ETP of f_a and of f_3 (t = 4 or
  t-1 a record).  The state at any ETP is fully determined (values 1..t-1
  used, last term t-2), so both recursions coincide from t on; the witness
  is t.  A comparison window after t double-checks the agreement.

Both are read off the one turning-point scan behind
``records.find_turning_points``.  The term cap (GCDPERM_MAX_TERMS) is the
one limit on the scan.

Two closed-form membership tests for the eventually-identity seeds are
provided alongside, one in terms of records adjacent to a, one in terms of
primorial-offset representations of a, plus the density of the multiples
of 6 that both tests exclude.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .primorial import nth_prime, primorial
from .records import _turning_points, is_record, reconstruct_f3
from .sequence import SequenceBuffer, max_terms_cap

IDENTITY = "identity"
C3 = "c3"

MERGE_WINDOW = 64


class BudgetExhaustedError(RuntimeError):
    """No certificate within the term cap less the merge window; raise the cap."""

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


def _attempt(a: int, budget: int) -> ClassLabel | None:
    if a == 2:
        return ClassLabel(IDENTITY, 1)
    if budget <= a:
        return None  # every certificate sits past the seed: undecided
    buf = SequenceBuffer(a)
    terms = buf.terms
    etps: list[int] = []
    for tp in _turning_points(buf, budget):
        t = tp.t
        if tp.is_etp:
            etps.append(t)
            if t == 4 or is_record(t - 1):
                # ETP of f_3 as well: same state, the maps merge here.
                buf.extend_to(t + MERGE_WINDOW - 1)
                for m in range(t, t + MERGE_WINDOW):
                    if terms[m] != reconstruct_f3(m):
                        raise RuntimeError(
                            f"f_{a} and f_3 disagree at {m} after shared ETP {t}; "
                            "generation engine is inconsistent"
                        )
                return ClassLabel(C3, t, tuple(etps))
        elif tp.record_value == t and tp.complete_below:
            return ClassLabel(IDENTITY, t, tuple(etps))
    return None


def classify(a: int) -> ClassLabel:
    """Decide the class of f_a by simulation.

    One attempt scans up to the term cap (GCDPERM_MAX_TERMS) less room for
    the merge window, so the merge check always fits under the cap;
    BudgetExhaustedError signals an undecided run.  The scan grows its
    buffer in doubling chunks past a, so its cost follows the certificate,
    not the cap; certificates normally appear near the first prime record
    above a.
    """
    if a < 2:
        raise ValueError(f"seed must be >= 2, got {a}")
    # A certificate at the last index scanned needs MERGE_WINDOW - 1 more
    # terms for the merge check; keep that, with a little slack, within the cap.
    budget = max(max_terms_cap() - MERGE_WINDOW - 2, 0)
    label = _attempt(a, budget)
    if label is None:
        raise BudgetExhaustedError(a, budget)
    return label


def eventually_identity_by_record(a: int) -> bool:
    """Membership test for the eventually-identity seeds via records.

    True iff a is 2 or 4, or a is a multiple of 6 with an f_3 record within
    distance 1 of a.
    """
    return a in (2, 4) or a % 6 == 0 and (is_record(a - 1) or is_record(a + 1))


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
