"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite re-checks one of the library's documented identities at a desk
scale chosen by its parameters, and returns one line per check.  ``TABLE``
maps each suite's short stable name (thm1, cor1, prop1, ..., cor2) to what
it verifies and its check function.  The check's keyword-only parameters,
with their defaults, are the suite's ``verify`` flags (``Suite.flags`` reads
them from the function's ``__kwdefaults__``); an explicit value below a
parameter's range raises ValueError.  ``SUITES`` maps each name to its
check, and is the one place the CLI runs a suite from.

thm1 (for f_3), cor1, prop1 and prop2 check identities against the
definition, so each simulates its own prefix of f_3 with the engine, not
from the records, and drops it when it returns.  The term cap
(GCDPERM_MAX_TERMS) bounds each prefix.
"""

from __future__ import annotations

from operator import eq
from typing import Callable, NamedTuple, Sequence

from .classify import (
    C3,
    IDENTITY,
    BudgetExhaustedError,
    _excluded_count,
    classify,
    eventually_identity_by_primorial,
    exceptional_seed_density,
    scan_identity_seeds,
)
from .primes import nth_prime, primes_upto, primorial
from .primorial import (
    build_density_ledger,
    derivative_bound_check,
    kappa_coarse_bounds,
    verify_primorial_records,
    verify_translation,
)
from .records import _turning_points, find_turning_points, is_record, record_values
from .sequence import generate_prefix


class CheckResult(NamedTuple):
    """One check line; ``items`` counts what the check covered, when countable."""

    suite: str
    name: str
    ok: bool
    detail: str = ""
    items: int | None = None

    @property
    def vacuous(self) -> bool:
        """True when the check covered nothing, so its verdict says nothing."""
        return self.items == 0


def _at_least(lo: int, **params) -> None:
    """Reject a parameter below lo."""
    for name, value in params.items():
        if value < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value}")


def _listed(bad: Sequence[int], detail: str, label: str = "failed") -> str:
    """detail when nothing is bad, else the first few bad items."""
    return f"{label}: {bad[:5]}" if bad else detail


def _index_identity(suite: str, terms, m: int, k_lo: int, k_max: int) -> CheckResult:
    """f_3(m*k + 1) = m*k for k_lo <= k <= k_max, read from a prefix of f_3.

    A prefix that stops before index m*k_max + 1 fails the check.
    """
    top = m * k_max + 1
    got = map(terms.__getitem__, range(m * k_lo + 1, top + 1, m))
    ok = len(terms) > top and all(map(eq, got, range(m * k_lo, top, m)))
    detail = f"k <= {k_max}" if k_lo == 1 else f"{k_lo} <= k <= {k_max}"
    return CheckResult(suite, f"f_3({m}k+1) = {m}k", ok, detail, max(k_max - k_lo + 1, 0))


def thm1(*, limit=10_000) -> list[CheckResult]:
    _at_least(3, limit=limit)
    out = []
    for a in (3, 7):
        tps = find_turning_points(generate_prefix(a, limit))
        etps = [tp for tp in tps if tp.is_etp]
        pairs = max(len(etps) - 1, 0)
        chain_ok = all(nxt.t == cur.record_value + 1 for cur, nxt in zip(etps, etps[1:]))
        out.append(CheckResult("thm1", f"f_{a} ETP chain t' = f(t)+1", chain_ok,
                               f"{len(etps)} ETPs", pairs))
        # A turning point strictly between two consecutive ETPs is one that
        # is not itself an ETP and lies between the first and the last ETP.
        interior = [tp.t for tp in tps
                    if not tp.is_etp and etps and etps[0].t < tp.t < etps[-1].t]
        out.append(CheckResult("thm1", f"f_{a} no turning points between ETPs", not interior,
                               items=pairs))
    return out


def cor1(*, limit=100_000) -> list[CheckResult]:
    _at_least(3, limit=limit)
    buf = generate_prefix(3, limit)
    recs = set(record_values(limit))
    primes = [p for p in primes_upto(limit) if p >= 5]
    missing = [p for p in primes if p not in recs]
    tps = 0
    parity_ok = True
    for tp in _turning_points(buf, limit):
        tps += 1
        parity_ok = parity_ok and tp.t % 2 == 0 and tp.record_value % 2 == 1
    form_ok = all(r % 6 in (1, 5) for r in recs)
    return [
        _index_identity("cor1", buf.terms, 2, 1, (limit - 1) // 2),
        CheckResult("cor1", "every prime in [5, limit] is a record", not missing,
                    f"{len(missing)} missing" if missing else f"limit {limit}", len(primes)),
        CheckResult("cor1", "turning points even, records odd", parity_ok, items=tps),
        CheckResult("cor1", "records are 6k +- 1", form_ok, items=len(recs)),
    ]


def prop1(*, limit=100_000) -> list[CheckResult]:
    _at_least(1, limit=limit)
    return [_index_identity("prop1", generate_prefix(3, 2 * limit + 1).terms, 2, 1, limit)]


def prop2(*, limit=100_000) -> list[CheckResult]:
    _at_least(1, limit=limit)
    return [_index_identity("prop2", generate_prefix(3, 3 * limit + 1).terms, 3, 2, limit)]


def prop3(*, n=4, kmax=8) -> list[CheckResult]:
    _at_least(1, n=n, kmax=kmax)
    out = []
    for m in range(1, n + 1):
        rows = derivative_bound_check(m, kmax)
        if not rows:
            out.append(CheckResult("prop3", f"n={m}", True, "vacuous: no prime index in range", 0))
            continue
        bad = [row for row in rows if not row.ok]
        out.append(
            CheckResult("prop3", f"n={m} derivative >= {2 * m + 1}", not bad,
                        f"{len(rows)} prime indices, k <= {kmax}", len(rows))
        )
    return out


def thm2(*, bound=999) -> list[CheckResult]:
    _at_least(1, bound=bound)
    seeds = range(3, bound + 1, 2)
    bad_verdict = []
    bad_parity = []
    for a in seeds:
        label = classify(a)
        if label.verdict != C3:
            bad_verdict.append(a)
        if any(t % 2 for t in label.etps):
            bad_parity.append(a)
    return [
        CheckResult("thm2", "odd seeds merge into f_3", not bad_verdict,
                    _listed(bad_verdict, f"a odd, 3..{bound}"), len(seeds)),
        CheckResult("thm2", "all ETPs even", not bad_parity, items=len(seeds)),
    ]


def thm3(*, bound=300) -> list[CheckResult]:
    _at_least(1, bound=bound)
    seeds = range(6, bound + 1, 6)
    undecided = []
    bad_parity = []
    for a in seeds:
        try:
            label = classify(a)
        except BudgetExhaustedError:
            undecided.append(a)
            continue
        if any(t % 2 for t in label.etps):
            bad_parity.append(a)
    return [
        CheckResult("thm3", "multiples of 6 always decided", not undecided,
                    _listed(undecided, f"a = 6k <= {bound}", "undecided"), len(seeds)),
        CheckResult("thm3", "all ETPs even", not bad_parity, items=len(seeds) - len(undecided)),
    ]


def _agreement(bound: int) -> tuple[int, int, list[int], list[int]]:
    """Seeds scanned, identity verdicts among them, then the seeds where the
    record test and where the primorial test disagree with simulation."""
    rows = scan_identity_seeds(bound)
    identities = sum(r.verdict == IDENTITY for r in rows)
    bad_rec = [r.a for r in rows if (r.verdict == IDENTITY) != r.record_test]
    bad_pri = [r.a for r in rows if (r.verdict == IDENTITY) != r.primorial_test]
    return len(rows), identities, bad_rec, bad_pri


def thm4(*, bound=300) -> list[CheckResult]:
    _at_least(1, bound=bound)
    seeds, _, bad_rec, _ = _agreement(bound)
    return [CheckResult("thm4", "record test == simulation", not bad_rec,
                        _listed(bad_rec, f"{seeds} seeds"), seeds)]


def thm10(*, bound=300) -> list[CheckResult]:
    _at_least(1, bound=bound)
    seeds, identities, bad_rec, bad_pri = _agreement(bound)
    # Every seed 2, 4 and 6k is identity unless cor2's bands exclude it.
    small = sum(a <= bound for a in (2, 4))
    excluded = _excluded_count(bound)
    return [
        CheckResult("thm10", "primorial test == simulation", not bad_pri,
                    _listed(bad_pri, f"{seeds} seeds"), seeds),
        CheckResult("thm10", "all three tests agree", not (bad_rec or bad_pri), items=seeds),
        CheckResult("thm10", "identity count vs band count",
                    identities == small + bound // 6 - excluded,
                    f"identity {identities}, bands {small} + {bound // 6} - {excluded}", seeds),
    ]


def thm5(*, n=4) -> list[CheckResult]:
    _at_least(2, n=n)
    out = []
    for m in range(2, n + 1):
        pn = primorial(m)
        targets = [pn - 1, pn + 1, 2 * pn - 1, 2 * pn + 1]
        missing = [v for v in targets if not is_record(v)]
        out.append(CheckResult("thm5", f"P_{m} +- 1 and 2 P_{m} +- 1 are records", not missing,
                               str(targets)))
    return out


def thm6(*, n=3) -> list[CheckResult]:
    _at_least(2, n=n)
    report = verify_translation(n)
    p_next = nth_prime(n + 1)
    short_hi = 2 * primorial(n)
    fails_short = [k for k in report.failures if k <= short_hi]
    detail = f"maximal range k in [{report.maximal[0]}, {report.maximal[1]}]"
    return [
        CheckResult("thm6", f"f(P_{n}+k) = f(k)+P_{n} on [{p_next}, {short_hi}]",
                    not fails_short, detail)
    ]


def thm7(*, n=3) -> list[CheckResult]:
    _at_least(2, n=n)
    rec_report = verify_primorial_records(n)
    tr_report = verify_translation(n)
    return [
        CheckResult("thm7", f"r P_{n} +- 1 records for r in [1, {rec_report.r_range[1]}]",
                    rec_report.passed,
                    _listed(rec_report.missing, f"{len(rec_report.checked)} values", "missing")),
        CheckResult("thm7", f"translation on stated range {tr_report.stated}",
                    tr_report.holds_on_stated,
                    f"maximal {tr_report.maximal}"),
    ]


def thm8_recurrence(*, n=5) -> list[CheckResult]:
    from fractions import Fraction

    _at_least(2, n=n)
    ledger = build_density_ledger(n)
    # Finite-range densities approach the limit from above, so test them
    # against the coarse interval; the sharp bounds describe the limit only.
    coarse = kappa_coarse_bounds()
    return [
        CheckResult("thm8-recurrence", "w_{n+1} = w_n p_{n+1} - s_{n+1}",
                    ledger.recurrence_holds(), f"w = {ledger.w}"),
        CheckResult("thm8-recurrence", "w_n / P_n non-increasing", ledger.ratios_non_increasing()),
        CheckResult("thm8-recurrence", "empirical density inside the coarse bounds",
                    coarse.lower <= Fraction(ledger.kappa_empirical) <= coarse.upper,
                    f"kappa ~ {ledger.kappa_empirical:.6f}"),
    ]


def cor2(*, limit=1_000_000) -> list[CheckResult]:
    _at_least(1, limit=limit)
    seeds = range(6, limit + 1, 6)
    count = sum(1 for a in seeds if not eventually_identity_by_primorial(a))
    exact = _excluded_count(limit)
    density = float(exceptional_seed_density(12))
    return [
        CheckResult("cor2", "exact band count vs brute-force count", count == exact,
                    f"count {count}, exact {exact}, density {density:.9f}", len(seeds)),
    ]


class Suite(NamedTuple):
    """One row of the suite table: what the suite verifies, and its check."""

    description: str
    check: Callable[..., list[CheckResult]]

    @property
    def flags(self) -> dict[str, int]:
        """The suite's parameters, one ``verify`` flag each, with their defaults."""
        return dict(self.check.__kwdefaults__)


TABLE = {
    "thm1": Suite("ETP recursion: next ETP is record+1, no turning points in between", thm1),
    "cor1": Suite("odd-index identity f_3(2k+1)=2k; every prime >= 5 is a record; parities",
                  cor1),
    "prop1": Suite("f_3(2k+1) = 2k for all k up to the limit", prop1),
    "prop2": Suite("f_3(3k+1) = 3k for all 2 <= k up to the limit", prop2),
    "prop3": Suite("forward difference >= 2n+1 at prime indices k*P_n + 1", prop3),
    "thm2": Suite("odd seeds merge into f_3 with every ETP even", thm2),
    "thm3": Suite("multiples of 6 settle to identity or merge, ETPs even", thm3),
    "thm4": Suite("record-adjacency membership test agrees with simulation", thm4),
    "thm5": Suite("P_n +- 1 and 2 P_n +- 1 are records", thm5),
    "thm6": Suite("translation f(P_n + k) = f(k) + P_n on [p_{n+1}, 2 P_n]", thm6),
    "thm7": Suite("r P_n +- 1 records for r < p_{n+1}; translation on the full range", thm7),
    "thm8-recurrence": Suite("window counts satisfy w_{n+1} = w_n p_{n+1} - s_{n+1}",
                             thm8_recurrence),
    "thm10": Suite("primorial-representation membership test agrees with simulation; "
                   "identity count matches the band count", thm10),
    "cor2": Suite("exceptional-seed count from the density bands matches a brute-force count",
                  cor2),
}

SUITES = {name: suite.check for name, suite in TABLE.items()}
