"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite re-checks one of the library's documented identities at a desk
scale chosen by its parameters, and returns one line per check.  ``TABLE``
maps each suite's short stable name (thm1, cor1, prop1, ..., cor2) to what
it verifies and its check function.  The check's keyword-only parameters,
with their defaults, are the suite's ``verify`` flags (``Suite.flags`` reads
them from the function's ``__kwdefaults__``); an explicit value below a
parameter's range raises ValueError.  ``SUITES`` maps each name to its
check, and is the one place the CLI runs a suite from.

thm1 checks the ETP recursion on prefixes of f_3 and f_7 that the engine
simulates, and thm2 the first ETP ``classify`` takes for each odd seed
a <= 199 against a simulated f_a(1..a+2); both read the turning points
from the one scanner, ``records._turning_points``.  cor1, prop1 and
prop2 check identities against the definition on the records from
``records._certified_records``, which proves them against the greedy rule
and so fixes f_3 up to the last one: block 0 step by step, and each later
block by its first step and one packed comparison with block 0, since a
step with d <= 13 holds at m exactly when it holds at m mod 30030.  cor1
takes its turning points as q + 1 for each record q from 3 = f_3(2).
They read the records in slices, with no Python step per record: each
residue check, an index identity on the slice between its bounds and
cor1's parities and 6k +- 1 form, is one ``records._residues`` of the
slice, a byte per record read off the byte columns of its lanes, and
cor1's primes are one gather of sieve flags.
cor2 counts the seeds the primorial test excludes with one sieve over the
bands of its definition, one byte per seed.  Each suite drops what it
built when it returns, and the term cap (GCDPERM_MAX_TERMS) bounds the
index each one reads, the seeds cor2 counts and the probes prop3 tests.
``_shown`` writes the ints of a check's name and detail, so that an int
too long for ``str`` still prints.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple, Sequence

from .classify import (
    C3,
    IDENTITY,
    BudgetExhaustedError,
    _excluded_count,
    _excluded_flags,
    classify,
    exceptional_seed_density,
    scan_identity_seeds,
)
from .primes import _MR_BOUND, check_proven, nth_prime, primorial, sieve_flags
from .primorial import (
    build_density_ledger,
    derivative_bound_check,
    kappa_coarse_bounds,
    verify_primorial_records,
    verify_translation,
)
from .records import (PRIMORIAL_CEILING, _between, _certified_records, _gather, _residues,
                      _turning_points, is_record)
from .sequence import check_cap, generate_prefix, short_int


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


def _below_ceiling(n: int) -> None:
    """Reject a primorial index n at which the record queries stop."""
    if n >= PRIMORIAL_CEILING:
        raise ValueError(f"n must be < {PRIMORIAL_CEILING}: the f_3 records are exact "
                         f"only below P_{PRIMORIAL_CEILING}")


def _shown(value) -> str:
    """str(value) for an int >= 0, or a list or tuple of them.  An int with
    more digits than the interpreter converts (``sys.get_int_max_str_digits``)
    shows as its first and last five digits and its digit count, and is
    never converted whole."""
    if not isinstance(value, int):
        inner = ", ".join(map(_shown, value))
        if isinstance(value, list):
            return f"[{inner}]"
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    return short_int(value, limit) if limit else str(value)


def _listed(bad: Sequence[int], detail: str, label: str = "failed") -> str:
    """detail when nothing is bad, else the first few bad items."""
    return f"{label}: {_shown(bad[:5])}" if bad else detail


def _index_identity(suite: str, records, m: int, k_lo: int, k_max: int) -> CheckResult:
    """f_3(m*k + 1) = m*k for k_lo <= k <= k_max, read from the proven
    records of ``_certified_records``.

    Past index 2, f_3(i) = i - 1 except at i = q + 1 for a record q, where
    it is the record after q, so the identity fails exactly at a record
    m*k.  Records that stop below index m*k_max + 1 fail the check.
    """
    lo, hi = m * k_lo, m * k_max
    inside = _between(memoryview(records), lo, hi)
    ok = len(records) > 0 and records[-1] > hi and 0 not in _residues(inside, m)
    detail = f"k <= {k_max}" if k_lo == 1 else f"{k_lo} <= k <= {k_max}"
    return CheckResult(suite, f"f_3({m}k+1) = {m}k", ok, detail, max(k_max - k_lo + 1, 0))


def _primes_are_records(recs, limit: int) -> CheckResult:
    """Every prime in [5, limit] is among recs, the strictly increasing
    records from 5 up to the limit: the primes there number as many as
    the prime records, whose sieve flags ``_gather`` reads."""
    flags = sieve_flags(limit)
    primes = flags.count(1) - 2  # 2 and 3
    missing = primes - _gather(flags, recs).count(1)
    return CheckResult("cor1", "every prime in [5, limit] is a record", not missing,
                       f"{missing} missing" if missing else f"limit {limit}", primes)


def thm1(*, limit=10_000) -> list[CheckResult]:
    _at_least(3, limit=limit)
    out = []
    for a in (3, 7):
        tps = list(_turning_points(generate_prefix(a, limit), limit))
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
    records = _certified_records(limit)
    recs = _between(memoryview(records), 5, limit)
    # The turning points up to the limit are q + 1 for each record q < limit
    # (4 = 3 + 1 first), each holding the record after q: records[1 : below + 1].
    # records[len(recs)] is the last record <= limit, 3 when recs is empty.
    below = len(recs) + (records[len(recs)] < limit)
    covered = len(records) > below
    return [
        _index_identity("cor1", records, 2, 1, (limit - 1) // 2),
        _primes_are_records(recs, limit),
        # Each turning point q + 1 is even when q is odd.
        CheckResult("cor1", "turning points even, records odd",
                    covered and 0 not in _residues(memoryview(records)[1 : below + 1], 2),
                    items=min(below, len(records) - 1)),
        CheckResult("cor1", "records are 6k +- 1", not _residues(recs, 6).translate(None, b"\1\5"),
                    items=len(recs)),
    ]


def prop1(*, limit=100_000) -> list[CheckResult]:
    _at_least(1, limit=limit)
    return [_index_identity("prop1", _certified_records(2 * limit + 1), 2, 1, limit)]


def prop2(*, limit=100_000) -> list[CheckResult]:
    _at_least(1, limit=limit)
    return [_index_identity("prop2", _certified_records(3 * limit + 1), 3, 2, limit)]


def prop3(*, n=4, kmax=8) -> list[CheckResult]:
    _at_least(1, n=n, kmax=kmax)
    # Refuse the first unproven probe k P_m + 1, k = ceil((_MR_BOUND - 1) / P_m),
    # before any check; P_19 alone passes the bound, so m stops by 19.
    for m in range(1, n + 1):
        pm = primorial(m)
        check_proven(min(kmax, -(-(_MR_BOUND - 1) // pm)) * pm + 1)
    check_cap(n * kmax, f"{short_int(n * kmax)} probes k P_m + 1 "
                        f"(m <= {short_int(n)}, k <= {short_int(kmax)})")
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
    seeds = list(range(3, bound + 1, 2))  # listed first: a bound past memory exits at once
    top = min(bound, 199)  # the simulated seeds take about 10k terms
    simulated = range(3, top + 1, 2)
    bad_verdict = []
    bad_parity = []
    bad_first = []
    for a in seeds:
        label = classify(a)
        if label.verdict != C3:
            bad_verdict.append(a)
        if any(t % 2 for t in label.etps):
            bad_parity.append(a)
        if a <= top:
            first = next((tp.t for tp in _turning_points(generate_prefix(a, a + 2), a + 2)
                          if tp.is_etp), None)
            if label.etps[:1] != (first,):
                bad_first.append(a)
    return [
        CheckResult("thm2", "odd seeds merge into f_3", not bad_verdict,
                    _listed(bad_verdict, f"a odd, 3..{bound}"), len(seeds)),
        CheckResult("thm2", "all ETPs even", not bad_parity, items=len(seeds)),
        CheckResult("thm2", "first ETP as simulated", not bad_first,
                    _listed(bad_first, f"a odd, 3..{top}"), len(simulated)),
    ]


def thm3(*, bound=300) -> list[CheckResult]:
    _at_least(1, bound=bound)
    seeds = list(range(6, bound + 1, 6))  # listed first, as in thm2
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
    _below_ceiling(n)
    out = []
    for m in range(2, n + 1):
        pn = primorial(m)
        targets = [pn - 1, pn + 1, 2 * pn - 1, 2 * pn + 1]
        missing = [v for v in targets if not is_record(v)]
        out.append(CheckResult("thm5", f"P_{m} +- 1 and 2 P_{m} +- 1 are records", not missing,
                               _shown(targets)))
    return out


def thm6(*, n=3) -> list[CheckResult]:
    _at_least(2, n=n)
    report = verify_translation(n)
    p_next = nth_prime(n + 1)
    short_hi = 2 * primorial(n)
    fails_short = [k for k in report.failures if k <= short_hi]
    detail = f"maximal range k in [{_shown(report.maximal[0])}, {_shown(report.maximal[1])}]"
    return [
        CheckResult("thm6", f"f(P_{n}+k) = f(k)+P_{n} on [{p_next}, {_shown(short_hi)}]",
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
        CheckResult("thm7", f"translation on stated range {_shown(tr_report.stated)}",
                    tr_report.holds_on_stated,
                    f"maximal {_shown(tr_report.maximal)}"),
    ]


def thm8_recurrence(*, n=5) -> list[CheckResult]:
    from fractions import Fraction

    _at_least(2, n=n)
    _below_ceiling(n)
    ledger = build_density_ledger(n)
    # Finite-range densities approach the limit from above, so test them
    # against the coarse interval; the sharp bounds describe the limit only.
    coarse = kappa_coarse_bounds()
    return [
        CheckResult("thm8-recurrence", "w_{n+1} = w_n p_{n+1} - s_{n+1}",
                    ledger.recurrence_holds(), f"w = {_shown(ledger.w)}"),
        CheckResult("thm8-recurrence", "w_n / P_n non-increasing", ledger.ratios_non_increasing()),
        CheckResult("thm8-recurrence", "empirical density inside the coarse bounds",
                    coarse.lower <= Fraction(ledger.kappa_empirical) <= coarse.upper,
                    f"kappa ~ {ledger.kappa_empirical:.6f}"),
    ]


def cor2(*, limit=1_000_000) -> list[CheckResult]:
    """The multiples of 6 up to limit that the primorial test excludes,
    marked by the sieve ``_excluded_flags`` over the overlapping bands of
    the definition, against ``_excluded_count``, which sums the disjoint
    bands.  More than GCDPERM_MAX_TERMS seeds raise LimitExceededError."""
    _at_least(1, limit=limit)
    count = _excluded_flags(limit).count(1)
    exact = _excluded_count(limit)
    density = float(exceptional_seed_density(12))
    return [
        CheckResult("cor2", "exact band count vs brute-force count", count == exact,
                    f"count {count}, exact {exact}, density {density:.9f}", limit // 6),
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
