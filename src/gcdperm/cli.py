"""Command-line surface: generation, verification, b-file diffing, exports.

Exit codes: 0 success, 1 verification failure/mismatch, 2 usage error,
3 I/O or input-format error.  All CSV output uses a comma separator, a
header row, LF line endings, and no quoting; identical flags produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from bisect import bisect_right
from contextlib import nullcontext

from . import __version__
from .classify import BudgetExhaustedError, scan_identity_seeds
from .cycles import twin_cycle_gaps
from .primorial import prime_ratio_series, primes_within_records_series
from .records import (
    FIRST_RECORD,
    _annotated,
    extend_records,
    f3_terms,
    load_record_cache,
    record_values,
    save_record_cache,
)
from .sequence import MAX_TERMS_ENV, LimitExceededError, generate_prefix
from .suites import SUITES, TABLE

CACHE_ENV = "GCDPERM_CACHE"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Lines joined into one write: large enough that per-write overhead
# vanishes, small enough that a chunk stays a few MB.
WRITE_CHUNK_LINES = 65_536


def _write_lines(path: str | None, lines) -> None:
    """Write an iterable of lines, LF-terminated, to path or to stdout."""
    it = iter(lines)
    if path is None:
        sink = nullcontext(sys.stdout)
    else:
        sink = open(path, "w", encoding="ascii", newline="\n")
    with sink as fh:
        while chunk := list(itertools.islice(it, WRITE_CHUNK_LINES)):
            fh.write("\n".join(chunk))
            fh.write("\n")


def cmd_generate(args) -> int:
    n = args.n + 1 if args.with_derivative else args.n
    terms = f3_terms(n) if args.a == 3 else generate_prefix(args.a, n).terms
    values = enumerate(itertools.islice(terms, 1, args.n + 1), start=1)
    if args.with_derivative:
        lines = itertools.chain(
            ["n,f_n,g_n"], (f"{i},{v},{terms[i + 1] - v}" for i, v in values)
        )
    elif args.format == "plain":
        lines = (f"{i} {v}" for i, v in values)
    else:
        lines = itertools.chain(["n,f_n"], (f"{i},{v}" for i, v in values))
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_records(args) -> int:
    cache_path = args.cache or os.environ.get(CACHE_ENV)
    if cache_path and os.path.exists(cache_path):
        chain = load_record_cache(cache_path)
        if not chain or chain[0] != FIRST_RECORD:
            print(f"error: {cache_path} does not hold a full record list", file=sys.stderr)
            return EXIT_IO
        loaded = len(chain)
        extend_records(chain, args.limit)
        del chain[bisect_right(chain, args.limit):]
        dirty = len(chain) > loaded
    else:
        chain = record_values(args.limit)
        dirty = cache_path is not None
    if dirty:
        save_record_cache(cache_path, chain)
    if args.out or not cache_path:
        rows = _annotated(chain)
        lines = itertools.chain(
            ["index,record,turning_point,jump,is_composite"],
            (f"{i},{r},{t},{j},{c:d}" for i, (r, t, j, c) in enumerate(rows, start=1)),
        )
        _write_lines(args.out, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    flags = TABLE[args.suite].flags
    every_flag = dict.fromkeys(flag for suite in TABLE.values() for flag in suite.flags)
    given = {flag: getattr(args, flag) for flag in every_flag if getattr(args, flag) is not None}
    extra = [name for name in given if name not in flags]
    if extra:
        takes = ", ".join(f"--{name}" for name in flags)
        print(f"error: verify {args.suite} does not take --{extra[0]}; it takes {takes}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        results = SUITES[args.suite](**given)
    except ValueError as exc:
        print(f"error: verify {args.suite}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    width = max(len(r.name) for r in results)
    counted = [r for r in results if not r.vacuous]
    failed = sum(not r.ok for r in counted)
    for r in results:
        mark = "VACUOUS" if r.vacuous else "PASS" if r.ok else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        print(f"{mark}  [{r.suite}] {r.name:<{width}}{detail}")
    vacuous = len(results) - len(counted)
    print(f"{args.suite}: {len(counted) - failed}/{len(counted)} checks passed"
          + (f", {vacuous} vacuous" if vacuous else ""))
    return EXIT_OK if not failed else EXIT_VERIFY_FAIL


def cmd_diff_bfile(args) -> int:
    entries = []
    with open(args.path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{args.path}:{lineno}: expected 'n value', got {line!r}")
            try:
                entries.append((int(parts[0]), int(parts[1]), lineno))
            except ValueError:
                raise ValueError(f"{args.path}:{lineno}: non-integer field in {line!r}") from None
    if not entries:
        print(f"warning: {args.path} holds no terms; agreement over the empty set",
              file=sys.stderr)
        return EXIT_OK
    indices = [n + args.offset for n, _, _ in entries]
    usable = [
        (local, value, lineno)
        for local, (_, value, lineno) in zip(indices, entries)
        if local >= max(1, args.from_index)
    ]
    if not usable:
        print("warning: no terms left after --offset/--from filtering", file=sys.stderr)
        return EXIT_OK
    top = max(local for local, _, _ in usable)
    buf = generate_prefix(args.a, max(top, 2))
    terms = buf.terms
    checked = 0
    for local, value, lineno in usable:
        if terms[local] != value:
            print(
                f"mismatch at n={local} (file line {lineno}): "
                f"file has {value}, f_{args.a} gives {terms[local]}"
            )
            return EXIT_VERIFY_FAIL
        checked += 1
    print(f"agreement: {checked} terms of f_{args.a} match {args.path}")
    return EXIT_OK


def _figure_lines(which: str, limit: int | None):
    if which == "fig1":
        rows = twin_cycle_gaps(limit or 10_000)
        return ["j,m_j,M_j,gap_a,gap_b"] + [
            f"{j},{m},{big},{ga},{gb}" for j, m, big, ga, gb in rows
        ]
    if which == "fig2":
        span = limit or 12_000
        terms = f3_terms(span + 1)
        return itertools.chain(
            ["t,g_t"], (f"{t},{terms[t + 1] - terms[t]}" for t in range(1, span + 1))
        )
    if which in ("fig3", "fig4"):
        count = limit or 1_000
        recs = record_values(10 * count + 100)
        while len(recs) < count:
            recs = record_values(2 * recs[-1])
        nth_value = recs[count - 1]
        if which == "fig3":
            rows = prime_ratio_series(nth_value)
            return ["n,ratio_ln"] + [f"{v},{r!r}" for v, r in rows]
        rows = primes_within_records_series(nth_value)
        return ["n,primes_among_records"] + [f"{v},{c}" for v, c in rows]
    raise ValueError(f"unknown figure {which!r}")


def cmd_export_figures(args) -> int:
    names = ("fig1", "fig2", "fig3", "fig4") if args.which == "all" else (args.which,)
    os.makedirs(args.out_dir, exist_ok=True)
    for name in names:
        path = os.path.join(args.out_dir, f"{name}.csv")
        _write_lines(path, _figure_lines(name, args.limit))
        if not args.quiet:
            print(f"wrote {path}")
    return EXIT_OK


def cmd_scan(args) -> int:
    rows = scan_identity_seeds(args.bound, budget=args.budget)
    lines = ["a,verdict,witness,record_test,primorial_test,agree"]
    lines += [
        f"{r.a},{r.verdict},{r.witness},{int(r.record_test)},{int(r.primorial_test)},{int(r.agree)}"
        for r in rows
    ]
    _write_lines(args.out, lines)
    disagreements = [r.a for r in rows if not r.agree]
    if disagreements:
        print(f"disagreement at seeds: {disagreements}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _int_at_least(lo: int):
    """argparse type: an integer >= lo; anything else is a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


_seed = _int_at_least(2)
_positive = _int_at_least(1)


def _suites_help() -> str:
    lines = ["suites, each with the flags it takes and their defaults:"]
    for name, suite in TABLE.items():
        flags = " ".join(
            f"--{flag} {'auto' if default is None else default}"
            for flag, default in suite.flags.items()
        )
        lines += [f"  {name:<16} {suite.description}", f"  {'':<16} {flags}"]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcdperm",
        description="Greedy coprime permutations: generation, records, cycles, classification.",
    )
    parser.add_argument("--version", action="version", version=f"gcdperm {__version__}")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational messages")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write terms of f_a")
    p.add_argument("--a", type=_seed, default=3, help="seed value f(2) (default 3)")
    p.add_argument("--n", type=_int_at_least(2), required=True, help="number of terms (>= 2)")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "plain"), default="csv",
                   help="csv with header, or plain 'n value' lines (b-file style)")
    p.add_argument("--with-derivative", action="store_true",
                   help="emit n,f_n,g_n rows with the forward difference")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("records", help="enumerate f_3 records; CSV and/or cache file")
    p.add_argument("--limit", type=_int_at_least(FIRST_RECORD), required=True,
                   help=f"largest record value (>= {FIRST_RECORD})")
    p.add_argument("--out", help="CSV output path (default stdout unless only caching)")
    p.add_argument("--cache", help=f"plain record cache to reuse/write (or ${CACHE_ENV})")
    p.set_defaults(func=cmd_records)

    p = sub.add_parser(
        "verify",
        help="run a named verification suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_suites_help(),
    )
    p.add_argument("suite", choices=sorted(TABLE), metavar="suite",
                   help="one of: " + ", ".join(sorted(TABLE)))
    p.add_argument("--limit", type=_positive, help="index/value limit")
    p.add_argument("--bound", type=_positive, help="seed bound")
    p.add_argument("--n", type=_positive, help="primorial index")
    p.add_argument("--kmax", type=_positive, help="multiplier bound")
    p.add_argument("--budget", type=_positive,
                   help="simulation budget (auto: the term cap less the merge window)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diff-bfile", help="compare a local OEIS-style b-file against f_a")
    p.add_argument("path", help="b-file: optional # comments, then 'n value' lines")
    p.add_argument("--a", type=_seed, default=3, help="seed (default 3)")
    p.add_argument("--offset", type=int, default=0,
                   help="add to file indices before comparing (absorbs indexing conventions)")
    p.add_argument("--from", dest="from_index", type=int, default=1,
                   help="ignore terms with local index below this")
    p.set_defaults(func=cmd_diff_bfile)

    p = sub.add_parser("export-figures", help="write the CSV series behind the figures")
    p.add_argument("which", choices=("fig1", "fig2", "fig3", "fig4", "all"))
    p.add_argument("--out-dir", default=".", help="directory for the CSV files")
    p.add_argument("--limit", type=_positive,
                   help="fig1: twin-prime bound; fig2: last t; fig3/fig4: record count")
    p.set_defaults(func=cmd_export_figures)

    p = sub.add_parser("scan", help="cross-check the eventually-identity tests over seeds")
    p.add_argument("--bound", type=_positive, required=True, help="largest seed (2, 4, then 6k)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--budget", type=_positive, help="explicit simulation budget")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LimitExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhaustedError as exc:
        # Without --budget, the default budget is the term cap.
        hint = "raise --budget" if args.budget else f"set {MAX_TERMS_ENV} to raise the term cap"
        print(f"error: {exc}; {hint}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
