"""Command-line surface: generation, verification, b-file diffing, exports.

Exit codes: 0 success, 1 verification failure/mismatch, 2 usage error,
a request too large for memory, a float or a C size and a verify flag its
suite refuses (before any check line) included, 3 I/O or input-format
error, a failed formatting process included.  A reader that closes stdout
early ends the run quietly with 0.  All CSV output uses a comma separator,
a header row, LF line endings, and no quoting; identical flags produce
byte-identical files.  Output of more than one chunk of rows may be
formatted in forked processes, one per usable CPU; the bytes are the same.
An index column that is a ``range`` with step 1, first in a row format that
starts with ``%d``, is not formatted per row from 10^4 on: its text is cut
from a template of 10^4 fixed-width rows (a NUL marker, the four low digits,
the rest of the row format with ``%`` escaped), the marker replaced by the
digits above the low four; the bytes are the same.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys
import threading
from contextlib import nullcontext

from . import __version__
from .classify import BudgetExhaustedError, prefix_terms, scan_identity_seeds
from .cycles import twin_cycle_gaps
from .primorial import prime_ratio_series, primes_within_records_series
from .records import FIRST_RECORD, _annotated, cached_records
from .sequence import MAX_TERMS_ENV, LimitExceededError, check_cap, short_int
from .suites import SUITES, TABLE

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Rows formatted and written at once: large enough that per-write overhead
# vanishes, small enough that a chunk stays a few MB.
WRITE_CHUNK_LINES = 16_384


def _write_stdout(data: bytes) -> None:
    sys.stdout.write(data.decode("ascii"))


def _usable_cpus() -> int:
    """The CPUs this process may run on; the writer formats one share of rows on each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _shares(spans: list) -> list[list]:
    """The list spans cut into contiguous shares, one per usable CPU and at
    most one per chunk.  One share, so no fork, for output of one chunk,
    without ``os.fork``, or while other threads run: forking a process
    with threads is unsafe."""
    if len(spans) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        count = 1
    else:
        count = min(_usable_cpus(), len(spans))
    return [spans[len(spans) * i // count : len(spans) * (i + 1) // count]
            for i in range(count)]


# The text of an index n >= 10^4 is the decimal of n // 10^4 and then the
# four digits of n % 10^4: one template row per low part.
_TEMPLATE_ROWS = 10_000


def _formatted(row_format: str, spans, columns):
    """The bytes of each chunk of rows: columns(s, e) gives the equally long
    columns of the rows s..e - 1, which are interleaved into one list by
    slice assignment and formatted by a single ``%``.

    Only when row_format starts with ``%d`` and a chunk's first column is
    a ``range`` with step 1 are its indices from 10^4 on not formatted per
    row.  The first such chunk of a call builds, by one ``%``, a template
    of 10^4 rows: a NUL marker, ``%04d`` of l = 0..9999, then the rest of
    row_format with every ``%`` escaped to ``%%``, so that it comes out as
    written.  Before the replace every row has the same width, so the rows
    of the indices 10^4 h + l, l from l0 on, are one slice of it;
    replacing the marker by ``%d`` of h makes that slice the row format of
    those rows with the index as text.  Indices below 10^4 keep their
    ``%d``.  The pieces are joined into the chunk's format string, and the
    other columns are formatted by its one ``%`` as before.
    """
    width = row_format.replace("%%", "").count("%")  # a literal %% takes no field
    row = row_format.encode("ascii")
    indexed = row.startswith(b"%d") and b"\0" not in row
    template = None
    values = []
    for s, e in spans:
        chunk = columns(s, e)
        first = chunk[0]
        rows = len(first)
        if not (indexed and type(first) is range and first.step == 1
                and first.stop > _TEMPLATE_ROWS):
            if len(values) != rows * width:
                values = [0] * (rows * width)
            for j, column in enumerate(chunk):
                values[j::width] = column
            yield row * rows % tuple(values)
            continue
        if template is None:
            rest = row[2:].replace(b"%", b"%%")
            template = (b"\0%04d" + rest) * _TEMPLATE_ROWS % tuple(range(_TEMPLATE_ROWS))
            step = len(template) // _TEMPLATE_ROWS
        low = max(0, _TEMPLATE_ROWS - first.start)  # the rows that keep their %d
        pieces = [row * low]
        n = first.start + low
        while n < first.stop:
            high, l = divmod(n, _TEMPLATE_ROWS)
            count = min(first.stop - n, _TEMPLATE_ROWS - l)
            pieces.append(template[l * step : (l + count) * step].replace(b"\0", b"%d" % high))
            n += count
        size = low * width + (rows - low) * (width - 1)
        if len(values) != size:
            values = [0] * size
        for j, column in enumerate(chunk):
            if low:
                values[j : low * width : width] = column[:low]
            if j:
                values[low * width + j - 1 :: width - 1] = column[low:] if low else column
        yield b"".join(pieces) % tuple(values)


def _fork_share(children: list, row_format: str, share: list, columns):
    """Fork a child that formats share and writes its bytes to a new pipe.

    Returns (pid, read end of the pipe).  The child formats its whole share
    before it writes, so it never waits on the parent while it works; it
    prints nothing, touches neither stdout nor the output file, and leaves
    by ``os._exit``: 0 once every byte is in the pipe, 1 on any error.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    code = 1
    try:
        os.close(r)
        for _, pipe in children:
            pipe.close()
        for data in list(_formatted(row_format, share, columns)):
            view = memoryview(data)
            while view:
                view = view[os.write(w, view):]
        code = 0
    finally:
        os._exit(code)


def _write_rows(path: str | None, header: str | None, row_format: str, spans, columns) -> None:
    """Write an optional header line, then one line per row, to path or to stdout.

    spans holds the (start, stop) of each chunk of at most WRITE_CHUNK_LINES
    rows, and columns(start, stop) the chunk's columns.  row_format formats
    one row, one %-field per column, and ends in LF; a %s column holds
    bytes.  The chunks are cut into contiguous shares (``_shares``): a
    forked child formats each share after the first and sends its bytes
    through a pipe, while this process formats and writes the first share
    and then copies the pipes in order.  The bytes go to the file, opened
    binary, as they are, and to stdout as ASCII text through
    ``sys.stdout.write``, whatever stdout is at the time.  Every child is
    reaped before this returns, and killed first if the writing failed; a
    child that did not exit 0 raises OSError.
    """
    shares = _shares(spans)
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(children, row_format, share, columns))
        with nullcontext() if path is None else open(path, "wb") as fh:
            write = _write_stdout if fh is None else fh.write
            if header is not None:
                write(header.encode("ascii") + b"\n")
            for data in _formatted(row_format, shares[0], columns):
                write(data)
            for _, pipe in children:
                while data := pipe.read(1 << 20):
                    write(data)
    except BaseException:
        import signal

        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe in children:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for status in statuses:
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise OSError("a process formatting the rows "
                          + (f"died from signal {-code}" if code < 0 else f"exited with {code}"))


def _spans(n: int):
    """(start, stop) of the chunks of the indices 1..n, WRITE_CHUNK_LINES each."""
    return [(s, min(s + WRITE_CHUNK_LINES, n + 1)) for s in range(1, n + 1, WRITE_CHUNK_LINES)]


def _differences(terms, s: int, e: int) -> list[int]:
    """g(i) = f(i + 1) - f(i) for i in s..e - 1, from a term store with terms[i] == f(i)."""
    return list(map(operator.sub, terms[s + 1 : e + 1], terms[s:e]))


def _row_chunks(rows):
    """The spans and the column function of a list of rows, for the commands
    that build rows: the chunk (s, e) holds rows[s - 1 : e - 1]."""
    return _spans(len(rows)), lambda s, e: tuple(zip(*rows[s - 1 : e - 1]))


def cmd_generate(args) -> int:
    n, derivative = args.n, args.with_derivative
    stop = n + 1 if derivative else n  # g(n) needs f(n + 1)
    terms = prefix_terms(args.a, stop)
    if args.format == "plain":
        header, row_format = None, "%d %d %d\n" if derivative else "%d %d\n"
    elif derivative:
        header, row_format = "n,f_n,g_n", "%d,%d,%d\n"
    else:
        header, row_format = "n,f_n", "%d,%d\n"

    def columns(s, e):
        if derivative:
            return range(s, e), terms[s:e], _differences(terms, s, e)
        return range(s, e), terms[s:e]

    _write_rows(args.out, header, row_format, _spans(n), columns)
    return EXIT_OK


def cmd_records(args) -> int:
    # The records up to a limit are terms of f_3 up to it.
    check_cap(args.limit, f"the records up to {short_int(args.limit)}")
    values = cached_records(args.limit)
    annotate = _annotated(values)
    # The text "jump,is_composite" of each key 2 jump + is_composite.
    tails = [b"%d,%d" % divmod(k, 2) for k in range(256)]

    def columns(s, e):
        rs, ts, keys = annotate(s - 1, e - 1)
        tail = operator.itemgetter(*keys)(tails) if len(keys) > 1 else (tails[keys[0]],)
        return range(s, e), rs, ts, tail

    _write_rows(args.out, "index,record,turning_point,jump,is_composite", "%d,%d,%d,%s\n",
                _spans(len(values)), columns)
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
        name = f"{r.name:<{width}}  {r.detail}" if r.detail else r.name
        print(f"{mark}  [{r.suite}] {name}")
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
                entries.append((int(parts[0]) + args.offset, int(parts[1]), lineno))
            except ValueError:
                raise ValueError(f"{args.path}:{lineno}: non-integer field in {line!r}") from None
    if not entries:
        print(f"warning: {args.path} holds no terms; agreement over the empty set",
              file=sys.stderr)
        return EXIT_OK
    usable = [entry for entry in entries if entry[0] >= max(1, args.from_index)]
    if not usable:
        print("warning: no terms left after --offset/--from filtering", file=sys.stderr)
        return EXIT_OK
    top = max(local for local, _, _ in usable)
    terms = prefix_terms(args.a, max(top, 2))
    for local, value, lineno in usable:
        if terms[local] != value:
            print(
                f"mismatch at n={local} (file line {lineno}): "
                f"file has {value}, f_{args.a} gives {terms[local]}"
            )
            return EXIT_VERIFY_FAIL
    print(f"agreement: {len(usable)} terms of f_{args.a} match {args.path}")
    return EXIT_OK


# Each figure's --limit when none is given.
_FIGURE_LIMITS = {"fig1": 10_000, "fig2": 12_000, "fig3": 1_000, "fig4": 1_000}


def _check_figure_cap(which: str, limit: int | None) -> None:
    """Refuse a figure that would pass the term cap: fig1 sieves up to its
    limit, fig2 reads f_3 up to the index limit + 1, and fig3 and fig4 read
    the records up to 10 limit + 100."""
    limit = limit or _FIGURE_LIMITS[which]
    if which == "fig1":
        check_cap(limit, f"the primes up to {short_int(limit)}")
    elif which == "fig2":
        check_cap(limit + 1, f"{short_int(limit + 1)} terms of f_3")
    else:
        top = 10 * limit + 100
        check_cap(top, f"the records up to {short_int(top)}")


def _figure_rows(which: str, limit: int | None):
    """(header, row format, spans, column function) of one figure's CSV."""
    limit = limit or _FIGURE_LIMITS[which]
    if which == "fig1":
        return ("j,m_j,M_j,gap_a,gap_b", "%d,%d,%d,%d,%d\n",
                *_row_chunks(twin_cycle_gaps(limit)))
    if which == "fig2":
        terms = prefix_terms(3, limit + 1)
        return ("t,g_t", "%d,%d\n", _spans(limit),
                lambda s, e: (range(s, e), _differences(terms, s, e)))
    # The L-th record is at most 10 L + 100: tested up to the default cap, and past
    # it below 2^63 spnd(30030 j) <= 53, so each later block of 30030 holds at least 8,841.
    nth_value = cached_records(10 * limit + 100)[limit - 1]
    if which == "fig3":
        return "n,ratio_ln", "%d,%r\n", *_row_chunks(prime_ratio_series(nth_value))
    return ("n,primes_among_records", "%d,%d\n",
            *_row_chunks(primes_within_records_series(nth_value)))


def cmd_export_figures(args) -> int:
    names = tuple(_FIGURE_LIMITS) if args.which == "all" else (args.which,)
    for name in names:  # every figure, before any file is written
        _check_figure_cap(name, args.limit)
    os.makedirs(args.out_dir, exist_ok=True)
    for name in names:
        path = os.path.join(args.out_dir, f"{name}.csv")
        _write_rows(path, *_figure_rows(name, args.limit))
        if not args.quiet:
            print(f"wrote {path}")
    return EXIT_OK


def cmd_scan(args) -> int:
    rows = scan_identity_seeds(args.bound)
    _write_rows(args.out, "a,verdict,witness,record_test,primorial_test,agree",
                "%d,%s,%d,%d,%d,%d\n",
                *_row_chunks([(r.a, r.verdict.encode("ascii"), r.witness, r.record_test,
                               r.primorial_test, r.agree) for r in rows]))
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
        flags = " ".join(f"--{flag} {default}" for flag, default in suite.flags.items())
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
                   help="add the forward difference g_n = f_(n+1) - f_n as a third column: "
                        "n,f_n,g_n rows in csv, 'n f g' lines in plain")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("records", help="write the f_3 records up to a limit as CSV")
    p.add_argument("--limit", type=_int_at_least(FIRST_RECORD), required=True,
                   help=f"largest record value (>= {FIRST_RECORD})")
    p.add_argument("--out", help="CSV output path (default stdout)")
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
        print(f"error: {exc}; set {MAX_TERMS_ENV} to raise the term cap", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: the request needs more memory than this process can have", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # a number past what a float or a C size holds
        print(f"error: the request is too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError:
        # The reader of stdout stopped early.  Point the descriptor of stdout,
        # when it has one, at devnull so that the interpreter's final flush of
        # what is left does not raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # None, or no descriptor
            return EXIT_OK
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fd)
        finally:
            os.close(devnull)
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
