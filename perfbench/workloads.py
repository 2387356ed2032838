"""The four benchmark workloads: their inputs, their task, and their checks.

Each workload (``WORKLOADS``) has three main parts:

* ``inputs(seed)`` draws every seed-dependent input (the classify sample,
  the spot-check positions) from ``random.Random(seed)``; sizes are fixed.
* ``run(inputs, out_dir)`` executes one repetition in the measured process.
  It drives the library only through ``gcdperm`` attributes and
  ``gcdperm.cli.main``, looked up at call time so that a traced run sees
  the wrapped functions.  It returns one op dict per unit of work.
* ``check(inputs, rep, full)`` is the correctness gate, run by the harness
  after the repetition has ended.  It returns one failure per failed op (op
  name, kind, reason) and a digest of everything the repetition produced,
  so that repetitions, traced or not, can be compared byte for byte.  With
  ``full`` (the first repetition of a run) it also compares the output with
  the oracles: a naive generator, ``reconstruct_f3`` and a naive record
  recurrence at seed-drawn positions.  Later repetitions must match the
  first one's digest.

A failure of kind ``undecided`` is a ``BudgetExhaustedError``: the op
failed, but no output was wrong.  Every other kind means a wrong output.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import time
from contextlib import redirect_stdout
from typing import Callable, NamedTuple

F3_TERMS = 2_000_000
# SHA-256 of `gcdperm generate --a 3 --n 2000000` output, pinned at the
# commit that introduced this benchmark.
F3_SHA256 = "d0b9b2e6c2fbb370a6e3d2cf3f5d4d74308f525f85d0bbea438ee36f18a1ed51"
F3_NAIVE_PREFIX = 20_000
F3_SPOT_POSITIONS = 64

RECORD_LIMIT = 2_000_000
RECORD_ROWS = 589_543
# SHA-256 of `gcdperm records --limit 2000000` output, pinned likewise.
RECORDS_SHA256 = "89a3e4885ec9c9881c80b6ff81dcbb654ecf0ba2ac442c7aa621834afbfe04b9"
RECORD_SPOT_ROWS = 64

# 200002 deletes from the middle of a 200k pool on every term, 999931 makes
# a million per-term extend() calls, 1000003 sits above the seed ceiling and
# raises BudgetExhaustedError.  999998 is left out for run length only: it
# runs ~72 s and then fails like 1000003.
CLASSIFY_ANCHORS = (200_002, 999_931, 1_000_003)
# Few enough that the per-seed p99 stays inside the fixed seed families.
CLASSIFY_SAMPLE = 8
CLASSIFY_SAMPLE_RANGE = (3_001, 30_000)

VERIFY_SUITES = (
    ("thm1", "--limit", "20000"),
    ("cor1", "--limit", "500000"),
    ("prop1", "--limit", "300000"),
    ("prop2", "--limit", "200000"),
    ("prop3", "--n", "6", "--kmax", "100"),
    ("thm2", "--bound", "999"),
    ("thm3", "--bound", "600"),
    ("thm4", "--bound", "1200"),
    ("thm10", "--bound", "1200"),
    ("thm5", "--n", "7"),
    ("thm6", "--n", "5"),
    ("thm7", "--n", "6"),
    ("thm8-recurrence", "--n", "7"),
    ("cor2", "--limit", "1000000"),
)
FIGURE_HEADERS = {
    "fig1.csv": "j,m_j,M_j,gap_a,gap_b",
    "fig2.csv": "t,g_t",
    "fig3.csv": "n,ratio_ln",
    "fig4.csv": "n,primes_among_records",
}


def _cli_op(name: str, argv: list[str]) -> dict:
    from gcdperm import cli

    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a crash fails this op; the run goes on
        code, error = None, repr(exc)
    ms = (time.perf_counter() - t0) * 1e3
    return {"name": name, "ms": ms, "exit": code, "error": error, "text": out.getvalue()}


def _cli_failures(op: dict) -> list[tuple[str, str, str]]:
    if op["error"] is not None:
        return [(op["name"], "crash", op["error"])]
    if op["exit"] != 0:
        return [(op["name"], "exit", f"exit code {op['exit']}")]
    return []


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _lines(path: str) -> list[str]:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def naive_prefix(a: int, n: int) -> list[int]:
    """f_a(1..n) by the definition, with a set of used values; slot 0 is padding."""
    terms = [0, 1, a]
    used = {1, a}
    low = 2
    while len(terms) <= n:
        while low in used:
            low += 1
        c, last = low, terms[-1]
        while c in used or math.gcd(c, last) != 1:
            c += 1
        used.add(c)
        terms.append(c)
    return terms[: n + 1]


def _is_prime_naive(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _next_record_naive(r: int) -> int:
    # The least value above r coprime to r-1.
    c = r + 1
    while math.gcd(c, r - 1) != 1:
        c += 1
    return c


# --- f3_export -------------------------------------------------------------

def f3_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"positions": sorted(rng.randrange(1, F3_TERMS + 1) for _ in range(F3_SPOT_POSITIONS))}


def f3_run(inputs: dict, out_dir: str) -> tuple[list[dict], list[str]]:
    path = os.path.join(out_dir, "f3.csv")
    op = _cli_op("generate", ["generate", "--a", "3", "--n", str(F3_TERMS), "--out", path])
    return [op], [path]


def f3_check(inputs: dict, rep: dict, full: bool) -> tuple[list, str]:
    (op,), (path,) = rep["ops"], rep["files"]
    failures = _cli_failures(op)
    if failures:
        return failures, ""
    digest = _sha256(path)
    if digest != F3_SHA256:
        failures.append(("generate", "wrong", f"CSV sha256 {digest} != pinned {F3_SHA256}"))
    if full:
        from gcdperm import reconstruct_f3

        lines = _lines(path)
        if len(lines) != F3_TERMS + 1 or lines[0] != "n,f_n":
            failures.append(("generate", "wrong", f"{len(lines)} lines, header {lines[0]!r}"))
            return failures, digest
        naive = naive_prefix(3, F3_NAIVE_PREFIX)
        bad = [n for n in range(1, F3_NAIVE_PREFIX + 1) if lines[n] != f"{n},{naive[n]}"]
        bad += [n for n in inputs["positions"] if lines[n] != f"{n},{reconstruct_f3(n)}"]
        if bad:
            failures.append(("generate", "wrong", f"rows differ from the oracles at n={bad[:5]}"))
    return failures, digest


# --- records_export --------------------------------------------------------

def records_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"rows": sorted(rng.randrange(2, RECORD_ROWS + 1) for _ in range(RECORD_SPOT_ROWS))}


def records_run(inputs: dict, out_dir: str) -> tuple[list[dict], list[str]]:
    path = os.path.join(out_dir, "records.csv")
    op = _cli_op("records", ["records", "--limit", str(RECORD_LIMIT), "--out", path])
    return [op], [path]


def records_check(inputs: dict, rep: dict, full: bool) -> tuple[list, str]:
    (op,), (path,) = rep["ops"], rep["files"]
    failures = _cli_failures(op)
    if failures:
        return failures, ""
    digest = _sha256(path)
    if digest != RECORDS_SHA256:
        failures.append(("records", "wrong", f"CSV sha256 {digest} != pinned {RECORDS_SHA256}"))
    if full:
        lines = _lines(path)
        if len(lines) != RECORD_ROWS + 1:
            failures.append(("records", "wrong", f"{len(lines) - 1} rows, want {RECORD_ROWS}"))
            return failures, digest
        bad = []
        for k in inputs["rows"]:
            prev = int(lines[k - 1].split(",")[1])
            idx, r, t, jump, comp = map(int, lines[k].split(","))
            want = (k, _next_record_naive(prev), prev + 1)
            if (idx, r, t) != want or jump != r - t or comp != (not _is_prime_naive(r)):
                bad.append(k)
        if bad:
            failures.append(("records", "wrong", f"rows differ from the naive recurrence: {bad[:5]}"))
    return failures, digest


# --- classify_seeds --------------------------------------------------------

def classify_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    seeds = [2, 4] + list(range(6, 3001, 6))
    seeds += list(range(3, 1000, 2))
    seeds += [a for a in range(8, 1001) if a % 6 in (2, 4)]
    lo, hi = CLASSIFY_SAMPLE_RANGE
    sample = set()
    while len(sample) < CLASSIFY_SAMPLE:
        sample.add(rng.randrange(lo, hi + 1))
    seeds += sorted(sample)
    seeds += CLASSIFY_ANCHORS
    return {"seeds": seeds}


def _classify_op(a: int) -> dict:
    import gcdperm as gp

    verdict = witness = error = None
    t0 = time.perf_counter()
    try:
        label = gp.classify(a)
        verdict, witness = label.verdict, label.witness
    except gp.BudgetExhaustedError as exc:
        error = f"BudgetExhaustedError: {exc}"
    except Exception as exc:  # a crash fails this op; the run goes on
        error = repr(exc)
    try:
        by_record = gp.eventually_identity_by_record(a)
        by_primorial = gp.eventually_identity_by_primorial(a)
    except Exception as exc:
        by_record = by_primorial = None
        error = error or repr(exc)
    ms = (time.perf_counter() - t0) * 1e3
    return {"name": f"classify({a})", "ms": ms, "error": error,
            "row": [a, verdict, witness, by_record, by_primorial]}


def classify_run(inputs: dict, out_dir: str) -> tuple[list[dict], list[str]]:
    return [_classify_op(a) for a in inputs["seeds"]], []


def classify_check(inputs: dict, rep: dict, full: bool) -> tuple[list, str]:
    failures = []
    h = hashlib.sha256()
    for op in rep["ops"]:
        a, verdict, witness, by_record, by_primorial = op["row"]
        h.update(f"{a},{verdict},{witness},{by_record},{by_primorial}\n".encode())
        if op["error"] is not None:
            kind = "undecided" if op["error"].startswith("BudgetExhaustedError") else "crash"
            failures.append((op["name"], kind, op["error"]))
        elif not (verdict == "identity") == by_record == by_primorial:
            failures.append((op["name"], "wrong",
                             f"verdict {verdict}, record test {by_record}, primorial test {by_primorial}"))
    return failures, h.hexdigest()


# --- verify_suites ---------------------------------------------------------

def verify_inputs(seed: int) -> dict:
    return {}


def verify_run(inputs: dict, out_dir: str) -> tuple[list[dict], list[str]]:
    ops = [_cli_op(f"verify {args[0]}", ["verify", *args]) for args in VERIFY_SUITES]
    fig_dir = os.path.join(out_dir, "figs")
    ops.append(_cli_op("export-figures", ["--quiet", "export-figures", "all", "--out-dir", fig_dir]))
    return ops, [os.path.join(fig_dir, name) for name in FIGURE_HEADERS]


def verify_check(inputs: dict, rep: dict, full: bool) -> tuple[list, str]:
    failures = []
    h = hashlib.sha256()
    for op in rep["ops"]:
        h.update(op["text"].encode())
        failed = _cli_failures(op)
        lines = op["text"].splitlines()
        if op["name"].startswith("verify"):
            fail_lines = [ln for ln in lines if ln.startswith("FAIL")]
            if fail_lines:
                failed.append((op["name"], "wrong", fail_lines[0]))
            elif not failed and not any(ln.startswith("PASS") for ln in lines):
                failed.append((op["name"], "wrong", "no check line printed"))
        failures += failed[:1]
    for path in rep["files"]:
        name = os.path.basename(path)
        if not os.path.isfile(path):
            failures.append(("export-figures", "wrong", f"{name} missing"))
            continue
        h.update(_sha256(path).encode())
        with open(path, "r", encoding="ascii") as fh:
            header, second = fh.readline().rstrip("\n"), fh.readline()
        if header != FIGURE_HEADERS[name] or not second:
            failures.append(("export-figures", "wrong", f"{name}: header {header!r} or no rows"))
    return failures, h.hexdigest()


def verify_items(inputs: dict, rep: dict) -> int:
    """Check lines printed by the suites: the work unit of verify_suites."""
    return sum(
        ln.startswith(("PASS", "FAIL"))
        for op in rep["ops"]
        for ln in op["text"].splitlines()
    )


class Workload(NamedTuple):
    inputs: Callable[[int], dict]
    run: Callable[[dict, str], tuple[list[dict], list[str]]]
    check: Callable[[dict, dict, bool], tuple[list, str]]
    # Ops one repetition attempts; a repetition that crashes fails all of them.
    ops: Callable[[dict], int]
    # Units of work one repetition completes: terms, record rows, seeds, checks.
    items: Callable[[dict, dict], int]


WORKLOADS = {
    "f3_export": Workload(f3_inputs, f3_run, f3_check,
                          lambda inputs: 1, lambda inputs, rep: F3_TERMS),
    "records_export": Workload(records_inputs, records_run, records_check,
                               lambda inputs: 1, lambda inputs, rep: RECORD_ROWS),
    "classify_seeds": Workload(classify_inputs, classify_run, classify_check,
                               lambda inputs: len(inputs["seeds"]),
                               lambda inputs, rep: len(inputs["seeds"])),
    "verify_suites": Workload(verify_inputs, verify_run, verify_check,
                              lambda inputs: len(VERIFY_SUITES) + 1, verify_items),
}
