"""Benchmark for gcdperm: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
(nothing is installed or built).  Workloads (see workloads.py and
baseline.json for why each was chosen):

* f3_export       ``generate --a 3 --n 2000000 --out FILE``
* records_export  ``records --limit 2000000 --out FILE`` from a cold cache
* verify_suites   every ``verify`` suite at desk scale, then
                  ``export-figures all``
* classify_seeds  ``classify(a)`` and both membership tests, per seed; not
                  in BENCHMARK.json, because its run-to-run spread on the
                  reference host exceeds the largest allowed bound

Every repetition is a fresh process (task.py), so the module-level caches
start cold as in a CLI call.  Repetitions run one at a time, no threads.

``--trace 0`` repeats the task for about ``--seconds`` seconds (at least
once; another repetition starts while half of it fits) and reports the
end-to-end metrics as medians over repetitions.  Set-up time is the median
of fresh ``import gcdperm`` interpreters started between repetitions.
These times are scaled by the host speed measured around each repetition
(see REF_NOMINAL_S); the unscaled wall times are printed on stderr.

``--trace 1`` runs the task once untraced and once traced, and reports the
per-layer metrics, the per-op latency percentiles of the untraced
repetition, the tracing overhead and the wall time no layer accounts for.  The spans go to ``.perfbench/trace-<workload>-seed<seed>.json``.

Every repetition passes the correctness gate after it ends (outside the
timed region).  A wrong output, a nonzero exit code, a FAIL check line, a
crash or a BudgetExhaustedError fails one op; none of them stops the run.
The human-readable report goes to stderr; the last line on stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up samples are spread over the run (two before each repetition) and
# topped up at the end, so that their median covers the whole run.
SETUP_SAMPLES = 15
# Every run must end within 180 s; leave room for the gate and the report.
DEADLINE_S = 165.0
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# The host's speed drifts by 20-40% over minutes (see baseline.json), so a
# fixed reference loop runs before and after each repetition, and the
# repetition's times are scaled by REF_NOMINAL_S / (mean of the two loop
# times): seconds at the speed where the loop takes REF_NOMINAL_S.
REF_ITERATIONS = 200_000
REF_NOMINAL_S = 0.2


def reference() -> float:
    """Seconds for a fixed mix like the workloads': gcd calls, CSV formatting,
    list growth, and deletions from the middle of a large list."""
    t0 = time.perf_counter()
    rows = [f"{i},{math.gcd(i, 30030)}" for i in range(REF_ITERATIONS)]
    "\n".join(rows)
    pool = list(range(5 * REF_ITERATIONS))
    for j in range(REF_ITERATIONS // 1000):
        del pool[j * 7]
    return time.perf_counter() - t0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GCDPERM_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_sample(env: dict) -> float:
    """Seconds to start a fresh interpreter and ``import gcdperm``.

    The child bounds its own run time with an alarm: a subprocess timeout
    would make the parent poll, which rounds every sample up to 50 ms steps.
    """
    cmd = [sys.executable, "-c", "import signal; signal.alarm(60); import gcdperm"]
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True)
    return time.perf_counter() - t0


def run_rep(workload: str, seed: int, out_dir: Path, trace_path: Path | None,
            env: dict, timeout: float) -> dict:
    """One repetition in a fresh process; a crashed or killed child yields no ops."""
    out_dir.mkdir(parents=True)
    result_path = out_dir / "result.json"
    cmd = [sys.executable, str(HERE / "task.py"), "--workload", workload, "--seed", str(seed),
           "--out-dir", str(out_dir), "--result", str(result_path)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, timeout=max(timeout, 1.0),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"killed after {timeout:.0f} s"
    elapsed = time.perf_counter() - t0
    if error is None and result_path.is_file():
        with open(result_path, encoding="ascii") as fh:
            rep = json.load(fh)
    else:
        rep = {"wall_s": elapsed, "ops": [], "files": [],
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
               "error": error or "no result file"}
    rep["elapsed_s"] = elapsed
    return rep


def gate(workload: str, inputs: dict, rep: dict, full: bool) -> tuple[list, str]:
    """Failures of one repetition and the digest of its outputs."""
    if "error" in rep:
        return [("task", "crash", rep["error"])] * workloads.WORKLOADS[workload].ops(inputs), ""
    return workloads.WORKLOADS[workload].check(inputs, rep, full)


def output_size(rep: dict) -> tuple[int, int]:
    """Rows and bytes the CLI wrote in one repetition, to files and stdout."""
    rows = sum(op.get("text", "").count("\n") for op in rep["ops"])
    size = sum(len(op.get("text", "")) for op in rep["ops"])
    for path in rep["files"]:
        if os.path.isfile(path):
            size += os.path.getsize(path)
            with open(path, "rb") as fh:
                rows += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return rows, size


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, inputs, reps, setup) -> dict:
    """Speed-scaled medians over repetitions."""
    wall = statistics.median(r["wall_s"] * r["speed"] for r in reps)
    done = [r for r in reps if "error" not in r]
    items = workloads.WORKLOADS[workload].items(inputs, done[0]) if done else 0
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024,
        "items_per_s": items / wall,
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced repetition, unscaled; zero where a layer is idle.

    Each layer's self time sums its traced names (see tracer.FUNCTIONS); the
    tracing overhead compares the traced repetition with the untraced one,
    whose per-op latencies give op_p50_ms and op_p99_ms.  An op is one seed
    (classify_seeds), one suite or export-figures call (verify_suites), or
    the single CLI call (f3_export, records_export).
    """
    lat = [op["ms"] for op in untraced["ops"]] or [untraced["wall_s"] * 1e3]
    st = traced.get("self_times", {})
    c = traced.get("counters", {})

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_calls, s) in st.items():
        layer_self[name.split(".")[0]] += s
    attributed = sum(layer_self.values())
    rows, size = output_size(traced)
    cache_calls = calls("records.cached_records")
    m = {
        "primes.is_prime.calls": calls("primes.is_prime"),
        "primes.is_prime.self_s": self_s("primes.is_prime"),
        "primes.spnd.calls": calls("primes.spnd"),
        "primes.spnd.self_s": self_s("primes.spnd"),
        "records.next_record.calls": calls("records.next_record"),
        "records.next_record.self_s": self_s("records.next_record"),
        "records.cached_records.calls": cache_calls,
        "records.cached_records.self_s": self_s("records.cached_records"),
        "records.cache_len": traced.get("cache_len", 0),
        "records.cache.warm_ratio": ratio(cache_calls - c.get("records.cache.grow_calls", 0),
                                          cache_calls),
        "records.bytes_per_record": ratio(c.get("records.cache.grown_bytes", 0),
                                          c.get("records.cache.grown", 0)),
        "records.annotate.self_s": self_s("records.annotate"),
        "records.annotate.bytes_per_record": ratio(c.get("records.annotate.bytes", 0),
                                                   c.get("records.annotate.units", 0)),
        "records.reconstruct.calls": calls("records.reconstruct"),
        "records.reconstruct.self_s": self_s("records.reconstruct"),
        "sequence.buffers": c.get("sequence.buffers", 0),
        "sequence.terms": c.get("sequence.terms", 0),
        "sequence.extend_to.calls": calls("sequence.extend_to"),
        "sequence.extend_to.self_s": self_s("sequence.extend_to"),
        "sequence.extend.calls": calls("sequence.extend"),
        "sequence.extend.self_s": self_s("sequence.extend"),
        "sequence.pool_peak": c.get("sequence.pool_peak", 0),
        "sequence.bytes_per_term": ratio(c.get("sequence.generate_prefix.bytes", 0),
                                         c.get("sequence.generate_prefix.units", 0)),
        "classify.seeds": c.get("classify.seeds", 0),
        "classify.attempts": calls("classify.attempts"),
        "classify.decided_per_attempt": ratio(c.get("classify.decided", 0),
                                              calls("classify.attempts")),
        "classify.terms_simulated": c.get("classify.terms_simulated", 0),
        "classify.budget_exhausted": c.get("classify.budget_exhausted", 0),
        "classify.membership.calls": calls("classify.membership"),
        "classify.membership.self_s": self_s("classify.membership"),
        "primorial.translation.self_s": self_s("primorial.translation"),
        "primorial.window_counts.self_s": self_s("primorial.window_counts"),
        "primorial.records_check.self_s": self_s("primorial.records_check"),
        "primorial.derivative.self_s": self_s("primorial.derivative"),
        "cycles.twin_gaps.self_s": self_s("cycles.twin_gaps"),
        "cli.rows": rows,
        "cli.bytes_written": size,
        "op_p50_ms": statistics.median(lat),
        "op_p99_ms": percentile(lat, 99),
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.unattributed_s": traced["wall_s"] - attributed - c.get("trace.hook_s", 0.0),
        "trace.attributed_share": ratio(attributed, traced["wall_s"] - c.get("trace.hook_s", 0.0)),
        "trace.spans": traced.get("spans", 0),
        "trace.hook_s": c.get("trace.hook_s", 0.0),
        "trace.peak_rss_mb": traced["peak_rss_kb"] / 1024,
    }
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    for suite, *_flags in workloads.VERIFY_SUITES:
        m[f"suites.{suite}.s"] = c.get(f"suites.{suite}.s", 0.0)
        m[f"suites.{suite}.checks"] = c.get(f"suites.{suite}.checks", 0)
    return m


def self_check(metrics: dict, spec: list[dict]) -> None:
    """The report must carry exactly the metrics BENCHMARK.json names, valid and finite."""
    want = {m["name"] for m in spec}
    bad = [n for n in metrics if not NAME_RE.fullmatch(n)]
    missing, extra = want - set(metrics), set(metrics) - want
    nonfinite = [n for n, v in metrics.items() if not isinstance(v, (int, float)) or v != v]
    if bad or missing or extra or nonfinite:
        sys.exit(f"benchmark self-check failed: bad names {bad}, missing {sorted(missing)}, "
                 f"unlisted {sorted(extra)}, non-numeric {nonfinite}")


def measure(args, env: dict, work: Path, start: float) -> tuple[list[dict], list[float]]:
    """The repetitions of one run, each with its speed factor, and the scaled set-up samples.

    Untraced: repetitions for about args.seconds, two set-up samples before
    each, topped up to SETUP_SAMPLES.  Traced: one untraced repetition, then
    one traced.
    """
    setup_sample(env)  # writes the bytecode cache; not a sample
    reps: list[dict] = []
    setup: list[float] = []
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    loop_start = time.perf_counter()

    def more_reps() -> bool:
        if args.trace:
            return len(reps) < 2
        if not reps:
            return True
        # Start another repetition while at least half of it fits.
        last, now = reps[-1]["elapsed_s"], time.perf_counter()
        return (now - loop_start + last / 2 <= args.seconds
                and DEADLINE_S - (now - start) >= 2 * last + 10)

    ref = reference()
    while more_reps():
        samples = [] if args.trace else [setup_sample(env), setup_sample(env)]
        left = DEADLINE_S - (time.perf_counter() - start)
        traced = trace_path if args.trace and reps else None
        rep = run_rep(args.workload, args.seed, work / f"rep{len(reps)}", traced, env, left)
        after = reference()
        rep["speed"] = REF_NOMINAL_S / ((ref + after) / 2)
        ref = after
        setup += [t * rep["speed"] for t in samples]
        reps.append(rep)
    if not args.trace and len(setup) < SETUP_SAMPLES:
        samples = [setup_sample(env) for _ in range(SETUP_SAMPLES - len(setup))]
        after = reference()
        setup += [t * REF_NOMINAL_S / ((ref + after) / 2) for t in samples]
    return reps, setup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    if not (SRC / "gcdperm" / "__init__.py").is_file():
        sys.exit(f"error: no gcdperm sources at {SRC}; run from the root of a checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}

    env = child_env()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    sys.path.insert(0, str(SRC))  # the gate's oracles use reconstruct_f3
    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        reps, setup = measure(args, env, work, start)

        failures, digests = [], []
        for i, rep in enumerate(reps):
            fails, digest = gate(args.workload, inputs, rep, full=(i == 0))
            failures += fails
            digests.append(digest)
        if len({d for d in digests if d}) > 1:
            failures.append(("outputs", "wrong",
                             "repetitions (traced or not) produced different outputs"))
        attempted = max(workload.ops(inputs) * len(reps), len(failures))

        if args.trace:
            metrics = per_layer(reps[0], reps[1])
        else:
            metrics = end_to_end(args.workload, inputs, reps, setup)
            metrics["ok_ratio"] = (attempted - len(failures)) / attempted
            walls = " ".join(f"{r['wall_s']:.3f}" for r in reps)
            speeds = " ".join(f"{r['speed']:.3f}" for r in reps)
            print(f"{len(reps)} repetitions of {workload.ops(inputs)} ops, {len(setup)} set-up "
                  f"samples; unscaled wall s: {walls}; speed factors: {speeds}", file=sys.stderr)
        self_check(metrics, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, kind, reason in failures:
        print(f"FAILED  {name}  [{kind}] {reason}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6f} {units[name]}", file=sys.stderr)
    correct = all(kind == "undecided" for _n, kind, _r in failures)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
