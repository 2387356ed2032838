"""Layer tracing for the traced benchmark run, installed from outside the package.

The package modules bind each other's names with ``from .x import y``, so a
function is wrapped once and the wrapper is written into every ``gcdperm``
module namespace that holds the original (and into ``suites.SUITES``).
Methods of ``SequenceBuffer`` are wrapped on the class.

Two kinds of wrapper:

* span: one stored record per call, ``(name, start, end, parent, self_s)``,
  for calls that happen at most a few thousand times per run;
* counted: per-term or per-record functions (``is_prime``,
  ``smallest_prime_not_dividing``, ``next_record``, ``reconstruct_f3``,
  ``SequenceBuffer.extend``/``extend_to``, ...) only add to a call count and
  a self-time total, so millions of calls store nothing.

Self time is a call's duration minus the durations of the wrapped calls made
inside it, counted or spanned.  The span or counter name starts with the
layer (package module) it belongs to.

Memory per term and per record is computed, not sampled: ``sys.getsizeof``
summed over the structures a call leaves behind (the term store, the new
part of the record cache, the annotated records).  The accounting runs
outside every span's time and is reported as ``trace.hook_s``.  tracemalloc
is not used: it made the 2M-term generate call about 20 times slower.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("primes", "records", "sequence", "classify", "primorial", "cycles", "suites", "cli")

# (module, attribute, traced name, counted?) for plain module-level functions.
FUNCTIONS = (
    ("primes", "is_prime", "primes.is_prime", True),
    ("primes", "smallest_prime_not_dividing", "primes.spnd", True),
    ("primes", "sieve_flags", "primes.sieve", False),
    ("primes", "primes_upto", "primes.sieve", False),
    ("primes", "twin_prime_pairs", "primes.sieve", False),
    ("records", "next_record", "records.next_record", True),
    ("records", "reconstruct_f3", "records.reconstruct", True),
    ("records", "record_values", "records.record_values", False),
    ("records", "record_stream_upto", "records.record_values", False),
    ("records", "find_turning_points", "records.turning_points", False),
    ("classify", "eventually_identity_by_record", "classify.membership", True),
    ("classify", "eventually_identity_by_primorial", "classify.membership", True),
    ("classify", "scan_identity_seeds", "classify.scan", False),
    ("classify", "exceptional_seed_density", "classify.density", False),
    ("primorial", "verify_translation", "primorial.translation", False),
    ("primorial", "s_count", "primorial.window_counts", False),
    ("primorial", "w_count", "primorial.window_counts", False),
    ("primorial", "build_density_ledger", "primorial.window_counts", False),
    ("primorial", "kappa_bounds", "primorial.window_counts", False),
    ("primorial", "kappa_coarse_bounds", "primorial.window_counts", False),
    ("primorial", "kappa_empirical", "primorial.window_counts", False),
    ("primorial", "verify_primorial_records", "primorial.records_check", False),
    ("primorial", "derivative_bound_check", "primorial.derivative", False),
    ("primorial", "prime_ratio_series", "primorial.series", False),
    ("primorial", "primes_within_records_series", "primorial.series", False),
    ("cycles", "twin_cycle_gaps", "cycles.twin_gaps", False),
    ("cycles", "decompose", "cycles.decompose", False),
    ("cli", "main", "cli.main", False),
)


def deep_size(obj) -> int:
    """Bytes of obj and of the objects it holds, by sys.getsizeof.

    Cached small ints, bools and None are shared, so they count nothing.
    """
    if obj is None or type(obj) is bool:
        return 0
    if type(obj) is int:
        return 0 if -5 <= obj <= 256 else sys.getsizeof(obj)
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        return size + sum(map(deep_size, obj))
    if isinstance(obj, array):
        return size
    fields = getattr(obj, "__dict__", None)
    if fields is not None:
        size += sys.getsizeof(fields) + sum(map(deep_size, fields.values()))
    return size


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        # Each frame is [time spent in wrapped children, id of the innermost span].
        self._stack: list[list] = [[0.0, -1]]
        self.counted: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._classify_depth = 0

    # -- wrappers ------------------------------------------------------------

    def untimed(self, fn, *args) -> None:
        """Run tracer bookkeeping so that no span or counted call is charged for it."""
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        self._stack[-1][0] += dt
        self.counters["trace.hook_s"] += dt

    def counted_wrapper(self, name, fn, after=None):
        stack, perf = self._stack, time.perf_counter
        agg = self.counted[name]

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]  # spans opened inside hang off the enclosing span
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                agg[0] += 1
                agg[1] += dt - frame[0]
            if after is not None:
                self.untimed(after, args, result)
            return result

        return wrapper

    def span_wrapper(self, name, fn, after=None):
        stack, spans, perf = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            result = exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf()
                stack.pop()
                parent[0] += t1 - t0
                spans[frame[1]] = (name, t0, t1, parent[1], t1 - t0 - frame[0])
                if after is not None:
                    self.untimed(after, args, result, exc, t1 - t0)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import gcdperm.cli  # noqa: F401  (loads every layer module)

        mods = {m: sys.modules[f"gcdperm.{m}"] for m in LAYERS}
        for mod, attr, name, counted in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            make = self.counted_wrapper if counted else self.span_wrapper
            self._replace(fn, make(name, fn))
        self._install_records(mods["records"])
        self._install_sequence(mods["sequence"])
        self._install_classify(mods["classify"])
        c = self.counters
        for suite, fn in list(mods["suites"].SUITES.items()):
            def after_suite(args, result, exc, dt, suite=suite):
                c[f"suites.{suite}.s"] += dt
                c[f"suites.{suite}.checks"] += len(result) if exc is None else 0
            mods["suites"].SUITES[suite] = self.span_wrapper(f"suites.{suite}", fn, after_suite)

    def _sized_span(self, name, fn, store):
        """Span that also adds the length of its result and the bytes of store(result)."""
        c = self.counters

        def after(args, result, exc, dt):
            if exc is None:
                c[f"{name}.units"] += len(result)
                c[f"{name}.bytes"] += deep_size(store(result))

        return self.span_wrapper(name, fn, after)

    def _install_records(self, records) -> None:
        c = self.counters
        orig = records.cached_records
        counted = self.counted_wrapper("records.cached_records", orig)

        def grown(before, list_bytes, result):
            added = len(result) - before
            if added:
                c["records.cache.grow_calls"] += 1
                c["records.cache.grown"] += added
                c["records.cache.grown_bytes"] += (sys.getsizeof(result) - list_bytes
                                                   + sum(map(deep_size, result[before:])))

        def cached_records(limit):
            cache = orig(0)
            before, list_bytes = len(cache), sys.getsizeof(cache)
            result = counted(limit)
            self.untimed(grown, before, list_bytes, result)
            return result

        self._replace(orig, cached_records)
        ann = records.records_from_values
        self._replace(ann, self._sized_span("records.annotate", ann, lambda recs: recs))

    def _install_sequence(self, sequence) -> None:
        c = self.counters
        gen = sequence.generate_prefix
        self._replace(gen, self._sized_span("sequence.generate_prefix", gen, lambda buf: buf.terms))
        cls = sequence.SequenceBuffer

        def after_init(args, result):
            c["sequence.buffers"] += 1

        cls.__init__ = self.counted_wrapper("sequence.init", cls.__init__, after_init)
        cls.extend = self.counted_wrapper("sequence.extend", cls.extend)
        counted = self.counted_wrapper("sequence.extend_to", cls.extend_to)

        def extend_to(buf, n):
            before = len(buf)
            try:
                return counted(buf, n)
            finally:
                grown = len(buf) - before
                c["sequence.terms"] += grown
                if self._classify_depth:
                    c["classify.terms_simulated"] += grown
                if buf.pool_peak > c["sequence.pool_peak"]:
                    c["sequence.pool_peak"] = buf.pool_peak

        cls.extend_to = extend_to

    def _install_classify(self, classify) -> None:
        c = self.counters

        def after_attempt(args, result):
            c["classify.decided"] += result is not None

        self._replace(classify._attempt,
                      self.counted_wrapper("classify.attempts", classify._attempt, after_attempt))

        def after_classify(args, result, exc, dt):
            c["classify.seeds"] += 1
            c["classify.budget_exhausted"] += isinstance(exc, classify.BudgetExhaustedError)

        span = self.span_wrapper("classify.classify", classify.classify, after_classify)

        def classify_entry(*args, **kwargs):
            self._classify_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                self._classify_depth -= 1

        self._replace(classify.classify, classify_entry)

    @staticmethod
    def _replace(orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name == "gcdperm" or name.startswith("gcdperm."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, list]:
        """Traced name -> [calls, self seconds], spans and counted calls together."""
        out = defaultdict(lambda: [0, 0.0])
        for name, _t0, _t1, _parent, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        for name, (calls, self_s) in self.counted.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "self_s"],
                "spans": self.spans,
                "counted": {k: {"calls": v[0], "self_s": v[1]} for k, v in self.counted.items()},
                "counters": self.counters,
            }, fh)
