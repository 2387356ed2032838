"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/task.py --workload NAME --seed N --out-dir DIR --result FILE [--trace FILE]

run.py starts this with ``PYTHONPATH`` pointing at the checkout's ``src``.
It times the workload's task, reads the process's peak RSS, and writes a
JSON result to ``--result``.  With ``--trace`` it installs the layer tracer
before the task, writes the spans to that file, and adds the per-layer
counts to the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads
from tracer import Tracer


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    import gcdperm.cli  # noqa: F401  (import cost belongs to setup_s, not to the task)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    ops, files = workload.run(inputs, args.out_dir)
    wall = time.perf_counter() - t0
    result = {
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
        "files": files,
    }
    if tracer is not None:
        result["self_times"] = tracer.self_times()
        result["counters"] = dict(tracer.counters)
        result["spans"] = len(tracer.spans)
        result["cache_len"] = len(gcdperm.records.cached_records(0))
        tracer.dump(args.trace)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
