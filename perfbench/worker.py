"""The fresh process of a benchmark run: build inputs, run passes, report.

Started by `run.py`, never by hand.  The process builds the inputs, runs
one warm-up pass, then timed passes until one more would end after
`--until` (a `time.monotonic()` reading).  With `--trace 1` timed passes
alternate untraced and traced, and the process stops after a whole pair.
Timed passes take the process's CPUs in turn: on a shared host one CPU can
run much slower than the other for a while, and a process left to the
scheduler tends to stay on one.

Every pass starts with the package's caches (the poset `lru_cache` and the
recipe catalogues) emptied, so each is as cold as a user's CLI process.

The process prints one JSON line: the monotonic time at which its inputs
were built (the parent subtracts its spawn time to get the set-up time),
the warm-up and timed passes with their timings, outcomes and, when
traced, per-layer statistics, and its peak resident memory.  Times are raw
seconds.  With `--setup-only` it only builds the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time


def run_pass(inputs, traced: bool, cpu: int | None) -> dict:
    import tracing
    import workloads

    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    workloads.reset_caches()
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
    started = time.monotonic()
    try:
        meter = workloads.run(inputs)
    finally:
        if tracer is not None:
            tracer.restore()
    out = {"traced": traced, "steps": meter.steps, "attempted": meter.attempted,
           "failed": meter.failed, "problems": meter.problems,
           "grid_disagreements": meter.grid_disagreements,
           "elapsed_s": time.monotonic() - started}
    if tracer is not None:
        out["layers"] = tracing.layer_stats(tracer)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--until", type=float, default=0.0,
                        help="monotonic time by which the last pass should end")
    parser.add_argument("--tmp", required=True, help="directory for input files")
    args = parser.parse_args()

    import workloads

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmpdir:
        inputs = workloads.build(args.workload, args.seed, args.smoke, tmpdir)
        out = {"ready_at": time.monotonic()}
        if not args.setup_only:
            out["warmup"] = run_pass(inputs, False, cpus[-1])
            passes: list[dict] = []
            kinds = (False, True) if args.trace else (False,)
            while True:
                passes.append(run_pass(inputs, kinds[len(passes) % len(kinds)],
                                       cpus[len(passes) // len(kinds) % len(cpus)]))
                longest = max(p["elapsed_s"] for p in passes)
                if (len(passes) % len(kinds) == 0
                        and time.monotonic() + longest * len(kinds) > args.until):
                    break
            out["passes"] = passes
            out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
