"""Benchmark of the `chambers` region counters.

    python3 perfbench/run.py --workload rp-zaslavsky --seed 1 --seconds 44 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads are described in `workloads.py` and in README.md beside
this file.  A run starts a few fresh worker processes that only set up (to
sample set-up time), then one that runs a warm-up pass and then timed
passes, each with the package's caches emptied, until `--seconds` is used
up.  `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones; `--trace 0` reports the end-to-end
metrics of untraced passes, each the mean over the passes.  `--smoke`
shrinks every input for a quick self-test.

A summary goes to stderr.  The last line of stdout is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("rp-zaslavsky", "rp-oracle", "toric")

END_TO_END_UNITS = {
    "wall_s": "s",
    "count_ms_p50": "ms",
    "count_ms_p90": "ms",
    "check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "exactlin.echelon_insert.calls": "count",
    "exactlin.echelon_insert.self_s": "s",
    "exactlin.primitive_normalize.calls": "count",
    "exactlin.primitive_normalize.self_s": "s",
    "projective.build_intersection_poset.calls": "count",
    "projective.build_intersection_poset.builds": "count",
    "projective.build_intersection_poset.self_s": "s",
    "projective.flats": "count",
    "projective.count_regions_projective.self_s": "s",
    "projective.max_point_multiplicity.self_s": "s",
    "spectrum.verify_bounds_batch.self_s": "s",
    "feasibility.feasible_point.calls": "count",
    "feasibility.feasible_point.self_s": "s",
    "feasibility.feasible_point.infeasible_ratio": "ratio",
    "feasibility.feasible_point.rows_mean": "rows",
    "oracle.count_regions_oracle.self_s": "s",
    "oracle.lp_per_region": "lp/region",
    "toric.torus_decomposition.self_s": "s",
    "toric.lifted_planes": "count",
    "toric.cube_cells": "count",
    "toric.glued_pairs": "count",
    "toric.count_regions_toric_grid.self_s": "s",
    "toric.count_regions_toric_grid.disagreements": "count",
    "spectrum.search_projective.self_s": "s",
    "spectrum.search_toric.self_s": "s",
    "spectrum.count_recipe.calls": "count",
    "generators.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# Processes that only set up, at the start of every run, so that set-up
# time is a median of several samples and not of the passing worker's one.
# Smoke runs check that the benchmark works, not its figures, and start one.
SETUP_PROBES = 2
# Every run, child processes included, ends well inside this many seconds.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args, tmp: str, until: float | None, deadline: float) -> dict:
    """One worker process: set-up only when `until` is None, else passes
    until that monotonic time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--tmp", tmp]
    if args.smoke:
        cmd.append("--smoke")
    if until is None:
        cmd.append("--setup-only")
    else:
        cmd += ["--until", repr(until)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned
    return result


def measure(args, tmp: str) -> dict:
    """The set-up probes, then the worker that runs a warm-up pass and timed
    passes until --seconds is used up."""
    started = time.monotonic()
    hard_deadline = started + RUN_LIMIT_S
    probes = [spawn(args, tmp, None, hard_deadline)
              for _ in range(1 if args.smoke else SETUP_PROBES)]
    worker = spawn(args, tmp, started + args.seconds, hard_deadline)
    worker["setups"] = [w["setup_s"] for w in probes + [worker]]
    return worker


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_times(w: dict) -> dict[str, float]:
    """The end-to-end times of one pass."""
    latencies = [t for kind, t in w["steps"] if kind == "count"]
    return {
        "wall_s": sum(t for _, t in w["steps"]),
        "count_ms_p50": statistics.median(latencies) * 1000,
        "count_ms_p90": quantile(latencies, 90) * 1000,
        "check_s": sum(t for kind, t in w["steps"] if kind == "check"),
    }


def mean_times(passes: list[dict]) -> dict[str, float]:
    """Each end-to-end time, mean over the passes.

    On a shared host the same pass takes anywhere from 1 to 1.7 times its
    fastest time, and within a run the passes fall into a fast and a slow
    group whose shares change from run to run.  The median jumps between
    the groups as their shares cross one half; the mean moves with the
    shares.  In eight ten-run sets the run-to-run spread of the mean pass
    was 0.02 to 0.17 of its median.  It was below that of the median pass
    (0.04 to 0.22) in every set, and below that of the fastest pass (0.05
    to 0.29) in seven of them.
    """
    per_pass = [pass_times(w) for w in passes]
    return {name: statistics.fmean(t[name] for t in per_pass) for name in per_pass[0]}


def summarize(args, run: dict) -> dict:
    passes = run["passes"]
    untraced = [w for w in passes if not w["traced"]]
    traced = [w for w in passes if w["traced"]]
    times = mean_times(untraced)

    if args.trace:
        values = {name: statistics.fmean(w["layers"][name] for w in traced)
                  for name in traced[0]["layers"]}
        values["toric.count_regions_toric_grid.disagreements"] = statistics.fmean(
            w["grid_disagreements"] for w in traced)
        values["trace.overhead_s"] = mean_times(traced)["wall_s"] - times["wall_s"]
        units = PER_LAYER_UNITS
    else:
        values = dict(times, setup_s=statistics.median(run["setups"]),
                      peak_rss_mb=run["peak_rss_kb"] / 1024)
        units = END_TO_END_UNITS

    checked = [run["warmup"]] + passes
    problems = [p for w in checked for p in w["problems"]]
    print(f"{args.workload} seed={args.seed}: a warm-up pass, {len(untraced)} untraced and "
          f"{len(traced)} traced passes; pass walls "
          f"{[round(pass_times(w)['wall_s'], 3) for w in checked]} s, set-ups "
          f"{[round(t, 3) for t in run['setups']]} s, grid disagreements "
          f"{[w['grid_disagreements'] for w in checked]}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"  wrong: {problem}", file=sys.stderr)
    failed = sum(w["failed"] for w in checked)
    return {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in checked),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()

    if not (ROOT / "src" / "chambers" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'chambers'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        result = summarize(args, measure(args, tmp))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
