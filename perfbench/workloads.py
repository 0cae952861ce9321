"""The benchmark's workloads: inputs built from a seed, one timed pass, checks.

Each workload stands in for part of the acceptance battery (criteria c1..c8
of `chambers.acceptance`) at a size that fits many runs:

* ``rp-zaslavsky`` (c2, c3, c6): `count_regions_projective` on large
  general-position instances and random RP^3/RP^4 arrangements, recipe
  searches, then `verify_bounds_batch` over every arrangement counted.  The
  time is in `echelon_insert` and `build_intersection_poset`, and no LP is
  solved.  The registry holds more than 64 arrangements, so the poset cache
  evicts and the bounds phase rebuilds posets, as c6 does.
* ``rp-oracle`` (c1, c8): `count_regions_oracle` on c1-shaped random
  arrangements and on general-position instances in RP^3, each checked by
  `count_regions_projective`.  The time is in `feasible_point` and the
  sign-vector walk.
* ``toric`` (c4, c5, c7): `count_regions_toric` on the two toric
  constructions, the plane spectrum searches and random T^2 arrangements,
  with the grid run as a cross-check.  `feasible_point` runs here on
  homogenized affine systems with cube rows, and facet gluing adds work.

A pass is a fixed sequence of timed steps of three kinds: counts by the
workload's primary engine, cross-checks by a second engine, the grid or
`verify_bounds_batch`, and the searches and recipe builds around them.
Every pass of a run repeats the same steps in the same order, and starts
with the package's caches empty, as a fresh process does.  Answers are
compared with the references in `references.py`, computed once per run on
first use; their time is not counted.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from time import perf_counter
from typing import Callable

from chambers import bounds as bd
from chambers import cli
from chambers import generators as gn
from chambers import oracle as orc
from chambers import projective as pj
from chambers import spectrum as sp
from chambers import toric as tr

import references as ref

# Registry entries per `verify_bounds_batch` call: small enough that every
# pass times each chunk as a step of its own.
BOUNDS_CHUNK = 8


@dataclass
class Sizes:
    """Input sizes of one workload; `smoke` shrinks them for the self-test."""

    gp: tuple[tuple[int, int], ...]
    random: tuple[tuple[int, int, int], ...]  # (dimension, count, largest n)
    searches: tuple[tuple[int, int], ...] = ()
    search50_budget: int = 0
    full_constructions: bool = True


SIZES = {
    "rp-zaslavsky": Sizes(gp=((22, 3), (13, 4), (10, 5), (80, 2)),
                          random=((3, 60, 12), (4, 40, 8)),
                          searches=((11, 3), (20, 3), (13, 4), (15, 5)),
                          search50_budget=2),
    "rp-oracle": Sizes(gp=((11, 3), (12, 3)),
                       random=((2, 40, 10), (3, 35, 9), (4, 25, 8))),
    "toric": Sizes(gp=(), random=((2, 40, 5),), searches=((4, 2), (5, 2))),
}

SMOKE_SIZES = {
    "rp-zaslavsky": Sizes(gp=((12, 3), (8, 4)), random=((3, 4, 10), (4, 3, 8)),
                          searches=((11, 3),), search50_budget=2),
    "rp-oracle": Sizes(gp=((8, 3),), random=((2, 3, 7), (3, 3, 7))),
    "toric": Sizes(gp=(), random=((2, 5, 5),), searches=((4, 2),),
                   full_constructions=False),
}


# ---------------------------------------------------------------------------
# measurement of one pass


@dataclass
class Meter:
    """Timed steps of one pass, (kind, seconds) in order, with their outcomes."""

    steps: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    grid_disagreements: int = 0

    def call(self, kind: str, label: str, fn: Callable, *args):
        """Time fn(*args) as a "count", "check" or "other" step.

        An exception is counted as a failed operation and gives None.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # any engine failure is a measured outcome
            self.fail(f"{label}: {exc!r}")
            return None
        finally:
            self.steps.append((kind, perf_counter() - start))

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def expect(self, label: str, got, want) -> None:
        """Record a wrong answer; a None answer already counted as failed."""
        if got is not None and got != want:
            self.fail(f"{label}: got {got}, reference {want}")


def cli_count(path: str, *options: str) -> int:
    """`chambers count FILE` in this process, reading the JSON it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["count", path, *options])
    if code != 0:
        raise RuntimeError(f"chambers count exited with {code}")
    return json.loads(out.getvalue())["f"]


def _write(arr, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(arr.to_json(), fh)
    return path


# ---------------------------------------------------------------------------
# random T^2 inputs


def _normals(bound: int) -> list[tuple[int, int]]:
    """Primitive normals with entries of absolute value at most `bound` and
    a positive leading entry."""
    return [(a1, a2) for a1 in range(bound + 1) for a2 in range(-bound, bound + 1)
            if (a1 > 0 or a2 > 0) and gcd(a1, a2) == 1]


def random_torus2(rng: random.Random, n: int, bound: int, lifted: int,
                  denominator: int) -> list[tuple[tuple[int, int], Fraction]]:
    """n distinct circles a . x = k/denominator, 0 < k < denominator.

    Normals are primitive with entries of absolute value at most `bound`,
    and span two directions.  The exact engine's work grows with the lines
    the circles lift to in the unit square and with their crossings, the
    grid's with the denominator: the circles lift to exactly `lifted` lines
    (|a_1| + |a_2| each, as no offset is 0) and cross sum |det(a_i, a_j)|
    times, within two of 3/8 * lifted * (n - 1), about the median for such
    inputs.  So the seed chooses the geometry but not the amount of work.
    """
    candidates = _normals(bound)
    crossings = round(3 * lifted * (n - 1) / 8)
    while True:
        normals = [rng.choice(candidates) for _ in range(n)]
        if sum(abs(a1) + abs(a2) for a1, a2 in normals) != lifted:
            continue
        crossed = sum(abs(a[0] * b[1] - a[1] * b[0])
                      for i, a in enumerate(normals) for b in normals[i + 1:])
        if abs(crossed - crossings) > 2 or len(set(normals)) < 2:
            continue
        offsets: dict[tuple[int, int], list[int]] = {}
        for a in set(normals):
            count = normals.count(a)
            if count < denominator:
                offsets[a] = rng.sample(range(1, denominator), count)
        if len(offsets) == len(set(normals)):
            return [(a, Fraction(offsets[a].pop(), denominator)) for a in normals]


def schedule(count: int, lo: int, hi: int) -> list[int]:
    """Sizes lo..hi in turn.  Drawing the size of every random input from
    the seed would let the total work of a pass swing with the seed; a
    fixed schedule leaves the seed to choose only the geometry."""
    return [lo + i % (hi - lo + 1) for i in range(count)]


def scheduled_arrangements(seed: int, d: int, sizes: list[int]) -> list:
    """Seeded `spectrum.random_arrangements` in RP^d, one of each listed size."""
    pools: dict[int, list] = {}
    batch = 0
    while any(len(pools.get(n, ())) < sizes.count(n) for n in set(sizes)):
        for arr in sp.random_arrangements(2 * len(sizes), seed=seed * 1009 + batch,
                                          dims=(d,), max_n=max(sizes)):
            pools.setdefault(arr.n, []).append(arr)
        batch += 1
    return [pools[n].pop() for n in sizes]


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Inputs:
    name: str
    sizes: Sizes
    gp: list = field(default_factory=list)  # (n, d, arrangement, file)
    randoms: list = field(default_factory=list)  # arrangements, or (circles, arr, file) on T^2
    constructions: list = field(default_factory=list)  # (label, arr, expected)
    expected: dict[str, int] = field(default_factory=dict)

    def reference(self, label: str, compute: Callable[[], int]) -> int:
        """The reference answer for label, computed on its first use."""
        if label not in self.expected:
            self.expected[label] = compute()
        return self.expected[label]


def build(name: str, seed: int, smoke: bool, tmpdir: str) -> Inputs:
    """Generate the workload's inputs from the seed and write its input files."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    inputs = Inputs(name, sizes)
    for n, d in sizes.gp:
        arr = gn.general_position(n, d)
        path = _write(arr, os.path.join(tmpdir, f"gp-{n}-{d}.json"))
        inputs.gp.append((n, d, arr, path))
    if name == "toric":
        rng = random.Random(seed)
        for i, n in enumerate(schedule(sizes.random[0][1], 3, sizes.random[0][2])):
            bound = 3 if i % 3 == 2 else 2
            circles = random_torus2(rng, n, bound, 2 * n + bound + i % 2, 3 + i % 3)
            arr = tr.ToricArrangement.make(2, circles)
            path = _write(arr, os.path.join(tmpdir, f"t2-{i}.json"))
            inputs.randoms.append((circles, arr, path))
        inputs.constructions = toric_constructions(sizes.full_constructions)
    else:
        for d, count, max_n in sizes.random:
            inputs.randoms += scheduled_arrangements(seed, d, schedule(count, d + 2, max_n))
    return inputs


def toric_constructions(full: bool) -> list:
    """c4's construction instances at d = 2 and c7's sharp family at d = 3."""
    out = []
    d = 2
    for k in range(d):
        for n in range(max(2, k + 1), 9 if full else 4):
            out.append((f"a(n={n},d={d},k={k})", gn.toric_construction_a(n, d, k),
                        ref.toric_construction_a_count(n, d, k)))
    for k in range(6 if full else 2):
        for n in range(d, 9 if full else 4):
            if n == d and k == 0:
                continue
            out.append((f"b(n={n},d={d},k={k})", gn.toric_construction_b(n, d, k),
                        ref.toric_construction_b_count(n, d, k)))
    for n in range(3, 9 if full else 4):
        out.append((f"a(n={n},d=3,k=2)", gn.toric_construction_a(n, 3, 2),
                    ref.toric_construction_a_count(n, 3, 2)))
    return out


def reset_caches() -> None:
    """Empty the package's caches (the poset cache and the recipe
    catalogues), so that a pass starts as cold as in a fresh process."""
    pj.build_intersection_poset.cache_clear()
    sp.plane_recipes.cache_clear()
    sp.projective_recipes.cache_clear()
    gc.collect()


def run(inputs: Inputs) -> Meter:
    """One pass.  Call `reset_caches` first."""
    meter = Meter()
    {"rp-zaslavsky": _run_zaslavsky, "rp-oracle": _run_oracle,
     "toric": _run_toric}[inputs.name](inputs, meter)
    return meter


def _run_zaslavsky(inputs: Inputs, meter: Meter) -> None:
    registry = []
    answers = []
    for n, d, arr, path in inputs.gp:
        f = meter.call("count", f"GP({n},{d})", cli_count, path)
        answers.append((f"GP({n},{d})", f, lambda n=n, d=d: ref.general_position_count(n, d)))
        registry.append((arr, f))
    for i, arr in enumerate(inputs.randoms):
        f = meter.call("count", f"random[{i}]", pj.count_regions_projective, arr)
        answers.append((f"random[{i}] d={arr.d} n={arr.n}", f,
                        lambda arr=arr: ref.projective_regions(arr.d, arr.covectors)))
        registry.append((arr, f))

    searches = [(n, d, None) for n, d in inputs.sizes.searches]
    searches.append((50, 3, inputs.sizes.search50_budget))
    for n, d, budget in searches:
        label = f"search_projective({n},{d})"
        report = meter.call("other", label, sp.search_projective, n, d, budget)
        if report is None:
            continue
        for f, recipe in sorted(report.found.items()):
            arr = meter.call("other", f"build {recipe.describe()}", sp.build_recipe, recipe)
            registry.append((arr, f))
        if report.unexpected:
            meter.fail(f"{label}: unexpected {report.unexpected}")
        if budget is None:
            missing = [v for v in bd.first_four_counts(n, d) if v not in report.found]
            if missing:
                meter.fail(f"{label}: {missing} not realized")

    # The bounds batch goes in chunks in registry order, so the poset cache
    # sees the same sequence as one call and each chunk is a step of its own.
    registry = [(arr, f) for arr, f in registry if arr is not None and f is not None]
    for start in range(0, len(registry), BOUNDS_CHUNK):
        chunk = registry[start:start + BOUNDS_CHUNK]
        violations = meter.call("check", f"verify_bounds_batch[{start}:]",
                                sp.verify_bounds_batch, chunk)
        if violations:
            meter.fail(f"bound violations: {[v.describe() for v in violations[:3]]}")

    for label, f, reference in answers:
        meter.expect(label, f, inputs.reference(label, reference))


def _run_oracle(inputs: Inputs, meter: Meter) -> None:
    for i, arr in enumerate(inputs.randoms):
        label = f"random[{i}] d={arr.d} n={arr.n}"
        f = meter.call("count", label, orc.count_regions_oracle, arr)
        g = meter.call("check", label, pj.count_regions_projective, arr)
        want = inputs.reference(label, lambda: ref.projective_regions(arr.d, arr.covectors))
        meter.expect(f"oracle {label}", f, want)
        meter.expect(f"zaslavsky {label}", g, want)
    for n, d, arr, path in inputs.gp:
        label = f"GP({n},{d})"
        f = meter.call("count", label, cli_count, path, "--engine", "oracle")
        g = meter.call("check", label, pj.count_regions_projective, arr)
        want = inputs.reference(label, lambda: ref.general_position_count(n, d))
        meter.expect(f"oracle {label}", f, want)
        meter.expect(f"zaslavsky {label}", g, want)


def _stable_grid_count(arr) -> int | None:
    """The grid count at the first refinement that is stable, as c4 takes it."""
    for refinement in (1, 2, 3):
        try:
            return tr.count_regions_toric_grid(arr, refinement)
        except tr.UnstableError:
            continue
    return None


def _grid_count(arr) -> int | None:
    """The grid count at refinement 1, or None when it is unstable."""
    try:
        return tr.count_regions_toric_grid(arr, 1)
    except tr.UnstableError:
        return None


def _grid_check(meter: Meter, label: str, grid_count: Callable, arr, f) -> None:
    """Cross-check with the grid.

    The grid is a heuristic: on generic T^2 inputs it returns stable but
    wrong counts, so a disagreement is recorded, never used as a reference.
    """
    grid = meter.call("check", f"grid {label}", grid_count, arr)
    if grid is None or grid != f:
        meter.grid_disagreements += 1


def _run_toric(inputs: Inputs, meter: Meter) -> None:
    for label, arr, want in inputs.constructions:
        f = meter.call("count", label, tr.count_regions_toric, arr)
        meter.expect(label, f, want)
        _grid_check(meter, label, _stable_grid_count, arr, f)
    for n, d in inputs.sizes.searches:
        label = f"search_toric({n},{d})"
        report = meter.call("other", label, sp.search_toric, n, d, None, 12)
        if report is not None and (report.missing_predicted or report.unexpected):
            meter.fail(f"{label}: missing {report.missing_predicted}, "
                       f"unexpected {report.unexpected}")
    counted = []
    for i, (circles, arr, path) in enumerate(inputs.randoms):
        label = f"T2 random[{i}] n={len(circles)}"
        f = meter.call("count", label, cli_count, path)
        _grid_check(meter, label, _grid_count, arr, f)
        counted.append((label, circles, f))
    for label, circles, f in counted:
        meter.expect(label, f, inputs.reference(label, lambda: ref.torus2_regions(circles)))
