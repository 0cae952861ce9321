"""Spans around calls into the package's layers, installed from outside it.

`Tracer.install` rebinds each traced public function in every `chambers`
module namespace that holds it, so calls between modules and inside a module
both go through the wrapper: `feasible_point` is bound in `chambers.oracle`
and `chambers.toric`, `echelon_insert` in `chambers.exactlin` and
`chambers.projective`.  `Tracer.restore` puts the original bindings back.
No file of the package changes, and untraced runs never install anything.

Spans stay in memory in flat arrays with a parent link each.  A span's self
time is its duration minus the durations of its child spans.  Counts that a
layer's results reveal (rows per LP, posets built, cube cells) are recorded
by small hooks at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable

PACKAGE = "chambers"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, span: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn recording one span per call; after(args, result) runs inside it."""
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self, module: str, function: str, span: str,
                after: Callable | None = None) -> None:
        """Rebind module.function wherever the package holds that object."""
        original = getattr(sys.modules[module], function)
        traced = self.wrap(span, original, after)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, traced)

    def install_module(self, module: str, span: str) -> None:
        """Trace every public function defined in a module under one span name."""
        mod = sys.modules[module]
        for attr, value in list(vars(mod).items()):
            if (inspect.isfunction(value) and value.__module__ == module
                    and not attr.startswith("_")):
                self.install(module, attr, span)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, seconds not covered by child spans)."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            own[nid] += ends[i] - starts[i] - child[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}

    def calls_under(self, span: str, ancestor: str) -> int:
        """Spans named `span` that have a span named `ancestor` above them."""
        target = self._name_ids.get(span)
        above = self._name_ids.get(ancestor)
        if target is None or above is None:
            return 0
        found = 0
        for i, nid in enumerate(self.span_name):
            if nid != target:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != above:
                p = self.span_parent[p]
            found += p >= 0
        return found


def install_layers(tracer: Tracer) -> None:
    """Trace the public functions that the per-layer metrics are built from."""
    projective = sys.modules[f"{PACKAGE}.projective"]
    poset = projective.build_intersection_poset
    misses = [poset.cache_info().misses]

    def poset_built(args, result):
        now = poset.cache_info().misses
        if now > misses[0]:
            tracer.add("poset.builds", now - misses[0])
            tracer.add("poset.flats", len(result.flats))
            misses[0] = now

    def lp_solved(args, result):
        tracer.add("lp.rows", len(args[0]))
        if result is None:
            tracer.add("lp.infeasible")

    def decomposed(args, result):
        tracer.add("toric.cube_cells", result.cube_cells)
        tracer.add("toric.glued_pairs", result.glued_pairs)

    def regions_walked(args, result):
        tracer.add("oracle.regions", result)

    p = PACKAGE
    tracer.install(f"{p}.exactlin", "echelon_insert", "exactlin.echelon_insert")
    tracer.install(f"{p}.exactlin", "primitive_normalize", "exactlin.primitive_normalize")
    tracer.install(f"{p}.projective", "build_intersection_poset",
                   "projective.build_intersection_poset", poset_built)
    tracer.install(f"{p}.projective", "count_regions_projective",
                   "projective.count_regions_projective")
    tracer.install(f"{p}.projective", "max_point_multiplicity",
                   "projective.max_point_multiplicity")
    tracer.install(f"{p}.feasibility", "feasible_point", "feasibility.feasible_point",
                   lp_solved)
    tracer.install(f"{p}.oracle", "count_regions_oracle", "oracle.count_regions_oracle",
                   regions_walked)
    tracer.install(f"{p}.toric", "lift_to_cube", "toric.lift_to_cube",
                   lambda args, result: tracer.add("toric.lifted_planes", len(result)))
    tracer.install(f"{p}.toric", "torus_decomposition", "toric.torus_decomposition",
                   decomposed)
    tracer.install(f"{p}.toric", "count_regions_toric_grid",
                   "toric.count_regions_toric_grid")
    for name in ("search_projective", "search_toric", "count_recipe",
                 "verify_bounds_batch"):
        tracer.install(f"{p}.spectrum", name, f"spectrum.{name}")
    tracer.install_module(f"{p}.generators", "generators")
    tracer.install(f"{p}.cli", "main", "cli.main")


def layer_stats(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, times in raw seconds."""
    own = tracer.self_times()

    def calls(span):
        return own.get(span, (0, 0.0))[0]

    def self_s(span):
        return own.get(span, (0, 0.0))[1]

    c = tracer.counts
    lps = calls("feasibility.feasible_point")
    regions = c.get("oracle.regions", 0)
    lps_in_oracle = tracer.calls_under("feasibility.feasible_point",
                                       "oracle.count_regions_oracle")
    return {
        "exactlin.echelon_insert.calls": calls("exactlin.echelon_insert"),
        "exactlin.echelon_insert.self_s": self_s("exactlin.echelon_insert"),
        "exactlin.primitive_normalize.calls": calls("exactlin.primitive_normalize"),
        "exactlin.primitive_normalize.self_s": self_s("exactlin.primitive_normalize"),
        "projective.build_intersection_poset.calls":
            calls("projective.build_intersection_poset"),
        "projective.build_intersection_poset.builds": c.get("poset.builds", 0),
        "projective.build_intersection_poset.self_s":
            self_s("projective.build_intersection_poset"),
        "projective.flats": c.get("poset.flats", 0),
        "projective.count_regions_projective.self_s":
            self_s("projective.count_regions_projective"),
        "projective.max_point_multiplicity.self_s":
            self_s("projective.max_point_multiplicity"),
        "spectrum.verify_bounds_batch.self_s": self_s("spectrum.verify_bounds_batch"),
        "feasibility.feasible_point.calls": lps,
        "feasibility.feasible_point.self_s": self_s("feasibility.feasible_point"),
        "feasibility.feasible_point.infeasible_ratio":
            c.get("lp.infeasible", 0) / lps if lps else 0.0,
        "feasibility.feasible_point.rows_mean": c.get("lp.rows", 0) / lps if lps else 0.0,
        "oracle.count_regions_oracle.self_s": self_s("oracle.count_regions_oracle"),
        "oracle.lp_per_region": lps_in_oracle / regions if regions else 0.0,
        "toric.torus_decomposition.self_s": self_s("toric.torus_decomposition"),
        "toric.lifted_planes": c.get("toric.lifted_planes", 0),
        "toric.cube_cells": c.get("toric.cube_cells", 0),
        "toric.glued_pairs": c.get("toric.glued_pairs", 0),
        "toric.count_regions_toric_grid.self_s":
            self_s("toric.count_regions_toric_grid"),
        "spectrum.search_projective.self_s": self_s("spectrum.search_projective"),
        "spectrum.search_toric.self_s": self_s("spectrum.search_toric"),
        "spectrum.count_recipe.calls": calls("spectrum.count_recipe"),
        "generators.self_s": self_s("generators"),
        "cli.main.self_s": self_s("cli.main"),
    }
