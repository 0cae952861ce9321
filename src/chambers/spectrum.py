"""Search harness: which region counts do the generator families realize?

The search is recipe driven.  Every candidate arrangement comes from a
named constructive family with a closed-form predicted count.  One
generator, `_catalogue`, fixes the order of the recipes; it computes each
prediction before it builds the recipe, so a search walks only the recipes
at or below its cap and stops as soon as its budget is spent.  One witness
per distinct predicted value within the cap is built and counted exactly.
A mismatch between the prediction and the exact count raises (it would
mean a generator bug), so every reported value is backed by a verified
witness.

Reports compare the found set against the claim their rule names in
`bounds.CLAIMS`: `missing_predicted` lists predicted values with no
witness, `unexpected` lists witnessed values at or below the cap that the
prediction says should not exist.  An unexpected value is the loud failure
mode: it falsifies either a generator or the claims table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache

from . import bounds as bd
from . import generators as gn
from .exactlin import primitive_normalize
from .generators import Recipe
from .projective import (
    ProjArrangement,
    ValidationError,
    count_regions_projective,
    max_point_multiplicity,
)
from .toric import ToricArrangement, count_regions_toric


class RecipeMismatchError(RuntimeError):
    """A catalogue recipe did not build or did not count as it predicted."""


# ---------------------------------------------------------------------------
# recipe catalogues


TWO_EXTRA_BASE_MODES = (0, 1, 2)


def _catalogue(n: int, d: int, cap: int | None):
    """Yield the (n, d) catalogue in its fixed order, leaving out every recipe
    that predicts above `cap` before building it; `cap=None` yields them all.

    Every recipe builds, and none exists for n <= d, where RP^d has no
    essential arrangement.  In RP^2: double pencils, a pencil of q = n - k
    lines with k extras, one program per saving S <= q (Martinov's cap), then
    general position.  Above it: cones over the (n-1, d-1) catalogue, in RP^3
    two- and three-extra planes over plane bases, then general position.  A
    two-extra mode c is kept only where the base has an anchor set saving c.

    Each sub-catalogue is walked under the cap its bases must meet.  A cone
    predicts 2φ, so its bases are walked under cap // 2.  A two-extra recipe
    predicts 3φ + n - 2 - c with c at most the base's line count n - 2 (3φ
    itself for line_in_union), so its bases are walked under cap // 3.
    """
    def fits(f: int) -> bool:
        return cap is None or f <= cap

    def base_cap(factor: int) -> int | None:
        return None if cap is None else cap // factor

    if n <= d:
        return
    if d == 2:
        for common in (True, False):
            for a in range(2, (n + common) // 2 + 1):
                b = n + common - a
                f = gn.double_pencil_count(a, b, common)
                if fits(f):
                    yield Recipe("double_pencil", (a, b, common), "projective", n, 2, f)
        for k, programs in enumerate(gn.PENCIL_PROGRAMS[1:n - 1], start=1):
            q = n - k
            for program, saving in programs:
                if saving > q:
                    break
                f = gn.pencil_with_extras_count(q, k, saving)
                if fits(f):
                    yield Recipe("pencil_extras", (q, program), "projective", n, 2, f)
    else:
        for base in _catalogue(n - 1, d - 1, base_cap(2)):
            yield Recipe("cone", (base,), "projective", n, d, 2 * base.expected_f)
        if d == 3:
            n2 = n - 2
            for base in _catalogue(n2, 2, base_cap(3)):
                phi = base.expected_f
                yield Recipe("two_extra", (base, "line_in_union", 0), "projective",
                             n, d, gn.two_extra_planes_count(phi, n2, line_in_union=True))
                modes = set(TWO_EXTRA_BASE_MODES)
                if base.family == "double_pencil":
                    a, b, _ = base.params
                    modes.update((a - 1, b - 1, a + b - 2))
                elif base.family == "pencil_extras":
                    q = base.params[0]
                    modes.update((q - 1, q))
                fitting = [(c, f) for c in sorted(modes)
                           if fits(f := gn.two_extra_planes_count(phi, n2, coincidences=c))]
                if fitting:
                    builder = gn._PlaneBuilder(build_recipe(base).covectors)
                    for c, f in fitting:
                        if next(builder.anchor_sets(c), None) is not None:
                            yield Recipe("two_extra", (base, "coincidences", c),
                                         "projective", n, d, f)
            if n - 3 >= 3:
                n2 = n - 3
                phi = gn.double_pencil_count(2, n2 - 1, True)
                base = Recipe("double_pencil", (2, n2 - 1, True), "projective",
                              n2, 2, phi)
                for s2, s3, s23 in itertools.product((0, 1), (0, 1), (0, 1, 2)):
                    f = gn.three_extra_planes_count(phi, n2, s2, s3, s23)
                    # near_pencil(n2) takes a pair-anchored omega only if s2 + s3 + 2 < n2
                    if fits(f) and (s23 < 2 or s2 + s3 + s23 < n2):
                        yield Recipe("three_extra", (base, s2, s3, s23),
                                     "projective", n, d, f)
    f = gn.general_position_count(n, d)
    if fits(f):
        yield Recipe("general_position", (n, d), "projective", n, d, f)


@lru_cache(maxsize=None)
def plane_recipes(n: int) -> tuple[Recipe, ...]:
    """The whole plane catalogue at n lines, one pencil program per saving."""
    return tuple(_catalogue(n, 2, None))


@lru_cache(maxsize=None)
def projective_recipes(n: int, d: int) -> tuple[Recipe, ...]:
    """The whole (n, d) catalogue: plane families, cones, and multi-extra
    cones.  A search walks `_catalogue` under its cap instead, so it never
    builds the recipes it could not count."""
    return tuple(_catalogue(n, d, None))


def build_recipe(recipe: Recipe):
    """Construct the arrangement a recipe names.  Every catalogue recipe builds,
    so a builder's ValueError, such as PlacementError, raises RecipeMismatchError."""
    family = recipe.family
    try:
        if family == "general_position":
            return gn.general_position(*recipe.params)
        if family == "double_pencil":
            return gn.double_pencil(*recipe.params)
        if family == "pencil_extras":
            return gn.pencil_with_extras(*recipe.params)
        if family == "cone":
            return gn.cone(build_recipe(recipe.params[0]), extras=1)
        if family == "two_extra":
            base, mode, value = recipe.params
            if mode == "line_in_union":
                return gn.two_extra_planes(build_recipe(base), line_in_union=True)
            return gn.two_extra_planes(build_recipe(base), coincidences=value)
        if family == "three_extra":
            base, s2, s3, s23 = recipe.params
            return gn.three_extra_planes(build_recipe(base), s2, s3, s23)
        if family == "toric_a":
            return gn.toric_construction_a(*recipe.params)
        if family == "toric_b":
            n, d, dprime, k = recipe.params
            arr = gn.toric_construction_b(n, dprime, k)
            if dprime == d:
                return arr
            pad = (0,) * (d - dprime)
            return ToricArrangement(d, tuple((a + pad, num, den) for a, num, den in arr.subtori))
        raise ValueError(f"unknown recipe family {family!r}")
    except ValueError as exc:
        raise RecipeMismatchError(f"{recipe.describe()} did not build: {exc}") from exc


def count_recipe(recipe: Recipe) -> int:
    arr = build_recipe(recipe)
    if recipe.space == "projective":
        f = count_regions_projective(arr)
    else:
        f = count_regions_toric(arr)
    if f != recipe.expected_f:
        raise RecipeMismatchError(
            f"{recipe.describe()} counted {f}, predicted {recipe.expected_f}")
    return f


# ---------------------------------------------------------------------------
# reports


@dataclass
class SpectrumReport:
    space: str
    n: int
    d: int
    cap: int
    rule: str
    found: dict[int, Recipe] = field(default_factory=dict)
    missing_predicted: list[int] = field(default_factory=list)
    unexpected: list[int] = field(default_factory=list)
    partial: bool = False
    counted: int = 0

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "n": self.n,
            "d": self.d,
            "cap": self.cap,
            "rule": self.rule,
            "found": {str(f): self.found[f].describe() for f in sorted(self.found)},
            "missing_predicted": self.missing_predicted,
            "unexpected": self.unexpected,
            "partial": self.partial,
            "counted": self.counted,
        }


def search_projective(n: int, d: int, budget: int | None = None,
                      cap: int | None = None) -> SpectrumReport:
    """Walk the projective catalogue at (n, d) under the cap and compare spectra.

    One witness per distinct predicted count at or below the cap is counted
    exactly.  The walk is lazy: `_catalogue` never builds a recipe that
    predicts above the cap, and it stops as soon as `budget` exact counts
    are spent, which flags the report as partial.  The result is the same
    as a scan of the whole `projective_recipes(n, d)`.
    """
    if d < 2 or n < d + 2:
        raise ValueError("need d >= 2 and n >= d+2")
    rule = bd.projective_claim(n, d)
    cap, predicted = bd.predicted(rule, n, d, cap)
    report = SpectrumReport("projective", n, d, cap, rule)
    return _fill_report(report, _catalogue(n, d, cap), predicted, budget)


def search_toric(n: int, d: int, budget: int | None = None,
                 cap: int | None = None) -> SpectrumReport:
    """Walk `_toric_catalogue` lazily under the cap against the spectrum."""
    cap, predicted = bd.predicted("toric_spectrum", n, d, cap)
    report = SpectrumReport("toric", n, d, cap, "toric_spectrum")
    return _fill_report(report, _toric_catalogue(n, d, cap), predicted, budget)


def _toric_catalogue(n: int, d: int, cap: int):
    """Yield the toric recipes at (n, d) that predict at most `cap`:
    construction A for each k, then construction B for each d' and slope k,
    whose prediction 2(n - d') + k bounds k by cap - 2(n - d')."""
    for k in range(0, min(d - 1, n - 1) + 1):
        if n - k <= cap:
            yield Recipe("toric_a", (n, d, k), "toric", n, d, n - k)
    for dprime in range(2, min(d, n) + 1):
        for k in range(int(n == dprime), cap - 2 * (n - dprime) + 1):
            yield Recipe("toric_b", (n, d, dprime, k), "toric", n, d,
                         gn.toric_construction_b_count(n, dprime, k))


def _fill_report(report: SpectrumReport, recipes, predicted, budget: int | None) -> SpectrumReport:
    """Count one witness per distinct predicted value in [1, cap], then compare
    with `predicted`, the values of the report's rule (`bounds.CLAIMS`) to the cap.

    Recipes predicting outside [1, cap] or predicting an already witnessed
    value are skipped.
    `budget` caps the number of exact counts; hitting it flags the report as
    partial.  A cap below 1, under which nothing could be checked, and a
    negative budget raise ValueError before anything is counted.
    """
    if report.cap < 1:
        raise ValueError(f"cap must be at least 1, got {report.cap}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    for recipe in recipes:
        if not 1 <= recipe.expected_f <= report.cap:
            continue
        if recipe.expected_f in report.found:
            continue
        if budget is not None and report.counted >= budget:
            report.partial = True
            break
        f = count_recipe(recipe)
        report.counted += 1
        report.found[f] = recipe
    report.missing_predicted = [v for v in predicted if v not in report.found]
    report.unexpected = sorted(f for f in report.found
                               if not bd.contains(report.rule, report.n, report.d, f))
    return report


# ---------------------------------------------------------------------------
# bound verification over arbitrary batches


@dataclass(frozen=True)
class BoundViolation:
    label: str
    bound: str
    bound_ceil: int
    f: int

    def describe(self) -> str:
        return f"{self.label}: f = {self.f} < {self.bound} = {self.bound_ceil}"


def verify_bounds_batch(items) -> list[BoundViolation]:
    """Check every (arrangement, count) pair against all applicable bounds.

    Projective arrangements are checked against the homological bound for
    RP^d and the three multiplicity bounds; toric ones against the
    homological bound for T^d and spectrum membership.  The multiplicity
    bounds need the arrangement's m only when f does not meet them at every
    m in [d, n] (`bounds.multiplicity_bounds_hold_for_every_m`), or when
    d < 2; only then is m computed, by `max_point_multiplicity`, a branch
    and bound that counts no regions and builds no intersection poset.
    Violations are returned as data, never raised.
    """
    violations = []
    for idx, (arr, f) in enumerate(items):
        if isinstance(arr, ProjArrangement):
            label = f"projective[{idx}] n={arr.n} d={arr.d}"
            checks = [("homological_rp",
                       bd.bound_homological(arr.n, bd.projective_space(arr.d)))]
            if arr.d < 2 or not bd.multiplicity_bounds_hold_for_every_m(arr.n, arr.d, f):
                m = max_point_multiplicity(arr)
                checks += [
                    ("multiplicity_sum", bd.bound_multiplicity_sum(arr.n, arr.d, m)),
                    ("multiplicity_product", bd.bound_multiplicity_product(arr.n, arr.d, m)),
                    ("quadratic", bd.bound_quadratic(arr.n, arr.d, m)),
                ]
            for name, bound in checks:
                if not bound.holds_for(f):
                    violations.append(BoundViolation(label, name, bound.ceil, f))
        elif isinstance(arr, ToricArrangement):
            label = f"toric[{idx}] n={arr.n} d={arr.d}"
            bound = bd.bound_homological(arr.n, bd.torus(arr.d))
            if not bound.holds_for(f):
                violations.append(BoundViolation(label, "homological_torus",
                                                 bound.ceil, f))
            if not bd.contains("toric_spectrum", arr.n, arr.d, f):
                violations.append(BoundViolation(label, "toric_spectrum", -1, f))
        else:
            raise TypeError(f"unsupported arrangement type {type(arr)!r}")
    return violations


# ---------------------------------------------------------------------------
# deterministic random stream for violation hunting


def random_arrangements(count: int, seed: int = 0,
                        dims=(2, 3, 4), max_n: int = 10) -> list[ProjArrangement]:
    """Deterministic pseudo-random valid projective arrangements."""
    rng = random.Random(seed)
    out: list[ProjArrangement] = []
    while len(out) < count:
        d = rng.choice(dims)
        n = rng.randint(d + 2, max_n)
        seen: set = set()
        covs: list = []
        attempts = 0
        while len(covs) < n and attempts < 200:
            attempts += 1
            v = tuple(rng.randint(-4, 4) for _ in range(d + 1))
            if not any(v):
                continue
            key = primitive_normalize(v)
            if key in seen:
                continue
            seen.add(key)
            covs.append(key)
        if len(covs) < n:
            continue
        try:
            out.append(ProjArrangement(d, tuple(covs)))
        except ValidationError:
            continue
    return out
