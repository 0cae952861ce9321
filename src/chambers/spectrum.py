"""Search harness: which region counts do the generator families realize?

The search is recipe driven.  Every candidate arrangement comes from a
named constructive family with a closed-form predicted count, recipes are
enumerated in a fixed order, and one witness per distinct predicted value
within the cap is built and counted exactly.  A mismatch between the
prediction and the exact count raises (it would mean a generator bug), so
every reported value is backed by a verified witness.

Reports compare the found set against the package's predicted spectra
(`chambers.bounds`): `missing_predicted` lists predicted values with no
witness, `unexpected` lists witnessed values at or below the cap that the
prediction says should not exist.  An unexpected value is the loud failure
mode: it falsifies either a generator or the spectrum tables.
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
    count_regions_projective,
    max_point_multiplicity,
    validate,
)
from .toric import ToricArrangement, Subtorus, count_regions_toric


class RecipeMismatchError(RuntimeError):
    """A generator's exact count disagreed with its predicted count."""


# ---------------------------------------------------------------------------
# recipe catalogues


@lru_cache(maxsize=None)
def plane_recipes(n: int) -> tuple[Recipe, ...]:
    """Plane families at exactly n lines, every feasible program kept.

    Several recipes may predict the same count; the later ones are the
    fallbacks `_fill_report` tries when an earlier one raises PlacementError.
    """
    if n < 3:
        return ()
    recipes: list[Recipe] = []
    for a in range(2, n):
        b = n + 1 - a
        if b < a:
            break
        recipes.append(Recipe("double_pencil", (a, b, True), "projective", n, 2,
                              gn.double_pencil_count(a, b, True)))
    for a in range(2, n):
        b = n - a
        if b < a:
            break
        recipes.append(Recipe("double_pencil", (a, b, False), "projective", n, 2,
                              gn.double_pencil_count(a, b, False)))
    for k, programs in enumerate(gn.PENCIL_PROGRAMS[1:n - 1], start=1):
        q = n - k
        for program, saving in programs:
            recipes.append(Recipe("pencil_extras", (q, program), "projective", n, 2,
                                  q * (k + 1) + k * (k - 1) // 2 - saving))
    recipes.append(Recipe("general_position", (n, 2), "projective", n, 2,
                          gn.general_position_count(n, 2)))
    return tuple(recipes)


TWO_EXTRA_BASE_MODES = (0, 1, 2)


@lru_cache(maxsize=None)
def projective_recipes(n: int, d: int) -> tuple[Recipe, ...]:
    """Catalogue at (n, d): plane families, cones, and multi-extra cones."""
    if d == 2:
        return plane_recipes(n)
    recipes: list[Recipe] = []
    for base in projective_recipes(n - 1, d - 1):
        if base.expected_f is None:
            continue
        recipes.append(Recipe("cone", (base,), "projective", n, d,
                              2 * base.expected_f))
    if d == 3:
        for base in plane_recipes(n - 2):
            if base.expected_f is None:
                continue
            phi, n2 = base.expected_f, n - 2
            recipes.append(Recipe(
                "two_extra", (base, "line_in_union", 0), "projective", n, d,
                gn.two_extra_planes_count(phi, n2, line_in_union=True)))
            modes = set(TWO_EXTRA_BASE_MODES)
            if base.family == "double_pencil":
                a, b, _ = base.params
                modes.update((a - 1, b - 1, a + b - 2))
            elif base.family == "pencil_extras":
                q = base.params[0]
                modes.update((q - 1, q))
            for c in sorted(modes):
                recipes.append(Recipe(
                    "two_extra", (base, "coincidences", c), "projective", n, d,
                    gn.two_extra_planes_count(phi, n2, coincidences=c)))
        if n - 3 >= 3:
            base = Recipe("double_pencil", (2, n - 4, True), "projective",
                          n - 3, 2, gn.double_pencil_count(2, n - 4, True))
            phi, n2 = base.expected_f, n - 3
            for s2, s3, s23 in itertools.product((0, 1), (0, 1), (0, 1, 2)):
                recipes.append(Recipe(
                    "three_extra", (base, s2, s3, s23), "projective", n, d,
                    gn.three_extra_planes_count(phi, n2, s2, s3, s23)))
    recipes.append(Recipe("general_position", (n, d), "projective", n, d,
                          gn.general_position_count(n, d)))
    return tuple(recipes)


def build_recipe(recipe: Recipe):
    """Construct the arrangement a recipe names.  Raises PlacementError when
    the incidence pattern is not realizable."""
    family = recipe.family
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
        subs = tuple(
            Subtorus.make(s.normal + (0,) * (d - dprime), s.offset)
            for s in arr.subtori)
        return ToricArrangement(d, subs)
    raise ValueError(f"unknown recipe family {family!r}")


def count_recipe(recipe: Recipe) -> int:
    arr = build_recipe(recipe)
    if recipe.space == "projective":
        f = count_regions_projective(arr)
    else:
        f = count_regions_toric(arr)
    if recipe.expected_f is not None and f != recipe.expected_f:
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


def _projective_rule(n: int, d: int, cap: int | None):
    if d == 2:
        rule_cap = 4 * n - 12
        predicted = sorted(bd.martinov_subset(n)) if n >= 7 else []
        member = lambda f: f in bd.martinov_subset(n)
        name = "martinov"
    elif d == 3 and n >= 50:
        rule_cap = bd.low_range_cap_3d(n)
        predicted = bd.low_counts_3d(n)
        member = lambda f: f in set(bd.low_counts_3d(n))
        name = "low_range_3d"
    else:
        rule_cap = bd.first_four_cap(n, d)
        predicted = bd.first_four_counts(n, d)
        member = lambda f: f in set(bd.first_four_counts(n, d))
        name = "first_four"
    if cap is None:
        cap = rule_cap
    return name, cap, [v for v in predicted if v <= cap], member


def search_projective(n: int, d: int, budget: int | None = None,
                      cap: int | None = None) -> SpectrumReport:
    """Enumerate the projective catalogue at (n, d) and compare spectra.

    One witness per distinct predicted count at or below the cap is counted
    exactly; recipes predicting above the cap are skipped.  `budget` caps
    the number of exact counts; hitting it flags the report as partial.
    """
    if d < 2 or n < d + 2:
        raise ValueError("need d >= 2 and n >= d+2")
    rule, cap_val, predicted, member = _projective_rule(n, d, cap)
    report = SpectrumReport("projective", n, d, cap_val, rule)
    return _fill_report(report, projective_recipes(n, d), budget, predicted, member)


def search_toric(n: int, d: int, budget: int | None = None,
                 cap: int | None = None) -> SpectrumReport:
    """Enumerate toric constructions at (n, d) against the predicted spectrum."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    if cap is None:
        cap = 2 * n
    report = SpectrumReport("toric", n, d, cap, "toric_spectrum")
    recipes: list[Recipe] = []
    for k in range(0, min(d - 1, n - 1) + 1):
        recipes.append(Recipe("toric_a", (n, d, k), "toric", n, d, n - k))
    max_slope = cap if budget is None else max(cap, budget)
    for dprime in range(2, d + 1):
        if n < dprime:
            continue
        for k in range(0, max_slope + 1):
            if n == dprime and k == 0:
                continue
            recipes.append(Recipe("toric_b", (n, d, dprime, k), "toric", n, d,
                                  gn.toric_construction_b_count(n, dprime, k)))
    return _fill_report(report, recipes, budget,
                        bd.toric_predicted_values(n, d, cap),
                        lambda f: bd.toric_spectrum_contains(n, d, f))


def _fill_report(report: SpectrumReport, recipes, budget: int | None,
                 predicted: list[int], member) -> SpectrumReport:
    """Count one witness per distinct predicted value in [1, cap], then compare.

    Recipes without a prediction, predicting outside [1, cap] or predicting
    an already witnessed value are skipped, as are unrealizable placements.
    `budget` caps the number of exact counts; hitting it flags the report as
    partial.
    """
    for recipe in recipes:
        if recipe.expected_f is None or not 1 <= recipe.expected_f <= report.cap:
            continue
        if recipe.expected_f in report.found:
            continue
        if budget is not None and report.counted >= budget:
            report.partial = True
            break
        try:
            f = count_recipe(recipe)
        except gn.PlacementError:
            continue
        report.counted += 1
        report.found[f] = recipe
    report.missing_predicted = [v for v in predicted if v not in report.found]
    report.unexpected = sorted(
        f for f in report.found if f <= report.cap and not member(f))
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
    RP^d and the three multiplicity bounds, whose m comes from
    `max_point_multiplicity` (no intersection poset is built); toric ones
    against the homological bound for T^d and spectrum membership.
    Violations are returned as data, never raised.
    """
    violations = []
    for idx, (arr, f) in enumerate(items):
        if isinstance(arr, ProjArrangement):
            label = f"projective[{idx}] n={arr.n} d={arr.d}"
            m = max_point_multiplicity(arr)
            checks = [
                ("homological_rp", bd.bound_homological(arr.n, bd.projective_space(arr.d))),
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
            if not bd.toric_spectrum_contains(arr.n, arr.d, f):
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
        arr = ProjArrangement(d, tuple(covs))
        if not validate(arr):
            out.append(arr)
    return out
