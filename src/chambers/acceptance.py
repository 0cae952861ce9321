"""The acceptance battery: every exit criterion as an executable check.

Each criterion builds its own evidence and returns a CriterionResult; the
runner prints one PASS/FAIL line per criterion.  Every arrangement counted
anywhere in the battery is collected into a shared registry so the bound
invariants of criterion 6 really do cover the whole suite.

Criteria (all required unless marked stretch):

1. oracle equivalence on a deterministic random stream plus the generator
   catalogue at n <= 12;
2. the four smallest counts at (d, n) in {(3,11), (3,20), (4,13), (5,15)},
   realized and exclusive below the fourth value;
3. the 36-value low spectrum at n = 50 in RP^3: required values realized,
   nothing unexpected below 12n-60, full list as stretch;
4. toric construction counts against their closed forms, cross-checked by
   the cube engine (`torus_decomposition`);
5. the complete low toric spectrum at d = 2, n in {4, 5} up to cap 12, each
   witness cross-checked by the cube engine;
6. zero violations of the four lower bounds over the whole registry;
7. sharpness: the homological bound met with equality by the parallel
   toric family (each count cross-checked by the cube engine), McMullen's
   bound by iterated cones over near-pencils;
8. Martinov's plane values from double pencils, verified by both engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import bounds as bd
from . import generators as gn
from . import spectrum as sp
from .oracle import count_regions_oracle
from .projective import count_regions_projective
from .toric import count_regions_toric, torus_decomposition

DEFAULT_SEED = 0
RANDOM_COUNT = 200


@dataclass
class CriterionResult:
    number: int
    name: str
    required: bool
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tier = "" if self.required else " [stretch]"
        return (f"{status} criterion {self.number} ({self.name}){tier}: "
                f"{self.detail} ({self.seconds:.1f}s)")


def _catalog_small() -> list:
    """Deterministic generator catalogue at n <= 12 for the oracle cross-check."""
    recipes = []
    for n in (5, 7, 9):
        recipes.extend(sp.plane_recipes(n)[:14])
    for n, d in ((7, 3), (9, 3), (11, 3), (10, 4), (12, 4)):
        cat = sp.projective_recipes(n, d)
        seen = set()
        for r in cat:
            if r.expected_f in seen:
                continue
            seen.add(r.expected_f)
            recipes.append(r)
            if len(seen) >= 12:
                break
    for n, d in ((4, 2), (6, 2), (5, 3), (8, 3)):
        recipes.append(gn.Recipe("general_position", (n, d), "projective", n, d,
                                 gn.general_position_count(n, d)))
    return recipes


def criterion_1_oracle_equivalence(registry, seed=DEFAULT_SEED) -> CriterionResult:
    start = time.time()
    mismatches = []
    randoms = sp.random_arrangements(RANDOM_COUNT, seed=seed)
    for i, arr in enumerate(randoms):
        fz = count_regions_projective(arr)
        fo = count_regions_oracle(arr)
        registry.append((arr, fz))
        if fz != fo:
            mismatches.append(f"random[{i}]: {fz} vs {fo}")
    checked = len(randoms)
    for recipe in _catalog_small():
        try:
            arr = sp.build_recipe(recipe)
        except gn.PlacementError:
            continue
        if arr.n > 12:
            continue
        fz = count_regions_projective(arr)
        fo = count_regions_oracle(arr)
        registry.append((arr, fz))
        checked += 1
        if fz != fo:
            mismatches.append(f"{recipe.describe()}: {fz} vs {fo}")
        if recipe.expected_f is not None and fz != recipe.expected_f:
            mismatches.append(f"{recipe.describe()}: counted {fz}, "
                              f"predicted {recipe.expected_f}")
    detail = f"{checked} arrangements agree across both engines"
    if mismatches:
        detail = "; ".join(mismatches[:4])
    return CriterionResult(1, "oracle-equivalence", True, not mismatches,
                           detail, time.time() - start)


def criterion_2_first_four(registry) -> CriterionResult:
    start = time.time()
    problems = []
    for d, n in ((3, 11), (3, 20), (4, 13), (5, 15)):
        values = bd.first_four_counts(n, d)
        report = sp.search_projective(n, d)
        for f, recipe in report.found.items():
            registry.append((sp.build_recipe(recipe), f))
        for v in values:
            if v not in report.found:
                problems.append(f"({d},{n}): {v} not realized")
        if report.unexpected:
            problems.append(f"({d},{n}): unexpected {report.unexpected}")
    detail = "four smallest counts realized and exclusive at all four (d, n)"
    if problems:
        detail = "; ".join(problems[:4])
    return CriterionResult(2, "four-smallest-counts", True, not problems,
                           detail, time.time() - start)


TIER_A_EXTRA_FORMS = ((7, -20), (8, -32), (9, -36), (9, -33), (12, -60))


def criterion_3_low_spectrum_3d(registry) -> tuple[CriterionResult, CriterionResult]:
    start = time.time()
    n = 50
    report = sp.search_projective(n, 3)
    for f, recipe in report.found.items():
        registry.append((sp.build_recipe(recipe), f))
    listed = bd.low_counts_3d(n)
    found = set(report.found)

    problems = []
    four = bd.first_four_counts(n, 3)
    missing_four = [v for v in four if v not in found]
    if missing_four:
        problems.append(f"base values missing: {missing_four}")
    required_extras = [a * n + b for a, b in TIER_A_EXTRA_FORMS]
    missing_req = [v for v in required_extras if v not in found]
    if missing_req:
        problems.append(f"required further values missing: {missing_req}")
    further = [v for v in listed if v not in four and v in found]
    if len(further) < 12:
        problems.append(f"only {len(further)} further listed values realized")
    if report.unexpected:
        problems.append(f"unexpected below 12n-60: {report.unexpected}")
    elapsed = time.time() - start
    detail = (f"{len(found & set(listed))} of 36 listed values realized, "
              f"nothing unexpected below {report.cap}")
    if problems:
        detail = "; ".join(problems[:4])
    required = CriterionResult(3, "low-spectrum-3d", True, not problems,
                               detail, elapsed)

    missing_all = [v for v in listed if v not in found]
    stretch = CriterionResult(3, "low-spectrum-3d-complete", False,
                              not missing_all,
                              "all 36 listed values witnessed" if not missing_all
                              else f"missing {missing_all}", 0.0)
    return required, stretch


def criterion_4_toric_constructions(registry) -> CriterionResult:
    start = time.time()
    problems = []
    checked = 0
    for d in (2, 3):
        for k in range(d):
            for n in range(max(2, k + 1), 9):
                arr = gn.toric_construction_a(n, d, k)
                f = count_regions_toric(arr)
                registry.append((arr, f))
                checked += 1
                if f != n - k:
                    problems.append(f"a(n={n},d={d},k={k}) counted {f} != {n - k}")
                elif torus_decomposition(arr).f != f:
                    problems.append(f"a(n={n},d={d},k={k}): cube engine disagrees")
        for k in range(6):
            for n in range(d, 9):
                if n == d and k == 0:
                    continue
                arr = gn.toric_construction_b(n, d, k)
                expected = gn.toric_construction_b_count(n, d, k)
                f = count_regions_toric(arr)
                registry.append((arr, f))
                checked += 1
                if f != expected:
                    problems.append(f"b(n={n},d={d},k={k}) counted {f} != {expected}")
                elif torus_decomposition(arr).f != f:
                    problems.append(f"b(n={n},d={d},k={k}): cube engine disagrees")
    detail = f"{checked} construction counts match closed forms and the cube engine"
    if problems:
        detail = "; ".join(problems[:4])
    return CriterionResult(4, "toric-construction-counts", True, not problems,
                           detail, time.time() - start)


def criterion_5_toric_plane_spectrum(registry) -> CriterionResult:
    start = time.time()
    problems = []
    for n in (4, 5):
        report = sp.search_toric(n, 2, cap=12)
        for f, recipe in report.found.items():
            arr = sp.build_recipe(recipe)
            registry.append((arr, f))
            if torus_decomposition(arr).f != f:
                problems.append(f"n={n}: {recipe.describe()}: cube engine disagrees")
        if report.missing_predicted:
            problems.append(f"n={n}: missing {report.missing_predicted}")
        if report.unexpected:
            problems.append(f"n={n}: unexpected {report.unexpected}")
    detail = ("every predicted value up to 12 witnessed and agreed by the cube "
              "engine, none outside the spectrum")
    if problems:
        detail = "; ".join(problems)
    return CriterionResult(5, "toric-plane-spectrum", True, not problems,
                           detail, time.time() - start)


def criterion_6_bound_invariants(registry) -> CriterionResult:
    start = time.time()
    violations = sp.verify_bounds_batch(registry)
    detail = (f"0 violations over {len(registry)} counted arrangements"
              if not violations else
              "; ".join(v.describe() for v in violations[:4]))
    return CriterionResult(6, "bound-invariants", True, not violations,
                           detail, time.time() - start)


def criterion_7_sharpness(registry) -> CriterionResult:
    start = time.time()
    problems = []
    for d in (2, 3):
        for n in range(d, 9):
            arr = gn.toric_construction_a(n, d, d - 1)
            f = count_regions_toric(arr)
            registry.append((arr, f))
            bound = bd.bound_homological(n, bd.torus(d))
            if f != n - d + 1 or f != bound.ceil:
                problems.append(f"a(n={n},d={d}) f={f} vs bound {bound.ceil}")
            elif torus_decomposition(arr).f != f:
                problems.append(f"a(n={n},d={d}): cube engine disagrees")
    for q in (5, 6, 8):
        arr = gn.near_pencil(q)
        f = count_regions_projective(arr)
        for d in (3, 4, 5):
            arr = gn.cone(arr, extras=1)
            f *= 2
            counted = count_regions_projective(arr)
            registry.append((arr, counted))
            mc = bd.bound_mcmullen(arr.n, d)
            if counted != f or counted != mc.ceil:
                problems.append(f"cone chain (q={q},d={d}): {counted} vs {mc.ceil}")
    detail = "homological and McMullen bounds attained with equality"
    if problems:
        detail = "; ".join(problems[:4])
    return CriterionResult(7, "sharpness", True, not problems,
                           detail, time.time() - start)


def criterion_8_martinov_values(registry) -> CriterionResult:
    start = time.time()
    problems = []
    for n in range(7, 13):
        cases = [
            (gn.double_pencil(2, n - 1, True), 2 * n - 2),
            (gn.double_pencil(3, n - 2, True), 3 * n - 6),
            (gn.double_pencil(4, n - 3, True), 4 * n - 12),
            (gn.double_pencil(2, n - 2, False), 3 * n - 5),
        ]
        for arr, expected in cases:
            fz = count_regions_projective(arr)
            fo = count_regions_oracle(arr)
            registry.append((arr, fz))
            if not fz == fo == expected:
                problems.append(f"n={n}: {fz}/{fo} vs {expected}")
    detail = "double pencils hit 2n-2, 3n-6, 4n-12 and 3n-5 on both engines"
    if problems:
        detail = "; ".join(problems[:4])
    return CriterionResult(8, "martinov-values", True, not problems,
                           detail, time.time() - start)


def run_battery(seed: int = DEFAULT_SEED, only: set[int] | None = None,
                echo=print) -> list[CriterionResult]:
    """Run the acceptance battery, printing one line per criterion."""
    registry: list = []
    results: list[CriterionResult] = []

    def wanted(k: int) -> bool:
        return only is None or k in only

    if wanted(1):
        results.append(criterion_1_oracle_equivalence(registry, seed=seed))
    if wanted(2):
        results.append(criterion_2_first_four(registry))
    if wanted(3):
        required, stretch = criterion_3_low_spectrum_3d(registry)
        results.append(required)
        results.append(stretch)
    if wanted(4):
        results.append(criterion_4_toric_constructions(registry))
    if wanted(5):
        results.append(criterion_5_toric_plane_spectrum(registry))
    if wanted(6):
        results.append(criterion_6_bound_invariants(registry))
    if wanted(7):
        results.append(criterion_7_sharpness(registry))
    if wanted(8):
        results.append(criterion_8_martinov_values(registry))
    for result in results:
        echo(result.line())
    return results


def battery_exit_code(results: list[CriterionResult]) -> int:
    return 0 if all(r.passed for r in results if r.required) else 1
