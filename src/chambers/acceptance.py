"""The acceptance battery: every exit criterion as an executable check.

`CRITERIA` is the battery: one (number, name, check) row per criterion, in
run order.  Each `check(registry, seed)` counts its arrangements, appends
every (arrangement, count) pair to the shared registry and returns
`(problems, pass_detail)`; only criterion 1 reads the seed.  A check may add
stretch outcomes after those two, each `(name, problems, pass_detail)`.

`run_battery` is the one runner.  It refuses an unknown criterion number,
times each selected check, and makes each outcome a `CriterionResult`: it
passes when there are no problems, and its detail is the first four
problems or else the pass detail.  It prints one PASS/FAIL line per result
in criterion order.  Criterion 6 runs last, so the bound invariants cover
every arrangement counted anywhere in the battery.

Criteria (all required unless marked stretch):

1. oracle equivalence on a deterministic random stream plus the generator
   catalogue at n <= 12;
2. the four smallest counts at (d, n) in {(3,11), (3,20), (4,13), (5,15),
   (8,21), (10,25)}, realized and exclusive below the fourth value;
3. the 36-value low spectrum at n = 50 in RP^3: required values realized,
   nothing unexpected below 12n-60, full list as stretch;
4. toric construction counts against their closed forms, cross-checked by
   the cube engine (`torus_decomposition`), up to b(40, 3, 9) and T^6;
5. the complete low toric spectrum up to cap 2n + 2 at (n, d) in {(6, 2),
   (7, 2), (8, 2), (8, 3)}, where the spectrum has gaps, each witness
   cross-checked by the cube engine;
6. zero violations of the four lower bounds over the whole registry,
   checked after every other selected criterion (an empty registry fails);
   an entry's point multiplicity m is computed only when its count does not
   meet the three m-dependent bounds at every m in [d, n];
7. sharpness: the homological bound met with equality by the parallel
   toric family (each count cross-checked by the cube engine), McMullen's
   bound by iterated cones over near-pencils;
8. Martinov's plane values from double pencils, verified by both engines.

Criteria 2, 3, 5, 6 and 8 read their predicted values, as sorted intervals,
from the one table of claims, `bounds.CLAIMS`: c2 and c3 through
`first_four_counts`, `low_counts_3d` and `search_projective`, c5 through
`search_toric`, c6 through `bounds.contains` and c8 through `bounds.predicted`.
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
    for n in (5, 6, 7, 9):
        recipes.extend(sp.plane_recipes(n)[:14])
    for n, d in ((7, 3), (9, 3), (11, 3), (10, 4), (12, 4)):
        seen = set()
        for r in sp._catalogue(n, d, None):
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


def _oracle_equivalence(registry, seed):
    problems = []
    randoms = sp.random_arrangements(RANDOM_COUNT, seed=seed)
    for i, arr in enumerate(randoms):
        fz = count_regions_projective(arr)
        fo = count_regions_oracle(arr)
        registry.append((arr, fz))
        if fz != fo:
            problems.append(f"random[{i}]: {fz} vs {fo}")
    checked = len(randoms)
    for recipe in _catalog_small():
        arr = sp.build_recipe(recipe)
        fz = count_regions_projective(arr)
        fo = count_regions_oracle(arr)
        registry.append((arr, fz))
        checked += 1
        if fz != fo:
            problems.append(f"{recipe.describe()}: {fz} vs {fo}")
        if fz != recipe.expected_f:
            problems.append(f"{recipe.describe()}: counted {fz}, "
                            f"predicted {recipe.expected_f}")
    return problems, f"{checked} arrangements agree across both engines"


def _first_four(registry, seed):
    problems = []
    for d, n in ((3, 11), (3, 20), (4, 13), (5, 15), (8, 21), (10, 25)):
        values = bd.first_four_counts(n, d)
        report = sp.search_projective(n, d)
        for f, recipe in report.found.items():
            registry.append((sp.build_recipe(recipe), f))
        for v in values:
            if v not in report.found:
                problems.append(f"({d},{n}): {v} not realized")
        if report.unexpected:
            problems.append(f"({d},{n}): unexpected {report.unexpected}")
    return problems, "four smallest counts realized and exclusive at all six (d, n)"


TIER_A_EXTRA_FORMS = ((7, -20), (8, -32), (9, -36), (9, -33), (12, -60))


def _low_spectrum_3d(registry, seed):
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
    missing_all = [v for v in listed if v not in found]
    return (problems,
            f"{len(found & set(listed))} of 36 listed values realized, "
            f"nothing unexpected below {report.cap}",
            ("low-spectrum-3d-complete",
             [f"missing {missing_all}"] if missing_all else [],
             "all 36 listed values witnessed"))


def _toric_constructions(registry, seed):
    cases, bs = [], [(20, 5, 2), (30, 6, 4), (40, 3, 9)]
    for d in (2, 3):
        cases += [(f"a(n={n},d={d},k={k})", gn.toric_construction_a(n, d, k), n - k)
                  for k in range(d) for n in range(max(2, k + 1), 9)]
        bs += [(n, d, k) for k in range(6) for n in range(d, 9) if (n, k) != (d, 0)]
    cases += [(f"b(n={n},d={d},k={k})", gn.toric_construction_b(n, d, k),
               gn.toric_construction_b_count(n, d, k)) for n, d, k in bs]
    problems = []
    for label, arr, expected in cases:
        f = count_regions_toric(arr)
        registry.append((arr, f))
        if f != expected:
            problems.append(f"{label} counted {f} != {expected}")
        elif torus_decomposition(arr).f != f:
            problems.append(f"{label}: cube engine disagrees")
    return problems, (f"{len(cases)} construction counts match closed forms and "
                      "the cube engine")


def _toric_plane_spectrum(registry, seed):
    problems = []
    for n, d in ((6, 2), (7, 2), (8, 2), (8, 3)):
        report = sp.search_toric(n, d, cap=2 * n + 2)
        for f, recipe in report.found.items():
            arr = sp.build_recipe(recipe)
            registry.append((arr, f))
            if torus_decomposition(arr).f != f:
                problems.append(f"n={n},d={d}: {recipe.describe()}: cube engine disagrees")
        if report.missing_predicted:
            problems.append(f"n={n},d={d}: missing {report.missing_predicted}")
        if report.unexpected:
            problems.append(f"n={n},d={d}: unexpected {report.unexpected}")
    return problems, ("every predicted value up to 2n + 2 witnessed and agreed by the "
                      "cube engine, none outside the spectrum")


def _bound_invariants(registry, seed):
    if not registry:
        return ["no counted arrangements to check; select another criterion too"], ""
    problems = [v.describe() for v in sp.verify_bounds_batch(registry)]
    return problems, f"0 violations over {len(registry)} counted arrangements"


def _sharpness(registry, seed):
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
    return problems, "homological and McMullen bounds attained with equality"


def _martinov_values(registry, seed):
    problems = []
    for n in range(7, 13):
        counts = set()
        for a, b, common in ((2, n - 1, True), (3, n - 2, True), (4, n - 3, True),
                             (2, n - 2, False)):
            arr = gn.double_pencil(a, b, common)
            fz = count_regions_projective(arr)
            fo = count_regions_oracle(arr)
            registry.append((arr, fz))
            counts.add(fz)
            if fz != fo:
                problems.append(f"n={n}: double_pencil({a}, {b}, {common}) {fz}/{fo}")
        _, values = bd.predicted("martinov", n, 2)
        if sorted(counts) != values:
            problems.append(f"n={n}: counted {sorted(counts)}, predicted {values}")
    return problems, "double pencils hit 2n-2, 3n-6, 4n-12 and 3n-5 on both engines"


CRITERIA = (
    (1, "oracle-equivalence", _oracle_equivalence),
    (2, "four-smallest-counts", _first_four),
    (3, "low-spectrum-3d", _low_spectrum_3d),
    (4, "toric-construction-counts", _toric_constructions),
    (5, "toric-plane-spectrum", _toric_plane_spectrum),
    (7, "sharpness", _sharpness),
    (8, "martinov-values", _martinov_values),
    (6, "bound-invariants", _bound_invariants),
)


def _result(number, name, required, problems, pass_detail, seconds) -> CriterionResult:
    return CriterionResult(number, name, required, not problems,
                           "; ".join(problems[:4]) or pass_detail, seconds)


def run_battery(seed: int = DEFAULT_SEED, only: set[int] | None = None,
                echo=print) -> list[CriterionResult]:
    """Run the selected criteria in table order, printing one line per result
    in criterion order.  Raises ValueError, before any check runs, when
    `only` names a criterion that does not exist."""
    unknown = sorted(set(only or ()) - {number for number, _, _ in CRITERIA})
    if unknown:
        raise ValueError(f"unknown criterion {', '.join(map(str, unknown))}; "
                         f"the criteria are 1..{len(CRITERIA)}")
    registry: list = []
    results: list[CriterionResult] = []
    for number, name, check in CRITERIA:
        if only is not None and number not in only:
            continue
        start = time.time()
        problems, pass_detail, *stretches = check(registry, seed)
        results.append(_result(number, name, True, problems, pass_detail,
                               time.time() - start))
        for stretch_name, *outcome in stretches:
            results.append(_result(number, stretch_name, False, *outcome, 0.0))
    results.sort(key=lambda r: r.number)
    for result in results:
        echo(result.line())
    return results


def battery_exit_code(results: list[CriterionResult]) -> int:
    return 0 if all(r.passed for r in results if r.required) else 1
