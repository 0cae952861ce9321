import functools
import hashlib
import itertools
import json
from collections import Counter
from math import comb

import pytest

from chambers import bounds as bd
from chambers import generators as gn
from chambers import spectrum as sp
from chambers.oracle import count_regions_oracle
from chambers.projective import ProjArrangement, count_regions_projective, max_point_multiplicity
from chambers.toric import count_regions_toric


class TestSearchProjective:
    def test_d3_n11(self):
        rep = sp.search_projective(11, 3)
        assert set(rep.found) >= {36, 48, 50, 56}
        assert rep.unexpected == []
        assert rep.missing_predicted == []

    def test_d2_n10(self):
        rep = sp.search_projective(10, 2)
        assert sorted(rep.found) == [18, 24, 25, 28]
        assert rep.unexpected == []

    def test_witness_integrity(self):
        rep = sp.search_projective(11, 3)
        for f, recipe in rep.found.items():
            arr = sp.build_recipe(recipe)
            assert count_regions_projective(arr) == f == recipe.expected_f

    def test_budget_monotonicity(self):
        small = sp.search_projective(11, 3, budget=2)
        full = sp.search_projective(11, 3)
        assert small.partial
        assert set(small.found) <= set(full.found)

    def test_plane_values_stay_in_martinov_range(self):
        # everything realized below 4n-12 must be one of the four low values
        for n in range(7, 10):
            rep = sp.search_projective(n, 2)
            for f in rep.found:
                if f < 4 * n - 12:
                    assert f in bd.martinov_subset(n)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sp.search_projective(4, 1)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_plane_below_martinov_range_counts_nothing(self, monkeypatch, n):
        def refuse(recipe):
            raise AssertionError(f"counted {recipe.describe()}")
        monkeypatch.setattr(sp, "count_recipe", refuse)
        with pytest.raises(bd.OutOfTheoremRangeError, match=rf"\(n, d\) = \({n}, 2\)"):
            sp.search_projective(n, 2)


@pytest.mark.parametrize("n, d", [(11, 3), (20, 3), (13, 4), (15, 5), (50, 3), (10, 2)])
def test_lazy_catalogue_is_the_catalogue_under_the_cap(n, d):
    whole = sp.projective_recipes(n, d)
    assert list(sp._catalogue(n, d, None)) == list(whole)
    rule_cap, _ = bd.predicted(bd.projective_claim(n, d), n, d)
    for cap in (0, 2 * n, 4 * n, 6 * n, rule_cap // 2, rule_cap - 1, rule_cap, 20 * n):
        assert list(sp._catalogue(n, d, cap)) == [r for r in whole if r.expected_f <= cap]


# sha256 of json.dumps(report.to_json(), sort_keys=True), as a scan of the
# whole catalogue reported them: any change of witness, order or count fails.
SEARCH_REPORTS = {
    (11, 3, None): "5992a624bfa62a3208b2f46102770dde0a82e1ca8efa8333bea2c71049fc3b3c",
    (20, 3, None): "7de1bbe453efd09f55924fa08e77fb2941eec93c974783d3fb68c930cc26f223",
    (13, 4, None): "2d22418f7f49828e66163c40dabddc85a18f54ce6ff381b89e3daf44d1b728f1",
    (15, 5, None): "8ef5132a4f5a6cd50d353ff55de4741f0bc15d0d58d3325798e22c8584e0990b",
    (50, 3, 2): "c0cd7066247937445b1aed12dc05272ddf204b807af459fff09ecbea4273085d",
    (50, 3, None): "3d655d3d43d874764bb25fcb7479fe33ef97bdabb83a550e6430bb528cd1ae1c",
}


@pytest.mark.parametrize("n, d, budget", list(SEARCH_REPORTS))
def test_search_report_is_pinned(n, d, budget):
    report = sp.search_projective(n, d, budget=budget).to_json()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == SEARCH_REPORTS[n, d, budget]


def test_budgeted_search_builds_no_whole_catalogue(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"built the whole catalogue at {args}")
    monkeypatch.setattr(sp, "projective_recipes", refuse)
    monkeypatch.setattr(sp, "plane_recipes", refuse)
    report = sp.search_projective(50, 3, budget=2)
    assert report.partial
    assert report.counted == 2


@functools.cache
def first_program_per_saving(k):
    """The first feasible program of each total saving, enumerated by
    itertools.product as before the table: {saving: program}."""
    first = {}
    for program in itertools.product(gn.PENCIL_ACTIONS, repeat=k):
        savings = gn.pencil_extras_savings(program)
        if savings is not None:
            first.setdefault(sum(savings), program)
    return first


@pytest.mark.parametrize("n", range(3, 30))
def test_plane_catalogue_reads_every_feasible_program(n):
    # the table holds, in increasing saving S = 0..C(k, 2), the first feasible
    # program of each S; the catalogue reads those with S <= q = n - k
    want = []
    for k in range(1, min(5, n - 2) + 1):
        first = first_program_per_saving(k)
        assert sorted(first) == list(range(comb(k, 2) + 1))
        assert gn.PENCIL_PROGRAMS[k] == tuple((first[s], s) for s in sorted(first))
        want += [((n - k, first[s]), gn.pencil_with_extras_count(n - k, k, s))
                 for s in sorted(first) if s <= n - k]
    got = [(r.params, r.expected_f) for r in sp.plane_recipes(n) if r.family == "pencil_extras"]
    assert got == want


@pytest.mark.parametrize("n", range(3, 21))
def test_every_plane_recipe_builds_within_martinovs_saving_cap(n):
    for recipe in sp._catalogue(n, 2, None):
        sp.build_recipe(recipe)
        if recipe.family == "pencil_extras":
            q, program = recipe.params
            saving = sum(gn.pencil_extras_savings(program))
            assert saving <= min(q, comb(len(program), 2)), recipe.describe()


# the values that some recipe of _catalogue(n, d, None) builds: for n >= 5
# at d = 2, 3 as they were when the plane catalogue still held every feasible
# pencil program, the other rows as they were when the RP^3 catalogue still
# held two- and three-extra recipes that raised PlacementError
BUILT_VALUES = {
    (3, 2): [4],
    (4, 2): [6, 7],
    (5, 2): [*range(8, 12)],
    (6, 2): [10, *range(12, 17)],
    (7, 2): [12, *range(15, 23)],
    (8, 2): [14, *range(18, 30)],
    (9, 2): [16, 21, 22, *range(24, 35), 37],
    (10, 2): [18, 24, 25, *range(28, 41), 46],
    (11, 2): [20, 27, 28, *range(32, 47), 56],
    (12, 2): [22, 30, 31, *range(36, 53), 67],
    (5, 3): [12, 14, 15],
    (6, 3): [16, 18, *range(20, 27)],
    (7, 3): [20, 24, *range(26, 39), 42],
    (8, 3): [24, 30, 32, 34, 35, 36, *range(38, 55), 64],
    (9, 3): [28, 36, 38, 40, *range(42, 47), 48, *range(50, 74), 93],
    (10, 3): [32, 42, 44, 48, 49, 50, 52, 54, *range(56, 96), 130],
    (4, 3): [8],
    (5, 4): [16],
    (6, 4): [24, 28, 30, 31],
    (7, 4): [32, 36, *range(40, 53, 2), 57],
    (8, 4): [40, 48, *range(52, 77, 2), 84, 99],
    (9, 4): [48, 60, 64, 68, 70, 72, *range(76, 109, 2), 128, 163],
    (10, 4): [56, 72, 76, 80, 84, 86, 88, 90, 92, 96, *range(100, 147, 2), 186, 256],
}


@pytest.mark.parametrize("n, d", list(BUILT_VALUES))
def test_catalogue_builds_the_values_it_built_with_every_program(n, d):
    built = set()
    for recipe in sp._catalogue(n, d, None):
        arr = sp.build_recipe(recipe)
        assert count_regions_projective(arr) == recipe.expected_f, recipe.describe()
        built.add(recipe.expected_f)
    assert sorted(built) == BUILT_VALUES[n, d]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_no_catalogue_at_or_below_the_dimension(d):
    # RP^d has no essential arrangement of n <= d hyperplanes
    assert [sp.projective_recipes(n, d) for n in range(d + 1)] == [()] * (d + 1)


# sha256 over the built covectors of every recipe of projective_recipes(9, 3),
# in the format of test_integer_boundary.RECIPE_OUTCOMES_10_3.  It covers the
# pencil_extras(2, ...) bases, whose cross1 and cross2 lines pass through the
# pencil's apex: with q = 2 the apex is a double point and can be an anchor.
RECIPE_OUTCOMES_9_3 = "e338517fa77fe4a131b47e097112de19234a8ec2f63689631a952a4fcd4e22c8"
BUILT_9_3 = {"cone": 23, "two_extra": 100, "three_extra": 12, "general_position": 1}


def test_every_built_recipe_counts_as_predicted():
    digest = hashlib.sha256()
    built = Counter()
    for recipe in sp.projective_recipes(9, 3):
        arr = sp.build_recipe(recipe)
        digest.update(repr(arr.covectors).encode() + b"\n")
        assert count_regions_projective(arr) == recipe.expected_f, recipe.describe()
        built[recipe.family] += 1
    assert built == BUILT_9_3
    assert digest.hexdigest() == RECIPE_OUTCOMES_9_3


class TestSearchToric:
    def test_d2_n4_complete_to_cap(self):
        rep = sp.search_toric(4, 2, cap=12)
        assert rep.missing_predicted == []
        assert rep.unexpected == []
        assert set(rep.found) == {3} | set(range(4, 13))

    def test_d3_n5(self):
        rep = sp.search_toric(5, 3, cap=10)
        assert {3, 4, 5} <= set(rep.found)
        assert set(range(4, 11)) <= set(rep.found)
        assert rep.unexpected == []

    def test_d5_n7_past_the_cube_guards(self):
        rep = sp.search_toric(7, 5, cap=14)
        assert rep.found
        assert rep.missing_predicted == []
        assert rep.unexpected == []

    def test_small_n_all_counts(self):
        rep = sp.search_toric(3, 3, cap=6)
        assert sorted(rep.found) == [1, 2, 3, 4, 5, 6]
        assert rep.missing_predicted == []

    def test_witness_integrity(self):
        rep = sp.search_toric(4, 2, cap=8)
        for f, recipe in rep.found.items():
            assert count_regions_toric(sp.build_recipe(recipe)) == f


# sha256 of json.dumps(report.to_json(), sort_keys=True), as reported when a
# budget above the cap still walked slopes k up to the budget.
TORIC_REPORTS = {
    (4, 2, 12, None): "4f74abb26efd99938d686f03d3d10a1659e04f924c97c6b1f782ab2b618ea09c",
    (5, 2, 12, None): "f0a8981974207d544d8bb01784e2554edb4b23e50e14ce9b86a160c592dfacfc",
    (4, 2, None, 1): "023bc9062a95fdbaa69692653a97e4e3dbb47dfb81723fa908f5d5397e3055f1",
    (4, 2, None, 30): "9126f4b60b30f13859dc3dd231cddb3da4440e22b90d665fc2e8564e35f1ba2d",
    (7, 5, 14, None): "0c71b37568f1370744a642b0330410413502e16a00b11b5325bdd1edb6b9aef3",
}


@pytest.mark.parametrize("n, d, cap, budget", list(TORIC_REPORTS))
def test_toric_search_report_is_pinned(n, d, cap, budget):
    report = sp.search_toric(n, d, budget=budget, cap=cap).to_json()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == TORIC_REPORTS[n, d, cap, budget]


def test_toric_search_makes_no_recipe_above_its_cap_or_past_its_budget(monkeypatch):
    made = []

    def record(*args):
        made.append(gn.Recipe(*args))
        return made[-1]

    monkeypatch.setattr(sp, "Recipe", record)
    sp.search_toric(5, 3, cap=10)
    assert made and max(r.expected_f for r in made) <= 10
    made.clear()
    report = sp.search_toric(4, 4, budget=1, cap=200_000)
    assert report.partial and report.counted == 1
    # the walk stops at the first recipe, toric_a(4, 4, 1), that the spent
    # budget cannot count
    assert [r.describe() for r in made] == ["toric_a(4, 4, 0)", "toric_a(4, 4, 1)"]


@pytest.mark.parametrize("search, n, d", [(sp.search_projective, 11, 3),
                                          (sp.search_toric, 4, 2)])
@pytest.mark.parametrize("limits, message", [
    ({"cap": 0}, "cap must be at least 1, got 0"),
    ({"cap": -5}, "cap must be at least 1, got -5"),
    ({"budget": -1}, "budget must be at least 0, got -1"),
])
def test_search_refuses_limits_it_cannot_honour(monkeypatch, search, n, d, limits, message):
    def refuse(recipe):
        raise AssertionError(f"counted {recipe.describe()}")
    monkeypatch.setattr(sp, "count_recipe", refuse)
    with pytest.raises(ValueError, match=message):
        search(n, d, **limits)


class TestVerifyBoundsBatch:
    def test_clean_on_valid_counts(self):
        items = []
        for recipe in sp.projective_recipes(8, 3)[:6]:
            arr = sp.build_recipe(recipe)
            items.append((arr, count_regions_projective(arr)))
        assert sp.verify_bounds_batch(items) == []

    def test_corrupted_count_is_flagged(self):
        rep = sp.search_projective(11, 3)
        f, recipe = next(iter(sorted(rep.found.items())))
        arr = sp.build_recipe(recipe)
        violations = sp.verify_bounds_batch([(arr, f - 1)])
        assert len(violations) >= 1
        assert any(v.f == f - 1 for v in violations)

    @pytest.fixture
    def walks(self, monkeypatch):
        """The arrangements `max_point_multiplicity` is called on, in order."""
        called = []

        def counted(arr):
            called.append(arr)
            return max_point_multiplicity(arr)

        monkeypatch.setattr(sp, "max_point_multiplicity", counted)
        return called

    def test_a_count_that_clears_every_m_needs_no_walk(self, walks):
        arr = gn.general_position(22, 3)
        assert sp.verify_bounds_batch([(arr, gn.general_position_count(22, 3))]) == []
        assert walks == []

    def test_a_count_below_some_m_is_walked_and_flagged(self, walks):
        f, recipe = min(sp.search_projective(11, 3).found.items())
        arr = sp.build_recipe(recipe)
        assert sp.verify_bounds_batch([(arr, f)]) == []
        violations = sp.verify_bounds_batch([(arr, f - 1)])
        assert walks == [arr, arr]
        assert [(v.bound, v.f) for v in violations] == [("multiplicity_product", f - 1)]

    def test_an_rp1_entry_is_walked_and_refused_by_the_product_bound(self, walks):
        arr = ProjArrangement(1, ((1, 0), (0, 1), (1, 1)))
        with pytest.raises(ValueError, match="need d >= 2"):
            sp.verify_bounds_batch([(arr, count_regions_projective(arr))])
        assert walks == [arr]

    def test_toric_membership_violation_flagged(self):
        import chambers.generators as gn
        arr = gn.toric_construction_a(7, 3, 2)  # f = 5
        assert sp.verify_bounds_batch([(arr, 5)]) == []
        violations = sp.verify_bounds_batch([(arr, 4)])  # 4 is not in the spectrum
        assert any(v.bound == "toric_spectrum" for v in violations)


class TestRandomStream:
    def test_deterministic(self):
        a = sp.random_arrangements(20, seed=5)
        b = sp.random_arrangements(20, seed=5)
        assert a == b

    def test_valid_and_in_range(self):
        for arr in sp.random_arrangements(25, seed=1):
            assert 2 <= arr.d <= 4
            assert arr.n <= 10

    def test_different_seed_differs(self):
        assert sp.random_arrangements(10, seed=1) != sp.random_arrangements(10, seed=2)


class TestReportSerialization:
    def test_json_shape(self):
        rep = sp.search_projective(11, 3)
        data = rep.to_json()
        assert data["space"] == "projective"
        assert data["cap"] == 56
        assert set(map(int, data["found"])) == set(rep.found)
        assert data["unexpected"] == []


# Realizable counts below the first-four range: at each n = d + 4..d + 7 one
# arrangement counts strictly between the third and the fourth value, so that
# claim cannot reach down to these n.  Each d = 3 witness is coned once more
# per dimension, which doubles its count.
SUB_THRESHOLD_WITNESSES = {  # n - d: (d = 3 witness, its count)
    4: (lambda: gn.two_extra_planes(gn.double_pencil(3, 3, True), line_in_union=True), 27),
    5: (lambda: gn.cone(gn.pencil_with_extras(4, ("fresh", "fresh", "cross2"))), 34),
    6: (lambda: gn.cone(gn.double_pencil(4, 5, True)), 40),
    7: (lambda: gn.cone(gn.double_pencil(4, 6, True)), 48),
}


@pytest.mark.parametrize("d", range(3, 7))
@pytest.mark.parametrize("excess", SUB_THRESHOLD_WITNESSES)
def test_sub_threshold_witness(excess, d):
    witness, f = SUB_THRESHOLD_WITNESSES[excess]
    arr = witness()
    for _ in range(d - 3):
        arr = gn.cone(arr)
    n, want = d + excess, f * 2 ** (d - 3)
    assert (arr.n, arr.d) == (n, d)
    assert count_regions_projective(arr) == count_regions_oracle(arr) == want
    claim = bd.CLAIMS["first_four"]
    assert not claim.in_range(n, d)
    (_, third), (fourth, _) = claim.intervals(n, d)[2:]
    assert third < want < fourth
    with pytest.raises(bd.OutOfTheoremRangeError):
        bd.projective_claim(n, d)
