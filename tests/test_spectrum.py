import pytest

from chambers import bounds as bd
from chambers import spectrum as sp
from chambers.projective import count_regions_projective
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


class TestVerifyBoundsBatch:
    def test_clean_on_valid_counts(self):
        items = []
        for recipe in sp.projective_recipes(8, 3)[:6]:
            try:
                arr = sp.build_recipe(recipe)
            except Exception:
                continue
            items.append((arr, count_regions_projective(arr)))
        assert sp.verify_bounds_batch(items) == []

    def test_corrupted_count_is_flagged(self):
        rep = sp.search_projective(11, 3)
        f, recipe = next(iter(sorted(rep.found.items())))
        arr = sp.build_recipe(recipe)
        violations = sp.verify_bounds_batch([(arr, f - 1)])
        assert len(violations) >= 1
        assert any(v.f == f - 1 for v in violations)

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
        from chambers.projective import validate
        for arr in sp.random_arrangements(25, seed=1):
            assert validate(arr) == []
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
