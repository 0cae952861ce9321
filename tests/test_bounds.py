from fractions import Fraction

import pytest

from chambers import bounds as bd


class TestHomologyTable:
    @pytest.mark.parametrize("manifold,expected", [
        (bd.torus(3), 3),
        (bd.sphere(4), 0),
        (bd.orientable_surface(2), 4),
        (bd.projective_space(3), 1),
        (bd.projective_space(4), 1),
        (bd.klein_bottle(), 2),
    ])
    def test_codim1_homology_dim(self, manifold, expected):
        assert bd.codim1_homology_dim(manifold) == expected

    def test_coefficient_group(self):
        assert bd.projective_space(3).coefficient_group == "Z2"
        assert bd.klein_bottle().coefficient_group == "Z2"
        assert bd.torus(3).coefficient_group == "Z"

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            bd.codim1_homology_dim(bd.Manifold("lens_space", 3))


class TestHomologicalBound:
    @pytest.mark.parametrize("k,manifold,expected", [
        (7, bd.projective_space(3), 7),
        (7, bd.torus(3), 5),
        (7, bd.sphere(3), 8),
    ])
    def test_examples(self, k, manifold, expected):
        assert bd.bound_homological(k, manifold).value == expected


class TestMultiplicitySumBound:
    def test_11_3_4(self):
        b = bd.bound_multiplicity_sum(11, 3, 4)
        assert b.value == Fraction(187, 2)
        assert b.ceil == 94

    def test_5_2_3(self):
        b = bd.bound_multiplicity_sum(5, 2, 3)
        assert b.value == Fraction(26, 3)
        assert b.ceil == 9

    @pytest.mark.parametrize("n", range(11, 31))
    def test_dominates_binomial_chain(self, n):
        # at d=3, m=4 the bound is at least C(n, 4)/(n - 3)
        weak = Fraction(
            n * (n - 1) * (n - 2) * (n - 3) // 24, n - 3)
        assert bd.bound_multiplicity_sum(n, 3, 4).value >= weak

    def test_domain(self):
        with pytest.raises(ValueError):
            bd.bound_multiplicity_sum(5, 3, 2)


class TestMultiplicityProductBound:
    @pytest.mark.parametrize("n,d,m,expected", [
        (11, 3, 5, 56),
        (11, 3, 8, 56),
        (13, 4, 6, 128),
    ])
    def test_examples(self, n, d, m, expected):
        assert bd.bound_multiplicity_product(n, d, m).value == expected


class TestMcMullenBound:
    @pytest.mark.parametrize("n,d,expected", [
        (11, 3, 36),
        (50, 3, 192),
    ])
    def test_examples(self, n, d, expected):
        assert bd.bound_mcmullen(n, d).value == expected

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_minimum_at_n_equals_d_plus_one(self, d):
        assert bd.bound_mcmullen(d + 1, d).value == 2 ** d


class TestQuadraticBound:
    def test_50_3_7(self):
        b = bd.bound_quadratic(50, 3, 7)
        assert b.value == Fraction(4900, 9)
        assert b.ceil == 545
        assert b.value >= 12 * 50 - 60

    def test_50_3_50(self):
        b = bd.bound_quadratic(50, 3, 50)
        assert b.value == Fraction(4900, 52)
        assert b.ceil == 95


class TestMultiplicityBoundsForEveryM:
    def test_agrees_with_a_scan_over_every_m(self):
        # S, the largest ceiling of the three bounds over every m in [d, n],
        # is the least f that meets them whatever m is
        for d in range(2, 11):
            for n in range(d + 1, 61):
                top = max(max(bd.bound_multiplicity_sum(n, d, m).ceil,
                              bd.bound_multiplicity_product(n, d, m).ceil,
                              bd.bound_quadratic(n, d, m).ceil)
                          for m in range(d, n + 1))
                assert bd.multiplicity_bounds_hold_for_every_m(n, d, top), (n, d)
                assert not bd.multiplicity_bounds_hold_for_every_m(n, d, top - 1), (n, d)

    def test_n_equal_to_d(self):
        # the only m is d; (n + d - 1) // 2 = d - 1 is clipped to it
        top = max(bd.bound_multiplicity_sum(4, 4, 4).ceil,
                  bd.bound_multiplicity_product(4, 4, 4).ceil, bd.bound_quadratic(4, 4, 4).ceil)
        assert bd.multiplicity_bounds_hold_for_every_m(4, 4, top)
        assert not bd.multiplicity_bounds_hold_for_every_m(4, 4, top - 1)


def test_bound_bits_is_an_upper_bound():
    def bits(bound):
        return max(abs(bound.value.numerator).bit_length(), bound.value.denominator.bit_length())

    cases = [(n, d) for n in range(2, 26) for d in range(1, n)]
    for n, d in cases + [(400, 200), (1200, 600), (10 ** 12, 3)]:
        assert bd.bound_bits(n, d) >= bits(bd.bound_mcmullen(n, d)), (n, d)
        for m in sorted({d, d + 1, (n + d) // 2, n}):
            bounds = [bd.bound_multiplicity_sum(n, d, m), bd.bound_quadratic(n, d, m)]
            if d >= 2:
                bounds.append(bd.bound_multiplicity_product(n, d, m))
            assert bd.bound_bits(n, d, m) >= max(map(bits, bounds)), (n, d, m)


class TestFirstFourCounts:
    def test_d3_n11(self):
        assert bd.first_four_counts(11, 3) == [36, 48, 50, 56]

    def test_d4_n13(self):
        assert bd.first_four_counts(13, 4) == [80, 108, 112, 126]

    def test_out_of_range(self):
        with pytest.raises(bd.OutOfTheoremRangeError):
            bd.first_four_counts(10, 3)

    @pytest.mark.parametrize("n,d", [(11, 3), (20, 3), (13, 4), (15, 5)])
    def test_dominate_mcmullen_with_equality_first(self, n, d):
        values = bd.first_four_counts(n, d)
        mc = bd.bound_mcmullen(n, d).value
        assert values[0] == mc
        assert all(v > mc for v in values[1:])

    def test_cap_is_fourth_value(self):
        assert bd.predicted("first_four", 11, 3) == (56, bd.first_four_counts(11, 3))
        assert bd.CLAIMS["first_four"].cap(11, 3) == bd.first_four_counts(11, 3)[3]


class TestLowCounts3d:
    def test_has_36_values_at_50(self):
        values = bd.low_counts_3d(50)
        assert len(values) == 36
        assert values[0] == 192
        assert values[3] == 329  # 7n - 21
        assert values[-1] == 540
        assert 450 in values  # 10n - 50
        assert 506 in values  # 11n - 44

    def test_strictly_increasing_at_60(self):
        values = bd.low_counts_3d(60)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_below_threshold(self):
        with pytest.raises(bd.OutOfTheoremRangeError):
            bd.low_counts_3d(49)

    def test_first_four_embed(self):
        values = bd.low_counts_3d(50)
        assert values[:4] == bd.first_four_counts(50, 3)

    @pytest.mark.parametrize("forms", [
        bd.LOW_COUNT_FORMS_3D[1::-1] + bd.LOW_COUNT_FORMS_3D[2:],  # first two swapped
        bd.LOW_COUNT_FORMS_3D[:1] + bd.LOW_COUNT_FORMS_3D[:-1],  # first one duplicated
    ], ids=["swapped", "duplicated"])
    def test_broken_form_table_is_an_internal_error(self, monkeypatch, forms):
        monkeypatch.setattr(bd, "LOW_COUNT_FORMS_3D", forms)
        with pytest.raises(RuntimeError):
            bd.low_counts_3d(50)


class TestMartinovSubset:
    def test_n10(self):
        assert bd.martinov_subset(10) == {18, 24, 25, 28}

    @pytest.mark.parametrize("n", range(8, 31))
    def test_shift_identity(self, n):
        # evaluated at n-1 lines the subset matches the n-indexed forms
        assert bd.martinov_subset(n - 1) == {
            2 * n - 4, 3 * n - 9, 3 * n - 8, 4 * n - 16}

    def test_collision_at_7(self):
        assert bd.martinov_subset(7) == {12, 15, 16}

    def test_below_threshold(self):
        with pytest.raises(bd.OutOfTheoremRangeError, match=r"\(n, d\) = \(6, 2\)"):
            bd.martinov_subset(6)


class TestToricSpectrum:
    def test_n4_d2(self):
        assert bd.toric_spectrum_contains(4, 2, 3)
        assert not bd.toric_spectrum_contains(4, 2, 2)

    def test_small_n_everything(self):
        for f in range(1, 30):
            assert bd.toric_spectrum_contains(3, 3, f)

    def test_n7_d3(self):
        assert bd.toric_spectrum_contains(7, 3, 5)
        assert not bd.toric_spectrum_contains(7, 3, 4)

    def test_predicted_values(self):
        assert bd.predicted("toric_spectrum", 4, 2, 12) == (12, [3] + list(range(4, 13)))


def hand_written_rule(n, d):
    """The rule a projective search is checked against, written out as an if
    chain, or None where the search refuses: RP^2 by Martinov, RP^3 from
    n = 50 by the 36 values, the four smallest counts elsewhere."""
    if d == 2:
        return "martinov" if n >= 7 else None
    if d == 3 and n >= 50:
        return "low_range_3d"
    return "first_four" if n >= 2 * d + 5 else None


# In-range points of every claim; the toric ones have n <= d, d < n <= 2d+1
# (one interval) and n > 2d+1 (two).
CLAIM_POINTS = {
    "first_four": [(11, 3), (20, 3), (13, 4), (15, 5), (21, 8)],
    "low_range_3d": [(50, 3), (51, 3), (80, 3)],
    "martinov": [(7, 2), (8, 2), (30, 2)],
    "toric_spectrum": [(2, 2), (3, 5), (4, 2), (5, 2), (6, 2), (7, 3), (8, 3)],
}


class TestClaims:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_projective_claim_is_the_hand_written_rule(self, d):
        for n in range(d + 2, 61):
            want = hand_written_rule(n, d)
            if want is None:
                with pytest.raises(bd.OutOfTheoremRangeError,
                                   match=rf"^\(n, d\) = \({n}, {d}\) outside d = 2, n >= 7; "):
                    bd.projective_claim(n, d)
            else:
                assert bd.projective_claim(n, d) == want

    @pytest.mark.parametrize("name", CLAIM_POINTS)
    def test_default_cap_is_the_last_value(self, name):
        for n, d in CLAIM_POINTS[name]:
            cap, values = bd.predicted(name, n, d)
            assert cap == bd.CLAIMS[name].cap(n, d) == values[-1]
            assert bd.predicted(name, n, d, cap - 1) == (cap - 1, values[:-1])

    @pytest.mark.parametrize("name, n, d", [
        ("first_four", 10, 3), ("first_four", 20, 2), ("low_range_3d", 49, 3),
        ("low_range_3d", 60, 4), ("martinov", 6, 2), ("martinov", 9, 3),
        ("toric_spectrum", 1, 2), ("toric_spectrum", 4, 1),
    ])
    def test_out_of_range_names_the_range(self, name, n, d):
        message = f"(n, d) = ({n}, {d}) outside {bd.CLAIMS[name].range}"
        with pytest.raises(bd.OutOfTheoremRangeError) as info:
            bd.predicted(name, n, d)
        assert str(info.value) == message

    def test_an_open_listing_past_the_guard_is_refused(self, monkeypatch):
        cap, values = bd.predicted("toric_spectrum", 4, 2, bd.SWEEP_GUARD)
        assert (cap, values[:2], values[-1], len(values)) == (
            bd.SWEEP_GUARD, [3, 4], bd.SWEEP_GUARD, bd.SWEEP_GUARD - 2)
        message = (f"^a listing of toric_spectrum up to cap {bd.SWEEP_GUARD + 1} could hold "
                   f"more than {bd.SWEEP_GUARD} values$")
        with pytest.raises(bd.TooLargeError, match=message):
            bd.predicted("toric_spectrum", 4, 2, bd.SWEEP_GUARD + 1)
        # the refusal is read from the open interval, not from how much it would list
        row = bd.CLAIMS["toric_spectrum"]
        monkeypatch.setitem(bd.CLAIMS, "toric_spectrum", row._replace(
            intervals=lambda n, d: [(bd.SWEEP_GUARD + 1, None)]))
        with pytest.raises(bd.TooLargeError, match=message):
            bd.predicted("toric_spectrum", 4, 2, bd.SWEEP_GUARD + 1)

    def test_only_the_toric_claim_is_open_above(self):
        open_above = {name: {bd.CLAIMS[name].intervals(n, d)[-1][1] is None for n, d in points}
                      for name, points in CLAIM_POINTS.items()}
        assert open_above == {name: {name == "toric_spectrum"} for name in CLAIM_POINTS}
        cap = 10 ** 9
        assert bd.predicted("first_four", 11, 3, cap) == (cap, bd.first_four_counts(11, 3))

    @pytest.mark.parametrize("name, n, d, broken", [
        ("first_four", 11, 3, lambda intervals: intervals[::-1]),
        ("martinov", 10, 2, lambda intervals: intervals[:1] + intervals),
        ("toric_spectrum", 4, 2, lambda intervals: [(3, 10), (10, None)]),
        ("toric_spectrum", 4, 2, lambda intervals: intervals + [(10, 12)]),
    ], ids=["reversed", "repeated", "overlapping", "open-before-last"])
    def test_intervals_that_do_not_increase_are_an_internal_error(self, monkeypatch,
                                                                   name, n, d, broken):
        row = bd.CLAIMS[name]
        monkeypatch.setitem(bd.CLAIMS, name, row._replace(
            intervals=lambda n, d: broken(row.intervals(n, d))))
        for read in (lambda: bd.predicted(name, n, d), lambda: bd.contains(name, n, d, 1)):
            with pytest.raises(RuntimeError, match=f"{name} values not increasing"):
                read()

    @pytest.mark.parametrize("name", CLAIM_POINTS)
    def test_listing_up_to_a_cap_is_membership(self, name):
        # caps at every interval edge and one either side of it
        for n, d in CLAIM_POINTS[name]:
            edges = {e for interval in bd.CLAIMS[name].intervals(n, d) for e in interval
                     if e is not None}
            for cap in sorted({e + step for e in edges for step in (-1, 0, 1)}):
                assert bd.predicted(name, n, d, cap) == (cap, [
                    f for f in range(1, cap + 1) if bd.contains(name, n, d, f)])
