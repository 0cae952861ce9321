from fractions import Fraction

import pytest

from chambers import toric as tc
from chambers.toric import (
    Subtorus,
    TooLargeError,
    ToricArrangement,
    count_regions_toric,
    count_regions_toric_grid,
    lift_to_cube,
    torus_decomposition,
)


def make(d, *subtori):
    return ToricArrangement.make(d, subtori)


class TestCanonicalization:
    def test_sign_flip_merges(self):
        s1 = Subtorus.make((-1, 1), Fraction(1, 2))
        s2 = Subtorus.make((1, -1), Fraction(1, 2))
        assert s1 == s2
        assert s1.normal == (1, -1)
        assert s1.offset == Fraction(1, 2)

    def test_offset_wraps_into_unit_interval(self):
        s = Subtorus.make((1, 0), Fraction(7, 3))
        assert s.normal == (1, 0)
        assert s.offset == Fraction(1, 3)

    def test_non_primitive_normal_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 0\)"):
            Subtorus.make((2, 0), Fraction(1, 3))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make(2, ((1, 0), Fraction(1, 2)), ((-1, 0), Fraction(1, 2)))


class TestLiftToCube:
    def test_single_vertical(self):
        arr = make(2, ((1, 0), Fraction(1, 2)))
        assert lift_to_cube(arr) == [((1, 0), Fraction(1, 2))]

    def test_diagonal_half_offset(self):
        arr = make(2, ((-1, 1), Fraction(1, 2)))
        lifted = lift_to_cube(arr)
        assert sorted(b for _, b in lifted) == [Fraction(-1, 2), Fraction(1, 2)]

    def test_steep_slope_translate_count(self):
        # 3x - y = t meets the closed square for t in {-1, 0, 1, 2, 3}; the
        # extreme two only touch corners but they do meet the cube
        arr = make(2, ((3, -1), 0))
        assert len(lift_to_cube(arr)) == 5

    def test_coordinate_subtorus_gives_both_facets(self):
        arr = make(2, ((1, 0), 0))
        assert sorted(b for _, b in lift_to_cube(arr)) == [0, 1]


class TestExactCounter:
    def test_two_coordinate_circles(self):
        assert count_regions_toric(make(2, ((1, 0), 0), ((0, 1), 0))) == 1

    def test_single_parallel_circle(self):
        assert count_regions_toric(make(2, ((1, 0), Fraction(1, 2)))) == 1

    def test_two_parallel_circles(self):
        arr = make(2, ((1, 0), Fraction(1, 3)), ((1, 0), Fraction(2, 3)))
        assert count_regions_toric(arr) == 2

    def test_slope_line_plus_horizontal_and_vertical(self):
        # x2 = 0, x2 = x1 + 1/2, x1 = 1/4: three closed geodesics on T^2
        # with 3 vertices and 6 edges, so 3 regions (hand computation)
        arr = make(2, ((0, 1), 0), ((-1, 1), Fraction(1, 2)), ((1, 0), Fraction(1, 4)))
        assert count_regions_toric(arr) == 3

    def test_steep_line_alone(self):
        # a (1, k) geodesic never disconnects the torus
        assert count_regions_toric(make(2, ((-3, 1), Fraction(1, 2)))) == 1

    def test_two_transverse_geodesics(self):
        # x2 = 0 and x2 = 4 x1 + 1/2 meet in 4 points: 4 regions
        arr = make(2, ((0, 1), 0), ((-4, 1), Fraction(1, 2)))
        assert count_regions_toric(arr) == 4

    def test_three_coordinate_subtori_in_t3(self):
        arr = make(3, ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0))
        assert count_regions_toric(arr) == 1

    def test_parallel_planes_in_t3(self):
        arr = make(3, *(((1, 0, 0), Fraction(j, 6)) for j in range(1, 6)))
        assert count_regions_toric(arr) == 5

    def test_decomposition_report(self):
        rep = torus_decomposition(make(2, ((1, 0), Fraction(1, 2))))
        assert rep.cube_cells == 2
        assert rep.f == 1
        assert rep.glued_pairs >= 1

    def test_dimension_guard(self):
        arr = make(5, ((1, 0, 0, 0, 0), Fraction(1, 2)))
        with pytest.raises(TooLargeError):
            count_regions_toric(arr)

    def test_step_inside_a_parallel_hyperplane_is_an_internal_error(self):
        # z = (1, 1, 2) is the point (1/2, 1/2) on x_2 = 1/2, homogenized as
        # (0, 2, -1); stepping along x_1 never leaves that line
        with pytest.raises(RuntimeError):
            tc._stepped_signs([(0, 2, -1)], (1, 1, 2), 0, +1)

    def test_lift_guard(self):
        arr = make(2, ((25, -1), Fraction(1, 2)))
        with pytest.raises(TooLargeError):
            count_regions_toric(arr)


class TestGridCounter:
    @pytest.mark.parametrize("builder,expected", [
        (lambda: make(2, ((1, 0), 0), ((0, 1), 0)), 1),
        (lambda: make(2, ((1, 0), Fraction(1, 2))), 1),
        (lambda: make(2, ((0, 1), 0), ((-4, 1), Fraction(1, 2))), 4),
        (lambda: make(3, ((1, 0, 0), Fraction(1, 3)), ((1, 0, 0), Fraction(2, 3))), 2),
    ])
    def test_matches_exact(self, builder, expected):
        arr = builder()
        assert count_regions_toric(arr) == expected
        assert count_regions_toric_grid(arr, 2) == expected

    def test_unstable_then_refined(self):
        # pitch 1/4 is too coarse for the sliver between the vertical and the
        # diagonal; the doubling check flags it and a finer run settles it
        arr = make(2, ((0, 1), 0), ((-1, 1), Fraction(1, 2)), ((1, 0), Fraction(1, 4)))
        with pytest.raises(tc.UnstableError):
            count_regions_toric_grid(arr, 1)
        assert count_regions_toric_grid(arr, 2) == count_regions_toric(arr) == 3


class TestJson:
    def test_round_trip(self, tmp_path):
        arr = make(2, ((1, 0), Fraction(1, 2)), ((-1, 1), Fraction(1, 3)))
        path = tmp_path / "toric.json"
        tc.dump_toric(arr, str(path))
        assert tc.load_toric(str(path)) == arr

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            ToricArrangement.from_json({"type": "projective", "d": 2, "subtori": []})
