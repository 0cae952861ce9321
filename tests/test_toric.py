import random
import time
from fractions import Fraction
from functools import cache
from itertools import product
from math import floor, gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chambers import toric as tc
from chambers.exactlin import dot, primitive_scale
from chambers.generators import toric_construction_b
from chambers.toric import (
    TooLargeError,
    ToricArrangement,
    count_regions_toric,
    count_regions_toric_grid,
    lift_to_cube,
    subtorus,
    torus_decomposition,
)


def make(d, *subtori):
    return ToricArrangement.make(d, subtori)


class TestCanonicalization:
    def test_sign_flip_merges(self):
        assert subtorus((-1, 1), 1, 2) == subtorus((1, -1), 1, 2) == ((1, -1), 1, 2)
        assert subtorus((0, -1), 1, 3) == ((0, 1), 2, 3)

    def test_offset_wraps_into_unit_interval(self):
        assert subtorus((1, 0), 7, 3) == ((1, 0), 1, 3)
        assert subtorus((1, 0), -6, 4) == ((1, 0), 1, 2)
        assert make(1, ((1,), Fraction(-5, 2))).subtori == (((1,), 1, 2),)

    def test_non_primitive_normal_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 0\)"):
            subtorus((2, 0), 1, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make(2, ((1, 0), Fraction(1, 2)), ((-1, 0), Fraction(1, 2)))

    @pytest.mark.parametrize("key", [
        ((-1, 1), 1, 2),  # negative leading entry
        ((1, 0), 4, 3),  # offset outside [0, 1)
        ((1, 0), 2, 4),  # offset not reduced
        ((1, 0), 1, -2),  # negative denominator
        ((1, 0), 0, 0),  # zero denominator
        ((2, 0), 0, 1),  # non-primitive normal
        ([1, 0], 0, 1),  # normal not a tuple
    ])
    def test_non_canonical_key_refused(self, key):
        with pytest.raises(ValueError):
            ToricArrangement(2, (key,))


class TestLiftToCube:
    def test_single_vertical(self):
        # x1 = 1/2 is the row 2 x1 - 1 = 0
        assert lift_to_cube(make(2, ((1, 0), Fraction(1, 2)))) == [(2, 0, -1)]

    def test_diagonal_half_offset(self):
        # the key is x1 - x2 = 1/2, lifted to x1 - x2 = -1/2 and 1/2
        arr = make(2, ((-1, 1), Fraction(1, 2)))
        assert lift_to_cube(arr) == [(2, -2, 1), (2, -2, -1)]

    def test_steep_slope_translate_count(self):
        # 3x - y = t meets the closed square for t in {-1, 0, 1, 2, 3}; the
        # extreme two only touch corners but they do meet the cube
        arr = make(2, ((3, -1), 0))
        assert lift_to_cube(arr) == [(3, -1, -t) for t in range(-1, 4)]

    def test_coordinate_subtorus_gives_both_facets(self):
        assert lift_to_cube(make(2, ((1, 0), 0))) == [(1, 0, 0), (1, 0, -1)]

    def test_guard_refuses_before_lifting(self):
        # t = 0..10^12: counted in closed form, never made
        with pytest.raises(TooLargeError, match="1000000000001 lifted"):
            lift_to_cube(make(2, ((10 ** 12, 1), Fraction(1, 3))))


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
        x2, slope = arr.subtori
        assert len(tc._traces(slope, [x2], [tc.SWEEP_GUARD], {})) == 4
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
        # a program in T^d has d + 2 variables and is charged (d + 2)^3
        # entries, so the cube engine refuses T^50 after a few programs
        def halving(d):
            return make(d, (tuple(int(i == 0) for i in range(d)), Fraction(1, 2)))

        assert torus_decomposition(halving(5)).f == 1
        with pytest.raises(TooLargeError):
            torus_decomposition(halving(50))

    def test_step_inside_a_parallel_hyperplane_is_an_internal_error(self):
        # z = (1, 1, 2) is the point (1/2, 1/2) on x_2 = 1/2, homogenized as
        # (0, 2, -1); stepping along x_1 never leaves that line
        with pytest.raises(RuntimeError):
            tc._stepped_signs([(0, 2, -1)], (1, 1, 2), 0, +1)

    def test_lift_guard(self, monkeypatch):
        # 26 lifted lines and the 5 rows of the square, in 3 variables
        arr = make(2, ((25, -1), Fraction(1, 2)))
        assert torus_decomposition(arr).f == count_regions_toric(arr) == 1
        monkeypatch.setattr(tc, "SWEEP_GUARD", 31 * 3)
        assert len(lift_to_cube(arr)) == 26
        monkeypatch.setattr(tc, "SWEEP_GUARD", 31 * 3 - 1)
        with pytest.raises(TooLargeError, match="26 lifted"):
            torus_decomposition(arr)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


@st.composite
def toric_arrangements(draw):
    d = draw(st.integers(1, 4))
    subtori = {}
    for _ in range(draw(st.integers(1, 5))):
        a = primitive_scale(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)
                                 .filter(any)))
        subtori[subtorus(a, draw(st.integers(0, 3)), 4)] = None
    return ToricArrangement(d, tuple(subtori))


def t5_stream(seed=5):
    """Seeded arrangements of 2 to 7 distinct subtori of T^5, with normals in
    {-1, 0, 1}^5 and offsets in {0, 1/4, 1/2, 3/4}."""
    rng = random.Random(seed)
    while True:
        keys = {}
        n = rng.randint(2, 7)
        while len(keys) < n:
            a = tuple(rng.choice((-1, 0, 1)) for _ in range(5))
            if any(a):
                keys[subtorus(a, rng.randrange(4), 4)] = None
        yield ToricArrangement(5, tuple(keys))


class TestSweep:
    def test_agrees_with_cube_engine_in_t5(self):
        # the first 21 of the stream; the cube engine's budget refuses one,
        # with 7 subtori and 26 lifted hyperplanes
        counted, refused = [], []
        for arr in t5_stream():
            try:
                counted.append((torus_decomposition(arr).f, count_regions_toric(arr)))
            except TooLargeError:
                refused.append((arr.n, len(lift_to_cube(arr))))
            if len(counted) == 20:
                break
        assert all(cube == sweep for cube, sweep in counted)
        assert any(cube > 1 for cube, _ in counted)
        assert refused == [(7, 26)]

    @settings(deadline=None, max_examples=75)
    @given(toric_arrangements())
    def test_agrees_with_cube_engine(self, arr):
        try:
            expected = torus_decomposition(arr).f
        except TooLargeError:
            assume(False)
        assert count_regions_toric(arr) == expected

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=5).filter(any))
    def test_unimodular_basis(self, entries):
        a = primitive_scale(entries)
        basis = tc._unimodular_basis(a)
        assert [dot(a, v) for v in basis] == [1] + [0] * (len(a) - 1)
        assert abs(_det(basis)) == 1

    def test_grid_defect_example(self):
        # the grid's stable answer here is 22
        arr = make(2, ((1, -2), 0), ((1, 1), Fraction(3, 4)), ((1, -1), 0),
                   ((1, -2), Fraction(3, 4)), ((1, 2), 0))
        assert count_regions_toric(arr) == torus_decomposition(arr).f == 20

    @pytest.mark.parametrize("n,d,k,f", [(20, 5, 2, 32), (30, 6, 4, 52), (40, 3, 9, 83),
                                         (400, 2, 9, None)])
    def test_construction_b_past_the_cube_guards(self, n, d, k, f):
        # the cube engine counts the first three and refuses the last by its
        # budget; the sweep counts all four
        arr = toric_construction_b(n, d, k)
        if f is None:
            with pytest.raises(TooLargeError):
                torus_decomposition(arr)
        else:
            assert torus_decomposition(arr).f == f
        assert count_regions_toric(arr) == 2 * (n - d) + k

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_points_on_a_circle(self, n):
        assert count_regions_toric(make(1, *(((1,), Fraction(j, n)) for j in range(n)))) == n

    def test_counts_past_the_dimension_guard(self):
        arr = make(5, ((1, 0, 0, 0, 0), Fraction(1, 2)))
        assert count_regions_toric(arr) == 1

    def test_guard_refuses_before_making_traces(self, monkeypatch):
        # the two circles meet in 2 * 10^6 points.  Before the charge the
        # sweep takes one gcd, of bV[1:] for the one earlier circle; every
        # trace it makes takes one more, to reduce its offset
        arr = make(2, ((1, 10 ** 6), 0), ((1, -10 ** 6), 0))
        calls = []

        def counted_gcd(*args):
            calls.append(args)
            if len(calls) > 1:
                raise AssertionError("a trace was made before the guard refused")
            return gcd(*args)

        monkeypatch.setattr(tc, "gcd", counted_gcd)
        with pytest.raises(TooLargeError):
            count_regions_toric(arr)
        assert len(calls) == 1


class TestTraceKeys:
    """The sweep's keys (p, num, den) are canonical, so equal traces merge."""

    def test_reduced_numerators_merge(self):
        # on x2 = 0, 2 x1 + x2 = 0 leaves y in {0, 1/2} and 4 x1 + x2 = 0
        # leaves y in {0, 1/4, 2/4, 3/4}: 2/4 must reduce to 1/2 to merge.
        # 4 vertices and 4 + 2 + 4 edges leave 6 regions
        arr = make(2, ((2, 1), 0), ((4, 1), 0), ((0, 1), 0))
        assert tc._traces(arr.subtori[2], arr.subtori[:2], [tc.SWEEP_GUARD], {}) == [
            ((1,), 0, 1), ((1,), 1, 2), ((1,), 1, 4), ((1,), 3, 4)]
        assert count_regions_toric(arr) == torus_decomposition(arr).f == 6

    @pytest.mark.parametrize("den", [3, 1000000007])
    def test_flipped_normal_negates_the_offset(self, den):
        # on x1 = 0, x1 - x2 = 1/den reads -y = 1/den, that is y = 1 - 1/den,
        # where x2 = 1 - 1/den also crosses.  The three circles meet in one
        # point and have 3 edges, so 2 regions
        arr = make(2, ((1, -1), Fraction(1, den)), ((0, 1), Fraction(den - 1, den)),
                   ((1, 0), 0))
        slope, x2, x1 = arr.subtori
        assert tc._traces(x1, [slope], [tc.SWEEP_GUARD], {}) == [((1,), den - 1, den)]
        assert tc._traces(x1, [slope, x2], [tc.SWEEP_GUARD], {}) == [((1,), den - 1, den)]
        assert count_regions_toric(arr) == torus_decomposition(arr).f == 2

    @settings(deadline=None, max_examples=75)
    @given(toric_arrangements())
    def test_every_trace_is_canonical(self, arr):
        def walk(keys, d):
            for i, h in enumerate(keys):
                traces = tc._traces(h, keys[:i], [tc.SWEEP_GUARD], {})
                for p, num, den in traces:
                    assert gcd(*p) == 1 and next(x for x in p if x) > 0
                    assert 0 <= num < den and gcd(num, den) == 1
                assert len(set(traces)) == len(traces)
                if d > 2:
                    walk(traces, d - 1)

        walk(arr.subtori, arr.d)


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


def reference_grid_count(arr, pitch):
    """Components of the grid that `_grid_component_count` samples, by BFS.

    Node k, a vector of integers mod pitch, is the point with coordinates
    x_i = (k_i + 1 / (2 B^(i+1))) / pitch, with B = 2 + the sum of |a|_1 as
    the grid takes it.  Node k and its neighbour along axis i are joined
    when floor(a . x - c) is the same at x and at x + e_i / pitch, taken past
    1 at the wrap, for every subtorus {a . x = c}; the floors are exact.
    """
    d = arr.d
    big_b = 2 + sum(sum(map(abs, a)) for a, _, _ in arr.subtori)
    shift = [Fraction(1, 2 * big_b ** (i + 1)) for i in range(d)]

    @cache
    def levels(k):
        return [floor(sum(x * (y + s) for x, y, s in zip(a, k, shift)) / pitch - Fraction(num, den))
                for a, num, den in arr.subtori]

    nodes = list(product(range(pitch), repeat=d))
    neighbours = {k: [] for k in nodes}
    for k in nodes:
        for i in range(d):
            step = k[:i] + (k[i] + 1,) + k[i + 1:]
            if levels(k) == levels(step):
                head = k[:i] + ((k[i] + 1) % pitch,) + k[i + 1:]
                neighbours[k].append(head)
                neighbours[head].append(k)
    seen, components = set(), 0
    for k in nodes:
        if k not in seen:
            components += 1
            seen.add(k)
            stack = [k]
            while stack:
                for m in neighbours[stack.pop()]:
                    if m not in seen:
                        seen.add(m)
                        stack.append(m)
    return components


def random_grid_case(rng, d):
    """A seeded arrangement of T^d and a pitch that clears its denominators."""
    keys, n = set(), rng.randint(1, 4)
    while len(keys) < n:
        a = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(a) and gcd(*a) == 1:
            den = rng.choice((1, 2, 3, 4))
            keys.add(subtorus(a, rng.randrange(den), den))
    pitch = lcm(*(den for _, _, den in keys)) * rng.randint(1, {1: 6, 2: 3, 3: 1}[d])
    return ToricArrangement(d, tuple(sorted(keys))), pitch


# The T^2 circles on which the stable grid count is wrong: the exact count is 20.
GRID_DEFECT = make(2, ((1, -2), 0), ((1, 1), Fraction(3, 4)), ((1, -1), 0),
                   ((1, -2), Fraction(3, 4)), ((1, 2), 0))


class TestGridAgainstReference:
    @pytest.mark.parametrize("arr,pitch,expected", [
        (make(1, ((1,), Fraction(1, 3))), 3, 1),  # one run joined across the wrap
        (make(2, ((1, 0), Fraction(1, 2))), 4, 1),  # no edge along the last axis is blocked
        (make(2, ((0, 1), Fraction(1, 2))), 4, 1),  # every line's two runs join at the wrap
        (make(2, ((0, 1), 0), ((0, 1), Fraction(1, 2))), 4, 2),
        (make(3, ((0, 0, 1), 0)), 1, 1),  # one node, and each wrap is a loop
    ])
    def test_hand_cases(self, arr, pitch, expected):
        assert tc._grid_component_count(arr, pitch) == reference_grid_count(arr, pitch) == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_seeded_cases(self, d):
        rng = random.Random(d)
        for _ in range(25):
            arr, pitch = random_grid_case(rng, d)
            assert tc._grid_component_count(arr, pitch) == reference_grid_count(arr, pitch), (
                arr, pitch)

    def test_defect_arrangement(self):
        pitches = (4, 8, 12, 16, 24, 32)
        counts = [tc._grid_component_count(GRID_DEFECT, p) for p in pitches]
        assert counts == [12, 22, 21, 22, 24, 26]
        assert counts == [reference_grid_count(GRID_DEFECT, p) for p in pitches]
        assert count_regions_toric(GRID_DEFECT) == 20

    def test_refuses_a_grid_too_large_to_hold(self):
        # 60^4 = 1.3e7 nodes: about 2 GB of arrays if it were built
        arr = make(4, ((1, 0, 0, 0), 0))
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match="12960000 nodes"):
            tc._grid_component_count(arr, 60)
        assert time.perf_counter() - start < 0.1


class TestJson:
    def test_round_trip(self, tmp_path):
        arr = make(2, ((1, 0), Fraction(1, 2)), ((-1, 1), Fraction(1, 3)))
        path = tmp_path / "toric.json"
        tc.dump_toric(arr, str(path))
        assert tc.load_toric(str(path)) == arr

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            ToricArrangement.from_json({"type": "projective", "d": 2, "subtori": []})
