import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chambers import generators as gn
from chambers import projective as pj
from chambers import spectrum as sp
from chambers.exactlin import cross3, dot, primitive_normalize
from chambers.oracle import count_regions_oracle
from chambers.projective import count_regions_projective, max_point_multiplicity
from chambers.toric import count_regions_toric


class TestGeneralPosition:
    @pytest.mark.parametrize("n,d,expected", [(5, 2, 11), (4, 3, 8), (6, 3, 26)])
    def test_counts(self, n, d, expected):
        arr = gn.general_position(n, d)
        assert count_regions_projective(arr) == expected
        assert gn.general_position_count(n, d) == expected

    @pytest.mark.parametrize("n,d", [(n, d) for d in (2, 3, 4) for d_, n in [(d, d + 2), (d, d + 4)]])
    def test_multiplicity_is_d(self, n, d):
        assert max_point_multiplicity(gn.general_position(n, d)) == d


class TestDoublePencil:
    @pytest.mark.parametrize("a,b,common,n,f", [
        (2, 4, True, 5, 8),     # near-pencil, 2n-2
        (3, 4, True, 6, 12),    # 3n-6
        (2, 4, False, 6, 13),   # 3n-5
        (4, 5, True, 8, 20),    # 4n-12
        (3, 5, False, 8, 22),
    ])
    def test_counts_both_engines(self, a, b, common, n, f):
        arr = gn.double_pencil(a, b, common)
        assert arr.n == n
        assert gn.double_pencil_count(a, b, common) == f
        assert count_regions_projective(arr) == f
        assert count_regions_oracle(arr) == f

    def test_degenerate_parameters(self):
        with pytest.raises(gn.PlacementError):
            gn.double_pencil(1, 5, True)


# the recipes (q, program) of plane_recipes(10) that raised PlacementError
# while cross2 and stack_cross tried only their first anchor pair; the
# catalogue now keeps one program per saving and none of these, so they are
# built here directly
UNBUILT_WITH_ONE_ANCHOR_PAIR = {(5, ("fresh",) + tail) for tail in [
    ("cross1", "cross1", "cross1", "cross2"),
    ("cross1", "cross1", "cross1", "stack_cross"),
    ("cross1", "cross1", "cross2", "cross2"),
    ("cross1", "cross1", "cross2", "stack"),
    ("cross1", "cross1", "cross2", "stack_cross"),
    ("cross1", "cross1", "stack", "cross2"),
    ("cross1", "cross1", "stack_cross", "cross2"),
    ("cross1", "cross2", "cross1", "stack_cross"),
    ("cross1", "cross2", "stack", "cross2"),
    ("cross1", "stack", "cross1", "stack_cross"),
    ("cross1", "stack", "cross2", "cross2"),
    ("cross1", "stack_cross", "cross1", "cross2"),
    ("stack", "cross1", "cross1", "cross2"),
    ("stack", "cross1", "cross1", "stack_cross"),
    ("stack", "cross1", "cross2", "cross2"),
]}


class TestPencilWithExtras:
    @pytest.mark.parametrize("q,program", [
        (5, ("fresh",)),
        (5, ("fresh", "fresh")),
        (5, ("fresh", "cross1")),
        (4, ("fresh", "cross1", "cross2")),
        (4, ("fresh", "stack", "stack")),
        (5, ("fresh", "fresh", "stack_cross")),
        (4, ("fresh", "fresh", "cross2", "cross1")),
        # with q = 3 the stack point is the first double point, so a cross1
        # anchored there would leave the later stack above its bound
        (3, ("fresh", "cross1", "stack")),  # f = 13
        (3, ("fresh", "cross1", "fresh", "stack_cross")),  # f = 18
    ])
    def test_predicted_count_matches(self, q, program):
        savings = gn.pencil_extras_savings(program)
        assert savings is not None
        arr = gn.pencil_with_extras(q, program)
        assert count_regions_projective(arr) == gn.pencil_with_extras_count(
            q, len(program), sum(savings))

    def test_near_pencil_equivalence(self):
        assert gn.pencil_with_extras_count(7, 1, 0) == 2 * 8 - 2

    def test_every_plane_recipe_at_ten_lines_builds_to_its_count(self):
        recipes = sp.plane_recipes(10)
        assert len(recipes) == 29
        for recipe in recipes:
            arr = sp.build_recipe(recipe)
            assert count_regions_projective(arr) == recipe.expected_f, recipe.describe()

    @pytest.mark.parametrize("q,program", sorted(UNBUILT_WITH_ONE_ANCHOR_PAIR))
    def test_programs_once_unbuilt_with_one_anchor_pair(self, q, program):
        f = gn.pencil_with_extras_count(q, len(program), sum(gn.pencil_extras_savings(program)))
        arr = gn.pencil_with_extras(q, program)
        assert count_regions_projective(arr) == f == count_regions_oracle(arr)

    @pytest.mark.parametrize("program", [
        ("cross1",),              # no points exist yet
        ("fresh", "cross2"),      # two disjoint anchors impossible
        ("fresh", "stack_cross"),  # no non-stacked extra available
    ])
    def test_infeasible_programs(self, program):
        assert gn.pencil_extras_savings(program) is None
        with pytest.raises(gn.PlacementError):
            gn.pencil_with_extras(6, program)

    def test_savings_capped_by_index(self):
        # each unit of saving needs a distinct earlier extra
        savings = gn.pencil_extras_savings(("fresh", "stack", "stack", "stack"))
        assert savings == [0, 1, 2, 3]


class TestCone:
    def test_triangle_cone_doubles(self):
        base = gn.general_position(3, 2)
        arr = gn.cone(base, extras=1)
        assert arr.n == 4 and arr.d == 3
        assert count_regions_projective(arr) == 8 == 2 * 4

    @pytest.mark.parametrize("base_builder,phi", [
        (lambda: gn.near_pencil(10), 18),
        (lambda: gn.double_pencil(3, 8, True), 24),
        (lambda: gn.double_pencil(2, 8, False), 25),
    ])
    def test_doubling_property(self, base_builder, phi):
        base = base_builder()
        assert count_regions_projective(base) == phi
        arr = gn.cone(base, extras=1)
        assert count_regions_projective(arr) == 2 * phi
        assert max_point_multiplicity(arr) == base.n

    def test_iterated_cone_hits_mcmullen(self):
        from chambers.bounds import bound_mcmullen
        arr = gn.near_pencil(6)
        f = count_regions_projective(arr)
        for d in (3, 4, 5):
            arr = gn.cone(arr, extras=1)
            f *= 2
            assert count_regions_projective(arr) == f
            assert f == bound_mcmullen(arr.n, d).value

    def test_two_generic_extras_count(self):
        base = gn.near_pencil(6)
        arr = gn.cone(base, extras=2)
        expected = gn.cone_count(10, 2, base_n=6)
        assert expected == 36
        assert count_regions_projective(arr) == expected

    def test_extras_zero_rejected(self):
        with pytest.raises(gn.PlacementError):
            gn.cone(gn.near_pencil(5), extras=0)

    @pytest.mark.parametrize("base", [
        gn.general_position(6, 2),
        gn.double_pencil(3, 4, True),
        gn.double_pencil(3, 5, False),
    ], ids=["gp6", "dp34-common", "dp35"])
    def test_through_point_count(self, base):
        # 3 f(base) + n - (mu - 1) on every pair the builder can place
        phi = count_regions_projective(base)
        built = set()
        for pair in itertools.combinations(range(base.n), 2):
            try:
                arr = gn.cone(base, extras=2, through_point=pair)
            except gn.PlacementError:
                continue
            _, mu = gn.base_crossing(base, pair)
            built.add(mu)
            assert count_regions_projective(arr) == gn.cone_count(
                phi, 2, base_n=base.n, through_multiplicity=mu)
        assert built

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 0), (2, 2)])
    def test_bad_through_point_rejected(self, pair):
        with pytest.raises(gn.PlacementError, match="two different base lines"):
            gn.cone(gn.general_position(5, 2), extras=2, through_point=pair)

    def test_through_point_needs_a_second_extra(self):
        with pytest.raises(gn.PlacementError, match="at least two extras"):
            gn.cone(gn.general_position(5, 2), extras=1, through_point=(0, 1))

    def test_no_closed_form_past_two_extras(self):
        assert gn.cone_count(10, 3, base_n=6) is None


class TestTwoExtraPlanes:
    def test_spec_value_at_n11(self):
        base = gn.near_pencil(9)
        arr = gn.two_extra_planes(base, coincidences=1)
        assert arr.n == 11
        assert count_regions_projective(arr) == 56 == 3 * 16 + 8

    def test_no_coincidence(self):
        base = gn.near_pencil(9)
        arr = gn.two_extra_planes(base, coincidences=0)
        assert count_regions_projective(arr) == 3 * 16 + 9

    def test_line_in_union(self):
        base = gn.near_pencil(9)
        arr = gn.two_extra_planes(base, line_in_union=True)
        assert count_regions_projective(arr) == 48

    def test_pencil_collapse_on_double_pencil_base(self):
        base = gn.double_pencil(3, 7, True)  # 9 lines, f = 21
        arr = gn.two_extra_planes(base, coincidences=2)
        assert count_regions_projective(arr) == 3 * 21 + 9 - 2
        collapsed = gn.two_extra_planes(base, coincidences=6)  # b - 1
        assert count_regions_projective(collapsed) == 3 * 21 + 3

    def test_unreachable_coincidences(self):
        base = gn.near_pencil(9)
        with pytest.raises(gn.PlacementError):
            gn.two_extra_planes(base, coincidences=2)
        with pytest.raises(gn.PlacementError):
            gn.two_extra_planes(base, coincidences=4)


class TestThreeExtraPlanes:
    @pytest.mark.parametrize("s2,s3,s23", [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 1, 2),
    ])
    def test_anchored_counts(self, s2, s3, s23):
        base = gn.near_pencil(8)
        expected = gn.three_extra_planes_count(14, 8, s2, s3, s23)
        arr = gn.three_extra_planes(base, s2, s3, s23)
        assert arr.n == 11
        assert count_regions_projective(arr) == expected

    @pytest.mark.parametrize("n", range(8, 16))
    def test_every_catalogued_anchor_triple_builds(self, n):
        recipes = [r for r in sp.projective_recipes(n, 3) if r.family == "three_extra"]
        assert {r.params[1:] for r in recipes} == set(itertools.product((0, 1), (0, 1), (0, 1, 2)))
        for recipe in recipes:
            assert sp.count_recipe(recipe) == recipe.expected_f

    def test_multiplicity_is_n_minus_3(self):
        base = gn.near_pencil(8)
        arr = gn.three_extra_planes(base, 0, 0, 0)
        assert max_point_multiplicity(arr) == 8

    def test_builds_without_counting_regions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a region count ran inside a generator")

        monkeypatch.setattr(pj, "_sweep", refuse)
        monkeypatch.setattr(pj, "_heaviest", refuse)
        with pytest.raises(AssertionError):
            count_regions_projective(gn.near_pencil(5))
        with pytest.raises(AssertionError):
            max_point_multiplicity(gn.near_pencil(5))
        built = 0
        for recipe in sp.projective_recipes(10, 3):
            if recipe.family != "three_extra":
                continue
            sp.build_recipe(recipe)
            built += 1
        assert built > 0


VEC3 = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


@given(st.lists(VEC3, max_size=5), VEC3, st.lists(VEC3, max_size=4), VEC3)
@settings(deadline=None, max_examples=200)
def test_builder_counts_distinct_crossings(free, apex, spokes, probe):
    # spokes through one apex force a point of high multiplicity
    lines = [primitive_normalize(v) for v in free]
    lines += [primitive_normalize(cross3(apex, q)) for q in spokes if any(cross3(apex, q))]
    builder = gn._PlaneBuilder(dict.fromkeys(lines))
    probes = [probe, cross3(apex, probe)] + [cross3(p, probe) for p in builder.points]
    for line in probes:
        if not any(line) or primitive_normalize(line) in builder.lines:
            continue
        distinct = {primitive_normalize(cross3(line, v)) for v in builder.lines}
        assert builder.crossings(line) == len(distinct)
    line = primitive_normalize(probe)
    if line not in builder.lines:
        builder.place(line)
        assert builder.points == gn._PlaneBuilder(builder.lines).points


class TestAnchorWalk:
    def test_every_tried_anchor_tuple_saves_what_was_asked(self, monkeypatch):
        walk, scan = gn._PlaneBuilder.anchor_sets, gn._PlaneBuilder.lines_through
        last, wrong = [], []

        def record_walk(builder, saving, through=None, avoid=()):
            for anchors in walk(builder, saving, through, avoid):
                on = [builder.points[a] for a in anchors]
                if (sum(len(lines) - 1 for lines in on) != saving
                        or any(a & b for a, b in itertools.combinations(on, 2))):
                    wrong.append((anchors, saving))
                last[:] = [(builder, anchors)]
                yield anchors

        def record_scan(builder, anchors):
            # every line is scanned through the tuple the walk just gave that builder
            assert last == [(builder, tuple(anchors))]
            return scan(builder, anchors)

        monkeypatch.setattr(gn._PlaneBuilder, "anchor_sets", record_walk)
        monkeypatch.setattr(gn._PlaneBuilder, "lines_through", record_scan)
        recipes = [r for n in range(8, 13) for r in sp.plane_recipes(n)]
        for recipe in recipes + list(sp.projective_recipes(10, 3)):
            sp.build_recipe(recipe)
        assert last
        assert wrong == []


@given(st.lists(VEC3, min_size=2, max_size=7), st.integers(0, 6), st.data())
@settings(deadline=None, max_examples=200)
def test_anchor_walk_yields_every_anchor_set_once(free, saving, data):
    builder = gn._PlaneBuilder(dict.fromkeys(primitive_normalize(v) for v in free))
    points = list(builder.points)
    if not points:
        return
    through = data.draw(st.none() | st.sampled_from(points))
    avoid = set(data.draw(st.lists(st.sampled_from(points), max_size=3)))

    def gain(p):
        return len(builder.points[p]) - 1

    want = set()
    for size in (0, 1, 2):
        for anchors in itertools.combinations(points, size):
            lines = [builder.points[a] for a in anchors]
            if sum(map(gain, anchors)) != saving or any(
                    a & b for a, b in itertools.combinations(lines, 2)):
                continue
            if through is not None and through not in anchors:
                continue
            if any(a in avoid for a in anchors if a != through):
                continue
            want.add(frozenset(anchors))
    got = list(builder.anchor_sets(saving, through, avoid))
    assert len(got) == len(want) == len({frozenset(t) for t in got})
    assert {frozenset(t) for t in got} == want
    if through is not None:
        assert all(t[0] == through for t in got)
    else:
        # double points alone, then one crossing of more lines, then pairs led by one
        stages = [0 if all(gain(a) == 1 for a in t) else len(t) for t in got]
        assert stages == sorted(stages)


@given(st.lists(VEC3, min_size=2, max_size=6), st.data())
@settings(deadline=None, max_examples=200)
def test_scan_meets_no_crossing_but_its_anchors(free, data):
    builder = gn._PlaneBuilder(dict.fromkeys(primitive_normalize(v) for v in free))
    if not builder.points:
        return
    anchors = data.draw(st.lists(st.sampled_from(list(builder.points)), max_size=2, unique=True))
    bound = len(builder.lines) - sum(len(builder.points[a]) - 1 for a in anchors)
    lines = list(itertools.islice(builder.lines_through(anchors), 3))
    if not lines:
        # the only candidate, the line through both anchors, is placed or
        # crosses a third point
        assert len(anchors) == 2
        return
    for line in lines:
        assert line not in builder.lines
        assert {p for p in builder.points if dot(line, p) == 0} == set(anchors)
        assert builder.crossings(line) == bound


class TestToricConstructionA:
    @pytest.mark.parametrize("n,d,k,f", [
        (3, 2, 1, 2),
        (5, 3, 2, 3),
        (5, 3, 0, 5),
        (4, 2, 0, 4),
    ])
    def test_counts(self, n, d, k, f):
        arr = gn.toric_construction_a(n, d, k)
        assert arr.n == n
        assert count_regions_toric(arr) == f == n - k

    def test_offset_collision(self):
        with pytest.raises(gn.OffsetCollisionError):
            gn.toric_construction_a(3, 2, 1, offsets=[Fraction(1, 3), Fraction(4, 3)])

    def test_custom_offsets(self):
        arr = gn.toric_construction_a(3, 2, 1, offsets=[Fraction(1, 3), Fraction(2, 3)])
        assert count_regions_toric(arr) == 2


class TestToricConstructionB:
    @pytest.mark.parametrize("n,d,k,f", [
        (3, 2, 1, 3),
        (5, 3, 0, 4),
        (4, 2, 3, 7),
        (3, 3, 4, 4),
    ])
    def test_counts(self, n, d, k, f):
        arr = gn.toric_construction_b(n, d, k)
        assert arr.n == n
        assert gn.toric_construction_b_count(n, d, k) == f
        assert count_regions_toric(arr) == f

    def test_custom_offset_quarter(self):
        arr = gn.toric_construction_b(3, 2, 1, offsets=[Fraction(1, 4)])
        assert count_regions_toric(arr) == 3

    def test_triple_intersection_rejected(self):
        with pytest.raises(gn.TripleIntersectionError):
            gn.toric_construction_b(3, 2, 2, offsets=[Fraction(1, 4)])

    def test_default_offsets_never_collide(self):
        for n in range(3, 9):
            for k in range(6):
                gn.toric_construction_b(n, 2, k)

    def test_degenerate_slope_zero_at_n_equals_d(self):
        with pytest.raises(gn.PlacementError):
            gn.toric_construction_b(2, 2, 0)
