import itertools
import random
import time
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chambers import generators as gn
from chambers import projective as pj
from chambers.exactlin import primitive_normalize, rank
from chambers.feasibility import SWEEP_GUARD, TooLargeError, charge
from chambers.oracle import count_regions_oracle
from chambers.projective import (
    ProjArrangement,
    ValidationError,
    build_intersection_poset,
    characteristic_polynomial,
    count_regions_projective,
    evaluate_poly,
    max_point_multiplicity,
)
from chambers.spectrum import random_arrangements, verify_bounds_batch


def naive_rank(rows):
    """Plain Gaussian elimination over Fractions, independent of exactlin."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def whitney_charpoly(arr):
    """chi(t) by Whitney's theorem: sum over all subsets, independent oracle."""
    ambient = arr.d + 1
    coeffs = [0] * (ambient + 1)
    idx = list(range(arr.n))
    for k in range(arr.n + 1):
        for subset in itertools.combinations(idx, k):
            rows = [arr.covectors[i] for i in subset]
            coeffs[ambient - naive_rank(rows)] += (-1) ** k
    return tuple(coeffs)


def subset_regions(arr):
    """f = 1/2 sum over all subsets B of the covectors of (-1)^(|B| - rank B), by
    Whitney's and Zaslavsky's theorems: no restriction and no flat is made."""
    total = 0
    for k in range(arr.n + 1):
        for subset in itertools.combinations(arr.covectors, k):
            total += (-1) ** (k - rank(subset))
    return total // 2


TRIANGLE = ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def moment_curve(n, d):
    return ProjArrangement(d, tuple(
        tuple(t ** k for k in range(d + 1)) for t in range(1, n + 1)))


class TestValidate:
    def test_triangle_ok(self):
        assert ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))) == TRIANGLE

    def test_common_point(self):
        with pytest.raises(ValidationError) as exc:
            ProjArrangement(2, ((1, 0, 0), (0, 1, 0)))
        assert exc.value.violations == ["CommonPoint: covector matrix rank below d+1"]

    def test_duplicate_after_normalization(self):
        with pytest.raises(ValidationError) as exc:
            ProjArrangement(2, ((1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert exc.value.violations == ["DuplicateHyperplane: 0 and 1"]

    def test_rank_deficient_pencil(self):
        # five planes through the line x0 = x1 = 0 of RP^3, with a duplicate last
        with pytest.raises(ValidationError) as exc:
            ProjArrangement(3, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                                (1, -1, 0, 0), (2, 1, 0, 0), (-1, 0, 0, 0)))
        assert exc.value.violations == ["DuplicateHyperplane: 0 and 5",
                                        "CommonPoint: covector matrix rank below d+1"]
        assert str(exc.value) == ("DuplicateHyperplane: 0 and 5; "
                                  "CommonPoint: covector matrix rank below d+1")

    def test_full_rank_at_the_last_covector(self):
        arr = ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1)))
        assert arr.n == 5

    def test_duplicates_found_past_full_rank(self):
        with pytest.raises(ValidationError) as exc:
            ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, -2, 0)))
        assert exc.value.violations == ["DuplicateHyperplane: 1 and 4"]

    def test_large_entries_in_rp24_validate_quickly(self):
        # elimination must keep entries at the size of minors to finish in time
        rng = random.Random(24)
        covectors = tuple(tuple(rng.randrange(-10 ** 100, 10 ** 100) for _ in range(25))
                          for _ in range(25))
        start = time.perf_counter()
        ProjArrangement(24, covectors)
        assert time.perf_counter() - start < 1

    def test_count_refuses_invalid(self):
        with pytest.raises(ValidationError):
            count_regions_projective(ProjArrangement(2, ((1, 0, 0), (0, 1, 0))))


class TestBuiltArrangementsAreNotCheckedAgain:
    """Construction is the only check: counting a built arrangement computes
    no rank."""

    def test_no_rank_call_after_construction(self, monkeypatch):
        arrs = [TRIANGLE, moment_curve(6, 3), gn.cone(gn.double_pencil(3, 4, True))]
        calls = []
        real = pj.rank

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(pj, "rank", counting)
        monkeypatch.setattr("chambers.exactlin.rank", counting)
        ProjArrangement(2, TRIANGLE.covectors)
        assert len(calls) == 1  # the counter sees construction's check
        calls.clear()
        for arr in arrs:
            f = count_regions_projective(arr)
            max_point_multiplicity(arr)
            assert count_regions_oracle(arr) == f
        assert verify_bounds_batch([(arr, count_regions_projective(arr))
                                    for arr in arrs]) == []
        assert calls == []


class TestPoset:
    def test_triangle_level_sizes(self):
        poset = build_intersection_poset(TRIANGLE)
        assert poset.level_sizes() == {3: 1, 2: 3, 1: 3, 0: 1}

    def test_four_generic_lines_level_sizes(self):
        poset = build_intersection_poset(moment_curve(4, 2))
        assert poset.level_sizes() == {3: 1, 2: 4, 1: 6, 0: 1}

    def test_incident_sets_are_maximal(self):
        arr = moment_curve(5, 2)
        poset = build_intersection_poset(arr)
        for f in poset.flats:
            if f.rank == 0:
                continue
            for i, u in enumerate(arr.covectors):
                from chambers.exactlin import echelon_insert
                assert (i in f.incident) == (echelon_insert(f.echelon, u) is None)

    def test_intersection_closed(self):
        arr = ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)))
        poset = build_intersection_poset(arr)
        keys = {f.echelon for f in poset.flats}
        from chambers.exactlin import echelon_form
        for f, g in itertools.combinations(poset.flats, 2):
            joined = echelon_form(list(f.echelon) + list(g.echelon))
            assert joined in keys

    def test_cone_apex_has_full_incidence(self):
        # 4 planes through a point plus one generic: m = 4
        base = moment_curve(4, 2)
        covs = tuple(u + (0,) for u in base.covectors) + ((0, 0, 0, 1),)
        arr = ProjArrangement(3, covs)
        assert max_point_multiplicity(arr) == 4


class TestCharacteristicPolynomial:
    def test_triangle_is_boolean(self):
        chi = characteristic_polynomial(build_intersection_poset(TRIANGLE))
        assert chi == (-1, 3, -3, 1)

    def test_five_generic_lines(self):
        chi = characteristic_polynomial(build_intersection_poset(moment_curve(5, 2)))
        assert chi == (-6, 10, -5, 1)

    @pytest.mark.parametrize("arr", [
        TRIANGLE,
        moment_curve(5, 2),
        moment_curve(5, 3),
        ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 1, 0))),
        ProjArrangement(3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                            (1, 1, 1, 1), (1, 2, 0, 1))),
    ])
    def test_matches_whitney_formula(self, arr):
        chi = characteristic_polynomial(build_intersection_poset(arr))
        assert chi == whitney_charpoly(arr)

    @pytest.mark.parametrize("arr", [TRIANGLE, moment_curve(4, 2), moment_curve(6, 3)])
    def test_chi_at_one_vanishes(self, arr):
        chi = characteristic_polynomial(build_intersection_poset(arr))
        assert evaluate_poly(chi, 1) == 0


class TestRegionCount:
    @pytest.mark.parametrize("arr,expected", [
        (TRIANGLE, 4),
        (moment_curve(5, 2), 11),
        (moment_curve(4, 3), 8),
    ])
    def test_examples(self, arr, expected):
        assert count_regions_projective(arr) == expected

    @pytest.mark.parametrize("n", range(3, 9))
    def test_generic_plane_formula(self, n):
        # n = 2 is excluded: two projective lines always share a point, so
        # the no-common-point rule rejects the arrangement
        assert count_regions_projective(moment_curve(n, 2)) == 1 + n * (n - 1) // 2


class TestMultiplicity:
    def test_generic_planes(self):
        assert max_point_multiplicity(moment_curve(6, 3)) == 3

    def test_triangle(self):
        assert max_point_multiplicity(TRIANGLE) == 2

    @pytest.mark.parametrize("n,d", [(n, d) for d in (2, 3, 4) for n in range(d + 1, 11)])
    def test_moment_curve_multiplicity_is_d(self, n, d):
        assert max_point_multiplicity(moment_curve(n, d)) == d

    @pytest.mark.parametrize("arr", [TRIANGLE, moment_curve(5, 2), moment_curve(6, 3)])
    def test_bounds_on_m(self, arr):
        m = max_point_multiplicity(arr)
        assert arr.d <= m <= arr.n - 1


@st.composite
def valid_arrangements(draw, max_d=4, bound=3):
    """Valid arrangements in RP^1..RP^max_d with n <= 8 and entries in [-bound, bound]."""
    d = draw(st.integers(1, max_d))
    row = st.tuples(*[st.integers(-bound, bound)] * (d + 1)).filter(any)
    rows = draw(st.lists(row, min_size=d + 1, max_size=8, unique_by=primitive_normalize))
    try:
        return ProjArrangement(d, tuple(rows))
    except ValidationError:
        assume(False)


class TestSweepAgainstReferences:
    """The sweep's f and m against the intersection poset and the oracle."""

    @staticmethod
    def check(arr):
        poset = build_intersection_poset(arr)
        central = abs(evaluate_poly(characteristic_polynomial(poset), -1))
        assert central % 2 == 0
        f = count_regions_projective(arr)
        assert f == central // 2
        assert f == count_regions_oracle(arr)
        m = max_point_multiplicity(arr)
        assert m == max(len(g.incident) for g in poset.flats if g.subspace_dim == 1)
        return f, m

    @given(valid_arrangements())
    @settings(deadline=None, max_examples=150)
    def test_random_arrangements(self, arr):
        self.check(arr)

    @pytest.mark.parametrize("arr,f,m", [
        # cone over a pencil: four planes through a line, whose traces on
        # each later plane all pass through one point
        (ProjArrangement(3, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0),
                             (0, 0, 1, 0), (0, 0, 0, 1))), 16, 5),
        # every lifted plane's traces pass through the apex
        (gn.cone(gn.near_pencil(5)), 16, 5),
        # planes 1 and 2 leave the same trace on plane 0
        (ProjArrangement(3, ((0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1),
                             (0, 1, 0, 0), (0, 0, 1, 0))), 12, 4),
        (gn.near_pencil(6), 10, 5),
        (ProjArrangement(1, ((1, 0), (0, 1), (1, 1), (1, -1))), 4, 1),
        # four lines through (1, 1, 1) and two more, every covector led by a
        # negative entry, so the cross products at the R^3 leaf come in both signs
        (ProjArrangement(2, ((-1, 1, 0), (-1, 0, 1), (0, -1, 1), (-2, 1, 1),
                             (-1, 0, 0), (0, 0, -3))), 12, 4),
    ])
    def test_degenerate_restrictions(self, arr, f, m):
        assert self.check(arr) == (f, m)

    def test_against_the_subset_sum(self):
        arrs = random_arrangements(40, seed=7, dims=(2, 3, 4, 5), max_n=10)
        arrs += [gn.near_pencil(n) for n in range(3, 11)]
        arrs += [gn.double_pencil(a, b, common) for a, b in ((2, 5), (3, 4), (4, 5), (3, 7))
                 for common in (True, False)]
        arrs += [gn.cone(gn.near_pencil(n)) for n in range(3, 10)]
        arrs += [gn.cone(gn.double_pencil(3, 4, True)), gn.cone(gn.near_pencil(5), extras=2),
                 gn.cone(gn.cone(gn.near_pencil(4)))]
        for arr in arrs:
            assert arr.n <= 10
            assert count_regions_projective(arr) == subset_regions(arr), arr

    @given(valid_arrangements(max_d=5, bound=40))
    @settings(deadline=None, max_examples=60)
    def test_wide_entries_up_to_rp5(self, arr):
        self.check(arr)

    def test_weighted_points_at_the_leaf(self):
        # the pencil of the last case above with weights 2 + 3 + 1 + 5 = 11 at (1, 1, 1), plus
        # two lines that meet its line (0, -1, 1) at (1, 0, 0): 3 + 4 + 7 = 14
        rows = {(-1, 1, 0): 2, (0, -1, 1): 3, (-2, 1, 1): 1, (-1, 0, 1): 5,
                (0, 1, 0): 4, (0, -1, -1): 7}
        central = 2 * count_regions_oracle(ProjArrangement(2, tuple(rows)))
        assert pj._sweep(list(rows), 3, [SWEEP_GUARD]) == central
        assert pj._heaviest(list(rows), list(rows.values()), 3, 0, [SWEEP_GUARD]) == 14
        del rows[(0, -1, -1)]
        assert pj._heaviest(list(rows), list(rows.values()), 3, 0, [SWEEP_GUARD]) == 11


class TestHyperplaneBasis:
    @given(st.integers(3, 7).flatmap(lambda a: st.tuples(
        st.integers(0, a - 1), st.integers(-40, 40).filter(bool),
        st.lists(st.integers(-40, 40), min_size=a, max_size=a),
        st.lists(st.lists(st.integers(-40, 40), min_size=a, max_size=a), max_size=6))))
    @settings(deadline=None)
    def test_minor_traces_equal_an_explicit_basis(self, drawn):
        # pivot at column p: zeros before it, a nonzero (often negative) entry on it
        p, pivot, entries, others = drawn
        u = tuple([0] * p + [pivot] + entries[p + 1:])
        ambient = len(u)
        key_u = primitive_normalize(u)
        rows = {}  # weights are powers of two, so a sum of them names its rows
        for v in others:
            if any(v) and primitive_normalize(v) != key_u:
                rows.setdefault(primitive_normalize(v), 2 ** len(rows))
        # H = {u . x = 0} is spanned by the kernel of u, taken here column by
        # column: x = u[p] e_c - u[c] e_p for each c != p
        basis = [tuple(pivot if j == c else -u[c] if j == p else 0 for j in range(ambient))
                 for c in range(ambient) if c != p]
        assert all(sum(a * b for a, b in zip(u, x)) == 0 for x in basis)
        assert naive_rank(basis) == ambient - 1
        minors = [tuple(sum(a * b for a, b in zip(v, x)) for x in basis) for v in rows]
        explicit = [primitive_normalize(t) for t in minors]
        want = {}
        for t, w in zip(explicit, rows.values()):
            want[t] = want.get(t, 0) + w
        heavy = 2 ** len(rows)  # more than all of rows together

        # both walks take the minors of each row on H, in order, right after
        # charging for them: the sweep restricts onto H last, the m walk first
        sweeps, weighed, events = [], [], []
        sweep, heaviest = pj._sweep, pj._heaviest

        def spied_sweep(traces, amb, budget):
            sweeps.append((amb, list(traces)))
            return sweep(traces, amb, budget)

        def spied_heaviest(traces, weights, amb, beat, budget):
            weighed.append((amb, dict(zip(traces, weights))))
            return heaviest(traces, weights, amb, beat, budget)

        def spied_charge(budget, entries, what):
            events.append(entries)
            charge(budget, entries, what)

        def spied_gcd(*args):
            events.append(args)
            return gcd(*args)

        got = []
        for walk in (lambda: sweep(list(rows) + [u], ambient, [SWEEP_GUARD]),
                     lambda: heaviest(list(rows) + [u], list(rows.values()) + [heavy],
                                      ambient, 0, [SWEEP_GUARD])):
            events.clear()
            with patch.object(pj, "charge", spied_charge), patch.object(pj, "gcd", spied_gcd):
                got.append(walk())
            # no other restriction is charged len(rows) * ambient entries
            at = events.index(len(rows) * ambient) + 1
            assert events[at:at + len(rows)] == minors
        if ambient == 3:  # the traces are lines of H, keyed by their minors
            central, m = got
            assert central == sweep(list(rows), 3, [SWEEP_GUARD]) + (2 * len(want) or 1)
            # H weighs more than the rest, so the m walk stops after it
            assert m == heavy + max(want.values(), default=0)
            return
        assert pj._traces(u, list(rows), [SWEEP_GUARD]) == explicit
        with patch.object(pj, "_sweep", spied_sweep):
            sweep(list(rows) + [u], ambient, [SWEEP_GUARD])
        # the sweep's last restriction at ambient - 1 is onto H
        assert [t for amb, t in sweeps if amb == ambient - 1][-1] == list(want)
        rows[u] = 1
        with patch.object(pj, "_heaviest", spied_heaviest):
            heaviest(list(rows), list(rows.values()), ambient, 0, [SWEEP_GUARD])
        # the m walk restricts first onto H, the last row
        assert weighed[0] == (ambient - 1, want)

    def test_equal_minor_traces_merge_their_weights(self):
        # (1, 0, 0, 0) and (1, 0, 0, 1) leave the trace (1, 0, 0) on the last
        # plane x3 = 0, so its point (0, 0, 1, 0) has weight 2 + 3 + 4 + 1 = 10;
        # no other last plane sees more than 8 through one point
        rows = {(1, 0, 0, 0): 2, (1, 0, 0, 1): 3, (0, 1, 0, 0): 4, (0, 0, 1, 0): 1,
                (0, 0, 0, -1): 1}
        central = 2 * count_regions_oracle(ProjArrangement(3, tuple(rows)))
        assert pj._sweep(list(rows), 4, [SWEEP_GUARD]) == central
        assert pj._heaviest(list(rows), list(rows.values()), 4, 0, [SWEEP_GUARD]) == 10

    def test_sweep_needs_no_general_solver(self):
        gp = gn.general_position(12, 3)
        [arr] = random_arrangements(1, seed=3, dims=(4,), max_n=10)
        expected = TestSweepAgainstReferences.check(arr)
        assert count_regions_projective(gp) == gn.general_position_count(12, 3)
        assert max_point_multiplicity(gp) == 3
        assert (count_regions_projective(arr), max_point_multiplicity(arr)) == expected


@st.composite
def weighted_rows(draw):
    """Distinct weighted hyperplanes in R^3..R^5, entries in [-3, 3], and a bar to beat."""
    ambient = draw(st.integers(3, 5))
    row = st.tuples(*[st.integers(-3, 3)] * ambient).filter(any)
    rows = draw(st.lists(row, max_size=6, unique_by=primitive_normalize))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    return rows, weights, ambient, draw(st.integers(0, sum(weights) + 1))


class TestHeaviestLine:
    @given(weighted_rows())
    @settings(deadline=None, max_examples=200)
    def test_against_every_row_subset(self, drawn):
        # the rows through a line span at most ambient - 1 dimensions, and any
        # rows that do have a common line, so m is the heaviest such subset
        rows, weights, ambient, beat = drawn
        m = max(sum(weights[i] for i in subset)
                for k in range(len(rows) + 1)
                for subset in itertools.combinations(range(len(rows)), k)
                if naive_rank([rows[i] for i in subset]) < ambient)
        got = pj._heaviest(rows, weights, ambient, beat, [SWEEP_GUARD])
        if m > beat:
            assert got == m
        else:
            assert got <= beat

    def test_stops_once_no_hyperplane_can_beat_the_heaviest_line(self):
        # the apex lies on the 49 lifted planes: the extra plane and the last
        # lifted plane are restricted to, and then no prefix can beat 49
        arr = gn.cone(gn.double_pencil(3, 47, True))
        top = []
        traces = pj._traces

        def record(u, rows, budget):
            top.append(len(u) == arr.d + 1)
            return traces(u, rows, budget)

        with patch.object(pj, "_traces", record):
            assert max_point_multiplicity(arr) == 49
        assert sum(top) <= 2


class TestGuard:
    @pytest.mark.parametrize("walk", [count_regions_projective, max_point_multiplicity])
    def test_guard_refuses_before_making_traces(self, monkeypatch, walk):
        # a restriction charges len(u) entries per row and then takes one gcd of
        # each row's len(u) - 1 minors, so the gcds between two charges must be
        # paid for by the first of them; the charge that overspends is the
        # first that takes none, and the last
        arr = gn.general_position(8, 3)
        restrictions = []  # (entries charged, minors of each gcd after the charge)

        def spied_charge(budget, entries, what):
            restrictions.append((entries, []))
            charge(budget, entries, what)

        def counted_gcd(*args):
            assert restrictions, "a trace was made before any charge"
            restrictions[-1][1].append(len(args))
            return gcd(*args)

        monkeypatch.setattr(pj, "SWEEP_GUARD", 100)
        monkeypatch.setattr(pj, "charge", spied_charge)
        monkeypatch.setattr(pj, "gcd", counted_gcd)
        with pytest.raises(TooLargeError):
            walk(arr)
        *paid, (_, after) = restrictions
        assert after == [], "a trace was made after the guard refused"
        for entries, minors in paid:
            assert sum(k + 1 for k in minors) == entries, "a trace was made before its charge"
        charged = [entries for entries, _ in restrictions]
        assert sum(charged[:-1]) <= 100 < sum(charged)

    @pytest.mark.parametrize("n, d, sweep, heaviest", [
        (22, 3, 5544, 5472), (13, 4, 3679, 3360), (10, 5, 2466, 1758), (80, 2, 9480, 9477),
    ])
    def test_charges_are_pinned(self, n, d, sweep, heaviest):
        # the entries both walks charge on general-position inputs, pinned from
        # the walks that restricted through `_traces` at every level
        covs = gn.general_position(n, d).covectors
        budget = [SWEEP_GUARD]
        pj._sweep(covs, d + 1, budget)
        assert SWEEP_GUARD - budget[0] == sweep
        budget = [SWEEP_GUARD]
        pj._heaviest(covs, (1,) * n, d + 1, 0, budget)
        assert SWEEP_GUARD - budget[0] == heaviest


class TestJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tri.json"
        pj.dump_arrangement(TRIANGLE, str(path))
        back = pj.load_arrangement(str(path))
        assert back == TRIANGLE

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            ProjArrangement.from_json({"type": "toric", "d": 2, "covectors": []})
