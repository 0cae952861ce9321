import itertools
import random

import pytest

from chambers import feasibility, oracle, toric
from chambers.generators import general_position, general_position_count
from chambers.feasibility import TooLargeError
from chambers.oracle import count_regions_oracle, sign_vector_feasible
from chambers.projective import ProjArrangement, ValidationError, count_regions_projective

TRIANGLE = ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def moment_curve(n, d):
    return ProjArrangement(d, tuple(
        tuple(t ** k for k in range(d + 1)) for t in range(1, n + 1)))


def near_pencil(n):
    covs = tuple((i, 1, 0) for i in range(n - 1)) + ((0, 0, 1),)
    return ProjArrangement(2, covs)


class TestSignVectorFeasible:
    def test_triangle_all_plus(self):
        assert sign_vector_feasible(TRIANGLE, (1, 1, 1))

    def test_four_generic_lines_feasible_count(self):
        arr = moment_curve(4, 2)
        count = sum(
            sign_vector_feasible(arr, signs)
            for signs in itertools.product((1, -1), repeat=4))
        assert count == 14  # 2 * (1 + 3 + 3) central regions

    def test_antipodal_symmetry(self):
        arr = moment_curve(5, 2)
        for signs in itertools.product((1, -1), repeat=5):
            flipped = tuple(-s for s in signs)
            assert sign_vector_feasible(arr, signs) == sign_vector_feasible(arr, flipped)

    def test_parity_of_feasible_count(self):
        rng = random.Random(3)
        for _ in range(5):
            covs = set()
            while len(covs) < 4:
                v = tuple(rng.randint(-2, 2) for _ in range(3))
                if any(v):
                    covs.add(v)
            try:
                arr = ProjArrangement(2, tuple(covs))
            except ValidationError:
                continue
            total = sum(
                sign_vector_feasible(arr, signs)
                for signs in itertools.product((1, -1), repeat=4))
            assert total % 2 == 0

    def test_guard(self):
        # one program in 92 variables charges 93^3 + 92 * 93 > 800,000 entries
        arr = ProjArrangement(91, tuple(tuple(int(i == j) for j in range(92))
                                        for i in range(92)))
        with pytest.raises(TooLargeError):
            sign_vector_feasible(arr, (1,) * 92)

    def test_one_too_large_error_for_both_exact_engines(self):
        assert TooLargeError is toric.TooLargeError


class TestCountRegionsOracle:
    @pytest.mark.parametrize("arr,expected", [
        (TRIANGLE, 4),
        (moment_curve(4, 3), 8),
        (near_pencil(5), 8),
    ])
    def test_examples(self, arr, expected):
        assert count_regions_oracle(arr) == expected

    @pytest.mark.parametrize("arr", [
        TRIANGLE,
        moment_curve(5, 2),
        moment_curve(6, 2),
        moment_curve(5, 3),
        moment_curve(6, 4),
        near_pencil(6),
        ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))),
        ProjArrangement(3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                            (1, 1, 1, 1), (1, -1, 2, 0))),
    ])
    def test_agrees_with_zaslavsky(self, arr):
        assert count_regions_oracle(arr) == count_regions_projective(arr)

    def test_deletion_never_increases_count(self):
        arr = moment_curve(7, 2)
        f = count_regions_projective(arr)
        for i in range(arr.n):
            rest = ProjArrangement(arr.d, arr.covectors[:i] + arr.covectors[i + 1:])
            assert count_regions_projective(rest) <= f

    def test_lp_count_on_gp_12_3(self, monkeypatch):
        # Every feasible_point call, the walk's and the root's.  The walk
        # solved 562 LPs here before it reused its Gordan certificates.
        calls = []
        solve = feasibility.feasible_point

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(feasibility, "feasible_point", counting)
        monkeypatch.setattr(oracle, "feasible_point", counting)
        assert count_regions_oracle(general_position(12, 3)) == general_position_count(12, 3)
        assert len(calls) == 352

    def test_one_budget_for_every_program(self, monkeypatch):
        # the 352 programs of GP(12, 3) charge 61,265 entries together
        arr = general_position(12, 3)
        monkeypatch.setattr(oracle, "SWEEP_GUARD", 61_265)
        assert count_regions_oracle(arr) == general_position_count(12, 3)
        monkeypatch.setattr(oracle, "SWEEP_GUARD", 61_264)
        with pytest.raises(TooLargeError):
            count_regions_oracle(arr)

    def test_counts_by_work_not_by_n(self):
        # 40 lines in general position take about 0.2 s, 24 planes of RP^5
        # far more than the budget covers
        arr = general_position(40, 2)
        assert count_regions_oracle(arr) == count_regions_projective(arr) == 781
        with pytest.raises(TooLargeError):
            count_regions_oracle(general_position(24, 5))
