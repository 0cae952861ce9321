"""Rationals stay at the input boundary: the RP^d engines build no Fraction."""

import fractions

import pytest

from chambers import exactlin as ex
from chambers import generators as gn
from chambers import spectrum as sp
from chambers.oracle import count_regions_oracle
from chambers.projective import count_regions_projective, max_point_multiplicity


@pytest.fixture
def no_fractions(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"Fraction{args} built below the input boundary")

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(refuse))
    with pytest.raises(AssertionError):
        fractions.Fraction(1, 2)


def test_projective_counts(no_fractions):
    arr = gn.general_position(12, 3)
    assert count_regions_projective(arr) == gn.general_position_count(12, 3)
    assert max_point_multiplicity(arr) == 3
    assert count_regions_oracle(gn.general_position(9, 3)) == gn.general_position_count(9, 3)


def test_kernel_basis(no_fractions):
    assert ex.kernel_basis([(2, 3, 0, -1), (1, 0, 5, 7)]) == [(15, -10, -3, 0), (7, -5, 0, -1)]


def test_every_recipe_builds(no_fractions):
    built = 0
    for recipe in sp.projective_recipes(10, 3):
        try:
            sp.build_recipe(recipe)
        except gn.PlacementError:
            continue
        built += 1
    assert built > 0
