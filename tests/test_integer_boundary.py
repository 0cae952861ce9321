"""Rationals stay at the input boundary: the RP^d engines build no Fraction."""

import fractions
import hashlib
from collections import Counter

import pytest

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


# sha256 over the outcome of every recipe of projective_recipes(10, 3), in
# catalogue order: the repr of the built covectors, one line each; every
# recipe builds.  A change to the generators' output changes it;
# an intended one updates it and names the recipes whose outcome changed.
# The per-family tally of built recipes, checked first, names the family
# whose outcomes moved.
RECIPE_OUTCOMES_10_3 = "3519f3712bd68a9fed5b0e1faefbe9d64c376f93ffeadf383d42e3a35e5b4d40"
BUILT_10_3 = {"cone": 26, "two_extra": 125, "three_extra": 12, "general_position": 1}


def test_every_recipe_builds(no_fractions):
    digest = hashlib.sha256()
    built = Counter()
    for recipe in sp.projective_recipes(10, 3):
        digest.update(repr(sp.build_recipe(recipe).covectors).encode() + b"\n")
        built[recipe.family] += 1
    assert built == BUILT_10_3
    assert digest.hexdigest() == RECIPE_OUTCOMES_10_3
