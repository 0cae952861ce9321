"""Rationals stay at the input boundary: the RP^d engines build no Fraction."""

import fractions
import hashlib

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


# sha256 over the outcome of every recipe of projective_recipes(10, 3), in
# catalogue order: the repr of the built covectors or the PlacementError
# message, one line each.  A change to the generators' output changes it;
# an intended one updates it and names the recipes whose outcome changed.
RECIPE_OUTCOMES_10_3 = "3cc11f534398ec8828aecc315c5031d1c01741b4dc4657d8e4ee1e56f1035d73"


def test_every_recipe_builds(no_fractions):
    digest = hashlib.sha256()
    built = 0
    for recipe in sp.projective_recipes(10, 3):
        try:
            line = repr(sp.build_recipe(recipe).covectors)
            built += 1
        except gn.PlacementError as exc:
            line = f"PlacementError: {exc}"
        digest.update(line.encode() + b"\n")
    assert built > 0
    assert digest.hexdigest() == RECIPE_OUTCOMES_10_3
