import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chambers import exactlin as ex
from test_projective import naive_rank


class TestPrimitiveNormalize:
    @pytest.mark.parametrize("vec,expected", [
        ((2, -4, 6), (1, -2, 3)),
        ((0, -3, 0), (0, 1, 0)),
        ((5, 0, 0), (1, 0, 0)),
        ((-7,), (1,)),
    ])
    def test_examples(self, vec, expected):
        assert ex.primitive_normalize(vec) == expected

    def test_zero_vector_rejected(self):
        for fn in (ex.primitive_normalize, ex.primitive_scale):
            for vec in ((0, 0, 0), (0,), ()):
                with pytest.raises(ex.ZeroVectorError):
                    fn(vec)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6),
           st.integers(-9, 9).filter(lambda k: k != 0))
    def test_idempotent_and_scale_invariant(self, entries, k):
        if not any(entries):
            entries[0] = 1
        v = tuple(entries)
        norm = ex.primitive_normalize(v)
        assert ex.primitive_normalize(norm) == norm
        assert ex.primitive_normalize(tuple(k * x for x in v)) == norm


class TestRank:
    @pytest.mark.parametrize("matrix,expected", [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
        ([[1, 2], [2, 4]], 1),
        ([[0] * 5] * 4, 0),
        ([[3, 2], [-6, -4]], 1),
    ])
    def test_examples(self, matrix, expected):
        assert ex.rank(matrix) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda cols: st.tuples(
        st.lists(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=cols, max_size=cols),
                 max_size=5),
        st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=6))))
    def test_equals_rank_over_fractions(self, drawn):
        # rows drawn as combinations of a few base rows plant dependencies
        base, mixes = drawn
        cols = len(base[0]) if base else 1
        rows = list(base) + [[sum(k * b[j] for k, b in zip(mix, base)) for j in range(cols)]
                             for mix in mixes]
        random.Random(len(rows)).shuffle(rows)
        assert ex.rank(rows) == naive_rank(rows)


class TestEchelon:
    @given(st.permutations([(1, 2, 0, 5), (0, 1, 1, 1), (3, 0, 0, -2)]))
    def test_canonical_under_row_order(self, rows):
        assert ex.echelon_form(rows) == ex.echelon_form(
            [(1, 2, 0, 5), (0, 1, 1, 1), (3, 0, 0, -2)])

    def test_insert_detects_span_membership(self):
        ech = ex.echelon_form([(1, 0, 1), (0, 1, 1)])
        assert ex.echelon_insert(ech, (2, 3, 5)) is None
        assert ex.echelon_insert(ech, (1, -1, 0)) is None
        assert ex.echelon_insert(ech, (0, 0, 1)) is not None


class TestRationalStrings:
    @pytest.mark.parametrize("text,value", [
        ("3/4", Fraction(3, 4)),
        ("-7", Fraction(-7)),
        ("0", Fraction(0)),
    ])
    def test_parse(self, text, value):
        assert ex.parse_rational(text, "c") == value

    @pytest.mark.parametrize("text", ["1_0/3", "0.5", " 1/2", "1e3", "\u0663", "1/-2",
                                      "1/+2", "", "/2", "1/", "inf", "nan"])
    def test_outside_the_grammar(self, text):
        with pytest.raises(ValueError, match="^offset: expected a rational"):
            ex.parse_rational(text, "offset")

    @pytest.mark.parametrize("text", ["1_0", "\u0663", " 7 ", "7\n", "1e3", "7.0", "", "+"])
    def test_integer_outside_the_grammar(self, text):
        with pytest.raises(ValueError, match="^entry: expected a decimal integer"):
            ex.parse_int(text, "entry")

    def test_digit_limit_names_the_field(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=f"^c: {limit + 1} digits, more than the {limit}"):
            ex.parse_rational("1/" + "1" * (limit + 1), "c")
        assert ex.parse_int("-" + "9" * limit, "a") == -int("9" * limit)

    @given(st.fractions(max_denominator=1000))
    def test_round_trip_reduces(self, q):
        text = ex.format_rational(q)
        back = ex.parse_rational(text, "c")
        assert back == q
        assert back.denominator > 0
        if q.denominator == 1:
            assert "/" not in text
