"""Integer vectors and small dense integer matrices, and the rational boundary.

Every geometric module in this package does its arithmetic here.  Vectors
are tuples of Python ints and matrices are sequences of integer rows.
Rationals occur only at the input boundary: `parse_rational` reads them by
the one number grammar that `parse_int` reads integers by, `format_rational`
prints them, and a caller with a rational row clears its denominators before
the row comes here.

Elimination is fraction free in two ways.  `echelon_insert`, which builds the
canonical echelon forms that identify flats, cross-multiplies and then keeps
every row primitive, so its entries stay small but each step pays a gcd.
`rank` is Bareiss's elimination (Math. Comp. 22, 1968): each step divides
exactly by the previous pivot, so every entry is a minor of the input and no
gcd is taken.  Pivoting is deterministic (first nonzero entry of a row, rows
in input order), which makes echelon forms and ranks reproducible across
runs.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vec = tuple[int, ...]


class ZeroVectorError(ValueError):
    """Raised when an operation requires a nonzero vector."""


# ---------------------------------------------------------------------------
# rationals


# The number grammar at the input boundary: ASCII digits with an optional
# sign, and a rational is such an integer or one over a positive one.  No
# exponent, underscore, decimal point, whitespace or non-ASCII digit.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _shown(value) -> str:
    """repr(value), cut short when long."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def _digits(text: str, field: str) -> int:
    """int(text) for text of the grammar; Python's limit on the digits an int
    may be read from (4300 by default) applies, and its error names `field`."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{field}: {len(text.lstrip('+-'))} digits, more than the "
                         f"{sys.get_int_max_str_digits()} an integer may have") from None


def parse_rational(text: str, field: str) -> Fraction:
    """Parse "p/q" or "p" (ASCII decimal integers, q > 0) into an exact
    Fraction; an error names `field`, where the text came from."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"{field}: expected a rational like \"p/q\", got {_shown(text)}")
    p, q = match.groups()
    den = 1 if q is None else _digits(q, field)
    if den == 0:
        raise ValueError(f"{field}: rational {_shown(text)} has a zero denominator")
    return Fraction(_digits(p, field), den)


def parse_int(value, field: str) -> int:
    """An int from a JSON integer or a decimal string of ASCII digits with an
    optional sign; floats, bools and any other string are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{field}: expected an integer, got {_shown(value)}")
    if isinstance(value, int):
        return value
    if not _INTEGER.fullmatch(value):
        raise ValueError(f"{field}: expected a decimal integer, got {_shown(value)}")
    return _digits(value, field)


def parse_int_vector(value, field: str) -> Vec:
    """An integer vector from a JSON list of integers or decimal strings."""
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list of integers, got {_shown(value)}")
    return tuple(parse_int(x, field) for x in value)


def json_field(data, key: str, kind: type | tuple[type, ...] = object):
    """data[key], refusing a non-object, a missing key or a value not of `kind`."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing field {key!r}")
    if not isinstance(data[key], kind):
        raise ValueError(f"field {key!r} has the wrong type {type(data[key]).__name__}")
    return data[key]


def read_json(path: str):
    """The JSON value in the file at `path`, its integers as text for `parse_int`.

    A file that is not JSON, or nested too deeply for the decoder, is refused
    as malformed input (ValueError) by a message that names it, not passed on
    as the decoder's own error.
    """
    with open(path) as fh:
        try:
            return json.load(fh, parse_int=str)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to read as JSON") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None


def format_rational(value: int | Fraction) -> str:
    """Serialize exactly, as "p/q" with the "/q" omitted when q == 1."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# integer vectors


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def primitive_scale(v: Sequence[int]) -> Vec:
    """Divide out the gcd of the entries, keeping the sign pattern."""
    g = gcd(*v)
    if g == 0:
        raise ZeroVectorError("zero vector has no primitive form")
    return tuple([x // g for x in v])


def primitive_normalize(v: Sequence[int]) -> Vec:
    """Canonical representative of the line through v.

    Entries are divided by their gcd and the sign is flipped so the first
    nonzero entry is positive.  Idempotent, and invariant under scaling by
    any nonzero integer.
    """
    w = primitive_scale(v)
    for x in w:
        if x > 0:
            return w
        if x < 0:
            return tuple([-y for y in w])
    raise ZeroVectorError("zero vector has no primitive form")  # unreachable


def cross3(u: Sequence[int], v: Sequence[int]) -> Vec:
    """Cross product in Z^3 (meet of two projective lines, or join of points)."""
    if len(u) != 3 or len(v) != 3:
        raise ValueError("cross3 needs 3-vectors")
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


# ---------------------------------------------------------------------------
# echelon forms over Q, stored as primitive integer rows
#
# The canonical form of a row space is its reduced row echelon form over Q
# with every row rescaled to a primitive integer vector with positive pivot.
# Two row sets span the same subspace iff their forms are equal tuples.


def _pivot_col(row: Vec) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    return len(row)


def echelon_insert(rows: tuple[Vec, ...], v: Sequence[int]) -> tuple[Vec, ...] | None:
    """Insert v into a canonical echelon form; None if v is already in the span."""
    w = list(v)
    for r in rows:
        p = _pivot_col(r)
        if w[p]:
            c, pv = w[p], r[p]
            w = [wi * pv - ri * c for wi, ri in zip(w, r)]
    if not any(w):
        return None
    wt = primitive_normalize(w)
    p_new = _pivot_col(wt)
    out = []
    for r in rows:
        c = r[p_new]
        if c:
            pv = wt[p_new]
            r = primitive_normalize(tuple(ri * pv - wi * c for ri, wi in zip(r, wt)))
        out.append(r)
    out.append(wt)
    out.sort(key=_pivot_col)
    return tuple(out)


def echelon_form(rows: Iterable[Sequence[int]]) -> tuple[Vec, ...]:
    ech: tuple[Vec, ...] = ()
    for row in rows:
        nxt = echelon_insert(ech, row)
        if nxt is not None:
            ech = nxt
    return ech


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank over Q by Bareiss's fraction-free forward elimination.

    Rows are taken in input order.  Each is reduced against the pivot rows
    kept so far, step k multiplying by the pivot of step k and dividing by
    that of step k - 1; the division is exact, and every entry is a minor of
    the input (Sylvester's identity), so entries grow no further than minors
    do.  A row left nonzero is kept, with its first nonzero entry as pivot.
    Stops at full column rank.
    """
    kept: list[tuple[int, list[int]]] = []
    for row in matrix:
        w = list(row)
        prev = 1
        for c, r in kept:
            p, x = r[c], w[c]
            w = [(p * wi - x * ri) // prev for wi, ri in zip(w, r)]
            prev = p
        c = next((j for j, x in enumerate(w) if x), None)
        if c is not None:
            kept.append((c, w))
            if len(kept) == len(w):
                break
    return len(kept)

