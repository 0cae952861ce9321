"""Exact rational scalars, integer vectors, and small dense matrices.

Every geometric module in this package does its arithmetic here.  Rationals
are `fractions.Fraction` (arbitrary precision, always reduced, positive
denominator); vectors are tuples of Python ints; matrices are sequences of
rows whose entries may be ints or Fractions.

Elimination is fraction free (integer preserving): rows are cleared to
integers up front and kept primitive after every combination step, so
intermediate entries stay small.  Pivoting is deterministic (first nonzero
entry in row-major order), which makes echelon forms, ranks and kernel bases
reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[int, ...]
Scalar = int | Fraction


class ZeroVectorError(ValueError):
    """Raised when an operation requires a nonzero vector."""


# ---------------------------------------------------------------------------
# rationals


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (decimal integers) into an exact Fraction."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational like \"p/q\", got {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def parse_int(value) -> int:
    """An int from a JSON integer or decimal string; floats and bools are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def parse_int_vector(value) -> Vec:
    """An integer vector from a JSON list of integers or decimal strings."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of integers, got {value!r}")
    return tuple(parse_int(x) for x in value)


def json_field(data, key: str, kind: type | tuple[type, ...] = object):
    """data[key], refusing a non-object, a missing key or a value not of `kind`."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing field {key!r}")
    if not isinstance(data[key], kind):
        raise ValueError(f"field {key!r} has the wrong type {type(data[key]).__name__}")
    return data[key]


def format_rational(value: Scalar) -> str:
    """Serialize exactly, as "p/q" with the "/q" omitted when q == 1."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# integer vectors


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def primitive_scale(v: Sequence[int]) -> Vec:
    """Divide out the gcd of the entries, keeping the sign pattern."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ZeroVectorError("zero vector has no primitive form")
    return tuple(x // g for x in v)


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
            return tuple(-y for y in w)
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


def integerize(row: Sequence[Scalar]) -> Vec:
    """Scale a row of ints/Fractions by a positive constant to integer entries."""
    denoms = [x.denominator for x in row if isinstance(x, Fraction)]
    if not denoms:
        return tuple(int(x) for x in row)
    m = lcm(*denoms)
    out = []
    for x in row:
        y = x * m
        out.append(int(y) if isinstance(y, Fraction) else y)
    return tuple(out)


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


def echelon_insert(rows: tuple[Vec, ...], v: Sequence[Scalar]) -> tuple[Vec, ...] | None:
    """Insert v into a canonical echelon form; None if v is already in the span."""
    w = list(integerize(v))
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


def echelon_form(rows: Iterable[Sequence[Scalar]]) -> tuple[Vec, ...]:
    ech: tuple[Vec, ...] = ()
    for row in rows:
        nxt = echelon_insert(ech, row)
        if nxt is not None:
            ech = nxt
    return ech


def in_rowspace(rows: tuple[Vec, ...], v: Sequence[Scalar]) -> bool:
    w = list(integerize(v))
    for r in rows:
        p = _pivot_col(r)
        if w[p]:
            c, pv = w[p], r[p]
            w = [wi * pv - ri * c for wi, ri in zip(w, r)]
    return not any(w)


def rank(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over Q via fraction-free elimination."""
    return len(echelon_form(matrix))


def kernel_basis(matrix: Sequence[Sequence[Scalar]], ncols: int | None = None) -> list[Vec]:
    """Basis of the right null space, as primitive integer vectors.

    The basis comes from the reduced echelon form: one vector per free
    column, in ascending column order, so the result is deterministic.
    """
    rows = [r for r in matrix]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    ech = echelon_form(rows)
    pivots = [_pivot_col(r) for r in ech]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        x = [Fraction(0)] * ncols
        x[c] = Fraction(1)
        # reduced form: each row only involves its pivot and free columns
        for r, p in zip(ech, pivots):
            if r[c]:
                x[p] = Fraction(-r[c], r[p])
        basis.append(primitive_normalize(integerize(x)))
    return basis
