"""Exact feasibility of homogeneous strict linear systems.

The primitive here decides, in exact integer arithmetic, whether a system
r . x > 0  (one row r per constraint, x free) has a solution, and produces
a witness when it does.  The solution set is an open cone, so only the
direction of a witness matters: witnesses are primitive integer vectors,
and a positive multiple of one is as good as the vector itself.

By Gordan's theorem exactly one of the following holds:

  (a)  some x satisfies  r . x > 0  for every row r,
  (b)  some convex combination of the rows is the zero vector.

We run phase-one simplex on system (b): the columns are (r, 1) for the
rows r, the right-hand side is b = (0, ..., 0, 1), and the objective is the
sum of dim + 1 artificial variables.  If its optimum is zero, (b) holds and
the input is infeasible.  Otherwise the phase-one dual y has y . (r, 1) <= 0
for every row and y_dim > 0, so x = -y[:dim] has r . x >= y_dim > 0 and,
made primitive, is an exact witness for (a).

The simplex is revised: its state is a `PhaseOneBasis` holding the basic
column ids, den * B^-1 and den * B^-1 b as integer arrays, and their shared
denominator den > 0.  Pivots are fraction-free (every division is checked
exact).  The dual is read off the basis: den * y is the sum of the rows of
den * B^-1 whose basic column is artificial, and a column (r, 1) prices in
when y . (r, 1) > 0.  Only lambda columns enter; an artificial that has left
stays at zero, which keeps every point with all artificials zero, so the
optimum is still zero exactly when (b) holds.  Bland's rule in one fixed
order, every lambda by row index and then every artificial, picks the
entering column and breaks ties in the ratio test, so a run is finite from
any primal feasible basis.  More rows only add columns, so a basis left by
a system stays primal feasible for every system that extends it:
`feasible_point` restarts from such a basis when given one and from the
all-artificial basis otherwise, and it is the only solver.

`walk_sign_vectors` is the depth-first search over sign prefixes shared by
the projective sign-vector oracle and the toric cube-cell enumeration.  A
child reuses its parent's witness, and its basis, whenever the witness lies
strictly on the required side of the next row.  Otherwise it solves its
program warm, from a copy of the basis of its nearest solved ancestor, which
is one to a few columns short of optimal; in the walk that takes about two
pivots, where a cold start takes six or seven.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterator, Sequence

from .exactlin import Vec, dot, primitive_scale


class TooLargeError(ValueError):
    """An exact engine's size guard refuses the instance."""


class PhaseOneBasis:
    """A primal feasible basis of the Gordan phase-one program in dim variables.

    Row i of the basis holds column `ids[i]`: j >= 0 is the column (rows[j], 1)
    and a negative id ~t is artificial t.  `inv` is den * B^-1 and `rhs` is
    den * B^-1 b, both integer, with den > 0.  A new basis is all-artificial.
    """

    __slots__ = ("ids", "inv", "rhs", "den")

    def __init__(self, dim: int):
        m = dim + 1
        self.ids = [~t for t in range(m)]
        self.inv = [[int(i == j) for j in range(m)] for i in range(m)]
        self.rhs = [0] * dim + [1]
        self.den = 1

    def copy(self) -> "PhaseOneBasis":
        other = PhaseOneBasis.__new__(PhaseOneBasis)
        other.ids = self.ids[:]
        other.inv = [row[:] for row in self.inv]
        other.rhs = self.rhs[:]
        other.den = self.den
        return other


def feasible_point(rows: Sequence[Sequence[int]], dim: int,
                   basis: PhaseOneBasis | None = None) -> Vec | None:
    """Primitive integer x with r . x > 0 for every row, or None when none exists.

    Rows are integer; a row of length other than `dim`, or with an entry whose
    type is not int, is refused with ValueError.
    With no rows every x qualifies and the zero vector is returned.  A given
    `basis` must be primal feasible for these rows, as any basis left by a
    call on a prefix of them is; it is pivoted in place to the optimum.
    Without one the solve starts from the all-artificial basis.
    """
    for r in rows:
        if len(r) != dim:
            raise ValueError(f"row {tuple(r)} does not have length {dim}")
    if not all(type(a) is int for r in rows for a in r):
        raise ValueError("rows must have int entries; clear denominators first")
    if not rows:
        return (0,) * dim
    m = dim + 1
    if basis is None:
        basis = PhaseOneBasis(dim)
    elif len(basis.ids) != m:
        raise ValueError(f"basis is for {len(basis.ids) - 1} variables, not {dim}")
    cols = [(*r, 1) for r in rows]
    k = len(cols)
    ids, inv, rhs = basis.ids, basis.inv, basis.rhs

    def order(c: int) -> int:  # Bland: lambdas by index, then artificials
        return c if c >= 0 else k + ~c

    while True:
        y = [0] * m  # den * dual: the rows of den * B^-1 basic in an artificial
        for i in range(m):
            if ids[i] < 0:
                y = list(map(add, y, inv[i]))
        for q, col in enumerate(cols):
            if sum(map(mul, y, col)) > 0:
                break
        else:
            break
        u = [sum(map(mul, row, col)) for row in inv]
        p = None
        for i in range(m):
            if u[i] <= 0:
                continue
            if p is None:
                p = i
                continue
            lhs = rhs[i] * u[p]
            rhs_p = rhs[p] * u[i]
            if lhs < rhs_p or (lhs == rhs_p and order(ids[i]) < order(ids[p])):
                p = i
        if p is None:
            raise RuntimeError("phase-one objective unbounded; sign error")
        piv, den = u[p], basis.den
        prow, prhs = inv[p], rhs[p]
        for i in range(m):
            if i == p:
                continue
            c, row = u[i], inv[i]
            for j in range(m):
                row[j], rem = divmod(row[j] * piv - c * prow[j], den)
                if rem:
                    raise RuntimeError("integer pivot lost exactness")
            rhs[i], rem = divmod(rhs[i] * piv - c * prhs, den)
            if rem:
                raise RuntimeError("integer pivot lost exactness")
        basis.den = piv
        ids[p] = q

    if not any(rhs[i] for i in range(m) if ids[i] < 0):
        return None  # Gordan certificate exists: the cone is empty
    if y[dim] <= 0:
        raise RuntimeError("inconsistent phase-one dual")
    x = [-v for v in y[:dim]]
    if any(sum(map(mul, r, x)) <= 0 for r in rows):
        raise RuntimeError("witness verification failed")
    return primitive_scale(x)


def walk_sign_vectors(base_rows: Sequence[Vec], witness: Vec, rows: Sequence[Vec],
                      dim: int) -> Iterator[tuple[tuple[int, ...], Vec]]:
    """Every feasible strict sign vector of `rows` under the base rows.

    Yields (signs, x) for each s in {+1, -1}^len(rows) such that some x has
    b . x > 0 for every base row b and s_i * (rows[i] . x) > 0 for every i;
    x is such a point.  `witness` must satisfy the base rows strictly.  A
    generator, so callers that only count leaves never hold them all.

    Each stack entry carries the basis of its nearest solved ancestor (the
    all-artificial basis above the first solve).  A child that keeps its
    parent's witness keeps that basis too; a child that solves pivots a copy
    of it, so siblings never share a basis that one of them changed.
    """
    stack = [((), tuple(base_rows), witness, PhaseOneBasis(dim))]
    while stack:
        signs, held, x, basis = stack.pop()
        depth = len(signs)
        if depth == len(rows):
            yield signs, x
            continue
        row = rows[depth]
        val = dot(row, x)
        for sign in (1, -1):
            grown = held + (row if sign == 1 else tuple(-a for a in row),)
            if sign * val > 0:
                stack.append((signs + (sign,), grown, x, basis))
                continue
            solved = basis.copy()
            child = feasible_point(grown, dim, solved)
            if child is not None:
                stack.append((signs + (sign,), grown, child, solved))
