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

A child found empty leaves a Gordan certificate in its optimal basis: the
basic lambda columns with rhs > 0 weigh their signed rows so that the rows
sum to zero and the weights to den.  The walk checks both sums exactly (a
failure is a `RuntimeError`, like a witness that fails) and files the
certificate under the child's depth and side by the depths and signs of the
walked rows it uses.  A later child at that depth and side whose signs agree
there is empty by the same certificate and costs no program.  The file lives
for one walk.

Work is bounded by a one-entry budget list that the caller starts at
`SWEEP_GUARD` and that only `charge` spends.  Before any pivot, a program is
charged len(rows) (dim + 1) entries for its columns and (dim + 1)^3 for
pivoting den * B^-1, and TooLargeError is raised once the budget is spent.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, and_, mul
from typing import Iterator, Sequence

from .exactlin import Vec, dot, primitive_scale


class TooLargeError(ValueError):
    """An exact engine's work budget refuses the instance."""


# The one work budget of all four exact engines, charged before the work: the
# RP^d and T^d sweeps charge each restriction's integer entries, the oracle
# and the cube engine each program's.  On a shared 2-CPU Linux machine
# (Python 3.11) the RP^d sweep made 1.7 (GP(25, 10)) to 2.6 M entries/s, the
# T^d sweep 2.5 to 6.5 M/s, the oracle 1.2 (GP(40, 2)) to 2.5 M/s and the cube
# engine 4.9 to 7.4 M/s, so this is at most about 0.7 s of work; the costliest
# first-four witness, at (d, n) = (10, 25), charges 485,373 entries.
SWEEP_GUARD = 800_000


def charge(budget: list[int], entries: int, what: str) -> None:
    """Spend `entries` of `budget[0]`; past zero, raise TooLargeError naming `what`."""
    budget[0] -= entries
    if budget[0] < 0:
        raise TooLargeError(f"{what} more than {SWEEP_GUARD} entries")


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


def feasible_point(rows: Sequence[Sequence[int]], dim: int, budget: list[int],
                   basis: PhaseOneBasis | None = None) -> Vec | None:
    """Primitive integer x with r . x > 0 for every row, or None when none exists.

    Rows are integer; a row of length other than `dim`, or with an entry whose
    type is not int, is refused with ValueError.
    With no rows every x qualifies and the zero vector is returned.  A given
    `basis` must be primal feasible for these rows, as any basis left by a
    call on a prefix of them is; it is pivoted in place to the optimum.
    Without one the solve starts from the all-artificial basis.  Before any
    pivot the solve charges its entries to `budget[0]` (see the module).
    """
    for r in rows:
        if len(r) != dim:
            raise ValueError(f"row {tuple(r)} does not have length {dim}")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise ValueError("rows must have int entries; clear denominators first")
    if not rows:
        return (0,) * dim
    m = dim + 1
    if basis is None:
        basis = PhaseOneBasis(dim)
    elif len(basis.ids) != m:
        raise ValueError(f"basis is for {len(basis.ids) - 1} variables, not {dim}")
    k = len(rows)
    charge(budget, k * m + m ** 3, "the linear programs need")
    ids, inv, rhs = basis.ids, basis.inv, basis.rhs

    while True:
        # den * dual: the sum of the rows of den * B^-1 basic in an artificial.
        # With one such row y is that row itself, read before the pivot below.
        y = None
        for i in range(m):
            if ids[i] < 0:
                y = inv[i] if y is None else list(map(add, y, inv[i]))
        if y is None:
            break  # every artificial has left, so the optimum is zero
        # (r, 1) prices in when y[:dim] . r > -y[dim]; map stops at the shorter
        bar = -y[dim]
        for q, r in enumerate(rows):
            if sum(map(mul, y, r)) > bar:
                break
        else:
            break
        u = [sum(map(mul, row, r)) + row[dim] for row in inv]
        p = None
        for i in range(m):
            if u[i] <= 0:
                continue
            if p is None:
                p = i
                continue
            lhs = rhs[i] * u[p]
            rhs_p = rhs[p] * u[i]
            if lhs < rhs_p or (lhs == rhs_p  # Bland: lambdas by index, then artificials
                               and (ids[i] if ids[i] >= 0 else k + ~ids[i])
                               < (ids[p] if ids[p] >= 0 else k + ~ids[p])):
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


def _certificate_support(held: Sequence[Vec], basis: PhaseOneBasis, dim: int) -> list[int]:
    """Indices into `held` of the Gordan certificate an infeasible solve left.

    At an optimum of value zero the basic lambda columns with rhs > 0 weigh
    their rows by rhs: the weights add up to den and the weighted rows to the
    zero vector.  Both sums are checked exactly before the support is used.
    """
    support = [(j, w) for j, w in zip(basis.ids, basis.rhs) if j >= 0 and w > 0]
    if (sum(w for _, w in support) != basis.den or basis.den <= 0
            or any(sum(w * held[j][c] for j, w in support) for c in range(dim))):
        raise RuntimeError("certificate verification failed")
    return [j for j, _ in support]


def walk_sign_vectors(base_rows: Sequence[Vec], witness: Vec, rows: Sequence[Vec],
                      dim: int, budget: list[int]) -> Iterator[tuple[tuple[int, ...], Vec]]:
    """Every feasible strict sign vector of `rows` under the base rows.

    Yields (signs, x) for each s in {+1, -1}^len(rows) such that some x has
    b . x > 0 for every base row b and s_i * (rows[i] . x) > 0 for every i;
    x is such a point.  `witness` must satisfy the base rows strictly.  A
    generator, so callers that only count leaves never hold them all.

    Each stack entry carries the basis of its nearest solved ancestor (the
    all-artificial basis above the first solve).  A child that keeps its
    parent's witness keeps that basis too; a child that solves pivots a copy
    of it, so siblings never share a basis that one of them changed.

    A child found empty files its verified certificate under (depth, side)
    by the depths of the walked rows in its support (base rows are always
    held), and a later child there whose signs match at those depths is not
    solved.  Sets of depths are bit masks, and the signs of a prefix are the
    mask `plus` of its +1 depths.
    """
    n, nbase = len(rows), len(base_rows)
    negated = [tuple(-a for a in row) for row in rows]
    refuted: dict[tuple[int, int], dict[int, set[int]]] = {}
    stack = [(0, tuple(base_rows), witness, PhaseOneBasis(dim))]
    while stack:
        plus, held, x, basis = stack.pop()
        depth = len(held) - nbase
        if depth == n:
            yield tuple(1 if plus >> t & 1 else -1 for t in range(n)), x
            continue
        row = rows[depth]
        val = dot(row, x)
        for sign, child_plus, signed in ((1, plus | 1 << depth, row),
                                         (-1, plus, negated[depth])):
            grown = held + (signed,)
            if sign * val > 0:
                stack.append((child_plus, grown, x, basis))
                continue
            known = refuted.get((depth, sign))
            # refuted when plus & mask is a pattern recorded under some mask
            if known and any(map(set.__contains__, known.values(),
                                 map(and_, known, repeat(plus)))):
                continue
            solved = basis.copy()
            child = feasible_point(grown, dim, budget, solved)
            if child is not None:
                stack.append((child_plus, grown, child, solved))
                continue
            mask = 0
            for j in _certificate_support(grown, solved, dim):
                if nbase <= j < nbase + depth:
                    mask |= 1 << (j - nbase)
            refuted.setdefault((depth, sign), {}).setdefault(mask, set()).add(plus & mask)
