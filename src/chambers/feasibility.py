"""Exact feasibility of homogeneous strict linear systems.

The primitive here decides, in exact integer arithmetic, whether a system
r . x > 0  (one row r per constraint, x free) has a solution, and produces
a witness when it does.  The solution set is an open cone, so only the
direction of a witness matters: witnesses are primitive integer vectors,
and a positive multiple of one is as good as the vector itself.

By Gordan's theorem exactly one of the following holds:

  (a)  some x satisfies  r . x > 0  for every row r,
  (b)  some convex combination of the rows is the zero vector.

We run phase-one simplex on system (b).  If its optimum is zero, (b) holds
and the input is infeasible.  Otherwise the dual solution of the phase-one
program separates the rows from the origin and -pi (suitably scaled) is an
exact witness for (a).

The tableau is kept as an integer matrix with a shared denominator and
updated by fraction-free (integer) pivoting, with Bland's rule, so runs are
exact, terminating, and fast enough to be called tens of thousands of times
by the enumeration walk.

`walk_sign_vectors` is that walk, shared by the projective sign-vector
oracle and the toric cube-cell enumeration: a depth-first search over sign
prefixes that reuses the parent's witness whenever it lies strictly on the
required side of the next row, and solves a program only when it does not.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .exactlin import Scalar, Vec, dot, integerize, primitive_scale


class TooLargeError(ValueError):
    """An exact engine's size guard refuses the instance."""


def feasible_point(rows: Sequence[Sequence[Scalar]], dim: int) -> Vec | None:
    """Primitive integer x with r . x > 0 for every row, or None when none exists.

    With no rows every x qualifies and the zero vector is returned.
    """
    if not rows:
        return (0,) * dim
    ints = [integerize(r) for r in rows]
    k = len(ints)
    m = dim + 1  # equations: sum_j lambda_j * B_j = 0  and  sum_j lambda_j = 1

    # columns: k lambdas, m artificials, rhs
    tab = []
    for i in range(dim):
        tab.append([ints[j][i] for j in range(k)]
                   + [1 if t == i else 0 for t in range(m)] + [0])
    tab.append([1] * k + [1 if t == dim else 0 for t in range(m)] + [1])
    # reduced-cost row (z_j - c_j) for the min-sum-of-artificials objective
    obj = [sum(tab[i][j] for i in range(m)) for j in range(k)] + [0] * m + [1]
    basis = list(range(k, k + m))
    den = 1

    while True:
        q = next((j for j in range(k) if obj[j] > 0), None)  # Bland; lambdas only
        if q is None:
            break
        p = None
        for i in range(m):
            piv = tab[i][q]
            if piv <= 0:
                continue
            if p is None:
                p = i
            else:
                lhs = tab[i][-1] * tab[p][q]
                rhs = tab[p][-1] * piv
                if lhs < rhs or (lhs == rhs and basis[i] < basis[p]):
                    p = i
        if p is None:
            raise RuntimeError("phase-one objective unbounded; sign error")
        piv = tab[p][q]
        prow = tab[p]
        for r in range(m):
            if r == p:
                continue
            row = tab[r]
            c = row[q]
            for j in range(k + m + 1):
                num = row[j] * piv - c * prow[j]
                val, rem = divmod(num, den)
                if rem:
                    raise RuntimeError("integer pivot lost exactness")
                row[j] = val
        c = obj[q]
        for j in range(k + m + 1):
            num = obj[j] * piv - c * prow[j]
            val, rem = divmod(num, den)
            if rem:
                raise RuntimeError("integer pivot lost exactness")
            obj[j] = val
        den = piv
        basis[p] = q

    if obj[-1] == 0:
        return None  # Gordan certificate exists: the cone is empty

    # dual of phase one: pi_i = (obj[k+i] + den) / den, with den > 0; the
    # witness -pi / pi_dim is a positive multiple of -(obj[k+i] + den)
    if obj[k + dim] + den <= 0:
        raise RuntimeError("inconsistent phase-one dual")
    x = [-(obj[k + i] + den) for i in range(dim)]
    if any(dot(r, x) <= 0 for r in ints):
        raise RuntimeError("witness verification failed")
    return primitive_scale(x)


def walk_sign_vectors(base_rows: Sequence[Vec], witness: Vec, rows: Sequence[Vec],
                      dim: int) -> Iterator[tuple[tuple[int, ...], Vec]]:
    """Every feasible strict sign vector of `rows` under the base rows.

    Yields (signs, x) for each s in {+1, -1}^len(rows) such that some x has
    b . x > 0 for every base row b and s_i * (rows[i] . x) > 0 for every i;
    x is such a point.  `witness` must satisfy the base rows strictly.  A
    generator, so callers that only count leaves never hold them all.
    """
    stack = [((), tuple(base_rows), witness)]
    while stack:
        signs, held, x = stack.pop()
        depth = len(signs)
        if depth == len(rows):
            yield signs, x
            continue
        row = rows[depth]
        val = dot(row, x)
        for sign in (1, -1):
            signed = row if sign == 1 else tuple(-a for a in row)
            child = x if sign * val > 0 else feasible_point(held + (signed,), dim)
            if child is not None:
                stack.append((signs + (sign,), held + (signed,), child))
