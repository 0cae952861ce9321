"""Reference region counts computed without the package's engines.

The benchmark checks every answer of the engine it times against one of
these.  They share no code with `chambers`: inputs arrive as plain integer
tuples and `Fraction`s, and all arithmetic is done here.

* `general_position_count`: sum_{k<=d} C(n-1, k) regions for n hyperplanes
  in general position in RP^d.
* `projective_regions`: deletion-restriction.  Adding a hyperplane H to a
  nonempty arrangement in RP^d (d >= 2) splits one region for every region
  of H minus the traces of the earlier hyperplanes, and the first hyperplane
  splits nothing (RP^d minus a hyperplane is one cell); on RP^1, m >= 1
  points cut the circle into m arcs.
* `torus2_regions`: Euler's formula on T^2.  Once two directions are present
  every region is a disc and every curve carries a crossing point, so
  V - E + F = 0 with V the distinct crossing points and E the sum over curves
  of the distinct points on each curve.
* `toric_construction_a_count`, `toric_construction_b_count`: the closed
  forms n - k and 2(n - d) + k of the two toric families.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Sequence

Vec = tuple[int, ...]


def general_position_count(n: int, d: int) -> int:
    return sum(comb(n - 1, k) for k in range(d + 1))


def toric_construction_a_count(n: int, d: int, k: int) -> int:
    return n - k


def toric_construction_b_count(n: int, d: int, k: int) -> int:
    return 2 * (n - d) + k


def _normalize(v: Sequence[int]) -> Vec:
    """Primitive integer vector with first nonzero entry positive."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero covector: hyperplanes are not distinct")
    lead = next(x for x in v if x)
    if lead < 0:
        g = -g
    return tuple(x // g for x in v)


def _traces(u: Vec, earlier: Sequence[Vec]) -> list[Vec]:
    """Distinct traces of the earlier hyperplanes on the hyperplane u.

    Coordinates on u come from the kernel basis u[p] e_j - u[j] e_p
    (j != p), where p is the first nonzero position of u.
    """
    p = next(i for i, x in enumerate(u) if x)
    seen: dict[Vec, None] = {}
    for v in earlier:
        w = [u[p] * v[j] - u[j] * v[p] for j in range(len(u)) if j != p]
        seen[_normalize(w)] = None
    return list(seen)


def _regions_rp2(lines: Sequence[Vec]) -> int:
    total = 1
    for i in range(1, len(lines)):
        a = lines[i]
        points = set()
        for b in lines[:i]:
            points.add(_normalize((a[1] * b[2] - a[2] * b[1],
                                   a[2] * b[0] - a[0] * b[2],
                                   a[0] * b[1] - a[1] * b[0])))
        total += len(points)
    return total


def projective_regions(d: int, covectors: Sequence[Sequence[int]]) -> int:
    """Regions of RP^d cut by pairwise distinct hyperplanes u . x = 0."""
    hyperplanes = [_normalize(u) for u in covectors]
    if len(set(hyperplanes)) != len(hyperplanes):
        raise ValueError("hyperplanes are not distinct")
    return _regions(d, hyperplanes)


def _regions(d: int, hyperplanes: Sequence[Vec]) -> int:
    if d == 1:
        return max(len(hyperplanes), 1)
    if d == 2:
        return _regions_rp2(hyperplanes)
    total = 1
    for i in range(1, len(hyperplanes)):
        total += _regions(d - 1, _traces(hyperplanes[i], hyperplanes[:i]))
    return total


def torus2_regions(subtori: Sequence[tuple[Sequence[int], Fraction]]) -> int:
    """Regions of T^2 cut by distinct circles a . x = c (mod 1).

    Normals must be primitive and span two directions.
    """
    curves = []
    for a, c in subtori:
        a1, a2 = a
        if gcd(a1, a2) != 1:
            raise ValueError(f"normal {tuple(a)} is not primitive")
        curves.append((a1, a2, Fraction(c)))
    on_curve: list[set[tuple[Fraction, Fraction]]] = [set() for _ in curves]
    for i, (a1, a2, c) in enumerate(curves):
        for j in range(i + 1, len(curves)):
            b1, b2, e = curves[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue  # parallel circles are disjoint or equal
            k = abs(det)
            # solutions of a.x = c + s, b.x = e + t; s, t mod |det| reach
            # every crossing point modulo the lattice
            for s in range(k):
                u = c + s
                for t in range(k):
                    v = e + t
                    point = (Fraction(b2 * u - a2 * v, det) % 1,
                             Fraction(a1 * v - b1 * u, det) % 1)
                    on_curve[i].add(point)
                    on_curve[j].add(point)
    if any(not points for points in on_curve):
        raise ValueError("normals span only one direction")
    vertices = set().union(*on_curve)
    edges = sum(len(points) for points in on_curve)
    return edges - len(vertices)
