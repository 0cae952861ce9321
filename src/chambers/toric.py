"""Region counting for arrangements of codimension-one subtori in T^d.

A subtorus is {x : a . x = c (mod 1)} for a primitive integer normal a and
a rational offset c.

`count_regions_toric` is a deletion-restriction sweep with the shape of
`projective._sweep` (Ehrenborg, Readdy and Slone, *Affine and toric
hyperplane arrangements*, DCG 41, 2009; Moci, *A Tutte polynomial for
toric arrangements*, Trans. AMS 364, 2012).  It adds the subtori one at a
time: chi(t) = t^d - sum_i chi_i(t), where chi_i belongs to the traces that
H_1..H_(i-1) leave on H_i.  A unimodular change of coordinates maps each
H_i onto T^(d-1), where every earlier subtorus leaves g parallel subtori
(g = 0 when it is parallel to H_i) and equal traces merge; on T^1, n points
give t - n.  The count is |lowest nonzero coefficient of chi|.  The sweep
builds no cell, lifts nothing and solves no LP; `SWEEP_GUARD` caps its
work.

`torus_decomposition`, the cube engine, is the exact cross-check.  It
works in the closed fundamental cube [0,1]^d:

1. lift each subtorus to the finitely many affine hyperplanes a . x = c + t
   that meet the cube;
2. enumerate the open cells the lifted hyperplanes cut the open cube into
   (the shared sign-vector walk `feasibility.walk_sign_vectors`, one strict
   sign per lifted hyperplane, homogenized so the cube constraints become
   rows of the same strict integer system "r . z > 0");
3. glue cells across opposite facets: each full-dimensional cell of a
   facet's induced arrangement has one incident cube cell on each side of
   the identification, found by stepping the facet cell's witness point an
   infinitesimal along the facet normal (the step is symbolic, so this is
   exact; the witness is the walk's integer point z = (x, w), so no
   rational arithmetic is done per cell); union-find over cube cells then
   counts torus regions.

A facet contained in a lifted hyperplane lies on the arrangement itself
and glues nothing.  The closed-cube lift guarantees the induced facet
arrangements on opposite facets agree, so witnesses translate across.
`DIMENSION_GUARD` and `LIFT_GUARD` cap it.

`count_regions_toric_grid` is a heuristic kept only for the benchmark's
hooks, and no count or check in the package uses it.  It samples a shifted
uniform grid, joins axis neighbours not separated by a subtorus, and
reports the component count once two successive refinements agree.  Its
stable answer can be wrong: on the T^2 circles {(1,-2), 0}, {(1,1), 3/4},
{(1,-1), 0}, {(1,-2), 3/4}, {(1,2), 0} it gives 22, and the exact count is
20.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .exactlin import (Vec, dot, format_rational, json_field, parse_int, parse_int_vector,
                       parse_rational, primitive_scale)
from .feasibility import TooLargeError, walk_sign_vectors

LIFT_GUARD = 24
DIMENSION_GUARD = 4
GRID_NODE_GUARD = 2 * 10 ** 7
SWEEP_GUARD = 60_000  # pairs examined plus traces made: about a second of sweep


class UnstableError(RuntimeError):
    """Grid counts at refinements R and 2R disagree; refine further."""


@dataclass(frozen=True)
class Subtorus:
    """Canonical form: primitive normal with positive leading entry, offset in [0,1).

    (a, c) and (-a, -c mod 1) describe the same subtorus and normalize to
    the same representative.  A non-primitive normal is refused: with
    g = gcd(a), {a . x = c} is g parallel subtori, not one.
    """

    normal: Vec
    offset: Fraction

    @staticmethod
    def make(normal: Sequence[int], offset: int | Fraction) -> "Subtorus":
        a = primitive_scale(normal)
        if a != tuple(normal):
            raise ValueError(f"normal {tuple(normal)} is not primitive")
        c = Fraction(offset)
        lead = next(x for x in a if x)
        if lead < 0:
            a = tuple(-x for x in a)
            c = -c
        return Subtorus(a, c % 1)

    def to_json(self) -> dict:
        return {"a": [str(x) for x in self.normal],
                "c": format_rational(self.offset)}


@dataclass(frozen=True)
class ToricArrangement:
    d: int
    subtori: tuple[Subtorus, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("torus dimension must be >= 1")
        if not self.subtori:
            raise ValueError("need at least one subtorus")
        for s in self.subtori:
            if len(s.normal) != self.d:
                raise ValueError(f"normal {s.normal} has wrong length for T^{self.d}")
        if len(set(self.subtori)) != len(self.subtori):
            raise ValueError("duplicate subtorus after canonicalization")

    @property
    def n(self) -> int:
        return len(self.subtori)

    @staticmethod
    def make(d: int, subtori: Iterable[tuple[Sequence[int], int | Fraction]]) -> "ToricArrangement":
        return ToricArrangement(d, tuple(Subtorus.make(a, c) for a, c in subtori))

    def to_json(self) -> dict:
        return {"type": "toric", "d": self.d,
                "subtori": [s.to_json() for s in self.subtori]}

    @staticmethod
    def from_json(data: dict) -> "ToricArrangement":
        if json_field(data, "type") != "toric":
            raise ValueError("not a toric arrangement file")
        subs = [(parse_int_vector(json_field(s, "a")), parse_rational(json_field(s, "c")))
                for s in json_field(data, "subtori", list)]
        return ToricArrangement.make(parse_int(json_field(data, "d")), subs)


def lift_to_cube(arr: ToricArrangement) -> list[tuple[Vec, Fraction]]:
    """All integer translates a . x = c + t meeting the closed unit cube."""
    lifted = []
    for s in arr.subtori:
        lo = sum(min(a, 0) for a in s.normal)
        hi = sum(max(a, 0) for a in s.normal)
        t = ceil(lo - s.offset)
        while s.offset + t <= hi:
            lifted.append((s.normal, s.offset + t))
            t += 1
    return lifted


# ---------------------------------------------------------------------------
# deletion-restriction sweep


def count_regions_toric(arr: ToricArrangement) -> int:
    """Exact number of connected components of T^d minus the subtori.

    The count is |lowest nonzero coefficient| of the characteristic
    polynomial: |chi(0)| when the normals span R^d, and otherwise chi is
    t^(d - r) times the chi of the essential arrangement in T^r.
    """
    chi = _sweep(arr.subtori, arr.d, [SWEEP_GUARD])
    return abs(next(c for c in chi if c))


def _sweep(subtori: Sequence[Subtorus], d: int, budget: list[int]) -> list[int]:
    """chi(t) of distinct subtori of T^d, as coefficients indexed by power.

    Adding a subtorus H subtracts the chi of the traces that the earlier
    subtori leave on H, a subtorus arrangement in T^(d-1).  On T^1, n
    points give t - n.
    """
    if d == 1:
        return [-len(subtori), 1]
    chi = [0] * d + [1]
    for i, h in enumerate(subtori):
        for power, c in enumerate(_sweep(_traces(h, subtori[:i], budget), d - 1, budget)):
            chi[power] -= c
    return chi


def _traces(h: Subtorus, earlier: Sequence[Subtorus], budget: list[int]) -> tuple[Subtorus, ...]:
    """The distinct subtori that `earlier` cut on H, in H's coordinates y.

    With V from `_unimodular_basis`, y -> c V[0] + sum_k y_k V[k] maps
    T^(d-1) onto H = {a . x = c}.  There K = {b . x = e} reads
    g p . y = e - c b . V[0] with bV[1:] = g p, p primitive: g parallel
    subtori if g > 0, none if bV[1:] = 0 (K is parallel to H).
    `budget[0]` is what the sweep may still spend; the pairs examined and
    the traces to be made are charged before any trace is made.
    """
    basis = _unimodular_basis(h.normal)
    forms = []
    for k in earlier:
        w = [dot(k.normal, v) for v in basis[1:]]
        g = gcd(*w)
        if g:
            r = k.offset - h.offset * dot(k.normal, basis[0])
            forms.append((tuple(x // g for x in w), g, r))
    budget[0] -= len(earlier) + sum(g for _, g, _ in forms)
    if budget[0] < 0:
        raise TooLargeError(f"the sweep needs more than {SWEEP_GUARD} pairs and traces")
    return tuple(dict.fromkeys(Subtorus.make(p, (r + j) / g)
                               for p, g, r in forms for j in range(g)))


def _unimodular_basis(a: Vec) -> list[Vec]:
    """Columns V[0..d-1] of a V in GL_d(Z) with a V = e_1, for a primitive a.

    Euclid's algorithm on the entries of a, run as integer column operations
    on the identity, leaves a single entry +-1; a . V[k] stays the k-th
    entry throughout.
    """
    d = len(a)
    row = list(a)
    cols = [[int(i == j) for i in range(d)] for j in range(d)]
    while True:
        live = [k for k in range(d) if row[k]]
        j = min(live, key=lambda k: abs(row[k]))
        if len(live) == 1:
            break
        for k in live:
            if k != j:
                q = row[k] // row[j]
                row[k] -= q * row[j]
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[j])]
    first = tuple(row[j] * x for x in cols[j])
    return [first] + [tuple(c) for k, c in enumerate(cols) if k != j]


# ---------------------------------------------------------------------------
# cube engine: the exact cross-check


def _enumerate_cells(dim: int, rows: Sequence[Vec]) -> list[tuple[tuple[int, ...], Vec]]:
    """Open cells of (0,1)^dim cut by the hyperplanes of the homogenized rows.

    Returns (signs, z) pairs: one strict sign per row (including rows whose
    hyperplane misses the cube, whose sign is constant) and an integer point
    z = (x, w) with w > 0 whose x / w lies in the cell.  In z the sign of
    a . x - b is the sign of row . z, and 0 < x_i < w gives the cube rows.
    """
    cube_rows = [tuple([0] * dim + [1])]  # w > 0 keeps the homogenization proper
    for i in range(dim):
        e = [0] * (dim + 1)
        e[i] = 1
        cube_rows.append(tuple(e))
        f = [0] * (dim + 1)
        f[i] = -1
        f[dim] = 1
        cube_rows.append(tuple(f))
    root = (1,) * dim + (2,)
    return list(walk_sign_vectors(cube_rows, root, rows, dim + 1))


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.count = size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.count -= 1


@dataclass(frozen=True)
class TorusRegionDecomposition:
    cube_cells: int
    glued_pairs: int
    f: int


def _stepped_signs(rows: Sequence[Vec], z: Vec, axis: int, direction: int) -> tuple[int, ...]:
    """Signs of the homogenized rows at z + eps * direction * e_axis, eps > 0 infinitesimal."""
    signs = []
    for r in rows:
        v = dot(r, z)
        if v == 0:
            v = r[axis] * direction
            if v == 0:
                raise RuntimeError("witness lies inside a hyperplane parallel to the step")
        signs.append(1 if v > 0 else -1)
    return tuple(signs)


def torus_decomposition(arr: ToricArrangement) -> TorusRegionDecomposition:
    if arr.d > DIMENSION_GUARD:
        raise TooLargeError(f"d = {arr.d} exceeds the dimension guard")
    lifted = lift_to_cube(arr)
    if len(lifted) > LIFT_GUARD:
        raise TooLargeError(f"{len(lifted)} lifted hyperplanes exceed the guard")
    d = arr.d
    rows = [(*(x * b.denominator for x in a), -b.numerator) for a, b in lifted]  # (a, -b) * den

    cells = _enumerate_cells(d, rows)
    index = {signs: i for i, (signs, _) in enumerate(cells)}
    uf = _UnionFind(len(cells))
    glued = 0

    unit = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    lifted_set = set(lifted)
    for axis in range(d):
        if (unit[axis], 0) in lifted_set:
            continue  # the facet pair lies on the arrangement; nothing glues
        # induced arrangement on the facet x_axis = 0: drop the axis column
        traces = [r[:axis] + r[axis + 1:] for r in rows]
        for _, q in _enumerate_cells(d - 1, traces):
            low = _stepped_signs(rows, q[:axis] + (0,) + q[axis:], axis, +1)
            high = _stepped_signs(rows, q[:axis] + (q[-1],) + q[axis:], axis, -1)
            uf.union(index[low], index[high])
            glued += 1
    return TorusRegionDecomposition(len(cells), glued, uf.count)


# ---------------------------------------------------------------------------
# grid cross-check


def _grid_component_count(arr: ToricArrangement, pitch_count: int) -> int:
    d = arr.d
    big_b = 2 + sum(sum(abs(a) for a in s.normal) for s in arr.subtori)
    scale = 2 * big_b ** d  # shift s_i = 1 / (2 B^i) in pitch units
    if pitch_count ** d > GRID_NODE_GUARD:
        raise TooLargeError(f"grid of {pitch_count ** d} nodes exceeds the guard")

    # int64 safety: the largest scaled value is bounded by scale * (|a| + 1) * N
    worst = max(
        scale * pitch_count * (sum(abs(a) for a in s.normal) + 1)
        for s in arr.subtori)
    if worst >= 2 ** 62:
        raise TooLargeError("grid arithmetic would overflow int64")

    shape = (pitch_count,) * d
    node_count = pitch_count ** d
    base = np.arange(node_count, dtype=np.int64).reshape(shape)
    labels_rows = []
    labels_cols = []
    axes_coords = [np.arange(pitch_count, dtype=np.int64) for _ in range(d)]

    blocked = [np.zeros(shape, dtype=bool) for _ in range(d)]
    for s in arr.subtori:
        c_scaled = s.offset * pitch_count
        if c_scaled.denominator != 1:
            raise RuntimeError("grid pitch must clear offset denominators")
        phi = sum(a * big_b ** (d - 1 - i) for i, a in enumerate(s.normal))
        const = -int(c_scaled) * scale + phi
        values = np.full(shape, const, dtype=np.int64)
        for i, a in enumerate(s.normal):
            if a:
                view = (a * scale) * axes_coords[i]
                reshape = [1] * d
                reshape[i] = pitch_count
                values = values + view.reshape(reshape)
        floors = values // (scale * pitch_count)
        for i in range(d):
            rolled = np.roll(floors, -1, axis=i)
            if s.normal[i]:
                wrap = [slice(None)] * d
                wrap[i] = pitch_count - 1
                rolled[tuple(wrap)] += s.normal[i]
            blocked[i] |= floors != rolled
    for i in range(d):
        ok = ~blocked[i]
        labels_rows.append(base[ok].astype(np.int32))
        labels_cols.append(np.roll(base, -1, axis=i)[ok].astype(np.int32))

    rows = np.concatenate(labels_rows)
    cols = np.concatenate(labels_cols)
    graph = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(node_count, node_count))
    n_components, _ = connected_components(graph, directed=False)
    return int(n_components)


def count_regions_toric_grid(arr: ToricArrangement, refinement: int = 1) -> int:
    """Heuristic component count on a shifted grid, stable across a doubling.

    The grid pitch is 1/(R*Q) with Q the lcm of all offset denominators and
    nonzero normal entries; samples are offset by 1/(2 B^i) per coordinate
    with B larger than any achievable |sum a_i s_i| denominator pattern, so
    no sample lies on a subtorus.  Raises UnstableError when counts at R
    and 2R differ.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    q = 1
    for s in arr.subtori:
        q = lcm(q, s.offset.denominator)
        for a in s.normal:
            if a:
                q = lcm(q, abs(a))
    count_r = _grid_component_count(arr, refinement * q)
    count_2r = _grid_component_count(arr, 2 * refinement * q)
    if count_r != count_2r:
        raise UnstableError(
            f"grid counts disagree: {count_r} at R={refinement}, {count_2r} at 2R")
    return count_r


# ---------------------------------------------------------------------------
# file I/O


def load_toric(path: str) -> ToricArrangement:
    with open(path) as fh:
        return ToricArrangement.from_json(json.load(fh))


def dump_toric(arr: ToricArrangement, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(arr.to_json(), fh, indent=1)
        fh.write("\n")
