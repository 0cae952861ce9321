"""Region counting for arrangements of codimension-one subtori in T^d.

A subtorus is {x : a . x = c (mod 1)} for a primitive integer normal a and
a rational offset c.  Below the input boundary it is the integer key
(p, num, den): p is a with a positive leading entry and num/den is c,
reduced, with 0 <= num < den.  `_canonical` alone puts keys in this form,
for `subtorus` and for the sweep's traces.  `Fraction` appears only where
`make`, `from_json` and `to_json` convert offsets.

`count_regions_toric` is a deletion-restriction sweep with the shape of
`projective._sweep` (Ehrenborg, Readdy and Slone, *Affine and toric
hyperplane arrangements*, DCG 41, 2009; Moci, *A Tutte polynomial for
toric arrangements*, Trans. AMS 364, 2012).  It adds the subtori one at a
time: chi(t) = t^d - sum_i chi_i(t), where chi_i belongs to the traces that
H_1..H_(i-1) leave on H_i.  A unimodular change of coordinates maps each
H_i onto T^(d-1), where every earlier subtorus leaves g parallel subtori
(g = 0 when it is parallel to H_i) and equal traces merge; on T^1, n points
give t - n.  The count is |lowest nonzero coefficient of chi|.  The sweep
builds no cell, lifts nothing and solves no LP; like the RP^d sweep, it
charges the entries it computes to `feasibility.SWEEP_GUARD` first.

`torus_decomposition`, the cube engine, is the exact cross-check.  It
works in the closed fundamental cube [0,1]^d:

1. lift each subtorus to the finitely many affine hyperplanes a . x = c + t
   that meet the cube, as integer rows (den a, -(num + t den)), counting
   them against `feasibility.SWEEP_GUARD` before any row is made;
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
arrangements on opposite facets agree, so witnesses translate across.  All
its walks charge their programs to one budget of `SWEEP_GUARD` entries.

`count_regions_toric_grid` is a heuristic kept only for the benchmark's
hooks, and no count or check in the package uses it.  It samples a shifted
uniform grid, joins axis neighbours not separated by a subtorus, and
reports the component count once two successive refinements agree.  Its
stable answer can be wrong: on the T^2 circles {(1,-2), 0}, {(1,1), 3/4},
{(1,-1), 0}, {(1,-2), 3/4}, {(1,2), 0} it gives 22, and the exact count is
20.  It walks the runs that the subtori cut along the lines of the grid,
in pure Python, so its work grows with the crossings on each line rather
than with the nodes; the package uses no third-party module.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm
from operator import add, eq, floordiv, mul, sub
from typing import Iterable, Sequence

from .exactlin import (Vec, dot, format_rational, json_field, parse_int, parse_int_vector,
                       parse_rational, read_json)
from .feasibility import SWEEP_GUARD, TooLargeError, walk_sign_vectors

GRID_NODE_GUARD = 10 ** 6

# A subtorus: (primitive normal, offset numerator, offset denominator), canonical.
Key = tuple[Vec, int, int]


class UnstableError(RuntimeError):
    """Grid counts at refinements R and 2R disagree; refine further."""


def subtorus(normal: Sequence[int], num: int, den: int) -> Key:
    """The key of {a . x = num/den (mod 1)}, for den >= 1.

    (a, c) and (-a, -c mod 1) describe the same subtorus and give the same
    key.  A non-primitive normal is refused: with g = gcd(a), {a . x = c} is
    g parallel subtori, not one.
    """
    a = tuple(normal)
    if gcd(*a) != 1:
        raise ValueError(f"normal {a} is not primitive")
    return _canonical(a, (num,), den)[0]


def _canonical(p: Vec, nums: Iterable[int], den: int) -> list[Key]:
    """Keys of the parallel subtori {p . x = num/den (mod 1)}, num in nums, p primitive.

    If p leads with a negative entry, p and the offsets are negated (tested once
    for all of them); each offset is then taken mod 1 and reduced by one gcd.
    """
    sign = 1
    if next(x for x in p if x) < 0:
        p, sign = tuple(-x for x in p), -1
    keys = []
    for num in nums:
        num = sign * num % den
        t = gcd(num, den)
        keys.append((p, num // t, den // t))
    return keys


def _check_dimension(d: int) -> None:
    if d < 1:
        raise ValueError(f"torus dimension must be >= 1, got d = {d}")


@dataclass(frozen=True)
class ToricArrangement:
    """Distinct subtori of T^d, each a canonical key (see `subtorus`)."""

    d: int
    subtori: tuple[Key, ...]

    def __post_init__(self):
        _check_dimension(self.d)
        if not self.subtori:
            raise ValueError("need at least one subtorus")
        for key in self.subtori:
            a, num, den = key
            if len(a) != self.d:
                raise ValueError(f"normal {a} has wrong length for T^{self.d}")
            if den < 1 or subtorus(a, num, den) != key:
                raise ValueError(f"{key} is not a canonical subtorus key")
        if len(set(self.subtori)) != len(self.subtori):
            raise ValueError("duplicate subtorus after canonicalization")

    @property
    def n(self) -> int:
        return len(self.subtori)

    @staticmethod
    def make(d: int, subtori: Iterable[tuple[Sequence[int], int | Fraction]]) -> "ToricArrangement":
        _check_dimension(d)  # before the normals, which are empty when d = 0
        return ToricArrangement(d, tuple(subtorus(a, *c.as_integer_ratio()) for a, c in subtori))

    def to_json(self) -> dict:
        return {"type": "toric", "d": self.d,
                "subtori": [{"a": [str(x) for x in a], "c": format_rational(Fraction(num, den))}
                            for a, num, den in self.subtori]}

    @staticmethod
    def from_json(data: dict) -> "ToricArrangement":
        if json_field(data, "type") != "toric":
            raise ValueError("not a toric arrangement file")
        subs = [(parse_int_vector(json_field(s, "a")), parse_rational(json_field(s, "c")))
                for s in json_field(data, "subtori", list)]
        return ToricArrangement.make(parse_int(json_field(data, "d")), subs)


def lift_to_cube(arr: ToricArrangement) -> list[Vec]:
    """Rows (den a, -(num + t den)) of the translates a . x = num/den + t meeting [0,1]^d.

    There a . x fills [lo, hi], the sums of a's negative and positive entries;
    as 0 <= num/den < 1, t runs from lo to hi, hi left out when num > 0.  If
    these and the 2d + 1 cube rows, in d + 1 columns, have more than
    `SWEEP_GUARD` entries, TooLargeError is raised before any row is made.
    """
    translates = [(a, num, den, range(sum(x for x in a if x < 0),
                                      sum(x for x in a if x > 0) + (num == 0)))
                  for a, num, den in arr.subtori]
    total = sum(len(ts) for *_, ts in translates)
    if (total + 2 * arr.d + 1) * (arr.d + 1) > SWEEP_GUARD:
        raise TooLargeError(f"{total} lifted hyperplanes in T^{arr.d} exceed the work budget")
    return [(*(x * den for x in a), -(num + t * den)) for a, num, den, ts in translates for t in ts]


# ---------------------------------------------------------------------------
# deletion-restriction sweep


def count_regions_toric(arr: ToricArrangement) -> int:
    """Exact number of connected components of T^d minus the subtori.

    The count is |lowest nonzero coefficient| of the characteristic
    polynomial: |chi(0)| when the normals span R^d, and otherwise chi is
    t^(d - r) times the chi of the essential arrangement in T^r.
    """
    chi = _sweep(arr.subtori, arr.d, [SWEEP_GUARD], {})
    return abs(next(c for c in chi if c))


def _sweep(subtori: Sequence[Key], d: int, budget: list[int],
           bases: dict[Vec, list[Vec]]) -> list[int]:
    """chi(t) of distinct subtori of T^d, as coefficients indexed by power.

    Adding a subtorus H subtracts the chi of the traces that the earlier
    subtori leave on H, a subtorus arrangement in T^(d-1).  On T^1, n
    points give t - n.  `bases` keeps each normal's unimodular basis.
    """
    if d == 1:
        return [-len(subtori), 1]
    chi = [0] * d + [1]
    for i, h in enumerate(subtori):
        traces = _traces(h, subtori[:i], budget, bases)
        for power, c in enumerate(_sweep(traces, d - 1, budget, bases)):
            chi[power] -= c
    return chi


def _traces(h: Key, earlier: Sequence[Key], budget: list[int],
            bases: dict[Vec, list[Vec]]) -> list[Key]:
    """The distinct subtori that `earlier` cut on H, as keys in H's coordinates y.

    With V from `_unimodular_basis`, y -> c V[0] + sum_k y_k V[k] maps
    T^(d-1) onto H = {a . x = c}.  There K = {b . x = e} reads g p . y = r
    with bV[1:] = g p, p primitive and r = e - c b . V[0], computed over
    the denominator den_K den_H: g parallel subtori p . y = (r + j)/g if
    g > 0, which `_canonical` turns into keys, and none if bV[1:] = 0 (K is
    parallel to H).  Equal traces merge, first occurrence first.
    `budget[0]` is what the sweep may still spend.  The (len(earlier) + 1)
    d^2 entries of V and the forms are charged before V is taken from
    `bases` or built, and the (d - 1) sum g of the traces before any trace.
    """
    if not earlier:
        return []
    a, hn, hd = h
    budget[0] -= (len(earlier) + 1) * len(a) ** 2
    if budget[0] < 0:
        raise TooLargeError(f"the sweep needs more than {SWEEP_GUARD} entries")
    if a not in bases:
        bases[a] = _unimodular_basis(a)
    v0, *basis = bases[a]
    forms = []
    for b, kn, kd in earlier:  # sum(map(mul, ..)) is `dot` without its length check
        w = [sum(map(mul, b, v)) for v in basis]
        g = gcd(*w)
        if g:  # r = e - c b . V[0] as a numerator over den = kd hd
            forms.append((w, g, kn * hd - hn * kd * sum(map(mul, b, v0)), kd * hd))
    budget[0] -= sum(f[1] for f in forms) * (len(a) - 1)
    if budget[0] < 0:
        raise TooLargeError(f"the sweep needs more than {SWEEP_GUARD} entries")
    traces = []
    for w, g, r, den in forms:
        traces += _canonical(tuple(x // g for x in w), range(r, r + g * den, den), g * den)
    return list(dict.fromkeys(traces))


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


def _enumerate_cells(dim: int, rows: Sequence[Vec],
                     budget: list[int]) -> list[tuple[tuple[int, ...], Vec]]:
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
    return list(walk_sign_vectors(cube_rows, root, rows, dim + 1, budget))


def _component_count(size: int, edges: Iterable[tuple[int, int]]) -> int:
    """Connected components of the graph on nodes 0..size-1 with these edges.

    Union-find with path halving (Tarjan, *Efficiency of a good but not
    linear set union algorithm*, J. ACM 22, 1975).
    """
    parent = list(range(size))
    count = size
    for p, q in edges:
        while p != parent[p]:
            parent[p] = p = parent[parent[p]]  # assigned left to right: parent[p], then p
        while q != parent[q]:
            parent[q] = q = parent[parent[q]]
        if p != q:
            parent[q] = p
            count -= 1
    return count


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
    d = arr.d
    rows = lift_to_cube(arr)
    budget = [SWEEP_GUARD]
    cells = _enumerate_cells(d, rows, budget)
    index = {signs: i for i, (signs, _) in enumerate(cells)}
    glued = []

    for axis in range(d):
        if tuple(int(j == axis) for j in range(d + 1)) in rows:
            continue  # the facet pair lies on the row x_axis = 0; nothing glues
        # induced arrangement on the facet x_axis = 0: drop the axis column
        traces = [r[:axis] + r[axis + 1:] for r in rows]
        for _, q in _enumerate_cells(d - 1, traces, budget):
            low = _stepped_signs(rows, q[:axis] + (0,) + q[axis:], axis, +1)
            high = _stepped_signs(rows, q[:axis] + (q[-1],) + q[axis:], axis, -1)
            glued.append((index[low], index[high]))
    return TorusRegionDecomposition(len(cells), len(glued), _component_count(len(cells), glued))


# ---------------------------------------------------------------------------
# grid cross-check


def _line_values(a: Vec, c: int, n: int) -> list[int]:
    """a' . p - c for the prefix p of each line of the grid, in line order.

    a' is a without its last entry; the lines run along the last axis and
    their prefixes p in [0, n)^(d-1) are taken in `itertools.product` order.
    """
    values = [-c]
    for x in a[:-1]:
        values = list(chain.from_iterable(range(v, v + x * n, x) if x else repeat(v, n)
                                          for v in values))
    return values


def _grid_component_count(arr: ToricArrangement, pitch_count: int) -> int:
    """Connected components of the shifted grid of pitch 1/pitch_count.

    With N = pitch_count, node k in [0, N)^d samples x = (k + s) / N, where
    s_i = 1 / (2 B^(i+1)) and B is 2 plus the sum of |a|_1 over the
    subtori.  Neighbours along axis i, the wrap from N - 1 to 0 included,
    are joined unless some subtorus {a . x = c} separates them, that is
    unless floor(a . x - c) differs between them, taken past 1 at the wrap
    (where a . x grows by a_i).  The floor is exactly (a . k - cN) // N for
    a canonical key: N (a . x - c) = a . k - cN + a . s, where
    a . s = phi / (2 B^d) with phi = sum_i a_i B^(d-1-i), and 0 < phi < B^d
    because the leading entry of a is positive and B exceeds |a|_1.  So the
    shift adds less than 1/2 to an integer and never carries it past a
    multiple of N.  The closed rule: with r = (a . k - cN) mod N, the edge
    from k along axis i is blocked iff r + a_i lies outside [0, N).

    The count walks runs, not nodes.  Along a line of the last axis, with r
    taken at the line's first node, a subtorus whose last entry is b blocks
    the steps j -> j + 1 with j = (M N - r - 1) // b for M = 1..b when
    b > 0, and j = (r + M N) // |b| for M = 0..|b| - 1 when b < 0, |b|
    steps in all (some coincide only when |b| > N).  The blocked steps cut
    each line into runs, and a line's last run joins its first when its
    wrap is open.  Every floor is constant on a run.  Across an edge along
    another axis i, the floor of subtorus s moves by an
    amount of the sign of a_(s,i), or not at all, and the edge is open iff
    no floor moves.  So a run carries, for each such axis, the code
    sum_s sign(a_(s,i)) floor_s, which the edge moves by the sum of the
    floors' moves in absolute value: two runs that face each other on
    neighbouring lines are joined iff their codes agree, the tail's less
    sum_s |a_(s,i)| at the wrap.  The facing pairs come from the run starts
    of both lines, and union-find over the runs counts the components.

    The walk takes about N^(d-1) sum_s sum_i (|a_(s,i)| + 1) steps.  That
    bound and the N^d nodes are each checked against GRID_NODE_GUARD before
    any line is made.
    """
    d, n = arr.d, pitch_count
    if n ** d > GRID_NODE_GUARD:
        raise TooLargeError(f"grid of {n ** d} nodes exceeds the guard")
    lines = n ** (d - 1)
    steps = lines * sum(abs(x) + 1 for a, _, _ in arr.subtori for x in a)
    if steps > GRID_NODE_GUARD:
        raise TooLargeError(f"grid walk of about {steps} steps exceeds the guard")

    # node j of line L has the key L 2N + j; the keys L 2N + N, one past each
    # line's end, are where a step blocked across the wrap puts its run start
    size = 2 * n * lines
    firsts, ends = range(0, size, 2 * n), range(n, size, 2 * n)
    keys = []  # the run start after each blocked step, then each line's first node
    # along axis i: the change of code at each key, each line's first code,
    # the code gained over a whole line and the code a wrap step loses
    changes = [[] for _ in range(d - 1)]
    first_codes = [[0] * lines for _ in range(d - 1)]
    rises, drops = [0] * (d - 1), [0] * (d - 1)
    for a, num, den in arr.subtori:
        c, rest = divmod(num * n, den)
        if rest:
            raise RuntimeError("grid pitch must clear offset denominators")
        values = _line_values(a, c, n)
        b = a[-1]
        if b > 0:
            ms = range(n, (b + 1) * n, n)
            cut = [f - (v % n - m) // b for f, v in zip(firsts, values) for m in ms]
        elif b < 0:
            ms = range(0, -b * n, n)
            cut = [f + (v % n + m) // -b + 1 for f, v in zip(firsts, values) for m in ms]
        else:
            cut = []
        keys += cut
        floors = list(map(floordiv, values, repeat(n)))
        for i, x in enumerate(a[:-1]):
            sign = (x > 0) - (x < 0)
            changes[i] += repeat(sign if b > 0 else -sign, len(cut))
            if sign:
                first_codes[i] = list(map(add if sign > 0 else sub, first_codes[i], floors))
                rises[i] += sign * b
                drops[i] += abs(x)
    keys += firsts
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ordered = list(map(keys.__getitem__, order))

    starts = sorted(set(ordered).difference(ends))  # run r holds the keys from starts[r]
    later = starts[1:]  # bisect_right(later, key) is the run holding key
    runs = range(len(starts))
    wrapping = [end - n for end in set(ends).difference(ordered)]  # lines whose wrap is open
    pairs = [zip(map(bisect_right, repeat(later), wrapping),
                 map(bisect_right, repeat(later), map(add, wrapping, repeat(n - 1))))]
    for i in range(d - 1):
        stride = 2 * n * n ** (d - 2 - i)  # from a key to its neighbour along axis i
        block = n * stride
        ahead = [x + stride if x % block < block - stride else x + stride - block for x in starts]
        lone = list(set(starts).difference(ahead))  # run starts that no run start faces
        behind = [y - stride if y % block >= stride else y - stride + block for y in lone]
        behind_runs = list(map(bisect_right, repeat(later), behind))
        head_runs = list(map(bisect_right, repeat(later), chain(ahead, lone)))
        del ahead, lone, behind  # keys; only run numbers are kept to the end
        fc, rise = first_codes[i], rises[i]
        changes[i] += [fc[0], *map(sub, fc[1:], map(add, fc, repeat(rise)))]
        # totals[k]: the code after the first k changes in key order
        totals = [0, *accumulate(map(changes[i].__getitem__, order))]
        code = list(map(totals.__getitem__, map(bisect_right, repeat(ordered), starts)))
        want = code  # the code a head run needs to join each tail run
        if drops[i]:
            want = code[:]
            for f in range(block - stride, size, block):  # the lines whose step wraps
                r0, r1 = bisect_left(starts, f), bisect_left(starts, f + stride)
                want[r0:r1] = map(sub, code[r0:r1], repeat(drops[i]))
        pairs.append(compress(zip(chain(runs, behind_runs), head_runs),
                              map(eq, chain(want, map(want.__getitem__, behind_runs)),
                                  map(code.__getitem__, head_runs))))
    return _component_count(len(starts), chain.from_iterable(pairs))


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
    for normal, _, den in arr.subtori:
        q = lcm(q, den)
        for a in normal:
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
    return ToricArrangement.from_json(read_json(path))


def dump_toric(arr: ToricArrangement, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(arr.to_json(), fh, indent=1)
        fh.write("\n")
