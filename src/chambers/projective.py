"""Hyperplane arrangements in real projective space RP^d.

An arrangement is a list of primitive integer covectors in Z^(d+1); each
covector u cuts out the hyperplane {x : u . x = 0}.  Its hyperplanes are
pairwise distinct and have no point common to all of them (the n x (d+1)
covector matrix has full rank d+1); `ProjArrangement` checks both when it is
made, so the engines below take them as given.

Region counts come from a deletion-restriction sweep over the central lift
in R^(d+1) (Zaslavsky, Mem. AMS 154, 1975; Stanley, *An introduction to
hyperplane arrangements*, Lecture 2); antipodal identification halves the
central count.  m, the largest number of hyperplanes through one point,
comes from a second walk over the same traces, a branch and bound that
stops once no remaining hyperplane can carry a heavier line than the
heaviest found.  Both restrict to a hyperplane u with no elimination: in
the basis u[p] e_c - u[c] e_p of H = {u . x = 0} (c != p, u[p] the first
nonzero entry of u) the trace of v is its vector of 2x2 minors
u[p] v[c] - u[c] v[p].  In R^3 the two minors key the line that v cuts out
of H, a point of P^1.  Each restriction charges its len(rows) * len(u)
entries to `feasibility.SWEEP_GUARD` before its first trace, as the toric
sweep does: a walk is refused by the work it does, not by the
general-position worst case.  The levels that every walk from RP^3 and up
passes through are written out as loops with no call per restriction: the
sweep's R^4 (three minors per row) and R^3, and the m walk's R^3; `_traces`
makes the traces of every other level.  Counting and finding m for the 409
RP^d arrangements of the acceptance battery took a median 0.69 s this way
against 0.73 s with `_traces` at every level (fastest of three, eight
alternating rounds, 2-CPU Linux host, Python 3.11).  0.56 s of that is the
battery's four RP^8 and four RP^10 witnesses, which spend most of their
time above R^4.

The intersection poset is the independent reference the tests compare the
sweep with, through its characteristic polynomial and Zaslavsky's theorem.
It is built level by level, closing under intersection with single
hyperplanes.  A flat is identified by the canonical reduced echelon form of
the row space spanned by its incident covectors (the orthogonal complement
of the flat), so flat identity is exact.  Each new flat's incident set is
the union of (parent incident + extending hyperplane) over every generating
pair; every coatom of a flat is enumerated as a parent, which makes the
union exactly the set of hyperplanes containing the flat and makes the
recorded parents exactly the covers from below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Sequence

from .exactlin import (
    Vec,
    echelon_form,
    echelon_insert,
    json_field,
    parse_int,
    parse_int_vector,
    primitive_normalize,
    primitive_scale,
    rank,
    read_json,
)
from .feasibility import SWEEP_GUARD, charge


class ValidationError(ValueError):
    """An arrangement violated a structural precondition."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class ProjArrangement:
    """n distinct hyperplanes in RP^d with no common point, stored as
    primitive integer covectors.

    Covectors are reduced to primitive form but keep their input sign.  The
    arrangement is checked once, here, after its n (d+1)^2 entries are
    charged to a fresh `SWEEP_GUARD`: a hyperplane given twice (u and -u
    included) or a covector matrix of rank below d + 1 raises
    ValidationError, listing every duplicate pair and then the common point,
    so every ProjArrangement is one the counts apply to.
    """

    d: int
    covectors: tuple[Vec, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("projective dimension must be >= 1")
        fixed = []
        for u in self.covectors:
            if len(u) != self.d + 1:
                raise ValueError(f"covector {u} has wrong length for RP^{self.d}")
            fixed.append(primitive_scale(u))
        object.__setattr__(self, "covectors", tuple(fixed))
        charge([SWEEP_GUARD], len(fixed) * (self.d + 1) ** 2, "the construction check needs")
        violations = []
        seen = {}
        for i, u in enumerate(fixed):
            # covectors are primitive, so u and -u are the only forms of one hyperplane
            key = u if next(x for x in u if x) > 0 else tuple([-x for x in u])
            if key in seen:
                violations.append(f"DuplicateHyperplane: {seen[key]} and {i}")
            else:
                seen[key] = i
        if rank(fixed) <= self.d:
            violations.append("CommonPoint: covector matrix rank below d+1")
        if violations:
            raise ValidationError(violations)

    @property
    def n(self) -> int:
        return len(self.covectors)

    def to_json(self) -> dict:
        return {
            "type": "projective",
            "d": self.d,
            "covectors": [[str(x) for x in u] for u in self.covectors],
        }

    @staticmethod
    def from_json(data: dict) -> "ProjArrangement":
        if json_field(data, "type") != "projective":
            raise ValueError("not a projective arrangement file")
        covs = tuple(parse_int_vector(u, f"covectors[{i}]")
                     for i, u in enumerate(json_field(data, "covectors", list)))
        return ProjArrangement(parse_int(json_field(data, "d"), "d"), covs)


@dataclass(frozen=True)
class Flat:
    """Element of the intersection poset of the central lift.

    `incident` is the full set of hyperplane indices containing the flat;
    `echelon` the canonical row-space form of their covectors; `parents`
    the ids of the flats covered by this one (all of them).
    """

    incident: frozenset[int]
    echelon: tuple[Vec, ...]
    rank: int
    subspace_dim: int
    parents: tuple[int, ...]
    mobius: int


@dataclass(frozen=True)
class IntersectionPoset:
    arrangement: ProjArrangement
    flats: tuple[Flat, ...]  # ordered by decreasing subspace_dim; bottom first

    def level_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for f in self.flats:
            sizes[f.subspace_dim] = sizes.get(f.subspace_dim, 0) + 1
        return sizes


@lru_cache(maxsize=64)
def build_intersection_poset(arr: ProjArrangement) -> IntersectionPoset:
    covs = arr.covectors
    n = len(covs)
    ambient = arr.d + 1

    # (incident, echelon, rank, parents) in discovery order, bottom first; the
    # hyperplanes are distinct, so each is its own atom
    raw: list[tuple[frozenset[int], tuple[Vec, ...], int, tuple[int, ...]]] = [
        (frozenset(), (), 0, ())
    ]
    raw += [(frozenset([i]), (primitive_normalize(u),), 1, (0,)) for i, u in enumerate(covs)]
    current = list(range(1, n + 1))

    for r in range(1, ambient - 1):
        groups: dict[tuple[Vec, ...], tuple[set[int], set[int]]] = {}
        for fi in current:
            inc_f, ech_f, _, _ = raw[fi]
            for h in range(n):
                if h in inc_f:
                    continue
                child = echelon_insert(ech_f, covs[h])
                bucket = groups.get(child)
                if bucket is None:
                    bucket = (set(), set())
                    groups[child] = bucket
                bucket[0].update(inc_f)
                bucket[0].add(h)
                bucket[1].add(fi)
        current = []
        for ech_c in sorted(groups):
            inc_c, parents = groups[ech_c]
            current.append(len(raw))
            raw.append((frozenset(inc_c), ech_c, r + 1, tuple(sorted(parents))))
    # every extension of a corank-one flat spans the whole row space, so the
    # unique top flat is incident to every hyperplane
    raw.append((frozenset(range(n)), echelon_form(covs), ambient, tuple(current)))

    # Mobius values via memoized down-sets (construction order is rank-ascending)
    downs: list[frozenset[int]] = []
    mobius: list[int] = []
    for idx, (_, _, rk, parents) in enumerate(raw):
        if rk == 0:
            downs.append(frozenset())
            mobius.append(1)
            continue
        below: set[int] = set()
        for p in parents:
            below.add(p)
            below |= downs[p]
        downs.append(frozenset(below))
        mobius.append(-sum(mobius[g] for g in below))

    flats = tuple(
        Flat(inc, ech, rk, ambient - rk, parents, mu)
        for (inc, ech, rk, parents), mu in zip(raw, mobius)
    )
    return IntersectionPoset(arr, flats)


def characteristic_polynomial(poset: IntersectionPoset) -> tuple[int, ...]:
    """Coefficients of chi(t) = sum mu(flat) t^subspace_dim, index = power."""
    ambient = poset.arrangement.d + 1
    coeffs = [0] * (ambient + 1)
    for f in poset.flats:
        coeffs[f.subspace_dim] += f.mobius
    return tuple(coeffs)


def evaluate_poly(coeffs: Sequence[int], t: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def count_regions_projective(arr: ProjArrangement) -> int:
    """Number of open d-cells of RP^d cut out by the arrangement."""
    return _sweep(arr.covectors, arr.d + 1, [SWEEP_GUARD]) // 2


def max_point_multiplicity(arr: ProjArrangement) -> int:
    """m: the largest number of hyperplanes through one projective point.

    A point of RP^d is a line through 0 in R^(d+1), so m is `_heaviest`
    of the covectors, each of weight one, with nothing to beat.
    """
    return _heaviest(arr.covectors, (1,) * arr.n, arr.d + 1, 0, [SWEEP_GUARD])


def _traces(u: Vec, rows: Sequence[Vec], budget: list[int]) -> list[Vec]:
    """The primitive trace of each of `rows` on H = {u . x = 0}, in order.

    In the basis u[p] e_c - u[c] e_p of H (c != p, p the pivot of u) the
    trace of V is the vector of 2x2 minors u[p] V[c] - u[c] V[p].  Each
    trace is divided by its gcd, nonzero because no row is a multiple of u,
    and its first nonzero entry made positive, so equal traces are equal
    tuples.  The arithmetic is written out for R^4, where the m walk makes
    its three-minor traces; the sweep writes its R^4 and R^3 levels out
    itself, and the m walk its R^3 level.  `budget[0]` is what the walk may
    still spend; the len(rows) * len(u) entries of the minors are charged
    before any is computed.
    """
    charge(budget, len(rows) * len(u), "the sweep needs")
    out = []
    p = next(c for c, x in enumerate(u) if x)
    if len(u) == 4:
        a, b, c = [k for k in range(4) if k != p]
        up, ua, ub, uc = u[p], u[a], u[b], u[c]
        for v in rows:
            vp = v[p]
            x = up * v[a] - ua * vp
            y = up * v[b] - ub * vp
            z = up * v[c] - uc * vp
            g = gcd(x, y, z)
            if x < 0 or not x and (y < 0 or not y and z < 0):
                g = -g
            out.append((x // g, y // g, z // g))
        return out
    up = u[p]
    for v in rows:
        vp = v[p]
        t = [up * vc - uc * vp for uc, vc in zip(u, v)]
        del t[p]
        g = gcd(*t)
        for x in t:
            if x:
                if x < 0:
                    g = -g
                break
        out.append(tuple([x // g for x in t]))
    return out


def _sweep(rows: Sequence[Vec], ambient: int, budget: list[int]) -> int:
    """Central regions of distinct hyperplanes in R^ambient.

    Adding a hyperplane H adds the central regions that the distinct traces
    of the earlier hyperplanes cut H into.  In R^2, j lines cut 2j regions,
    and in R^3 the traces are lines of H, j of which cut it into 2j.  The
    R^2 case is reached only from RP^1 inputs.  R^4 and R^3, which every
    sweep from RP^3 and up passes through, are written out as loops with no
    call per restriction: R^4 makes the three minors of `_traces`, and R^3
    keys each earlier row by its two minors, the line it cuts out of H.
    Each restriction charges len(u) entries per earlier row before its first
    trace, as `_traces` does.
    """
    if ambient == 2:
        return 2 * len(rows) or 1
    regions = 1
    if ambient == 3:
        for i, u in enumerate(rows):
            charge(budget, 3 * i, "the sweep needs")
            p, a, b = (0, 1, 2) if u[0] else (1, 0, 2) if u[1] else (2, 0, 1)
            up, ua, ub = u[p], u[a], u[b]
            lines = set()
            for v in rows[:i]:
                vp = v[p]
                x = up * v[a] - ua * vp
                y = up * v[b] - ub * vp
                g = gcd(x, y)
                if x < 0 or not x and y < 0:
                    g = -g
                lines.add((x // g, y // g))
            regions += 2 * len(lines) or 1
        return regions
    if ambient == 4:
        for i, u in enumerate(rows):
            charge(budget, 4 * i, "the sweep needs")
            p, a, b, c = ((0, 1, 2, 3) if u[0] else (1, 0, 2, 3) if u[1] else
                          (2, 0, 1, 3) if u[2] else (3, 0, 1, 2))
            up, ua, ub, uc = u[p], u[a], u[b], u[c]
            traces = {}  # a dict, not a set: keep the traces in the order they were made
            for v in rows[:i]:
                vp = v[p]
                x = up * v[a] - ua * vp
                y = up * v[b] - ub * vp
                z = up * v[c] - uc * vp
                g = gcd(x, y, z)
                if x < 0 or not x and (y < 0 or not y and z < 0):
                    g = -g
                traces[x // g, y // g, z // g] = None
            regions += _sweep(list(traces), 3, budget)
        return regions
    for i, u in enumerate(rows):
        traces = list(dict.fromkeys(_traces(u, rows[:i], budget)))
        regions += _sweep(traces, ambient - 1, budget)
    return regions


def _heaviest(rows: Sequence[Vec], weights: Sequence[int], ambient: int,
              beat: int, budget: list[int]) -> int:
    """The most weight on one line through 0 in R^ambient, if above `beat`.

    `rows` are distinct hyperplanes and `weights` theirs.  The result is
    exact when that most weight is above `beat`, and at most `beat`
    otherwise.  A line lies in a last hyperplane rows[i], and each earlier
    row through the line leaves a trace on rows[i] through it, so the most
    weight is the max over i of weights[i] plus the most weight of the
    traces on rows[i], equal traces adding their weights.  No line of
    rows[i] carries more than the weight of rows[:i + 1], so the walk goes
    from the last row to the first, stops once that prefix weight cannot
    beat the best found, and asks each restriction only to beat the best
    less weights[i].  In R^3 the traces are lines of rows[i], keyed as in
    `_sweep`, and the heaviest of them is the most weight on a line of
    rows[i], with no further walk.  In R^2 the lines are the rows
    themselves; that case is reached only from RP^1 inputs.
    """
    if ambient == 2:
        return max(weights, default=0)
    best = max(beat, 0)  # no rows leave every line weight 0
    prefix = sum(weights)
    for i in range(len(rows) - 1, -1, -1):
        if prefix <= best:
            break
        w = weights[i]
        prefix -= w
        merged: dict[Vec, int] = {}
        if ambient == 3:
            u = rows[i]
            charge(budget, 3 * i, "the sweep needs")
            p, a, b = (0, 1, 2) if u[0] else (1, 0, 2) if u[1] else (2, 0, 1)
            up, ua, ub = u[p], u[a], u[b]
            for v, wt in zip(rows[:i], weights):
                vp = v[p]
                x = up * v[a] - ua * vp
                y = up * v[b] - ub * vp
                g = gcd(x, y)
                if x < 0 or not x and y < 0:
                    g = -g
                line = (x // g, y // g)
                merged[line] = merged.get(line, 0) + wt
            through = max(merged.values(), default=0)
        else:
            for t, wt in zip(_traces(rows[i], rows[:i], budget), weights):
                merged[t] = merged.get(t, 0) + wt
            through = _heaviest(list(merged), list(merged.values()), ambient - 1, best - w,
                                budget)
        if w + through > best:
            best = w + through
    return best


# ---------------------------------------------------------------------------
# file I/O


def load_arrangement(path: str) -> ProjArrangement:
    return ProjArrangement.from_json(read_json(path))


def dump_arrangement(arr: ProjArrangement, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(arr.to_json(), fh, indent=1)
        fh.write("\n")
