"""Hyperplane arrangements in real projective space RP^d.

An arrangement is a list of primitive integer covectors in Z^(d+1); each
covector u cuts out the hyperplane {x : u . x = 0}.  A valid arrangement has
pairwise distinct hyperplanes and no point common to all of them (the n x
(d+1) covector matrix has full rank d+1).

Region counts and m, the largest number of hyperplanes through one point,
come from one deletion-restriction sweep over the central lift in R^(d+1)
(Zaslavsky, Mem. AMS 154, 1975; Stanley, *An introduction to hyperplane
arrangements*, Lecture 2); antipodal identification halves the central count.
The sweep restricts to a hyperplane u with no elimination: in the basis
u[p] e_c - u[c] e_p of {u . x = 0} (c != p, u[p] the first nonzero entry
of u) the trace of v is its vector of 2x2 minors u[p] v[c] - u[c] v[p], and
in R^3 each trace point is a cross product, both written inline.
`SWEEP_GUARD` caps the sweep's work, which grows as n * sum_{k<d} C(n, k).

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
from math import comb, gcd
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
)
from .feasibility import TooLargeError

# n * sum_{k<d} C(n, k) tracks the sweep's time at 2-3 M units/s for general
# position inputs with d = 2..8 and for coordinate hyperplanes (2-CPU Linux
# host), so this is about one second of work
SWEEP_GUARD = 2_500_000


class ValidationError(ValueError):
    """An arrangement violated a structural precondition."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class ProjArrangement:
    """n hyperplanes in RP^d, stored as primitive integer covectors.

    Covectors are reduced to primitive form but keep their input sign, so
    deliberately degenerate inputs (u and -u) stay representable for the
    oracle; `validate` reports them as duplicates.
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

    @property
    def n(self) -> int:
        return len(self.covectors)

    def delete(self, index: int) -> "ProjArrangement":
        covs = self.covectors[:index] + self.covectors[index + 1:]
        return ProjArrangement(self.d, covs)

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
        covs = tuple(parse_int_vector(u) for u in json_field(data, "covectors", list))
        return ProjArrangement(parse_int(json_field(data, "d")), covs)


def validate(arr: ProjArrangement) -> list[str]:
    """Return a list of violations; empty means the arrangement is valid."""
    violations = []
    seen = {}
    for i, u in enumerate(arr.covectors):
        key = primitive_normalize(u)
        if key in seen:
            violations.append(f"DuplicateHyperplane: {seen[key]} and {i}")
        else:
            seen[key] = i
    ech: tuple[Vec, ...] = ()
    for u in arr.covectors:  # d+1 independent rows decide it; stop there
        ech = echelon_insert(ech, u) or ech
        if len(ech) == arr.d + 1:
            break
    else:
        violations.append("CommonPoint: covector matrix rank below d+1")
    return violations


def ensure_valid(arr: ProjArrangement) -> None:
    violations = validate(arr)
    if violations:
        raise ValidationError(violations)


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

    @property
    def bottom(self) -> Flat:
        return self.flats[0]

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
    total_rank = len(echelon_form(covs))

    # (incident, echelon, rank, parents) in discovery order, bottom first
    raw: list[tuple[frozenset[int], tuple[Vec, ...], int, tuple[int, ...]]] = [
        (frozenset(), (), 0, ())
    ]
    current: list[int] = []
    seen_atoms: dict[tuple[Vec, ...], int] = {}
    for i, u in enumerate(covs):
        ech = (primitive_normalize(u),)
        if ech in seen_atoms:  # tolerated only on unvalidated input
            idx = seen_atoms[ech]
            inc, e, r, p = raw[idx]
            raw[idx] = (inc | {i}, e, r, p)
            continue
        seen_atoms[ech] = len(raw)
        current.append(len(raw))
        raw.append((frozenset([i]), ech, 1, (0,)))

    r = 1
    while current and r < total_rank:
        if r == total_rank - 1:
            # every extension of a corank-one flat spans the whole row space,
            # so the unique top flat is incident to every hyperplane
            raw.append((frozenset(range(n)), echelon_form(covs), total_rank,
                        tuple(current)))
            break
        groups: dict[tuple[Vec, ...], tuple[set[int], set[int]]] = {}
        for fi in current:
            inc_f, ech_f, _, _ = raw[fi]
            for h in range(n):
                if h in inc_f:
                    continue
                child = echelon_insert(ech_f, covs[h])
                if child is None:  # duplicate hyperplane on unvalidated input
                    continue
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
        r += 1

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
    return _guarded_sweep(arr)[0] // 2


def max_point_multiplicity(arr: ProjArrangement) -> int:
    """m: the largest number of hyperplanes through one projective point."""
    return _guarded_sweep(arr)[1]


def _guarded_sweep(arr: ProjArrangement) -> tuple[int, int]:
    """`_sweep` of a valid arrangement within `SWEEP_GUARD`."""
    ensure_valid(arr)
    if arr.n * sum(comb(arr.n, k) for k in range(arr.d)) > SWEEP_GUARD:
        raise TooLargeError(
            f"n = {arr.n} in RP^{arr.d} exceeds the sweep guard of {SWEEP_GUARD} units")
    return _sweep(dict.fromkeys(arr.covectors, 1), arr.d + 1)


def _sweep(rows: dict[Vec, int], ambient: int) -> tuple[int, int]:
    """(central regions, m) of distinct weighted hyperplanes in R^ambient.

    Adding a hyperplane H adds the central regions that the traces of the
    earlier hyperplanes cut H into.  A heaviest line lies in a last
    hyperplane H, and each earlier hyperplane through the line leaves a
    trace on H through it, so m is the most, over H, of H's weight plus the
    m of its traces.  In R^2, j lines cut 2j regions.

    The trace of V on H = {u . x = 0}, in the basis u[p] e_c - u[c] e_p
    (c != p, p the pivot of u), is the vector of 2x2 minors
    u[p] V[c] - u[c] V[p].  In R^3 the traces on H are points of H,
    cross(H, V) for each earlier plane V, and j distinct points cut H into
    2j regions.  This leaf makes most of the traces, so its cross product,
    gcd and sign flip are written out here: a seed-1 rp-zaslavsky benchmark
    pass on a 2-CPU Linux host took 0.23-0.32 s with it, 0.40 s with no leaf
    and 0.35-0.38 s with a leaf that calls `primitive_normalize(cross3(u, v))`.
    The minors above R^3 are normalized inline the same way: sweeping the
    104 count inputs of seed-1 rp-zaslavsky took 0.037-0.041 s this way and
    0.044-0.052 s with dot products against the basis vectors and
    `primitive_normalize` (fastest of 15, three alternating runs, same
    host).  The R^2 case is reached only from RP^1 inputs.
    """
    if ambient == 2:
        return 2 * len(rows) or 1, max(rows.values(), default=0)
    regions, m = 1, 0
    items = list(rows.items())
    if ambient == 3:
        for i, ((u0, u1, u2), weight) in enumerate(items):
            points: dict[Vec, int] = {}
            for (v0, v1, v2), w in items[:i]:
                x = u1 * v2 - u2 * v1
                y = u2 * v0 - u0 * v2
                z = u0 * v1 - u1 * v0
                g = gcd(x, y, z)  # nonzero: two distinct planes meet in a line
                if x < 0 or not x and (y < 0 or not y and z < 0):
                    g = -g
                point = (x // g, y // g, z // g)
                points[point] = points.get(point, 0) + w
            regions += 2 * len(points) or 1
            m = max(m, weight + max(points.values(), default=0))
        return regions, m
    for i, (u, weight) in enumerate(items):
        p = next(c for c, x in enumerate(u) if x)
        up = u[p]
        traces: dict[Vec, int] = {}
        for v, w in items[:i]:
            vp = v[p]
            t = [up * vc - uc * vp for uc, vc in zip(u, v)]
            del t[p]
            g = gcd(*t)  # nonzero: v is not a multiple of u
            for x in t:
                if x:
                    if x < 0:
                        g = -g
                    break
            t = tuple([x // g for x in t])
            traces[t] = traces.get(t, 0) + w
        cut, through = _sweep(traces, ambient - 1)
        regions += cut
        m = max(m, weight + through)
    return regions, m


# ---------------------------------------------------------------------------
# file I/O


def load_arrangement(path: str) -> ProjArrangement:
    with open(path) as fh:
        return ProjArrangement.from_json(json.load(fh))


def dump_arrangement(arr: ProjArrangement, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(arr.to_json(), fh, indent=1)
        fh.write("\n")
