"""Constructive arrangement families with known region counts.

Every generator is deterministic: free parameters come from small integer
scans.  A plane line through its anchors is admitted by one exact count,
its distinct crossings with the lines already placed; the count reaches
the anchors' bound exactly when the line passes through no other crossing.
So a successful build realizes precisely the incidence pattern the recipe
names, and the expected count attached to the recipe is trustworthy.
Builders raise PlacementError when a requested pattern is not realizable.

Projective families (all exact integer covectors):

* general_position: covectors on the moment curve, multiplicity m = d.
* double_pencil: a lines through one point, b through another, optionally
  sharing the connecting line; the classic low-count plane families.
* pencil_with_extras: a pencil of q lines plus up to five extra lines whose
  crossings are steered through chosen existing points ("anchors"), walking
  the low plane spectrum.
* cone: lift of a base arrangement with every hyperplane through a common
  apex, plus extra hyperplanes missing the apex.  One extra doubles the
  base count.
* two_extra_planes / three_extra_planes: a cone over a plane base plus two
  or three extra planes with controlled trace coincidences; these realize
  the odd-slope members of the low spectrum in RP^3.  Every line they place
  comes from a scan, or from the pencil of two scanned lines, so no
  generator solves a linear system.

Toric families: k coordinate subtori plus parallel translates (count n-k),
and coordinate subtori plus a sloped geodesic with parallels (count
2(n-d)+k), with offset side conditions checked at build time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence

from .exactlin import Vec, cross3, dot, primitive_normalize
from .projective import ProjArrangement, validate
from .toric import Subtorus, ToricArrangement


class PlacementError(ValueError):
    """The requested incidence pattern cannot be realized."""


class OffsetCollisionError(ValueError):
    """Two parallel subtori were given the same fractional offset."""


class TripleIntersectionError(ValueError):
    """Slope and offset choices force three subtori through a point."""


@dataclass(frozen=True)
class Recipe:
    """A named constructive family instance with its predicted count."""

    family: str
    params: tuple
    space: str  # "projective" or "toric"
    n: int
    d: int
    expected_f: int

    def describe(self) -> str:
        inner = ", ".join(p.describe() if isinstance(p, Recipe) else repr(p)
                          for p in self.params)
        return f"{self.family}({inner})"


# ---------------------------------------------------------------------------
# plane machinery: pencils, anchors, deterministic genericity scans


class _PlaneBuilder:
    """Incrementally places distinct lines in RP^2.  `points`, its only record
    of incidences, maps each crossing to the indices of the lines through it:
    the initial crossings sorted, then new ones in the order lines add them."""

    def __init__(self, lines: Iterable[Vec]):
        self.lines: list[Vec] = []
        self.points: dict[Vec, set[int]] = {}
        for v in lines:
            self.place(primitive_normalize(v))
        self.points = dict(sorted(self.points.items()))

    def place(self, line: Vec) -> None:
        """Add `line`, primitive and not yet placed, and record its crossings."""
        idx = len(self.lines)
        for i, v in enumerate(self.lines):
            p = cross3(line, v)
            if any(p):
                self.points.setdefault(primitive_normalize(p), set()).update((i, idx))
        self.lines.append(line)

    def multiplicity(self, point: Vec) -> int:
        return len(self.points.get(point, ()))

    def double_points(self) -> list[Vec]:
        return [p for p, on in self.points.items() if len(on) == 2]

    def crossings(self, line: Vec) -> int:
        """Distinct points where `line`, not a placed line, meets the placed
        ones: a crossing on it through mu of them merges mu meetings into one."""
        a, b, c = line
        return len(self.lines) - sum(
            len(on) - 1 for p, on in self.points.items()
            if a * p[0] + b * p[1] + c * p[2] == 0)

    def crossing_bound(self, anchors: Sequence[Vec]) -> int:
        """Most distinct crossings of a line through the anchors, reached
        exactly by a line through no other crossing."""
        return len(self.lines) - sum(
            self.multiplicity(a) - 1 for a in anchors if a in self.points)

    def lines_through(self, anchors: Sequence[Vec], expected_new_points: int) -> Iterator[Vec]:
        """Each of up to 2001 candidate lines through the anchors that is not
        placed and meets the placed lines in `expected_new_points` points.

        Every candidate passes through every anchor, so it crosses at most
        `crossing_bound(anchors)` = len(lines) - sum(mu - 1) lines, mu being
        each anchor's multiplicity: a request above that bound yields nothing
        and tries no candidate, and a line that meets it passes through no
        crossing but the anchors.
        """
        if len(anchors) > 2:
            raise PlacementError("a line passes through at most two chosen points")
        if expected_new_points > self.crossing_bound(anchors):
            return
        if len(anchors) == 2:
            candidates: Iterable[Vec] = [cross3(anchors[0], anchors[1])]
        elif len(anchors) == 1:
            candidates = (cross3(anchors[0], (1, t, t * t)) for t in itertools.count(1))
        else:
            candidates = ((t * t + 1, t, 1) for t in itertools.count(1))
        for cand in itertools.islice(candidates, 2001):
            if any(cand):
                line = primitive_normalize(cand)
                if line not in self.lines and self.crossings(line) == expected_new_points:
                    yield line

    def scan_line_through(self, anchors: Sequence[Vec], expected_new_points: int) -> Vec:
        """The first line `lines_through` gives."""
        for line in self.lines_through(anchors, expected_new_points):
            return line
        raise PlacementError("no admissible line found for the requested anchors")


# ---------------------------------------------------------------------------
# projective generators


def general_position(n: int, d: int) -> ProjArrangement:
    """Covectors on the moment curve: every d+1 of them are independent."""
    if n < d + 1:
        raise ValueError("need n >= d+1")
    covs = tuple(tuple(t ** k for k in range(d + 1)) for t in range(1, n + 1))
    return ProjArrangement(d, covs)


def general_position_count(n: int, d: int) -> int:
    return sum(comb(n - 1, k) for k in range(d + 1))


def double_pencil(a: int, b: int, with_common_line: bool) -> ProjArrangement:
    """a lines through one point and b through another in RP^2.

    With the connecting line shared, n = a + b - 1 and f = a * b; without
    it, n = a + b and f = a * b + a + b - 1.
    """
    if a < 2 or b < 2:
        raise PlacementError("each pencil needs at least two lines")
    lines: list[Vec] = []
    if with_common_line:
        lines.append((1, 0, 0))
        lines += [(i, 1, 0) for i in range(1, a)]
        lines += [(j, 0, 1) for j in range(1, b)]
    else:
        lines += [(i, 1, 0) for i in range(a)]
        lines += [(j, 0, 1) for j in range(b)]
    return ProjArrangement(2, tuple(lines))


def double_pencil_count(a: int, b: int, with_common_line: bool) -> int:
    return a * b if with_common_line else a * b + a + b - 1


def near_pencil(n: int) -> ProjArrangement:
    if n < 3:
        raise ValueError("need n >= 3")
    return double_pencil(2, n - 1, True)


PENCIL_ACTIONS = ("fresh", "cross1", "cross2", "stack", "stack_cross")


def pencil_extras_savings(program: Sequence[str]) -> list[int] | None:
    """Per-extra anchor savings for a placement program, None if infeasible.

    Savings of extra i (0-based) are capped at i: a point off the pencil
    apex lies on at most one pencil line, so every unit of saving consumes a
    distinct earlier extra.
    """
    savings = []
    stack_mult = 1  # lines through the stack point beyond the pencil line
    for i, action in enumerate(program):
        if action == "fresh":
            savings.append(0)
        elif action == "cross1":
            if i < 1:
                return None
            savings.append(1)
        elif action == "cross2":
            if i < 2:
                return None
            savings.append(2)
        elif action == "stack":
            if i < 1:
                return None
            savings.append(stack_mult)
            stack_mult += 1
        elif action == "stack_cross":
            # through the stack point and one simple point on a non-stacked line
            if i < 2 or stack_mult + 1 > i:
                return None
            savings.append(stack_mult + 1)
            stack_mult += 1
        else:
            raise ValueError(f"unknown action {action!r}")
        if savings[-1] > i:
            return None
    return savings


def _feasible_programs(max_extras: int) -> tuple[tuple[tuple[tuple[str, ...], int], ...], ...]:
    """(program, total saving) of every feasible program, indexed by length.

    `pencil_extras_savings` refuses a program at its first infeasible action,
    so only feasible prefixes need extending, and extending them in action
    order keeps the order of `itertools.product(PENCIL_ACTIONS, repeat=k)`.
    """
    table = [(((), 0),)]
    for _ in range(max_extras):
        table.append(tuple((p + (a,), sum(s)) for p, _ in table[-1] for a in PENCIL_ACTIONS
                           if (s := pencil_extras_savings(p + (a,))) is not None))
    return tuple(table)


# a program's saving S gives its count at q as in pencil_with_extras_count
PENCIL_PROGRAMS = _feasible_programs(5)


def pencil_with_extras_count(q: int, program: Sequence[str]) -> int | None:
    """q + the sum over extras i of q + i - savings[i]; None if infeasible."""
    savings = pencil_extras_savings(program)
    if savings is None:
        return None
    k = len(program)
    return q * (k + 1) + k * (k - 1) // 2 - sum(savings)


def pencil_with_extras(q: int, program: Sequence[str]) -> ProjArrangement:
    """Pencil of q lines plus len(program) extra lines placed per action.

    Actions: fresh (no anchors), cross1/cross2 (through one or two existing
    double points), stack (through the running stack point, the crossing of
    the first extra with the first pencil line), stack_cross (stack point
    plus one fresh double point on a line that avoids the stack).
    """
    if q < 2:
        raise ValueError("need a pencil of at least two lines")
    savings = pencil_extras_savings(program)
    if savings is None:
        raise PlacementError(f"program {program!r} is not realizable")
    builder = _PlaneBuilder((i, 1, 0) for i in range(q))
    # a cross anchor on the stack point would leave a later stack above its bound
    reserved: set[Vec] = set()
    for i, action in enumerate(program):
        expected = q + i - savings[i]
        if action == "fresh":
            line = builder.scan_line_through([], expected)
        elif action == "cross1":
            anchor = _first_simple_point(builder, forbid_lines=set(), avoid=reserved)
            line = builder.scan_line_through([anchor], expected)
        elif action == "cross2":
            first = _first_simple_point(builder, forbid_lines=set(), avoid=reserved)
            second = _first_simple_point(
                builder, forbid_lines=builder.points[first], avoid=reserved)
            line = builder.scan_line_through([first, second], expected)
        elif action == "stack":
            line = builder.scan_line_through([stack_point], expected)
        else:  # stack_cross
            other = _first_simple_point(builder, forbid_lines=builder.points[stack_point])
            line = builder.scan_line_through([stack_point, other], expected)
        builder.place(line)
        if i == 0:  # the first extra is fresh: it misses the apex
            stack_point = primitive_normalize(cross3(line, builder.lines[0]))
            if {"stack", "stack_cross"} & set(program):
                reserved.add(stack_point)
    arr = ProjArrangement(2, tuple(builder.lines))
    if validate(arr):
        raise PlacementError("pencil-with-extras construction degenerated")
    return arr


def _first_simple_point(builder: _PlaneBuilder, forbid_lines: set[int],
                        avoid: set[Vec] = frozenset()) -> Vec:
    for p, lines in builder.points.items():
        if p in avoid:
            continue
        if len(lines) == 2 and not (lines & forbid_lines):
            return p
    raise PlacementError("no admissible double point available")


def cone(base: ProjArrangement, extras: int = 1,
         through_point: tuple[int, int] | None = None) -> ProjArrangement:
    """Lift of `base` through a new apex, plus `extras` hyperplanes off it.

    The first extra is the coordinate hyperplane meeting the lift in a copy
    of the base; with exactly one extra the region count doubles.  Further
    extras need a plane base (d = 2): they avoid every base crossing, or,
    when `through_point` names two base lines, pass through their crossing.
    """
    if extras < 1:
        raise PlacementError("a cone needs at least one hyperplane off the apex")
    if through_point is not None and extras == 1:
        raise PlacementError("a through point needs at least two extras")
    covs = [u + (0,) for u in base.covectors]
    covs.append(tuple([0] * (base.d + 1)) + (1,))
    if extras > 1:
        if base.d != 2:
            raise PlacementError("multiple extras are only catalogued over plane bases")
        builder = _PlaneBuilder(base.covectors)
        anchors = [] if through_point is None else [base_crossing(base, through_point)[0]]
        for _ in range(extras - 1):
            w = builder.scan_line_through(anchors, builder.crossing_bound(anchors))
            builder.place(w)
            covs.append(w + (1,))
    return ProjArrangement(base.d + 1, tuple(covs))


def base_crossing(base: ProjArrangement, pair: tuple[int, int]) -> tuple[Vec, int]:
    """The crossing of the two plane-base lines `pair` indexes, and the number
    of base lines through it."""
    i, j = pair
    if i == j or not (0 <= i < base.n and 0 <= j < base.n):
        raise PlacementError(
            f"a through point needs two different base lines in 0..{base.n - 1}, "
            f"got {i} and {j}")
    p = primitive_normalize(cross3(base.covectors[i], base.covectors[j]))
    return p, sum(dot(u, p) == 0 for u in base.covectors)


def cone_count(base_count: int, extras: int, base_n: int | None = None,
               through_multiplicity: int = 1) -> int | None:
    """Predicted count for a cone over a plane base, None without a closed form.

    One extra doubles the base count.  A second extra adds the n - (mu - 1)
    points where its trace crosses the n base lines, mu being the number of
    base lines through its chosen crossing (1 for none).  With more extras
    the traces stop being mutually generic; those cones have no closed form.
    """
    if extras == 1:
        return 2 * base_count
    if extras == 2 and base_n is not None:
        return 3 * base_count + base_n - (through_multiplicity - 1)
    return None


def two_extra_planes(base: ProjArrangement, coincidences: int = 0,
                     line_in_union: bool = False) -> ProjArrangement:
    """Cone over a plane base plus two planes meeting in a line l.

    The count is 3 * f(base) + (number of distinct base traces on l), and
    3 * f(base) when l lies inside the lifted base.  `coincidences` merges
    that many traces: small values anchor l on crossing points of the base,
    and a value matching (pencil size - 1) for a double-pencil base routes
    l through that pencil's apex, collapsing it entirely.
    """
    if base.d != 2:
        raise PlacementError("the base must be a plane arrangement")
    builder = _PlaneBuilder(base.covectors)
    n2 = base.n
    covs = [u + (0,) for u in base.covectors]
    covs.append((0, 0, 0, 1))
    if line_in_union:
        w = base.covectors[0]
        covs.append(tuple(w) + (1,))
        return ProjArrangement(3, tuple(covs))

    w = None
    if coincidences == 0:
        w = builder.scan_line_through([], n2)
    else:
        for anchors in _coincidence_anchor_sets(builder, coincidences):
            try:
                w = builder.scan_line_through(list(anchors), n2 - coincidences)
                break
            except PlacementError:
                continue
        if w is None:
            raise PlacementError(
                f"{coincidences} trace coincidences are not realizable "
                "over this base")
    covs.append(tuple(w) + (1,))
    arr = ProjArrangement(3, tuple(covs))
    if validate(arr):
        raise PlacementError("two-extra construction degenerated")
    return arr


def two_extra_planes_count(base_count: int, base_n: int,
                           coincidences: int = 0,
                           line_in_union: bool = False) -> int:
    if line_in_union:
        return 3 * base_count
    return 3 * base_count + base_n - coincidences


def _coincidence_anchor_sets(builder: _PlaneBuilder, coincidences: int):
    """Candidate anchor tuples whose multiplicity savings sum to the target.

    A point of multiplicity mu absorbs mu - 1 trace coincidences.  Singles
    come first (double points for 1, disjoint double pairs for 2, a matching
    pencil apex otherwise), then apex+point pairs whose savings add up, so
    every decomposition of the requested count is eventually tried.
    """
    doubles = builder.double_points()
    apexes = [p for p, on in builder.points.items() if len(on) > 2]
    emitted = 0
    if coincidences == 1:
        for p in doubles:
            yield (p,)
            emitted += 1
            if emitted > 80:
                return
    if coincidences == 2:
        for i, p1 in enumerate(doubles):
            for p2 in doubles[i + 1:]:
                if builder.points[p1] & builder.points[p2]:
                    continue
                yield (p1, p2)
                emitted += 1
                if emitted > 80:
                    return
            if emitted > 80:
                return
    for p in apexes:
        if len(builder.points[p]) - 1 == coincidences:
            yield (p,)
    for p1 in apexes:
        s1 = len(builder.points[p1]) - 1
        for p2 in apexes + doubles:
            if p2 == p1 or (builder.points[p1] & builder.points[p2]):
                continue
            if s1 + len(builder.points[p2]) - 1 == coincidences:
                yield (p1, p2)
                emitted += 1
                if emitted > 160:
                    return


def three_extra_planes(base: ProjArrangement, s2: int, s3: int, s23: int) -> ProjArrangement:
    """Cone over a plane base plus three planes off the apex.

    The three extra planes are the base coordinate plane and two planes
    whose base traces are the lines w2 and w3; seen from the apex, their
    mutual intersection is a line omega of the pencil spanned by w2 and w3.
    The anchor counts (s2, s3, s23) say how many existing crossings each of
    w2, w3 and omega must absorb, which walks the count 4 f(base) + 3 n + 1
    downward in steps of one.  w3 is scanned over the base, omega over the
    base and w3, so it can be anchored on base crossings and on crossings
    of w3; w2 is then a line of the pencil of omega and w3, through its
    anchor when s2 = 1, and no linear system is solved.
    """
    if base.d != 2:
        raise PlacementError("the base must be a plane arrangement")
    if not (0 <= s2 <= 1 and 0 <= s3 <= 1 and 0 <= s23 <= 2):
        raise PlacementError("supported anchor counts: s2, s3 <= 1, s23 <= 2")
    builder = _PlaneBuilder(base.covectors)
    doubles = builder.double_points()
    n2 = base.n

    if len(doubles) < s2 + s3 + s23:
        raise PlacementError("not enough double points in the base")
    a3 = doubles[:s3]
    w3 = builder.scan_line_through(list(a3), n2 - s3)

    # anchors of w2 and omega, taken off w3
    pool = [p for p in doubles if p not in a3 and dot(w3, p) != 0]
    if len(pool) < s2 + (1 if s23 else 0):
        raise PlacementError("anchor pool exhausted")
    z1 = pool[s2:s2 + 1] if s23 else []
    anchor_sets: Iterable[list[Vec]] = [z1]
    if s23 == 2:
        # the second omega anchor is the crossing of w3 with a base line; the
        # crossing bound refuses a base crossing and a line through z1
        anchor_sets = (z1 + [primitive_normalize(cross3(w3, line))] for line in builder.lines)

    # a new line in RP^2 adds one region per distinct point it crosses, so
    # these counts give f(base + w2) = f(base) + n - s2 and, with the scan's
    # n - s3 for w3, f(base + w3 + omega) = f(base) + (n - s3) + (n + 1 - s23)
    with_w3 = _PlaneBuilder(builder.lines + [w3])
    for anchors in anchor_sets:
        for omega in with_w3.lines_through(anchors, n2 + 1 - s23):
            # the planes (w2, b) and (w3, 1) meet above omega = w2 - b w3
            if s2:
                # omega misses every crossing but its anchors, so omega . p != 0
                p = pool[0]
                b = -dot(omega, p)
                w2 = tuple(dot(w3, p) * o + b * w for o, w in zip(omega, w3))
            else:
                b = 1
                w2 = tuple(o + w for o, w in zip(omega, w3))
            w2n = primitive_normalize(w2)
            if w2n in builder.lines or builder.crossings(w2n) != n2 - s2:
                continue
            covs = [u + (0,) for u in builder.lines]
            covs.append((0, 0, 0, 1))
            covs.append(w2 + (b,))
            covs.append(w3 + (1,))
            arr = ProjArrangement(3, tuple(covs))
            if not validate(arr):
                return arr
    raise PlacementError(f"no placement found for anchors ({s2}, {s3}, {s23})")


def three_extra_planes_count(base_count: int, base_n: int,
                             s2: int, s3: int, s23: int) -> int:
    return 4 * base_count + 3 * base_n + 1 - s2 - s3 - s23


# ---------------------------------------------------------------------------
# toric generators


def toric_construction_a(n: int, d: int, k: int,
                         offsets: Sequence[Fraction] | None = None) -> ToricArrangement:
    """k coordinate subtori plus n-k parallel translates: f = n - k."""
    if not 0 <= k <= d - 1:
        raise ValueError("need 0 <= k <= d-1")
    if n - k < 1:
        raise ValueError("need at least one translated subtorus")
    count = n - k
    if offsets is None:
        offsets = [Fraction(j, count + 1) for j in range(1, count + 1)]
    if len(offsets) != count:
        raise ValueError(f"need {count} offsets")
    fracs = [Fraction(c) % 1 for c in offsets]
    if len(set(fracs)) != count:
        raise OffsetCollisionError("offsets must have pairwise distinct fractional parts")
    subtori = []
    for i in range(k):
        normal = tuple(1 if j == i else 0 for j in range(d))
        subtori.append(Subtorus.make(normal, 0))
    axis = tuple(1 if j == k else 0 for j in range(d))
    for c in fracs:
        subtori.append(Subtorus.make(axis, c))
    return ToricArrangement(d, tuple(subtori))


def toric_construction_b(n: int, d: int, k: int,
                         offsets: Sequence[Fraction] | None = None) -> ToricArrangement:
    """Coordinate subtori, a slope-k geodesic, and n-d parallels: f = 2(n-d)+k.

    Requires k >= 1 when n = d (two parallel circles would remain otherwise
    and the count formula does not apply).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if k < 0:
        raise ValueError("slope must be nonnegative")
    if n < d:
        raise ValueError("need n >= d")
    if n == d and k == 0:
        raise PlacementError("n = d with slope 0 degenerates to parallel circles")
    count = n - d
    if offsets is None:
        offsets = [Fraction(2 * j - 1, 2 * count + 1) for j in range(1, count + 1)]
    if len(offsets) != count:
        raise ValueError(f"need {count} offsets")
    fracs = [Fraction(c) % 1 for c in offsets]
    if len(set(fracs)) != count:
        raise OffsetCollisionError("offsets must have pairwise distinct fractional parts")
    for c in fracs:
        if (k * c + Fraction(1, 2)).denominator == 1:
            raise TripleIntersectionError(
                f"k * {c} + 1/2 is an integer; three subtori would share a point")
    subtori = []
    for i in range(1, d):
        normal = tuple(1 if j == i else 0 for j in range(d))
        subtori.append(Subtorus.make(normal, 0))
    slope_normal = tuple([-k, 1] + [0] * (d - 2))
    subtori.append(Subtorus.make(slope_normal, Fraction(1, 2)))
    e1 = tuple([1] + [0] * (d - 1))
    for c in fracs:
        subtori.append(Subtorus.make(e1, c))
    return ToricArrangement(d, tuple(subtori))


def toric_construction_b_count(n: int, d: int, k: int) -> int:
    return 2 * (n - d) + k
