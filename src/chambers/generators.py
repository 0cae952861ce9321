"""Constructive arrangement families with known region counts.

Every generator is deterministic: free parameters come from small integer
scans.  The plane builders place each line through anchors, crossings of
the lines already placed.  An anchor where mu lines meet saves mu - 1
crossings, so a line through anchors saving s meets the n placed lines in
at most n - s distinct points, and exactly n - s when it passes through no
other crossing.  One walk, `_PlaneBuilder.anchor_sets`, lists the anchor
sets for a saving, and `_PlaneBuilder.place_line` places the first line
that reaches its anchors' bound, so a built arrangement realizes precisely
the incidence pattern its recipe names and the recipe's predicted count is
trustworthy.  Builders raise PlacementError when no anchor set admits a
line, or a requested pattern is otherwise not realizable.

Projective families (all exact integer covectors):

* general_position: covectors on the moment curve, multiplicity m = d.
* double_pencil: a lines through one point, b through another, optionally
  sharing the connecting line; the classic low-count plane families.
* pencil_with_extras: a pencil of q lines plus up to five extra lines, each
  placed through anchors that save what its action names; `PENCIL_PROGRAMS`
  holds one program per total saving, as in Martinov's plane spectrum.
* cone: lift of a base arrangement with every hyperplane through a common
  apex, plus extra hyperplanes missing the apex.  One extra doubles the
  base count.
* two_extra_planes / three_extra_planes: a cone over a plane base plus two
  or three extra planes whose traces on the base save chosen numbers of
  crossings; these realize the odd-slope members of the low spectrum in
  RP^3.  Every line they place comes from the anchor walk, or from the
  pencil of two lines it placed, so no generator solves a linear system.

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
from .projective import ProjArrangement, ValidationError
from .toric import ToricArrangement


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

    def anchor_sets(self, saving: int, through: Vec | None = None,
                    avoid: Sequence[Vec] = ()) -> Iterator[tuple[Vec, ...]]:
        """Every tuple of at most two crossings, no two on a common line,
        whose savings mu - 1 add up to `saving`, each once; `through`, a
        crossing, leads every tuple, and no other anchor is in `avoid`.

        Double points alone come first (the empty tuple for a saving of 0),
        then one crossing of more lines, then such a crossing paired with
        another.
        """
        def gain(p: Vec) -> int:
            return len(self.points[p]) - 1

        others = [p for p in self.points if p not in avoid]

        def pairs(p: Vec, rest: int, among: Sequence[Vec]) -> Iterator[tuple[Vec, Vec]]:
            return ((p, o) for o in among if gain(o) == rest
                    and not self.points[p] & self.points[o])

        if through is not None:
            rest = saving - gain(through)
            if rest == 0:
                yield (through,)
            elif rest > 0:
                yield from pairs(through, rest, others)
            return
        if saving == 0:
            yield ()
        if saving == 2:
            doubles = [p for p in others if gain(p) == 1]
            for i, p in enumerate(doubles):
                yield from pairs(p, 1, doubles[i + 1:])
        yield from ((p,) for p in others if gain(p) == saving)
        led: set[Vec] = set()  # a pair of two such crossings is tried once
        for p in others:
            if 1 < gain(p) < saving:
                yield from pairs(p, saving - gain(p), [o for o in others if o not in led])
                led.add(p)

    def lines_through(self, anchors: Sequence[Vec]) -> Iterator[Vec]:
        """Each of up to 2001 candidate lines through the anchors that is not
        placed and meets the placed lines in `crossing_bound(anchors)` points,
        so that it passes through no crossing but the anchors."""
        if len(anchors) > 2:
            raise PlacementError("a line passes through at most two chosen points")
        bound = self.crossing_bound(anchors)
        if len(anchors) == 2:
            candidates: Iterable[Vec] = [cross3(anchors[0], anchors[1])]
        elif len(anchors) == 1:
            candidates = (cross3(anchors[0], (1, t, t * t)) for t in itertools.count(1))
        else:
            candidates = ((t * t + 1, t, 1) for t in itertools.count(1))
        for cand in itertools.islice(candidates, 2001):
            if any(cand):
                line = primitive_normalize(cand)
                if line not in self.lines and self.crossings(line) == bound:
                    yield line

    def place_line(self, saving: int, through: Vec | None = None,
                   avoid: Sequence[Vec] = ()) -> Vec:
        """Place and return the first line `lines_through` admits for an
        anchor set of `anchor_sets(saving, through, avoid)`."""
        for anchors in self.anchor_sets(saving, through, avoid):
            for line in self.lines_through(anchors):
                self.place(line)
                return line
        raise PlacementError(
            f"{saving} trace coincidences are not realizable over this base")


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


def _programs_by_saving(max_extras: int) -> tuple[tuple[tuple[tuple[str, ...], int], ...], ...]:
    """Indexed by k, (program, S) for S = 0, 1, ...: the first feasible program
    of k actions saving S in `itertools.product(PENCIL_ACTIONS, repeat=k)`
    order, which extending the feasible prefixes in action order keeps."""
    feasible = [((), 0)]
    table = [tuple(feasible)]
    for _ in range(max_extras):
        feasible = [(p + (a,), sum(s)) for p, _ in feasible for a in PENCIL_ACTIONS
                    if (s := pencil_extras_savings(p + (a,))) is not None]
        first = {s: p for p, s in reversed(feasible)}  # each saving's first
        table.append(tuple((first[s], s) for s in sorted(first)))
    return tuple(table)


# Martinov's pencil of q lines plus k extras: one program per saving
# S = 0..C(k, 2), whose count at q is pencil_with_extras_count(q, k, S)
PENCIL_PROGRAMS = _programs_by_saving(5)


def pencil_with_extras_count(q: int, k: int, saving: int) -> int:
    """q + the sum over the k extras i of q + i - savings[i], given the
    program's total saving (`PENCIL_PROGRAMS` or `pencil_extras_savings`)."""
    return q * (k + 1) + k * (k - 1) // 2 - saving


def pencil_with_extras(q: int, program: Sequence[str]) -> ProjArrangement:
    """Pencil of q lines plus len(program) extra lines placed per action.

    Extra i is a line through anchors, crossings whose savings mu - 1 add up
    to the action's saving, `pencil_extras_savings(program)[i]`, so it crosses
    q + i - saving distinct points.  fresh saves nothing, cross1 and cross2
    save one and two at crossings of earlier lines.  stack goes through the
    stack point, the crossing of the first extra with pencil line 0, and
    stack_cross through it and one more double point off its lines.
    """
    if q < 2:
        raise ValueError("need a pencil of at least two lines")
    savings = pencil_extras_savings(program)
    if savings is None:
        raise PlacementError(f"program {program!r} is not realizable")
    builder = _PlaneBuilder((i, 1, 0) for i in range(q))
    stack_point = None
    # a cross anchor on the stack point would leave a later stack above its saving
    reserved: tuple[Vec, ...] = ()
    for action, saving in zip(program, savings):
        stacked = action in ("stack", "stack_cross")
        line = builder.place_line(saving, stack_point if stacked else None, reserved)
        if stack_point is None:  # the first extra is fresh: it misses the apex
            stack_point = primitive_normalize(cross3(line, builder.lines[0]))
            if {"stack", "stack_cross"} & set(program):
                reserved = (stack_point,)
    return ProjArrangement(2, tuple(builder.lines))


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
        p = None if through_point is None else base_crossing(base, through_point)[0]
        for _ in range(extras - 1):
            saving = 0 if p is None else builder.multiplicity(p) - 1
            covs.append(builder.place_line(saving, p) + (1,))
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
    that many traces: l is anchored on base crossings whose savings mu - 1
    add up to it, so a value of (pencil size - 1) for a double-pencil base
    can route l through that pencil's apex, collapsing it entirely.
    """
    if base.d != 2:
        raise PlacementError("the base must be a plane arrangement")
    covs = [u + (0,) for u in base.covectors] + [(0, 0, 0, 1)]
    if line_in_union:
        covs.append(base.covectors[0] + (1,))
        return ProjArrangement(3, tuple(covs))
    covs.append(_PlaneBuilder(base.covectors).place_line(coincidences) + (1,))
    return ProjArrangement(3, tuple(covs))


def two_extra_planes_count(base_count: int, base_n: int,
                           coincidences: int = 0,
                           line_in_union: bool = False) -> int:
    if line_in_union:
        return 3 * base_count
    return 3 * base_count + base_n - coincidences


def three_extra_planes(base: ProjArrangement, s2: int, s3: int, s23: int) -> ProjArrangement:
    """Cone over a plane base plus three planes off the apex.

    The three extra planes are the base coordinate plane and two planes
    whose base traces are the lines w2 and w3; seen from the apex, their
    mutual intersection is a line omega of the pencil spanned by w2 and w3.
    The anchor counts (s2, s3, s23) say how many existing crossings each of
    w2, w3 and omega must absorb, which walks the count 4 f(base) + 3 n + 1
    downward in steps of one.  w3 is placed over the base through anchors
    saving s3, omega over the base and w3 through anchors saving s23, led
    by a base double point z1 off w3 when s23 > 0; w2 is then a line of the
    pencil of omega and w3, through its anchor when s2 = 1, and no linear
    system is solved.
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
    with_w3 = _PlaneBuilder(base.covectors)
    w3 = with_w3.place_line(s3)

    # anchors of w2 and omega, taken off w3; for s23 = 2 the walk pairs z1
    # with each double point off its lines but w2's anchor, on a near-pencil
    # base a crossing of w3 with a base line
    pool = [p for p in doubles if dot(w3, p) != 0]
    if len(pool) < s2 + (1 if s23 else 0):
        raise PlacementError("anchor pool exhausted")
    z1 = pool[s2] if s23 else None

    # a new line in RP^2 adds one region per distinct point it crosses, so
    # these counts give f(base + w2) = f(base) + n - s2 and, with the scan's
    # n - s3 for w3, f(base + w3 + omega) = f(base) + (n - s3) + (n + 1 - s23)
    for anchors in with_w3.anchor_sets(s23, z1, pool[:s2]):
        for omega in with_w3.lines_through(anchors):
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
            try:
                return ProjArrangement(3, tuple(covs))
            except ValidationError:
                continue
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
        subtori.append((normal, 0))
    axis = tuple(1 if j == k else 0 for j in range(d))
    for c in fracs:
        subtori.append((axis, c))
    return ToricArrangement.make(d, subtori)


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
        subtori.append((normal, 0))
    slope_normal = tuple([-k, 1] + [0] * (d - 2))
    subtori.append((slope_normal, Fraction(1, 2)))
    e1 = tuple([1] + [0] * (d - 1))
    for c in fracs:
        subtori.append((e1, c))
    return ToricArrangement.make(d, subtori)


def toric_construction_b_count(n: int, d: int, k: int) -> int:
    return 2 * (n - d) + k
