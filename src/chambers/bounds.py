"""Closed-form lower bounds and the paper's predicted region-count spectra.

Pure exact functions.  Bounds may be fractional; comparisons against the
integer region count f always go through the ceiling, exposed on
`BoundValue`.  Three bounds depend on the point multiplicity m, which costs
a walk over the arrangement to find; `multiplicity_bounds_hold_for_every_m`
decides from n, d and f alone whether f meets them at every possible m, and
only when it does not is m worth computing.  `CLAIMS` is the one statement
of each spectrum claim: its space, its range, its default cap and its values
as sorted disjoint intervals.  `predicted` lists them up to a cap, `contains`
tests one value, `projective_claim` picks the row a projective search is
checked against, and `chambers spectrum` lists one row per mode.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .feasibility import SWEEP_GUARD, TooLargeError


class OutOfTheoremRangeError(ValueError):
    """Requested parameters fall outside a spectrum's validity range."""


@dataclass(frozen=True)
class BoundValue:
    value: Fraction

    @property
    def ceil(self) -> int:
        return math.ceil(self.value)

    def holds_for(self, f: int) -> bool:
        return f >= self.ceil


# ---------------------------------------------------------------------------
# manifolds and the homological bound


@dataclass(frozen=True)
class Manifold:
    """Closed manifold descriptor for the codimension-one homology table.

    kind is one of sphere, projective_space, torus, orientable_surface,
    klein_bottle.  Coefficients are Z_2 whenever the manifold or its
    codimension-one submanifolds can be non-orientable (projective spaces,
    the Klein bottle), and Z otherwise.  A dimension below 1 is refused.
    """

    kind: str
    dim: int
    genus: int = 0

    def __post_init__(self):
        _check_dimension(self.dim)

    @property
    def coefficient_group(self) -> str:
        return "Z2" if self.kind in ("projective_space", "klein_bottle") else "Z"


def _check_dimension(d: int) -> None:
    if d < 1:
        raise ValueError(f"need dimension d >= 1, got d = {d}")


def sphere(d: int) -> Manifold:
    return Manifold("sphere", d)


def projective_space(d: int) -> Manifold:
    return Manifold("projective_space", d)


def torus(d: int) -> Manifold:
    return Manifold("torus", d)


def orientable_surface(genus: int) -> Manifold:
    return Manifold("orientable_surface", 2, genus)


def klein_bottle() -> Manifold:
    return Manifold("klein_bottle", 2)


def codim1_homology_dim(m: Manifold) -> int:
    """dim H_{d-1}(M, G) for the supported manifold kinds."""
    if m.kind == "sphere":
        return 0
    if m.kind == "projective_space":
        return 1  # Z_2 coefficients
    if m.kind == "torus":
        return m.dim
    if m.kind == "orientable_surface":
        return 2 * m.genus
    if m.kind == "klein_bottle":
        return 2  # Z_2 coefficients
    raise ValueError(f"unsupported manifold kind: {m.kind}")


def bound_homological(k: int, m: Manifold) -> BoundValue:
    """f >= k + 1 - dim H_{d-1}(M, G) for k transversal submanifolds."""
    if k < 1:
        raise ValueError("need at least one submanifold")
    return BoundValue(Fraction(k + 1 - codim1_homology_dim(m)))


# ---------------------------------------------------------------------------
# projective lower bounds in terms of n, d, and the point multiplicity m


def bound_multiplicity_sum(n: int, d: int, m: int) -> BoundValue:
    """f >= (m-d+1) * sum_j C(n, d-2j) / C(m-2j, d-2j), j = 0..floor(d/2)."""
    _check_dimension(d)
    if not d <= m <= n:
        raise ValueError("need d <= m <= n")
    total = Fraction(0)
    for j in range(d // 2 + 1):
        den = comb(m - 2 * j, d - 2 * j)
        if den <= 0:
            raise RuntimeError("binomial domain violated despite m >= d")
        total += Fraction(comb(n, d - 2 * j), den)
    return BoundValue((m - d + 1) * total)


def bound_multiplicity_product(n: int, d: int, m: int) -> BoundValue:
    """f >= (n-m+1)(m-d+2) 2^(d-2) for arrangements in RP^d, d >= 2."""
    if d < 2:
        raise ValueError("need d >= 2")
    if not d <= m <= n:
        raise ValueError("need d <= m <= n")
    return BoundValue(Fraction((n - m + 1) * (m - d + 2) * 2 ** (d - 2)))


def bound_mcmullen(n: int, d: int) -> BoundValue:
    """McMullen's bound (via Shannon): f >= (n-d+1) 2^(d-1)."""
    _check_dimension(d)
    if n < d + 1:
        raise ValueError("need n >= d+1")
    return BoundValue(Fraction((n - d + 1) * 2 ** (d - 1)))


def bound_quadratic(n: int, d: int, m: int) -> BoundValue:
    """f >= 2 (n^2 - n) / (m - d + 5)."""
    _check_dimension(d)
    if m < d:
        raise ValueError("need m >= d")
    return BoundValue(Fraction(2 * (n * n - n), m - d + 5))


def _log2_falling(a: int, k: int) -> float:
    """At least log2 of a (a-1) ... (a-k+1), for 0 <= k <= a."""
    if a >= 2 ** 32:  # beyond this lgamma's rounding error grows past the margin
        return k * a.bit_length()
    return (math.lgamma(a + 1) - math.lgamma(a - k + 1)) / math.log(2) + 1


def _log2_comb(a: int, k: int) -> float:
    """At least log2 C(a, k), for 0 <= k <= a."""
    k = min(k, a - k)
    if a >= 2 ** 32:
        return k * a.bit_length()
    return _log2_falling(a, k) - math.lgamma(k + 1) / math.log(2)


def bound_bits(n: int, d: int, m: int | None = None) -> int:
    """An upper bound on the bit length of every numerator and denominator
    of the homological and McMullen bounds at (n, d) and, when m is given,
    of the three bounds at m; for 1 <= d < n and d <= m <= n, found without
    computing any of them.

    McMullen's (n-d+1) 2^(d-1) has the most bits of the first three, and the
    product bound's (n-m+1)(m-d+2) 2^(d-2) more than the quadratic bound.
    The sum bound is (m-d+1) sum_j C(n, d-2j) / C(m-2j, d-2j), and its value
    is at most (m-d+1)(d//2+1) times the largest C(n, k) with k <= d.  Each
    denominator divides both m! / (m-d)! and lcm(1, ..., m) (Kummer's
    theorem on the primes dividing a binomial), and so does the reduced
    one.  The log of that lcm is Chebyshev's psi(m) < 1.03883 m (Rosser and
    Schoenfeld, Illinois J. Math. 6, 1962), which is under 1.5 m bits.
    """
    bits = d + n.bit_length() + 1
    if m is not None:
        numerator = (m.bit_length() + d.bit_length() + _log2_comb(n, min(d, n // 2))
                     + min(_log2_falling(m, d), 1.5 * m))
        bits = max(bits, d + 2 * n.bit_length() + 1, math.ceil(numerator) + 1)
    return bits


def multiplicity_bounds_hold_for_every_m(n: int, d: int, f: int) -> bool:
    """Whether f meets the sum, product and quadratic bounds at every m in
    [d, n], so that they hold whatever the arrangement's m is (d >= 2).

    Each bound takes its largest value over [d, n] at a point named here.
    The sum bound is (m-d+1) C(n, 0) for even d, plus C(n, 1) for odd d,
    plus terms C(n, k) k! / ((m-d+k) ... (m-d+2)) for k >= 2, each convex in
    m, so its top is at m = d or m = n.  The product bound is a concave
    quadratic in m with its top at (n+d-1)/2, so at the floor or the ceiling
    of that.  The quadratic bound decreases in m, so its top is at m = d.
    """
    middle = {min(max(m, d), n) for m in ((n + d - 1) // 2, (n + d) // 2)}
    return (all(bound_multiplicity_sum(n, d, m).holds_for(f) for m in (d, n))
            and all(bound_multiplicity_product(n, d, m).holds_for(f) for m in middle)
            and bound_quadratic(n, d, d).holds_for(f))


# ---------------------------------------------------------------------------
# predicted spectra


class Claim(NamedTuple):
    """One spectrum claim of the paper, for n hypersurfaces in `space`: its
    range, as text and as `in_range(n, d)`; `d`, the one dimension it speaks
    of, or None; its default `cap(n, d)`; `intervals(n, d)`, its values as
    sorted, disjoint, closed (lo, hi) pairs, the last with hi None when they
    go on past every cap; and its `chambers spectrum` mode and help."""

    space: str
    d: int | None
    range: str
    in_range: Callable[[int, int], bool]
    cap: Callable[[int, int], int]
    intervals: Callable[[int, int], list[tuple[int, int | None]]]
    flag: str
    help: str


# (slope, intercept) pairs: counts of the form slope * n + intercept
LOW_COUNT_FORMS_3D: tuple[tuple[int, int], ...] = (
    (4, -8),
    (6, -18), (6, -16),
    (7, -21), (7, -20),
    (8, -32), (8, -30), (8, -28), (8, -26),
    (9, -36), (9, -33), (9, -31), (9, -30),
    (10, -50), (10, -48), (10, -46), (10, -44), (10, -42), (10, -40),
    (10, -39), (10, -38), (10, -37), (10, -36), (10, -35),
    (11, -44), (11, -43), (11, -42), (11, -41), (11, -40),
    (12, -72), (12, -70), (12, -68), (12, -66), (12, -64), (12, -62), (12, -60),
)


# The claims, in the order `chambers spectrum` lists its modes.
CLAIMS: dict[str, Claim] = {
    "first_four": Claim(
        "projective", None, "d >= 3, n >= 2d+5", lambda n, d: d >= 3 and n >= 2 * d + 5,
        lambda n, d: 7 * (n - d) * 2 ** (d - 3),
        lambda n, d: [(v, v) for v in (
            (n - d + 1) * 2 ** (d - 1), 3 * (n - d) * 2 ** (d - 2),
            (3 * n - 3 * d + 1) * 2 ** (d - 2), 7 * (n - d) * 2 ** (d - 3))],
        "first-four", "four smallest counts in RP^d (d >= 3, n >= 2d+5)"),
    "low_range_3d": Claim(
        "projective", 3, "d = 3, n >= 50", lambda n, d: d == 3 and n >= 50,
        lambda n, d: 12 * n - 60, lambda n, d: [(a * n + b,) * 2 for a, b in LOW_COUNT_FORMS_3D],
        "low-range-3d", "all 36 counts up to 12n-60 in RP^3 (n >= 50)"),
    "toric_spectrum": Claim(
        "toric", None, "n >= 2, d >= 2", lambda n, d: n >= 2 and d >= 2, lambda n, d: 2 * n,
        lambda n, d: ([(max(1, n - d + 1), None)] if n <= 2 * d + 1  # parts meet: n+1 >= 2(n-d)
                      else [(n - d + 1, n), (2 * (n - d), None)]),
        "toric", "predicted toric spectrum up to --cap"),
    "martinov": Claim(
        "projective", 2, "d = 2, n >= 7", lambda n, d: d == 2 and n >= 7, lambda n, d: 4 * n - 12,
        lambda n, d: [(v, v) for v in sorted({2 * n - 2, 3 * n - 6, 3 * n - 5, 4 * n - 12})],
        "martinov", "plane spectrum members up to 4n-12"),
}


def _intervals(name: str, n: int, d: int) -> list[tuple[int, int | None]]:
    """The claim's intervals at (n, d), each lo above the previous hi."""
    claim = CLAIMS[name]
    if not claim.in_range(n, d):
        raise OutOfTheoremRangeError(f"(n, d) = ({n}, {d}) outside {claim.range}")
    intervals = claim.intervals(n, d)
    if any(hi is None or lo <= hi for (_, hi), (lo, _) in zip(intervals, intervals[1:])):
        raise RuntimeError(f"{name} values not increasing at (n, d) = ({n}, {d})")
    return intervals


def predicted(name: str, n: int, d: int, cap: int | None = None) -> tuple[int, list[int]]:
    """(cap, values): the claim's values at (n, d) up to cap, increasing, and
    the cap, which is the claim's default when `cap` is None.  Raises
    OutOfTheoremRangeError outside the claim's range, and TooLargeError, before
    listing, when the values go on past a cap above `SWEEP_GUARD`."""
    intervals = _intervals(name, n, d)
    cap = CLAIMS[name].cap(n, d) if cap is None else cap
    if intervals[-1][1] is None and cap > SWEEP_GUARD:
        raise TooLargeError(f"a listing of {name} up to cap {cap} could hold more "
                            f"than {SWEEP_GUARD} values")
    return cap, [f for lo, hi in intervals
                 for f in range(lo, (cap if hi is None else min(cap, hi)) + 1)]


def contains(name: str, n: int, d: int, f: int) -> bool:
    """Whether f is among the claim's values at (n, d); raises as `predicted`."""
    return any(lo <= f and (hi is None or f <= hi) for lo, hi in _intervals(name, n, d))


def projective_claim(n: int, d: int) -> str:
    """The claim a projective search at (n, d) is checked against: the first
    of martinov, low_range_3d and first_four whose range holds."""
    names = ("martinov", "low_range_3d", "first_four")
    for name in names:
        if CLAIMS[name].in_range(n, d):
            return name
    raise OutOfTheoremRangeError(
        f"(n, d) = ({n}, {d}) outside {'; '.join(CLAIMS[name].range for name in names)}")


def first_four_counts(n: int, d: int) -> list[int]:
    """The four smallest realizable counts for n hyperplanes in RP^d; nothing
    else is realizable below the fourth."""
    return predicted("first_four", n, d)[1]


def low_counts_3d(n: int) -> list[int]:
    """All 36 realizable counts up to 12n-60 for n planes in RP^3."""
    return predicted("low_range_3d", n, 3)[1]


def martinov_subset(n: int) -> set[int]:
    """Martinov's smallest values for n lines in RP^2, to 4n-12 (= 3n-5 at n = 7)."""
    return set(predicted("martinov", n, 2)[1])


def toric_spectrum_contains(n: int, d: int, f: int) -> bool:
    """Membership in the predicted spectrum for n subtori of T^d."""
    return contains("toric_spectrum", n, d, f)
