"""Closed-form lower bounds and predicted region-count spectra.

Pure exact functions.  Bounds may be fractional; comparisons against the
integer region count f always go through the ceiling, exposed on
`BoundValue`.  The spectra here are the package's reference predictions:

* `first_four_counts(n, d)`: for d >= 3 and n >= 2d+5 the four smallest
  region counts realizable by n hyperplanes in RP^d.
* `low_counts_3d(n)`: for n >= 50 the full list of 36 realizable counts up
  to 12n-60 for arrangements in RP^3, stored as (slope, intercept) pairs in
  n so any n is supported and sortedness can be checked.
* `martinov_subset(n)`: the members of Martinov's plane spectrum up to
  4n-12, i.e. the four smallest counts for n lines in RP^2.
* `toric_spectrum_contains(n, d, f)`: membership in the predicted spectrum
  for n codimension-one subtori of the flat torus T^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb


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
    the Klein bottle), and Z otherwise.
    """

    kind: str
    dim: int
    genus: int = 0

    @property
    def coefficient_group(self) -> str:
        return "Z2" if self.kind in ("projective_space", "klein_bottle") else "Z"


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
    if n < d + 1:
        raise ValueError("need n >= d+1")
    return BoundValue(Fraction((n - d + 1) * 2 ** (d - 1)))


def bound_quadratic(n: int, d: int, m: int) -> BoundValue:
    """f >= 2 (n^2 - n) / (m - d + 5)."""
    if m < d:
        raise ValueError("need m >= d")
    return BoundValue(Fraction(2 * (n * n - n), m - d + 5))


# ---------------------------------------------------------------------------
# predicted spectra


def first_four_cap(n: int, d: int) -> int:
    return 7 * (n - d) * 2 ** (d - 3)


def first_four_counts(n: int, d: int) -> list[int]:
    """The four smallest realizable counts for n hyperplanes in RP^d.

    Valid for d >= 3 and n >= 2d+5; the fourth value is the threshold below
    which nothing else is realizable.
    """
    if d < 3 or n < 2 * d + 5:
        raise OutOfTheoremRangeError(f"(n, d) = ({n}, {d}) outside d >= 3, n >= 2d+5")
    values = [
        (n - d + 1) * 2 ** (d - 1),
        3 * (n - d) * 2 ** (d - 2),
        (3 * n - 3 * d + 1) * 2 ** (d - 2),
        7 * (n - d) * 2 ** (d - 3),
    ]
    if any(a >= b for a, b in zip(values, values[1:])):
        raise RuntimeError(f"first four counts not increasing at (n, d) = ({n}, {d})")
    return values


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


def low_range_cap_3d(n: int) -> int:
    return 12 * n - 60


def low_counts_3d(n: int) -> list[int]:
    """All 36 realizable counts up to 12n-60 for n >= 50 planes in RP^3."""
    if n < 50:
        raise OutOfTheoremRangeError(f"n = {n} below the validity threshold 50")
    values = [a * n + b for a, b in LOW_COUNT_FORMS_3D]
    if len(values) != 36 or any(a >= b for a, b in zip(values, values[1:])):
        raise RuntimeError(f"low-count forms are not 36 increasing values at n = {n}")
    return values


def martinov_subset(n: int) -> set[int]:
    """Members of the plane spectrum for n lines up to 4n-12.

    These are Martinov's four smallest values {2n-2, 3n-6, 3n-5, 4n-12};
    callers indexing by a deleted line should evaluate at n-1.  The values
    are pairwise distinct for n >= 8 (3n-5 = 4n-12 at n = 7).
    """
    if n < 7:
        raise OutOfTheoremRangeError(f"(n, d) = ({n}, 2) outside d = 2, n >= 7")
    return {2 * n - 2, 3 * n - 6, 3 * n - 5, 4 * n - 12}


def toric_spectrum_contains(n: int, d: int, f: int) -> bool:
    """Membership in the predicted spectrum for n subtori of T^d.

    Every positive integer when n <= d; otherwise
    {n-d+1, ..., n} union {l : l >= 2(n-d)}.
    """
    if n < 2 or d < 2 or f < 1:
        raise ValueError("need n >= 2, d >= 2, f >= 1")
    if n <= d:
        return True
    return (n - d + 1 <= f <= n) or f >= 2 * (n - d)


def toric_predicted_values(n: int, d: int, cap: int) -> list[int]:
    return [f for f in range(1, cap + 1) if toric_spectrum_contains(n, d, f)]
