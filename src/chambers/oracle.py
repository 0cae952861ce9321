"""Brute-force region counting by sign-vector enumeration.

Independent of the deletion-restriction sweep and the poset: a region of
the central lift is a feasible strict sign vector (sigma_i u_i . x > 0 for
all i), decided by exact integer linear feasibility with primitive integer
witnesses.
Projective regions are antipodal pairs of central ones.  A ProjArrangement
is checked when it is made, so the oracle does not check it again.

Enumeration is the shared depth-first walk over sign prefixes
(`feasibility.walk_sign_vectors`), which prunes infeasible prefixes, reuses
a parent's witness and basis, and discards children that a verified Gordan
certificate already refutes.  Each call charges the programs it solves to
one budget of `feasibility.SWEEP_GUARD` entries, so an instance is refused
by the work its programs would take, not by its number of hyperplanes.
"""

from __future__ import annotations

from typing import Sequence

from .feasibility import SWEEP_GUARD, feasible_point, walk_sign_vectors
from .projective import ProjArrangement


def sign_vector_feasible(arr: ProjArrangement, signs: Sequence[int]) -> bool:
    """True iff some x in Z^(d+1) has sign_i * (u_i . x) > 0 for all i."""
    if len(signs) != arr.n:
        raise ValueError("sign vector length must match the arrangement")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    rows = [tuple(s * x for x in u) for s, u in zip(signs, arr.covectors)]
    return feasible_point(rows, arr.d + 1, [SWEEP_GUARD]) is not None


def count_regions_oracle(arr: ProjArrangement) -> int:
    """Region count as (number of feasible sign vectors) / 2.

    Feasible vectors come in antipodal pairs, so only the branch with
    sigma_1 = +1 is walked and its leaf count is the projective answer.
    """
    first, *rest = arr.covectors
    dim = arr.d + 1
    budget = [SWEEP_GUARD]
    witness = feasible_point([first], dim, budget)
    return sum(1 for _ in walk_sign_vectors((first,), witness, rest, dim, budget))
