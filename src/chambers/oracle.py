"""Brute-force region counting by sign-vector enumeration.

Independent of the deletion-restriction sweep and the poset: a region of
the central lift is a feasible strict sign vector (sigma_i u_i . x > 0 for
all i), decided by exact integer linear feasibility with primitive integer
witnesses.
Projective regions are antipodal pairs of central ones.  A ProjArrangement
is checked when it is made, so the oracle does not check it again.

Enumeration is the shared depth-first walk over sign prefixes
(`feasibility.walk_sign_vectors`): infeasible prefixes are pruned, each node
carries a witness point, and a child only pays for a linear program when the
parent's witness does not lie strictly on the required side of the next
hyperplane.  That program starts warm from the phase-one basis of the
nearest solved ancestor and takes about two pivots.  A program that finds
its child empty leaves a Gordan certificate (a convex combination of the
held signed rows that is zero), which the walk verifies exactly and, for the
rest of that one walk, uses to discard every child with the same signs on
the certificate's rows without solving it.
"""

from __future__ import annotations

from typing import Sequence

from .feasibility import TooLargeError, feasible_point, walk_sign_vectors
from .projective import ProjArrangement

ENUMERATION_GUARD = 24


def sign_vector_feasible(arr: ProjArrangement, signs: Sequence[int]) -> bool:
    """True iff some x in Z^(d+1) has sign_i * (u_i . x) > 0 for all i."""
    if arr.n > ENUMERATION_GUARD:
        raise TooLargeError(f"n = {arr.n} exceeds the enumeration guard")
    if len(signs) != arr.n:
        raise ValueError("sign vector length must match the arrangement")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    rows = [tuple(s * x for x in u) for s, u in zip(signs, arr.covectors)]
    return feasible_point(rows, arr.d + 1) is not None


def count_regions_oracle(arr: ProjArrangement) -> int:
    """Region count as (number of feasible sign vectors) / 2.

    Feasible vectors come in antipodal pairs, so only the branch with
    sigma_1 = +1 is walked and its leaf count is the projective answer.
    """
    if arr.n > ENUMERATION_GUARD:
        raise TooLargeError(f"n = {arr.n} exceeds the enumeration guard")
    first, *rest = arr.covectors
    dim = arr.d + 1
    witness = feasible_point([first], dim)
    return sum(1 for _ in walk_sign_vectors((first,), witness, rest, dim))
