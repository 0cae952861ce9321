import hashlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chambers import feasibility
from chambers.exactlin import cross3, primitive_scale
from chambers.feasibility import (SWEEP_GUARD, PhaseOneBasis, TooLargeError, feasible_point,
                                  walk_sign_vectors)
from chambers.oracle import sign_vector_feasible
from chambers.projective import ProjArrangement


def fourier_motzkin_feasible(rows):
    """Independent oracle: eliminate variables from {r . x > 0} directly.

    Decides the same strict system as feasible_point; a zero row survives every
    elimination and makes the answer False.
    """
    rows = [tuple(Fraction(a) for a in r) for r in rows]
    while rows and len(rows[0]) > 1:
        pos = [r for r in rows if r[0] > 0]
        neg = [r for r in rows if r[0] < 0]
        new_rows = [r[1:] for r in rows if r[0] == 0]
        for p, q in itertools.product(pos, neg):
            comb = tuple(p[0] * qj - q[0] * pj for pj, qj in zip(p[1:], q[1:]))
            if not any(comb):
                return False
            new_rows.append(comb)
        rows = new_rows
    if not rows:
        return True
    return all(r[0] > 0 for r in rows) or all(r[0] < 0 for r in rows)


def decide(rows, dim, basis=None):
    """Feasibility, checking that a witness is primitive, integer and strict."""
    x = feasible_point(rows, dim, [SWEEP_GUARD], basis)
    if x is not None:
        assert all(type(xi) is int for xi in x)
        assert math.gcd(*x) == 1
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, x)) > 0
    return x is not None


class TestKnownSystems:
    def test_orthant(self):
        assert decide([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)

    def test_opposite_pair_infeasible(self):
        assert not decide([(1, 1), (-1, -1)], 2)

    def test_near_opposite_feasible(self):
        assert decide([(1, 0), (-1, 1)], 2)

    def test_surrounding_sectors_infeasible(self):
        assert not decide([(1, 0), (-1, 2), (-1, -2)], 2)

    def test_empty_system(self):
        assert feasible_point([], 3, [SWEEP_GUARD]) == (0, 0, 0)

    def test_fraction_rows_refused(self):
        with pytest.raises(ValueError):
            feasible_point([(Fraction(1, 2), Fraction(-1, 3)), (0, 1)], 2, [SWEEP_GUARD])
        with pytest.raises(ValueError):
            feasible_point([(3, -2), (Fraction(0), 1)], 2, [SWEEP_GUARD])

    def test_row_length_must_match_dim(self):
        with pytest.raises(ValueError):
            # feasible in three variables
            feasible_point([(1, 0, 1), (-1, 0, 1)], 2, [SWEEP_GUARD])
        with pytest.raises(ValueError):
            feasible_point([(1, 0), (1,)], 2, [SWEEP_GUARD])

    def test_degenerate_equality_like(self):
        # x >= 1 and -x >= 1 squeezed through a shared hyperplane
        assert not decide([(1, 0), (-1, 0)], 2)
        assert not decide([(1, 0), (-1, 0), (0, 1)], 2)


nonzero_row = (lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n)
               .map(tuple).filter(lambda r: any(r)))


class TestAgainstFourierMotzkin:
    @given(st.lists(nonzero_row(2), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=150)
    def test_dim2(self, rows):
        assert decide(rows, 2) == fourier_motzkin_feasible(rows)

    @given(st.lists(nonzero_row(3), min_size=1, max_size=5))
    @settings(deadline=None, max_examples=150)
    def test_dim3(self, rows):
        assert decide(rows, 3) == fourier_motzkin_feasible(rows)


@st.composite
def prefix_and_system(draw):
    """A system in dim 2..4 with entries in [-3, 3], zero rows, repeated rows,
    parallel rows of another length and antiparallel rows, and a prefix length."""
    dim = draw(st.integers(2, 4))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "parallel")) if rows
                    else st.just("fresh"))
        if kind == "fresh":
            rows.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))))
        elif kind == "zero":
            rows.append((0,) * dim)
        else:
            r = draw(st.sampled_from(tuple(rows)))
            if any(r):
                r = primitive_scale(r)
            rows.append(tuple(draw(st.sampled_from((1, -1))) * a for a in r))
    return dim, rows, draw(st.integers(1, len(rows)))


class TestWarmStart:
    @given(prefix_and_system())
    @settings(deadline=None, max_examples=200)
    def test_warm_equals_cold(self, case):
        dim, rows, cut = case
        basis = PhaseOneBasis(dim)
        feasible_point(rows[:cut], dim, [SWEEP_GUARD], basis)
        warm = decide(rows, dim, basis)
        assert warm == decide(rows, dim) == fourier_motzkin_feasible(rows)

    def test_basis_of_another_dimension_refused(self):
        with pytest.raises(ValueError):
            feasible_point([(1, 0, 0)], 3, [SWEEP_GUARD], PhaseOneBasis(2))


class TestBudget:
    def test_refuses_before_pivoting(self):
        # three rows in two variables charge 3 * 3 + 3^3 = 36 entries.  The
        # basis the prefix left must come back from a refusal as it went in,
        # and the solve that the budget covers must pivot it
        rows = [(1, 0), (-1, 2), (-1, -2)]
        basis = PhaseOneBasis(2)
        feasible_point(rows[:1], 2, [SWEEP_GUARD], basis)

        def state():
            return basis.ids[:], [row[:] for row in basis.inv], basis.rhs[:], basis.den

        before = state()
        budget = [35]
        with pytest.raises(TooLargeError):
            feasible_point(rows, 2, budget, basis)
        assert state() == before
        budget = [36]
        assert feasible_point(rows, 2, budget, basis) is None
        assert budget == [0]
        assert state() != before


def kernel_stream(seed=1209, count=400):
    """Seeded systems in dim 2..4 with fresh, repeated, antiparallel, combined
    and zero rows, each with a prefix length to warm-start from (0: cold)."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(2, 4)
        rows = []
        for _ in range(rng.randint(1, 6)):
            kind = (rng.choice(("fresh", "fresh", "fresh", "repeat", "flip", "sum", "sum",
                                "fresh", "zero")) if rows else "fresh")
            if kind == "fresh":
                rows.append(tuple(rng.randint(-5, 5) for _ in range(dim)))
            elif kind == "zero":
                rows.append((0,) * dim)
            elif kind == "sum":
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randint(1, 3), rng.randint(-3, 3)
                rows.append(tuple(s * p + t * q for p, q in zip(a, b)))
            else:
                r = rng.choice(rows)
                rows.append(r if kind == "repeat" else tuple(-a for a in r))
        yield dim, rows, rng.randint(0, len(rows))


# sha256 over (witness or None, ids, inv, rhs, den) after every solve of
# kernel_stream(): the prefix first when the system warm-starts, then the
# whole system on the same basis.  It pins feasible_point's pivots, and so
# its witnesses and the bases it leaves, to those of the plain revised
# simplex it was first written as; a change that only makes it faster
# leaves the digest as it is.
KERNEL_DIGEST = "37f2921a255e9b7be514d6c2021542199ad272e6fc0b557a9e9b3e7717aca273"


def test_kernel_pivots_are_pinned():
    digest = hashlib.sha256()
    outcomes = {True: 0, False: 0}
    for dim, rows, cut in kernel_stream():
        basis = PhaseOneBasis(dim)
        for part in ((rows[:cut],) if cut else ()) + (rows,):
            x = feasible_point(part, dim, [SWEEP_GUARD], basis)
            digest.update(repr((x, basis.ids, basis.inv, basis.rhs, basis.den)).encode())
        outcomes[x is None] += 1
    assert outcomes == {True: 201, False: 199}
    assert digest.hexdigest() == KERNEL_DIGEST


def test_randomized_dim4_witnesses_verify():
    rng = random.Random(7)
    for _ in range(60):
        k = rng.randint(1, 9)
        rows = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(k)]
        rows = [r for r in rows if any(r)]
        if rows:
            decide(rows, 4)


def test_walk_matches_sign_vector_feasible():
    arr = ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3),
                              (1, -1, 2)))
    leaves = dict(walk_sign_vectors((), (0, 0, 0), arr.covectors, 3, [SWEEP_GUARD]))
    for signs in itertools.product((1, -1), repeat=arr.n):
        assert (signs in leaves) == sign_vector_feasible(arr, signs)
    for signs, x in leaves.items():
        assert math.gcd(*x) == 1
        assert all(s * sum(a * b for a, b in zip(u, x)) > 0
                   for s, u in zip(signs, arr.covectors))


def test_walk_solves_both_children_below_a_witness_on_the_next_row():
    base, first = (1, 0, 0), (0, 1, 0)
    # the walk's witness after sign +1 on `first`
    x = feasible_point([base, first], 3, [SWEEP_GUARD])
    on_x = cross3(x, (0, 0, 1))  # a row through that witness
    assert sum(a * b for a, b in zip(on_x, x)) == 0
    rows = (first, on_x, (1, 1, -1), (2, -1, 1), (1, -2, -3))
    arr = ProjArrangement(2, (base,) + rows)
    leaves = dict(walk_sign_vectors((base,), base, rows, 3, [SWEEP_GUARD]))
    for signs in itertools.product((1, -1), repeat=len(rows)):
        assert (signs in leaves) == sign_vector_feasible(arr, (1,) + signs)
    for signs, x in leaves.items():
        assert math.gcd(*x) == 1
        assert all(s * sum(a * b for a, b in zip(u, x)) > 0
                   for s, u in zip((1,) + signs, arr.covectors))


def cube_rows(dim):
    """The toric cube engine's base rows in dim homogeneous coordinates:
    w > 0 and 0 < x_i < w for the dim - 1 affine coordinates."""
    rows = [(0,) * (dim - 1) + (1,)]
    for i in range(dim - 1):
        e = [0] * dim
        e[i] = 1
        rows.append(tuple(e))
        e[i], e[-1] = -1, 1
        rows.append(tuple(e))
    return rows


@st.composite
def walk_case(draw):
    """Up to 8 nonzero rows in dim 2..4, with repeated, antiparallel and
    concurrent rows (a combination of two earlier rows passes through their
    common flat), and whether to walk under the cube rows."""
    dim = draw(st.integers(2, 4))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("fresh", "fresh", "repeat", "antiparallel", "concurrent"))
                    if rows else st.just("fresh"))
        if kind == "fresh":
            row = draw(nonzero_row(dim))
        else:
            r = draw(st.sampled_from(tuple(rows)))
            if kind == "repeat":
                row = r
            elif kind == "antiparallel":
                row = tuple(-draw(st.integers(1, 2)) * a for a in r)
            else:
                q = draw(st.sampled_from(tuple(rows)))
                a, b = draw(st.integers(1, 2)), draw(st.sampled_from((-2, -1, 1, 2)))
                row = tuple(a * x + b * y for x, y in zip(r, q))
                if not any(row):
                    row = r
        rows.append(row)
    return dim, rows, draw(st.booleans())


def solves_of_walk(base, witness, rows, dim):
    """The walk's leaves, and (held rows, certificate or None) per LP it solved.

    A certificate is the set of (position, held row) pairs of its support,
    read from the basis the LP left and checked by the walk's own verifier.
    """
    solves = []

    def recording(held, dim, budget, basis=None):
        x = feasible_point(held, dim, budget, basis)
        cert = None
        if x is None:
            cert = {(j, held[j]) for j in feasibility._certificate_support(held, basis, dim)}
        solves.append((held, cert))
        return x

    with mock.patch.object(feasibility, "feasible_point", recording):
        leaves = dict(walk_sign_vectors(base, witness, rows, dim, [SWEEP_GUARD]))
    return leaves, solves


class TestWalkAgainstBruteForce:
    """The walk's leaves are exactly the sign vectors that Fourier-Motzkin
    finds feasible, over all of {+1, -1}^n, and it never solves a child that
    a certificate it already holds refutes.  A certificate filed under the
    wrong side is never found again (a child it refutes keeps its parent's
    witness), so only the second check sees it; one keyed by the wrong
    depths drops leaves."""

    @given(walk_case())
    @settings(deadline=None, max_examples=150)
    def test_leaves_are_the_feasible_sign_vectors(self, case):
        dim, rows, on_cube = case
        base = cube_rows(dim) if on_cube else []
        witness = (1,) * (dim - 1) + (2,) if on_cube else (0,) * dim
        leaves, solves = solves_of_walk(base, witness, rows, dim)
        want = {signs for signs in itertools.product((1, -1), repeat=len(rows))
                if fourier_motzkin_feasible(
                    base + [tuple(s * a for a in r) for s, r in zip(signs, rows)])}
        assert set(leaves) == want
        for signs, x in leaves.items():
            assert math.gcd(*x) == 1
            assert all(sum(a * b for a, b in zip(r, x)) > 0 for r in base)
            assert all(s * sum(a * b for a, b in zip(r, x)) > 0 for s, r in zip(signs, rows))
        for i, (held, _) in enumerate(solves):
            for earlier, cert in solves[:i]:
                refuted = (cert is not None and len(earlier) == len(held)
                           and all(held[j] == r for j, r in cert))
                assert not refuted, f"{held} was solved again after {earlier} refuted it"


def test_a_forged_certificate_is_refused():
    held = ((1, 0), (-1, 0), (0, 1))
    basis = PhaseOneBasis(2)
    assert feasible_point(held[:2], 2, [SWEEP_GUARD], basis) is None
    assert sorted(feasibility._certificate_support(held, basis, 2)) == [0, 1]
    basis.ids, basis.rhs, basis.den = [0, 2, ~2], [1, 1, 0], 2  # (1, 0) + (0, 1) != 0
    with pytest.raises(RuntimeError, match="certificate verification failed"):
        feasibility._certificate_support(held, basis, 2)
    basis.ids, basis.den = [0, 1, ~2], 3  # weights 1 + 1 do not add up to den
    with pytest.raises(RuntimeError, match="certificate verification failed"):
        feasibility._certificate_support(held, basis, 2)
