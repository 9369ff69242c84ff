import itertools
import operator
import random

import pytest

from plde.lattice import (IntLattice, ShiftCoset, UnimodularMatrix, integer_kernel,
                          is_sublattice, orthogonal_complement_lattice, parse_module,
                          reduce_by_span, saturation)
from support import complement_within, coset_contains, identity_matrix, solve_integer

N_CASES = 200


def L(*rows, dim=2):
    return IntLattice(dim, rows)


# ----------------------------------------------------------------------
# canonical forms


def test_hnf_reduction():
    assert IntLattice(2, [(2, 0), (0, 2), (1, 1)]).basis == ((1, 1), (0, 2))


def test_hnf_empty_and_single():
    assert IntLattice(2, []).rank == 0
    assert IntLattice(2, [(1, -1)]).basis == ((1, -1),)


def test_hnf_checks_the_length_of_zero_rows():
    for rows in ([(1, 0), (0,)], [(0,)], [(0, 0, 0), (1, 0)]):
        with pytest.raises(ValueError, match="row length"):
            IntLattice(2, rows)


def test_hnf_idempotent_and_order_free():
    rng = random.Random(201)
    for _ in range(N_CASES):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(rng.randint(0, 4))]
        a = IntLattice(3, rows)
        rng.shuffle(rows)
        assert IntLattice(3, rows) == a
        assert IntLattice(3, a.basis) == a


# ----------------------------------------------------------------------
# membership


def test_contains():
    assert L((1, -1)).contains((3, -3))
    assert not L((1, -1)).contains((2, -3))
    assert IntLattice.zero(2).contains((0, 0))
    assert not IntLattice.zero(2).contains((1, 0))
    for v in ((1, -1, 0), (1,)):
        with pytest.raises(ValueError):
            L((1, -1)).contains(v)
        with pytest.raises(ValueError):
            L((1, -1)).reduce(v)


def test_is_sublattice():
    assert not is_sublattice(L((2, -3)), L((1, -1)))
    assert is_sublattice(IntLattice.zero(2), L((1, -1)))
    assert is_sublattice(L((2, -2)), L((1, -1)))


def test_membership_matches_span():
    rng = random.Random(202)
    for _ in range(N_CASES):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        lat = IntLattice(3, rows)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        v = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        assert lat.contains(v)


# ----------------------------------------------------------------------
# saturation and complements


def test_saturation_examples():
    assert saturation(L((2, -2))) == L((1, -1))
    assert saturation(L((1, -1))) == L((1, -1))
    assert saturation(IntLattice.zero(2)).rank == 0


def test_orthogonal_complement_examples():
    assert orthogonal_complement_lattice(L((1, -1))) == L((1, 1))
    assert orthogonal_complement_lattice(L((2, -3))) == L((3, 2))
    assert orthogonal_complement_lattice(IntLattice.zero(2)) == IntLattice.full(2)


def test_complement_involution_on_saturated():
    rng = random.Random(203)
    for _ in range(N_CASES):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rng.randint(0, 3))]
        sat = saturation(IntLattice(3, rows))
        assert orthogonal_complement_lattice(orthogonal_complement_lattice(sat)) == sat
        assert is_sublattice(IntLattice(3, rows), sat)
        assert saturation(sat) == sat


# ----------------------------------------------------------------------
# cosets


def test_coset_normalize_examples():
    c = ShiftCoset.of((3, -3), L((1, -1)))
    assert c.base == (0, 0)
    c = ShiftCoset.of((2, 5), IntLattice.zero(2))
    assert c.base == (2, 5)
    assert ShiftCoset.empty(2).is_empty


def test_coset_membership():
    c = ShiftCoset.of((-2, 0), L((1, -1)))
    assert coset_contains(c, (-2, 0)) and coset_contains(c, (0, -2))
    assert not coset_contains(c, (0, 0))


# ----------------------------------------------------------------------
# integer solving (the solver of the staged reference_shift_equiv in tests/support.py)
# and reduction modulo a span


def test_reduce_by_span_matches_the_hermite_reduction():
    # seeded spans of 0-4 vectors in Z^1 to Z^4, dependent ones included
    rng = random.Random(208)
    for _ in range(N_CASES):
        n = rng.randint(1, 4)
        vectors = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        if vectors and rng.random() < 0.3:
            vectors.append([2 * a - b for a, b in zip(vectors[0], vectors[-1])])
        v = [rng.randint(-9, 9) for _ in range(n)]
        t, K = reduce_by_span(vectors, v)
        reached = [x + sum(ti * w[j] for ti, w in zip(t, vectors)) for j, x in enumerate(v)]
        assert tuple(reached) == IntLattice(n, vectors).reduce(v)
        assert IntLattice(len(vectors), K) == integer_kernel([list(col) for col in zip(*vectors)],
                                                             len(vectors))


def test_solve_integer_basic():
    sol = solve_integer([[2, 0], [0, 3]], [4, 9], 2)
    assert sol is not None and sol[0] == (2, 3) and sol[1].rank == 0
    assert solve_integer([[2, 0]], [3], 2) is None  # no integral solution
    sol = solve_integer([[1, 1]], [5], 2)
    s0, ker = sol
    assert s0[0] + s0[1] == 5 and ker == L((1, -1))


def test_solve_integer_random_against_definition():
    # seeded systems of 1-4 rows in 2-4 columns, solvable and not, against
    # the solutions found by brute force in a box
    rng = random.Random(205)
    outcomes = set()
    for _ in range(N_CASES):
        ncols = rng.randint(2, 4)
        radius = 2 if ncols == 4 else 3
        A = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            x = [rng.randint(-radius, radius) for _ in range(ncols)]
            b = [sum(map(operator.mul, row, x)) for row in A]
        else:
            b = [rng.randint(-6, 6) for _ in A]
        box = [x for x in itertools.product(range(-radius, radius + 1), repeat=ncols)
               if all(sum(map(operator.mul, row, x)) == bi for row, bi in zip(A, b))]
        sol = solve_integer(A, b, ncols)
        outcomes.add(sol is None)
        if sol is None:
            assert not box
            continue
        s0, ker = sol
        assert all(sum(map(operator.mul, row, s0)) == bi for row, bi in zip(A, b))
        assert ker == integer_kernel(A, ncols)
        # the box solutions are exactly the box points of the coset s0 + ker
        assert box == [x for x in itertools.product(range(-radius, radius + 1), repeat=ncols)
                       if ker.contains([a - c for a, c in zip(x, s0)])]
    assert outcomes == {True, False}


def test_integer_kernel():
    K = integer_kernel([[2, -3]], 2)
    assert K == L((3, 2))
    assert integer_kernel([[1, 0], [0, 1]], 2).rank == 0


def test_complement_within():
    # the complement that the staged reference_shift_equiv of tests/support.py starts from
    K = IntLattice.full(2)
    G = L((1, -1))
    C = complement_within(K, G)
    assert C.rank == 1
    joined = IntLattice(2, list(G.basis) + list(C.basis))
    assert joined == IntLattice.full(2)
    with pytest.raises(ValueError):
        complement_within(IntLattice.full(2), L((2, 0)))  # not saturated
    # random saturated G inside K, in Z^3 and Z^4
    rng = random.Random(207)
    rejected = 0
    for _ in range(N_CASES):
        dim = rng.choice((3, 4))
        G = saturation(IntLattice(dim, [[rng.randint(-3, 3) for _ in range(dim)]
                                        for _ in range(rng.randint(0, dim))]))
        extra = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
        K = IntLattice(dim, list(G.basis) + extra)
        C = complement_within(K, G)
        assert IntLattice(dim, list(G.basis) + list(C.basis)) == K
        assert C.rank == K.rank - G.rank
        other = IntLattice(dim, extra)
        if not is_sublattice(G, other):
            rejected += 1
            with pytest.raises(ValueError):
                complement_within(other, G)
    assert rejected > N_CASES // 4


def test_unimodular_matrix_inverse():
    rng = random.Random(206)
    from support import random_unimodular

    for _ in range(N_CASES):
        M = random_unimodular(rng, 3)
        inv = M.inverse().rows
        I = [[sum(a * inv[t][j] for t, a in enumerate(row)) for j in range(3)] for row in M.rows]
        assert UnimodularMatrix(I) == identity_matrix(3)
        assert M.inverse().inverse() is M
    # determinant 0, +-2, and ragged rows
    for rows in ([[0, 0], [0, 0]], [[1, 2], [2, 4]], [[2, 0], [0, 1]], [[1, 1], [1, -1]],
                 [[1, 0], [0]], [[1, 0, 0], [0, 1]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError):
            UnimodularMatrix(rows)


def test_parse_module():
    assert parse_module("1,-1", 2) == L((1, -1))
    assert parse_module("1,0;0,1", 2) == IntLattice.full(2)
    assert parse_module("0", 2).rank == 0
    with pytest.raises(ValueError):
        parse_module("1,2,3", 2)
