import random

import pytest

from plde.equation import PLDE
from plde.factored import FactoredPoly
from plde.lattice import IntLattice, UnimodularMatrix
from plde.polyring import Poly, parse_poly, parse_rational
from plde.spread import invariance_lattice
from plde.transform import (build_normalizing_frame, frame_for, map_point, normalize_first_shift,
                            transform_equation)
from plde.verify import check_solution
from support import VARS2, act_on_rational, random_instance, random_rational, random_unimodular

N_CASES = 200


def P(text):
    return parse_poly(text, VARS2)


def test_act_identity():
    y = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    assert act_on_rational(UnimodularMatrix.identity(2), y) == y


def test_act_reproduces_transformed_solution():
    A = UnimodularMatrix([[0, 1], [1, -1]])
    y = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    assert act_on_rational(A, y) == parse_rational("(3*k^2-4*n*k+2*n^2)/(n+1)", VARS2)


def test_act_on_constant():
    c = parse_rational("7", VARS2)
    assert act_on_rational(UnimodularMatrix([[0, 1], [1, -1]]), c) == c


def test_transform_identity_and_round_trip(ex1):
    I = UnimodularMatrix.identity(2)
    assert transform_equation(ex1, I).terms == ex1.terms
    M = UnimodularMatrix([[1, 1], [1, 0]])
    back = transform_equation(transform_equation(ex1, M), M.inverse())
    assert back.support == ex1.support
    assert all(back.terms[s].expand() == ex1.terms[s].expand() for s in ex1.support)


def test_transform_reproduces_normalized_example(ex1, nrm):
    A = UnimodularMatrix([[0, 1], [1, -1]])
    out = transform_equation(ex1, A.inverse())
    assert out.support == [(0, 0), (1, 0), (1, 1)]
    assert out.support == nrm.support
    for s in out.support:
        assert out.terms[s].expand() == nrm.terms[s].expand()


def test_shift_conjugation_identity():
    rng = random.Random(601)
    for _ in range(N_CASES):
        A = random_unimodular(rng, 2)
        y = random_rational(rng)
        s = (rng.randint(-2, 2), rng.randint(-2, 2))
        lhs = act_on_rational(A, y.shift(s))
        rhs = act_on_rational(A, y).shift(A.inverse().apply(s))
        assert lhs == rhs


def test_transform_round_trip_random():
    rng = random.Random(602)
    for i in range(40):
        eq, y, _ = random_instance(1000 + i)
        M = random_unimodular(rng, 2)
        there = transform_equation(eq, M)
        back = transform_equation(there, M.inverse())
        assert back.support == eq.support
        assert all(back.terms[s].expand() == eq.terms[s].expand() for s in eq.support)
        # solution correspondence
        ty = act_on_rational(M.inverse(), y)
        assert check_solution(there, ty).ok


# ----------------------------------------------------------------------
# frames


def test_frame_for_diagonal_module(sys1):
    W = IntLattice(2, [(1, -1)])
    frame, _ = frame_for(sys1, W, (1, 1))
    assert frame.M.rows[0] == (1, 1)
    img = frame.M.apply((1, -1))
    assert img[0] == 0
    assert frame.t == 1


def test_frame_zero_module_identity_admissible(sys1):
    W = IntLattice.zero(2)
    frame, _ = frame_for(sys1, W, (1, 0))
    assert frame.M.rows[0] == (1, 0)
    assert frame.t == 2


def test_frame_already_normalized():
    W = IntLattice(2, [(0, 1)])
    assert build_normalizing_frame(W, (1, 0)) == UnimodularMatrix.identity(2)


def test_frame_rejects_bad_covectors():
    W = IntLattice(2, [(1, -1)])
    with pytest.raises(ValueError):
        build_normalizing_frame(W, (1, 0))  # not orthogonal
    with pytest.raises(ValueError):
        build_normalizing_frame(W, (2, 2))  # imprimitive


def test_normalize_first_shift():
    terms = {(1, 0): FactoredPoly(VARS2, 1, [(P("n+1"), 1)]),
             (2, 1): FactoredPoly(VARS2, 1, [(P("k+1"), 1)])}
    eq = PLDE(VARS2, terms, Poly.zero(VARS2))
    out, offset = normalize_first_shift(eq)
    assert sorted(out.terms) == [(0, 0), (1, 1)]
    assert offset == (-1, 0)
    assert out.terms[(0, 0)].expand() == P("n")  # coefficients shift along

    again, off2 = normalize_first_shift(out)
    assert again.terms == out.terms and off2 == (0, 0)


def test_normalize_first_shift_sys2(sys2):
    out, offset = normalize_first_shift(sys2)
    assert sorted(out.terms) == sys2.support and offset == (0, 0)


def test_frame_makes_periodic_factors_leading_free(sys1):
    # in the adapted frame, factors with spread inside W lose the leading variable
    W = IntLattice(2, [(1, -1)])
    frame, eqn = frame_for(sys1, W, (1, 1))
    vertical = IntLattice(2, [(0, 1)])
    p_img = map_point(frame, (0, 0))
    for prim, _ in eqn.terms[p_img].factors:
        lat = invariance_lattice(prim)
        if lat == vertical:
            assert prim.degree_in(1) == 0
