import random

from plde.lattice import UnimodularMatrix
from plde.polyring import parse_poly, parse_rational
from plde.transform import transform_equation, witness_levels
from plde.verify import check_solution
from support import (VARS2, act_on_rational, identity_matrix, random_instance, random_rational,
                     random_unimodular, same_rational, shift_rational)

N_CASES = 200


def P(text):
    return parse_poly(text, VARS2)


def test_act_identity():
    y = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    assert same_rational(act_on_rational(identity_matrix(2), y), y)


def test_act_reproduces_transformed_solution():
    A = UnimodularMatrix([[0, 1], [1, -1]])
    y = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    assert same_rational(act_on_rational(A, y), parse_rational("(3*k^2-4*n*k+2*n^2)/(n+1)", VARS2))


def test_act_on_constant():
    c = parse_rational("7", VARS2)
    assert same_rational(act_on_rational(UnimodularMatrix([[0, 1], [1, -1]]), c), c)


def test_transform_identity_and_round_trip(ex1):
    I = identity_matrix(2)
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
        lhs = act_on_rational(A, shift_rational(y, s))
        rhs = shift_rational(act_on_rational(A, y), A.inverse().apply(s))
        assert same_rational(lhs, rhs)


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
# witness levels


def test_witness_levels(sys1):
    # the level of s above p is u . (s - p): the first coordinate of a
    # unimodular M with first row u, applied to s - p
    levels = witness_levels(sys1.terms, (1, 1), (0, 0))
    assert levels == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    M = UnimodularMatrix([[3, 2], [1, 1]])
    assert witness_levels([(2, -1), (5, 7)], (3, 2), (1, 1)) == {
        s: M.apply([a - b for a, b in zip(s, (1, 1))])[0] for s in [(2, -1), (5, 7)]}
