"""Shift equivalence of polynomials: spread lattices, cosets, dispersion.

For an irreducible p the invariance group {g : p(n+g) = p(n)} is computed
exactly as the integer kernel of the directional-derivative system: a
vector v fixes p if and only if the derivative of p along v vanishes
identically (the t |-> p(n+tv) curve is polynomial, so vanishing of its
derivative makes it constant).  That kernel is automatically saturated.

The pairwise problem N^s q = c p is solved in stages: leading forms pin
down the constant c, the next homogeneous layer is linear in s and yields
a candidate coset over Z, and invariance of q reduces the remainder to a
residual over directions that meet no invariance vector.  The residual is
closed exactly by iterated linear extraction: each round decides the
question or removes a direction (`_solve_residual` says why), so there is
no search and no uncertain answer.  `spread_box_oracle` is a brute force
kept for cross-checks only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .lattice import (IntLattice, ShiftCoset, clear_denominators, complement_within,
                      integer_kernel, solve_integer)
from .polyring import (MAX_BOX_POINTS, InvariantError, Poly, UnsupportedInputError, gcd_poly,
                       normalize_primitive)

if TYPE_CHECKING:
    from .factored import FactoredPoly

NEG_INFINITY = float("-inf")
INFINITY = float("inf")


@lru_cache(maxsize=None)
def invariance_lattice(p: Poly) -> IntLattice:
    """Lattice of integer shifts fixing p; equals Spread(p) for irreducible p."""
    if p.is_constant():
        raise ValueError("spread of a constant polynomial is not defined here")
    r = len(p.vars)
    partials = [p.partial(i) for i in range(r)]
    monomials = sorted(set().union(*(q.terms.keys() for q in partials)))
    mat = [clear_denominators([partials[i].terms.get(e, 0) for i in range(r)])
           for e in monomials]
    K = integer_kernel(mat, r)
    if any(p.shift(g) != p for g in K.basis):
        raise InvariantError("a kernel vector of the partials does not fix the polynomial")
    return K


def shift_equiv(p: Poly, q: Poly) -> ShiftCoset:
    """All s with q(n+s) = c * p(n) for some nonzero constant c.

    Empty, or a coset of the invariance lattice of q.  For irreducible p
    and q this is Spread(p, q) = {s : gcd(p, N^s q) != 1}, since a
    nontrivial gcd forces N^s q and p to be associates.
    """
    if p.is_constant() or q.is_constant():
        raise ValueError("shift equivalence needs non-constant inputs")
    if p.vars != q.vars:
        raise ValueError("mismatched variable lists")
    r = len(p.vars)
    p = normalize_primitive(p)[1]
    q = normalize_primitive(q)[1]
    d = q.total_degree()
    if p.total_degree() != d:
        return ShiftCoset.empty(r)
    # shifting preserves the top homogeneous form, so lf(q) must be c*lf(p)
    c = Fraction(q.leading_coefficient(), p.leading_coefficient())
    if q.leading_form() != p.leading_form() * c:
        return ShiftCoset.empty(r)
    target = p * c

    # homogeneous layer d-1 of q(n+s) is q_{d-1} + sum_i s_i d/dn_i(q_d): linear in s
    top = q.leading_form()
    partials = [top.partial(i) for i in range(r)]
    rhs_poly = target.homogeneous_component(d - 1) - q.homogeneous_component(d - 1)
    monomials = sorted(set(rhs_poly.terms)
                       | set().union(*(pp.terms.keys() for pp in partials)))
    rows = [clear_denominators([pp.terms.get(e, 0) for pp in partials]
                               + [rhs_poly.terms.get(e, 0)]) for e in monomials]
    sol = solve_integer([row[:-1] for row in rows], [row[-1] for row in rows], r)
    if sol is None:
        return ShiftCoset.empty(r)
    s0, K = sol

    G = invariance_lattice(q)
    Kprime = complement_within(K, G)
    if Kprime.rank == 0:
        # single candidate class: one full-identity test decides everything
        if q.shift(s0) == target:
            return ShiftCoset.of(s0, G)
        return ShiftCoset.empty(r)
    found = _solve_residual(q, target, list(s0), [list(v) for v in Kprime.basis])
    return ShiftCoset.empty(r) if found is None else ShiftCoset.of(found, G)


def _residual_system(q: Poly, target: Poly, s0, directions):
    """q(n + s0 + sum t_i dir_i) - target as equations over the t variables.

    Returns one polynomial in QQ[t] per monomial in the original variables.
    """
    m = len(directions)
    r = len(q.vars)
    tvars = tuple(q.vars) + tuple("_t%d" % i for i in range(m))
    gens = [Poly.variable(tvars, v) for v in tvars]
    exprs = []
    for j in range(r):
        e = gens[j] + Poly.const(tvars, s0[j])
        for i in range(m):
            if directions[i][j]:
                e = e + gens[r + i] * directions[i][j]
        exprs.append(e)
    phi = q.compose(exprs, tvars) - target.compose(gens[:r], tvars)
    eqs = {}
    for e, c in phi.terms.items():
        key = e[:r]
        te = e[r:]
        eqs.setdefault(key, {})[te] = c
    tonly = tuple(tvars[r:])
    return [Poly(tonly, terms) for terms in eqs.values()]


def _solve_residual(q, target, s0, directions):
    """The s in s0 + span_Z(directions) with q(n + s) = target, or None.

    Why this is exact: no v(t) = sum t_i directions[i] with t != 0 lies in
    span_Q(G), G the invariance lattice of q (the directions complement
    the saturated G), so (v(t) . grad) q is not zero.  Let D1 be the
    largest n-degree among the (directions[i] . grad) q(n + s0).  In the
    Taylor expansion of q(n + s0 + v(t)) the term of order j >= 2 in v
    has n-degree at most D1 - j + 1, and the order-0 term does not involve
    t, so the coefficients of the n-monomials of degree D1 in
    q(n + s0 + v(t)) - target are affine in t with a nonzero linear part.
    Each round solves every equation of degree at most one in t over Z,
    those among them: it finds no solution, or a single candidate that one
    identity test decides, or fewer directions spanning a sublattice, for
    which the same holds.  The rounds therefore end after at most len(directions) steps,
    and every exit that does not decide raises InvariantError.
    """
    while True:
        m = len(directions)
        linear = [e for e in _residual_system(q, target, s0, directions)
                  if not e.is_zero() and e.total_degree() <= 1]
        if not linear:
            raise InvariantError("the residual system has no affine equation in the directions")
        units = [tuple(int(j == i) for j in range(m)) for i in range(m)]
        rows = [clear_denominators([e.terms.get(u, 0) for u in units]
                                   + [-e.terms.get((0,) * m, 0)]) for e in linear]
        sol = solve_integer([row[:-1] for row in rows], [row[-1] for row in rows], m)
        if sol is None:
            return None
        tau, ker = sol
        if ker.rank == m:
            raise InvariantError("the affine residual equations do not involve the directions")
        cand = [a + sum(tau[i] * directions[i][j] for i in range(m)) for j, a in enumerate(s0)]
        if ker.rank == 0:
            return tuple(cand) if q.shift(cand) == target else None
        s0 = cand
        directions = [
            [sum(row[i] * directions[i][j] for i in range(m)) for j in range(len(s0))]
            for row in ker.basis
        ]


def disp_k(a: FactoredPoly, b: FactoredPoly, u):
    """Dispersion along the covector u over all factor pairs of a and b.

    The dispersion of a pair is |u . s| for s in its spread coset, so
    u = e_k measures along axis k.  Returns NEG_INFINITY when every pair
    spread is empty, INFINITY when a coset direction g has u . g != 0, and
    the exact maximum otherwise.
    """
    if len(u) != len(a.vars):
        raise ValueError("covector %r does not have %d entries" % (tuple(u), len(a.vars)))
    best = NEG_INFINITY
    for f, _ in a.factors:
        for g, _ in b.factors:
            coset = shift_equiv(f, g)
            if coset.is_empty:
                continue
            if any(sum(x * y for x, y in zip(u, row)) for row in coset.lattice.basis):
                return INFINITY
            best = max(best, abs(sum(x * y for x, y in zip(u, coset.base))))
    return best


def spread_box_oracle(p: Poly, q: Poly, radius: int):
    """Brute force: all s in the box with gcd(p, N^s q) nonconstant."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    r = len(p.vars)
    if (2 * radius + 1) ** r > MAX_BOX_POINTS:
        raise UnsupportedInputError("unsupported box: radius %d in %d variables is more than %d points"
                                    % (radius, r, MAX_BOX_POINTS))
    hits = set()
    for s in itertools.product(range(-radius, radius + 1), repeat=r):
        g = gcd_poly(p, q.shift(s))
        if not g.is_constant():
            hits.add(s)
    return hits
