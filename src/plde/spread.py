"""Shift equivalence of polynomials: spread lattices, cosets, dispersion.

For an irreducible p the invariance group {g : p(n+g) = p(n)} is computed
exactly as the integer kernel of the directional-derivative system: a
vector v fixes p if and only if the derivative of p along v vanishes
identically (the t |-> p(n+tv) curve is polynomial, so vanishing of its
derivative makes it constant).  That kernel is automatically saturated.

The pairwise problem N^s q = c p is decided on primitive p and q with
positive leading coefficients, for which c = 1: a shift keeps the content
and the top-degree form, so a pair whose top-degree forms differ is ruled
out before anything else is computed.  Starting from s0 = 0 and
directions spanning a complement of the invariance lattice G of q, one
affine round is repeated: the top coefficients of q(n + s0 + v) - p are
affine in the weights of v over the directions, and integer solving
either rules the pair out or leaves fewer directions (`shift_equiv` says
why).  There is no search and no uncertain answer.  `spread_box_oracle`
is a brute force kept for cross-checks only.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING

from .lattice import IntLattice, ShiftCoset, complement_within, integer_kernel, solve_integer
from .polyring import (MAX_BOX_POINTS, InvariantError, Poly, UnsupportedInputError, add_terms,
                       gcd_poly, normalize_primitive, shift_terms)

if TYPE_CHECKING:
    from .factored import FactoredPoly

NEG_INFINITY = float("-inf")
INFINITY = float("inf")


def _derivative(a: dict, d) -> dict:
    """The term map of (d . grad) p for the polynomial p with term map a."""
    terms = {}
    for e, c in a.items():
        for j, (ej, dj) in enumerate(zip(e, d)):
            if ej and dj:
                f = e[:j] + (ej - 1,) + e[j + 1:]
                terms[f] = terms.get(f, 0) + c * ej * dj
    return {e: c for e, c in terms.items() if c}


def _top_form(a: dict) -> dict:
    """The terms of highest total degree of the nonzero term map a."""
    D = max(map(sum, a))
    return {e: c for e, c in a.items() if sum(e) == D}


@lru_cache(maxsize=None)
def invariance_lattice(p: Poly) -> IntLattice:
    """Lattice of integer shifts fixing p; equals Spread(p) for irreducible p."""
    if p.is_constant():
        raise ValueError("spread of a constant polynomial is not defined here")
    r = len(p.vars)
    partials = [_derivative(p.terms, u) for u in IntLattice.full(r).basis]
    K = integer_kernel([[dp.get(e, 0) for dp in partials] for e in set().union(*partials)], r)
    if any(p.shift(g) != p for g in K.basis):
        raise InvariantError("a kernel vector of the partials does not fix the polynomial")
    return K


def shift_equiv(p: Poly, q: Poly) -> ShiftCoset:
    """All s with q(n+s) = c * p(n) for some nonzero constant c.

    Empty, or a coset of the invariance lattice G of q.  For irreducible p
    and q this is Spread(p, q) = {s : gcd(p, N^s q) != 1}, since a
    nontrivial gcd forces N^s q and p to be associates.

    Why the rounds are exact: after normalization c = 1, and the shifts
    left to decide are s0 + v with v = sum t_i dirs[i], t integer.  No
    v != 0 lies in span_Q(G), so the derivatives (dirs[i] . grad) q1 of
    q1 = q(n + s0) are not all zero; let D1 be their largest degree.  In
    the Taylor expansion of q1(n + v) the term of order j >= 2 in v has
    degree at most D1 - j + 1, so the coefficient of each monomial of
    degree >= D1 in q1(n + v) - p is affine in t, and some monomial of
    degree D1 gives a nonzero linear part.  Solving these necessary
    equations over Z rules the pair out, or keeps s0 + v within a
    lattice of lower rank, so there are at most r - rank G rounds.  The
    directions start as a complement of G, which meets span_Q(G) only in
    0, so a solution is unique modulo G and one identity test decides
    the last candidate.
    """
    if p.is_constant() or q.is_constant():
        raise ValueError("shift equivalence needs non-constant inputs")
    if p.vars != q.vars:
        raise ValueError("mismatched variable lists")
    r = len(p.vars)
    # the primitive parts with positive leading coefficients: a shift keeps the content
    pt, qt = p.terms, q.terms
    if _top_form(pt) != _top_form(qt):
        return ShiftCoset.empty(r)  # a shift keeps the total degree and the top-degree form
    G = invariance_lattice(normalize_primitive(q)[1])
    s0 = (0,) * r
    dirs = complement_within(IntLattice.full(r), G).basis
    while dirs:
        q1 = shift_terms(qt, s0) if any(s0) else qt
        derivs = [_derivative(q1, d) for d in dirs]
        D1 = max((sum(e) for dv in derivs for e in dv), default=-1)
        if D1 < 0:
            raise InvariantError("zero derivative along a direction outside the invariance lattice")
        rest = add_terms(q1, {e: -c for e, c in pt.items()})
        monomials = [e for e in set(rest).union(*derivs) if sum(e) >= D1]
        sol = solve_integer([[dv.get(e, 0) for dv in derivs] for e in monomials],
                            [-rest.get(e, 0) for e in monomials], len(dirs))
        if sol is None:
            return ShiftCoset.empty(r)
        tau, ker = sol
        s0 = tuple(a + sum(t * d[j] for t, d in zip(tau, dirs)) for j, a in enumerate(s0))
        dirs = [tuple(sum(k * d[j] for k, d in zip(row, dirs)) for j in range(r))
                for row in ker.basis]
    return ShiftCoset.of(s0, G) if shift_terms(qt, s0) == pt else ShiftCoset.empty(r)


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
