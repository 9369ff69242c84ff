"""Shift equivalence of polynomials: spread lattices and shift orbits.

`shift_orbit` maps a polynomial to a normal form of its orbit under
integer shifts, so N^s q = c p is decided by comparing two keys.  Its
rounds keep the integer directions along which the derivatives lose their
top degree, and stop when every derivative along the directions left
vanishes.  Those directions span the invariance lattice G = {g : p(n+g) =
p(n)}, which is Spread(p) for irreducible p: v fixes p exactly when the
derivative of p along v vanishes, since t |-> p(n+tv) is a polynomial.
`ShiftOrbits` memoizes the normal forms for one bound and its check, and
`invariance_lattice` reads G off the normal form.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import IntLattice, ShiftCoset, reduce_by_span
from .polyring import Poly, shift_terms

NEG_INFINITY = float("-inf")


def _derivative(a: dict, d) -> dict:
    """The term map of (d . grad) p for the polynomial p with term map a."""
    terms = {}
    for e, c in a.items():
        for j, (ej, dj) in enumerate(zip(e, d)):
            if ej and dj:
                f = e[:j] + (ej - 1,) + e[j + 1:]
                terms[f] = terms.get(f, 0) + c * ej * dj
    return {e: c for e, c in terms.items() if c}


@lru_cache(maxsize=None)
def invariance_lattice(p: Poly) -> IntLattice:
    """The lattice G of integer shifts fixing p; Spread(p) for irreducible p.

    G is the span of the directions left when the rounds of `shift_orbit`
    stop.  A constant p raises a ValueError.
    """
    return shift_orbit(p)[2]


def shift_orbit(p: Poly):
    """The normal form of p under integer shifts: (key, offset, G).

    G is the invariance lattice of p, key = p(n + offset) has content 1,
    and q(n + s) = c * p(n) exactly when q has the key of p and s lies in
    offset_q - offset_p + G (offset is reduced modulo G).

    A round: the shifts left are s0 + v, v in the span of the directions
    (at first all of Z^r), and q1 = p(n + s0); let D be the largest degree
    of the derivatives of q1 along them.  The rounds stop when these all
    vanish, and the directions left then span G.  In the Taylor expansion
    of q1(n + v) the term of order j in v has degree at most D - j + 1, so
    the coefficients of degree > D stay fixed and the degree-D ones of
    q1(n + sum t_i dirs[i]) are c + M t, the columns of M the degree-D
    parts of the derivatives.  The round moves c to its reduction modulo
    L = M Z^m and keeps the kernel of M as directions, whose derivatives
    have no degree-D part, so D drops.  L and c + L do not depend on s0 or
    on the directions chosen, since derivatives along G vanish and a shift
    leaves the degree-D part of a derivative unchanged; so the copies kept
    depend only on the orbit, and so does the key.
    """
    if p.is_constant():
        raise ValueError("the shift orbit of a constant polynomial is not defined here")
    r = len(p.vars)
    q = p.terms
    s0 = (0,) * r
    dirs = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    while True:
        derivs = [_derivative(q, d) for d in dirs]
        D = max((sum(e) for dv in derivs for e in dv), default=-1)
        if D < 0:
            break  # the directions left fix q: they span its invariance lattice
        monomials = sorted(e for e in set(q).union(*derivs) if sum(e) == D)
        cols = [[dv.get(e, 0) for e in monomials] for dv in derivs]
        tau, ker = reduce_by_span(cols, [q.get(e, 0) for e in monomials])
        step = tuple(sum(t * d[j] for t, d in zip(tau, dirs)) for j in range(r))
        if any(step):
            q = shift_terms(q, step)
            s0 = tuple(map(sum, zip(s0, step)))
        dirs = [tuple(sum(k * d[j] for k, d in zip(row, dirs)) for j in range(r))
                for row in ker]
    G = IntLattice(r, dirs)
    return Poly.from_ints(p.vars, q), G.reduce(s0), G


class ShiftOrbits(dict):
    """A registry prim -> `shift_orbit(prim)`, each orbit computed the first time it is read.

    `bounds.combined_bound` makes one per call and hands it to the check
    through `BoundReport.orbits`, next to the call's `SupportGeometry` in
    `BoundReport.geometry`, so no orbit or module class is computed twice
    and none outlives the report.
    """

    __slots__ = ()

    def __missing__(self, p):
        self[p] = orbit = shift_orbit(p)
        return orbit


def shift_equiv(p: Poly, q: Poly) -> ShiftCoset:
    """All s with q(n+s) = c * p(n) for some nonzero constant c.

    Empty, or a coset of the invariance lattice G of q, read off the two
    normal forms of `shift_orbit`.  For irreducible p and q this is
    Spread(p, q) = {s : gcd(p, N^s q) != 1}, since a nontrivial gcd forces
    N^s q and p to be associates.  A constant input raises a ValueError.
    """
    if p.vars != q.vars:
        raise ValueError("mismatched variable lists")
    key_p, off_p, _ = shift_orbit(p)
    key_q, off_q, G = shift_orbit(q)
    if key_p != key_q:
        return ShiftCoset.empty(len(p.vars))
    return ShiftCoset.of([a - b for a, b in zip(off_q, off_p)], G)
