"""Shift equivalence of polynomials: spread lattices, cosets, dispersion.

For an irreducible p the invariance group {g : p(n+g) = p(n)} is computed
exactly as the integer kernel of the directional-derivative system: a
vector v fixes p if and only if the derivative of p along v vanishes
identically (the t |-> p(n+tv) curve is polynomial, so vanishing of its
derivative makes it constant).  That kernel is automatically saturated.

The pairwise problem N^s q = c p is solved in stages: leading forms pin
down the constant c, the next homogeneous layer is linear in s and yields
a candidate coset over Z, and invariance of q reduces the remainder to a
finite-dimensional residual.  The residual is closed by iterated linear
extraction; only if nonlinear freedom survives does a bounded box search
run, and results from that path are flagged as not certain.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm as _int_lcm

from .factored import FactoredPoly
from .lattice import IntLattice, ShiftCoset, complement_within, integer_kernel, solve_integer
from .polyring import InvariantError, Poly, gcd_poly, normalize_primitive

NEG_INFINITY = float("-inf")
INFINITY = float("inf")

_RESIDUAL_BOX_RADIUS = 8


def _scaled_int_rows(rows_frac, rhs_frac):
    """Clear denominators row by row; returns integer matrix and rhs."""
    mat = []
    rhs = []
    for row, b in zip(rows_frac, rhs_frac):
        mult = _int_lcm(b.denominator, *(c.denominator for c in row)) if row else b.denominator
        mat.append([int(c * mult) for c in row])
        rhs.append(int(b * mult))
    return mat, rhs


@lru_cache(maxsize=None)
def invariance_lattice(p: Poly) -> IntLattice:
    """Lattice of integer shifts fixing p; equals Spread(p) for irreducible p."""
    if p.is_constant():
        raise ValueError("spread of a constant polynomial is not defined here")
    r = len(p.vars)
    partials = [p.partial(i) for i in range(r)]
    monomials = sorted(set().union(*(q.terms.keys() for q in partials)))
    rows = []
    for e in monomials:
        rows.append([partials[i].terms.get(e, Fraction(0)) for i in range(r)])
    mat, _ = _scaled_int_rows(rows, [Fraction(0)] * len(rows))
    K = integer_kernel(mat, r)
    if any(p.shift(g) != p for g in K.basis):
        raise InvariantError("a kernel vector of the partials does not fix the polynomial")
    return K


def shift_equiv(p: Poly, q: Poly, box_radius: int = _RESIDUAL_BOX_RADIUS) -> ShiftCoset:
    """All s with q(n+s) = c * p(n) for some nonzero constant c.

    Empty, or a coset of the invariance lattice of q.  ``box_radius`` only
    matters on the exhaustive-search fallback for degenerate residuals.
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
    rows = [[partials[i].terms.get(e, Fraction(0)) for i in range(r)] for e in monomials]
    rhs = [rhs_poly.terms.get(e, Fraction(0)) for e in monomials]
    mat, vec = _scaled_int_rows(rows, rhs)
    sol = solve_integer(mat, vec, r)
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
    found, certain = _solve_residual(q, target, list(s0), [list(v) for v in Kprime.basis],
                                     radius=box_radius)
    if found is None:
        return ShiftCoset.empty(r, certain=certain)
    return ShiftCoset.of(found, G)


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


def _solve_residual(q, target, s0, directions, radius=_RESIDUAL_BOX_RADIUS):
    """Search t with q(n + s0 + directions^T t) = target.

    Linear equations among the residual system are necessary conditions and
    are consumed iteratively; a bounded box scan is the last resort and
    yields an uncertain negative.
    """
    while True:
        m = len(directions)
        eqs = [e for e in _residual_system(q, target, s0, directions) if not e.is_zero()]
        if not eqs:
            raise AssertionError("residual directions collapse onto the invariance lattice")
        linear = [e for e in eqs if e.total_degree() <= 1]
        if not linear:
            break
        rows = []
        rhs = []
        for e in linear:
            row = []
            for i in range(m):
                mono = tuple(1 if j == i else 0 for j in range(m))
                row.append(e.terms.get(mono, Fraction(0)))
            rows.append(row)
            rhs.append(-e.terms.get((0,) * m, Fraction(0)))
        mat, vec = _scaled_int_rows(rows, rhs)
        sol = solve_integer(mat, vec, m)
        if sol is None:
            return None, True
        tau, ker = sol
        cand = [a + sum(tau[i] * directions[i][j] for i in range(m)) for j, a in enumerate(s0)]
        if ker.rank == 0:
            if q.shift(cand) == target:
                return tuple(cand), True
            return None, True
        if ker.rank == m and not any(tau):
            break  # the linear part carried no information
        s0 = cand
        directions = [
            [sum(row[i] * directions[i][j] for i in range(m)) for j in range(len(s0))]
            for row in ker.basis
        ]
    # nonlinear freedom left: bounded scan, flagged as possibly incomplete
    m = len(directions)
    for t in itertools.product(range(-radius, radius + 1), repeat=m):
        cand = [a + sum(t[i] * directions[i][j] for i in range(m)) for j, a in enumerate(s0)]
        if q.shift(cand) == target:
            return tuple(cand), True
    return None, False


def spread_pair(p: Poly, q: Poly, box_radius: int = _RESIDUAL_BOX_RADIUS) -> ShiftCoset:
    """Spread(p, q) = {s : gcd(p, N^s q) != 1} for irreducible inputs.

    For irreducibles a nontrivial gcd forces N^s q and p to be associates,
    so this coincides with shift equivalence.
    """
    return shift_equiv(p, q, box_radius)


def disp_k(a: FactoredPoly, b: FactoredPoly, k: int, box_radius: int = _RESIDUAL_BOX_RADIUS):
    """Dispersion along axis k (1-based) over all factor pairs of a and b.

    Returns NEG_INFINITY when every pair spread is empty, INFINITY when a
    coset direction moves along the axis, and the exact maximum otherwise.
    """
    r = len(a.vars)
    if not 1 <= k <= r:
        raise ValueError("axis %d out of range 1..%d" % (k, r))
    idx = k - 1
    best = NEG_INFINITY
    for u, _ in a.factors:
        for v, _ in b.factors:
            coset = spread_pair(u, v, box_radius)
            if coset.is_empty:
                continue
            if any(row[idx] for row in coset.lattice.basis):
                return INFINITY
            best = max(best, abs(coset.base[idx]))
    return best


def spread_box_oracle(p: Poly, q: Poly, radius: int):
    """Brute force: all s in the box with gcd(p, N^s q) nonconstant."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    r = len(p.vars)
    hits = set()
    for s in itertools.product(range(-radius, radius + 1), repeat=r):
        g = gcd_poly(p, q.shift(s))
        if not g.is_constant():
            hits.add(s)
    return hits
