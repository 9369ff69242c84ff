"""Independent checks: solution substitution and bound coverage.

The solution check works on expanded polynomials, apart from the exact
cancellation below, and never calls the bounding machinery, so that it can
serve as a differential oracle for it.  The coverage check reads what the
bound decided about the support from its report: each factor's spread
module from ``report.orbits`` and the module's class from
``report.geometry``, so no orbit, facet or pair program runs twice.

Substituting y = N/D into sum_i A_i y(n + s_i) = f over the m support
points gives the residual sum_i A_i N_i / D_i - f, where N_i and D_i are N
and D shifted by s_i.  ``check_solution`` first cancels, at each point,
the declared factors of A_i against D_i: it divides D_i by each prim of
A_i as often as that prim's multiplicity allows, stopping at the first
division that fails, and keeps the quotient D_i' and the product A_i' of
the prims left.  As in Abramov's univariate bound, the factors of D(n+s_i)
are normally among those of A_i, so D_i' is usually small.  The cancel is
exact whatever the factors are: A_i N_i / D_i = (A_i / g) N_i / (D_i / g)
for any g that divides both, and a division that fails changes nothing.
The residual is then total/common with

    common = prod_j D_j',    total = sum_i A_i' N_i prod_{j != i} D_j' - f * common,

built in one pass, with three products involving the growing T and C per
point,

    T <- T * D_i' + A_i' * N_i * C,    C <- C * D_i',

starting from T = 0 and C = 1: after point i, C is the product of the
first i denominators and T is the sum over those points of A_j' N_j times
the other denominators among them, so at the end T + (-f) * C is total.
The products run on the primitive integer term maps of ``polyring.Poly``:
an integer shift is an invertible map of Z[n] that keeps content, so all
D_i share the content of D, and by Gauss's lemma so do the quotients D_i'
of D_i by primitive prims.  Each point's rational scalar (the unit of A_i
times the content of N) becomes one integer k_i once all of them, and the
one of f, are put over a common denominator L.  The exact content goes
back on once, at the end.

The accumulation runs on packed monomials (``polyring.pack_terms``): an
exponent vector e is the int key sum_j e_j * 2^(w*j), so that a monomial
product is one integer addition.  That is exact while no field reaches
2^w, since then no field carries into the next, and the width w is fixed
before the loop from degree bounds.  With E_j = sum_i deg_j D_i', the
product of the cancelled denominators, every intermediate stays within

    deg_j C <= E_j,
    deg_j T <= max_i (deg_j A_i' + deg_j N + E_j - deg_j D_i'),
    deg_j (f * C) <= deg_j f + E_j,

since a shift keeps the degree in each variable x_j, so N_i has degree
deg_j N, and each term of T, or of the products A_i' N_i C and T D_i', is
A_i' N_i times cancelled denominators of other points.  The width is the
bit length of the largest of these bounds over all j.  Each exponent of a
product is the sum of the exponents of two monomials that occur, so
cancellation does not matter.  A zero total is decided on the packed
keys; a nonzero residual is unpacked once and reduced to lowest terms by
``polyring.RationalFunction``, whose form does not depend on the cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .bounds import BoundReport
from .equation import PLDE
from .factored import FactoredPoly
from .geometry import CLASS_OPPOSITE_ONLY, CLASS_USEFUL
from .polyring import (Poly, RationalFunction, add_terms, divide_int_terms, mul_packed,
                       mul_terms, pack_terms, pow_terms, shift_terms, unpack_terms)


@dataclass(frozen=True)
class SolutionCheck:
    residual: RationalFunction
    ok: bool


def check_solution(eq: PLDE, y: RationalFunction) -> SolutionCheck:
    """Substitute y into the equation and reduce the residual exactly."""
    total, common = _residual(eq, y)
    if common is None:
        return SolutionCheck(RationalFunction.from_poly(total), True)
    return SolutionCheck(RationalFunction(total, common), False)


def _residual(eq: PLDE, y: RationalFunction):
    """The residual (total, common) of y after the cancel; common is None when total is 0.

    With D = cd * d, N = cn * n and A_i = ca_i * a_i split into unit and
    primitive integer part, and a_i', d_i' what `_cancel` leaves of a_i and
    d shifted by s_i, total = cd^(m-1) / L * (T + k_f * f' * C) and
    common = cd^m * C, where T and C are the accumulation of the module
    docstring on the d_i', n and a_i' with integer scalars
    k_i = L * ca_i * cn, k_f = -L * cf * cd, f = cf * f', and L is the
    least common multiple of the denominators of those scalars.  Every
    step is exact over Z, on monomials packed with the width of the module
    docstring.
    """
    vars = eq.variables
    r = len(vars)
    support = eq.support
    m = len(support)
    cn, num = y.num.content, y.num.terms
    cd, den = y.den.content, y.den.terms
    cf, rhs = eq.rhs.content, eq.rhs.terms
    points = [_cancel(eq.terms[s], shift_terms(den, s)) for s in support]
    scalars = [eq.terms[s].unit * cn for s in support] + [-cf * cd]
    scale = lcm(*(c.denominator for c in scalars))
    ks = [c.numerator * (scale // c.denominator) for c in scalars]
    dd = [_degrees(d, r) for _, d in points]
    dn = _degrees(num, r)
    E = [sum(col) for col in zip(*dd)]
    bounds = [f + e for f, e in zip(_degrees(rhs, r), E)]
    for (a, _), di in zip(points, dd):
        bounds.extend(x + n + e - d for x, n, e, d in zip(_degrees(a, r), dn, E, di))
    width = max(bounds).bit_length()
    total = {}
    common = {0: 1}
    for s, (a, d), k in zip(support, points, ks):
        d = pack_terms(d, width)
        an = mul_packed(pack_terms({e: k * v for e, v in a.items()}, width),
                        pack_terms(shift_terms(num, s), width))
        total = add_terms(mul_packed(total, d), mul_packed(an, common))
        common = mul_packed(common, d)
    rhs = pack_terms({e: ks[-1] * v for e, v in rhs.items()}, width)
    total = add_terms(total, mul_packed(rhs, common))
    if not total:
        return Poly.zero(vars), None
    return (Poly.from_ints(vars, unpack_terms(total, width, r), cd ** (m - 1) / scale),
            Poly.from_ints(vars, unpack_terms(common, width, r), cd ** m))


def _cancel(coeff: FactoredPoly, d: dict):
    """(a', d'): the product of the prims of coeff that are left, and what is left of d.

    Each prim is divided out of the primitive term map d at most as often
    as its multiplicity, stopping at the first division that fails.
    """
    a = {(0,) * len(coeff.vars): 1}
    for f, mult in coeff.factors:
        while mult:
            quotient = divide_int_terms(d, f.terms)
            if quotient is None:
                break
            d = quotient
            mult -= 1
        if mult:
            a = mul_terms(a, pow_terms(f.terms, mult))
    return a, d


def _degrees(terms: dict, r: int) -> list:
    """The degree of a term map in each of its r variables; 0 for the zero map."""
    return [max(col) for col in zip(*terms)] or [0] * r


def check_bound_covers(eq: PLDE, y: RationalFunction, den_factors: FactoredPoly,
                       report: BoundReport) -> dict:
    """Classify every denominator factor of a known solution against a report.

    Each factor with multiplicity m must land in exactly one case:
    1. its spread module is useful and the factor divides the bound with
       full multiplicity; 2. the module is opposite-only and a shifted copy
       of the factor occurs in P, that is, a prim of P has its shift orbit
       key (`spread.shift_orbit`); 3. the module is uncovered.
    Spread modules and orbit keys are read from the registry
    ``report.orbits``, which the bound filled with those of P, and each
    module's class from ``report.geometry``, the support geometry of the
    bound, which has classified every module of ``report.per_module``.  A
    report without the geometry of eq's support raises a ValueError.
    """
    geometry = report.geometry
    if geometry is None or geometry.points != eq.support:
        raise ValueError("the report does not carry the support geometry of this equation")
    if not check_solution(eq, y).ok:
        raise ValueError("the supplied rational function does not solve the equation")
    # nonzero polynomials are associates exactly when their primitive term maps agree
    if den_factors.expand().terms != y.den.terms:
        raise ValueError("denominator factorization does not match the solution")
    orbits = report.orbits
    verdicts = {}
    for prim, mult in den_factors.factors:
        key, _, W = orbits[prim]
        cls = geometry.classify(W)
        if cls.kind == CLASS_USEFUL:
            case = 1
            ok = report.d.multiplicity(prim) >= mult
            detail = "multiplicity %d of %d in d" % (report.d.multiplicity(prim), mult)
        elif cls.kind == CLASS_OPPOSITE_ONLY:
            case = 2
            ok = any(orbits[p][0] == key for p in report.P)  # equal keys, equal lattices
            detail = "shifted copy in P" if ok else "no shifted copy in P"
        else:
            case = 3
            ok = True
            detail = "module not covered"
        verdicts[prim] = {"case": case, "ok": ok, "module": W, "detail": detail}
    return verdicts
