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
Points that are left with the same denominator are summed first: with
d_1, ..., d_q the distinct D_i' and S_g the sum of A_i' N_i over the
points with D_i' = d_g, the residual is sum_g S_g / d_g - f, and it is
total/common with

    common = prod_g d_g,    total = sum_g S_g prod_{h != g} d_h - f * common,

built in one pass, with three products involving the growing T and C per
distinct denominator,

    T <- T * d_g + S_g * C,    C <- C * d_g,

starting from T = 0 and C = 1: after group g, C is the product of the
first g denominators and T is the sum over those groups of S_h times the
other denominators among them, so at the end T + (-f) * C is total.  For
the known solution of most equations the cancel leaves the same constant
at every point, and then the loop runs once, on C = 1.
The products run on the primitive integer term maps of ``polyring.Poly``:
an integer shift is an invertible map of Z[n] that keeps content, so all
D_i share the content of D, and by Gauss's lemma so do the quotients D_i'
of D_i by primitive prims.  So equal D_i' have equal primitive term maps,
positive leading coefficient included, and the grouping reads those maps
(``frozenset(d.items())``); no two points with equal denominators are put
in different groups.  Each point's rational scalar (the unit of A_i times
the content of N) becomes one integer k_i once all of them, and the one
of f, are put over a common denominator L.  The exact content goes back
on once, at the end.  A nonzero residual is reduced by trial division:
total and common are divided by each distinct shifted prim f(n + s_i) of
y, f a declared prim of D, as often as it divides both, and f is tried on
total only while it still divides common.  When the declared prims of y
are irreducible, every d_g is a product of shifted prims, since it
divides a shifted D, so this leaves the residual in lowest terms, and its
form depends neither on the cancel nor on the grouping.  A reducible
declared prim keeps the verdict exact but may leave a common factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .bounds import BoundReport
from .equation import PLDE
from .factored import FactoredPoly
from .geometry import CLASS_OPPOSITE_ONLY, CLASS_USEFUL
from .polyring import (Poly, RationalFunction, add_terms, divide_exact, divide_int_terms, mul_terms,
                       pow_terms, shift_terms)


@dataclass(frozen=True)
class SolutionCheck:
    residual: RationalFunction
    ok: bool


def check_solution(eq: PLDE, y: RationalFunction) -> SolutionCheck:
    """Substitute y into the equation and reduce the residual by the shifted prims of y."""
    total, common = _residual(eq, y)
    if common is None:
        return SolutionCheck(RationalFunction(total), True)
    # a dict keeps a fixed order, on which a reducible prim's result may depend
    for f in dict.fromkeys(prim.shift(s) for prim, _ in y.factors for s in eq.support):
        while ((c := divide_exact(common, f)) is not None
               and (t := divide_exact(total, f)) is not None):
            total, common = t, c
    return SolutionCheck(RationalFunction(total, [(common, 1)]), False)


def _residual(eq: PLDE, y: RationalFunction):
    """The residual (total, common) of y after the cancel; common is None when total is 0.

    With D = cd * d, N = cn * n and A_i = ca_i * a_i split into unit and
    primitive integer part, and a_i', d_i' what `_cancel` leaves of a_i and
    d shifted by s_i, total = (T + k_f * f' * C) / (L * cd) and common = C,
    where T and C are the accumulation of the module docstring over the
    distinct d_i', S_g is the sum of k_i * a_i' * n_i over the points with
    d_i' = d_g, the integer scalars are k_i = L * ca_i * cn and
    k_f = -L * cf * cd, f = cf * f', and L is the least common multiple of
    the denominators of those scalars.  Every step is exact over Z.
    """
    vars = eq.variables
    support = eq.support
    cn, num = y.num.content, y.num.terms
    cd, den = y.den.content, y.den.terms
    cf, rhs = eq.rhs.content, eq.rhs.terms
    scalars = [eq.terms[s].unit * cn for s in support] + [-cf * cd]
    scale = lcm(*(c.denominator for c in scalars))
    ks = [c.numerator * (scale // c.denominator) for c in scalars]
    groups = {}  # the term map of d_g -> [d_g, S_g]
    for s, k in zip(support, ks):
        a, d = _cancel(eq.terms[s], shift_terms(den, s))
        an = mul_terms({e: k * v for e, v in a.items()}, shift_terms(num, s))
        group = groups.setdefault(frozenset(d.items()), [d, {}])
        group[1] = add_terms(group[1], an)
    total = {}
    common = {(0,) * len(vars): 1}
    for d, S in groups.values():
        total = add_terms(mul_terms(total, d), mul_terms(S, common))
        common = mul_terms(common, d)
    total = add_terms(total, mul_terms({e: ks[-1] * v for e, v in rhs.items()}, common))
    if not total:
        return Poly.zero(vars), None
    return Poly.from_ints(vars, total, 1 / (scale * cd)), Poly.from_ints(vars, common)


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
    report that is not ``combined_bound`` of eq, or of an equal equation,
    with the support geometry it used, raises a ValueError.
    """
    geometry = report.geometry
    if geometry is None or not (report.equation is eq or report.equation == eq):
        raise ValueError("the report is not the bound of this equation with its support geometry")
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
