"""Independent checks: solution substitution and bound coverage.

Everything here works on fully expanded polynomials, deliberately avoiding
the factored fast paths, so that it can serve as a differential oracle for
the bounding machinery.

Substituting y = N/D into sum_i A_i y(n + s_i) = f over the m support
points gives the residual total/common with

    common = prod_j D_j,    total = sum_i A_i N_i prod_{j != i} D_j - f * common,

where N_i and D_i are N and D shifted by s_i.  ``check_solution`` builds
both in one pass, with three products involving the growing T and C per
point,

    T <- T * D_i + A_i * N_i * C,    C <- C * D_i,

starting from T = 0 and C = 1: after point i, C is the product of the
first i denominators and T is the sum over those points of A_j N_j times
the other denominators among them, so at the end T + (-f) * C is total.
The products run on primitive integer term maps (``polyring.int_terms``):
an integer shift is an invertible map of Z[n] that keeps content, so all
D_i share the content of D, and each point's rational scalar (content of
A_i times content of N) becomes one integer k_i once all of them, and the
one of f, are put over a common denominator L.  The exact content goes
back on once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .bounds import BoundReport
from .equation import PLDE
from .factored import FactoredPoly
from .geometry import CLASS_OPPOSITE_ONLY, CLASS_USEFUL, SupportGeometry
from .polyring import (RationalFunction, add_terms, divide_exact, int_terms, mul_terms,
                       poly_from_int, shift_terms)
from .spread import invariance_lattice, shift_equiv


@dataclass(frozen=True)
class SolutionCheck:
    residual: RationalFunction
    ok: bool


def check_solution(eq: PLDE, y: RationalFunction) -> SolutionCheck:
    """Substitute y into the equation and reduce the residual exactly.

    With D = cd * d, N = cn * n and A_i = ca_i * a_i split into content and
    primitive integer part, total = cd^(m-1) / L * (T + k_f * f' * C) and
    common = cd^m * C, where T and C are the accumulation of the module
    docstring on d, n and a_i with integer scalars k_i = L * ca_i * cn,
    k_f = -L * cf * cd, f = cf * f', and L is the least common multiple of
    the denominators of those scalars.  Every step is exact over Z.
    """
    vars = eq.variables
    support = eq.support
    cn, num = int_terms(y.num)
    cd, den = int_terms(y.den)
    cf, rhs = int_terms(eq.rhs)
    coeffs = [int_terms(eq.terms[s].expand()) for s in support]
    scalars = [ca * cn for ca, _ in coeffs] + [-cf * cd]
    scale = lcm(*(c.denominator for c in scalars))
    ks = [c.numerator * (scale // c.denominator) for c in scalars]
    total = {}
    common = {(0,) * len(vars): 1}
    for s, (_, a), k in zip(support, coeffs, ks):
        d = shift_terms(den, s)
        an = {e: k * v for e, v in mul_terms(a, shift_terms(num, s)).items()}
        total = add_terms(mul_terms(total, d), mul_terms(an, common))
        common = mul_terms(common, d)
    rhs = {e: ks[-1] * v for e, v in rhs.items()}
    total = add_terms(total, mul_terms(rhs, common))
    m = len(support)
    total = poly_from_int(vars, cd ** (m - 1) / scale, total)
    if total.is_zero():
        residual = RationalFunction.from_poly(total)
    else:
        residual = RationalFunction(total, poly_from_int(vars, cd ** m, common))
    return SolutionCheck(residual, residual.is_zero())


def check_bound_covers(eq: PLDE, y: RationalFunction, den_factors: FactoredPoly,
                       report: BoundReport) -> dict:
    """Classify every denominator factor of a known solution against a report.

    Each factor with multiplicity m must land in exactly one case:
    1. its spread module is useful and the factor divides the bound with
       full multiplicity; 2. the module is opposite-only and a shifted copy
       of the factor occurs in P; 3. the module is uncovered.
    """
    if not check_solution(eq, y).ok:
        raise ValueError("the supplied rational function does not solve the equation")
    expanded = den_factors.expand()
    if divide_exact(y.den, expanded) is None or divide_exact(expanded, y.den) is None:
        raise ValueError("denominator factorization does not match the solution")
    geometry = SupportGeometry(eq.support)
    verdicts = {}
    for prim, mult in den_factors.factors:
        W = invariance_lattice(prim)
        cls = geometry.classify(W)
        if cls.kind == CLASS_USEFUL:
            case = 1
            ok = report.d.multiplicity(prim) >= mult
            detail = "multiplicity %d of %d in d" % (report.d.multiplicity(prim), mult)
        elif cls.kind == CLASS_OPPOSITE_ONLY:
            case = 2
            ok = any(not shift_equiv(p, prim).is_empty for p in report.P)
            detail = "shifted copy in P" if ok else "no shifted copy in P"
        else:
            case = 3
            ok = True
            detail = "module not covered"
        verdicts[prim] = {"case": case, "ok": ok, "module": W, "detail": detail}
    return verdicts
