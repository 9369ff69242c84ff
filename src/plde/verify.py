"""Independent checks: solution substitution and bound coverage.

Everything here works on fully expanded polynomials, deliberately avoiding
the factored fast paths, so that it can serve as a differential oracle for
the bounding machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BoundReport
from .equation import PLDE
from .factored import FactoredPoly
from .geometry import CLASS_OPPOSITE_ONLY, CLASS_USEFUL, SupportGeometry
from .polyring import Poly, RationalFunction, divide_exact
from .spread import invariance_lattice, shift_equiv


@dataclass(frozen=True)
class SolutionCheck:
    residual: RationalFunction
    ok: bool


def check_solution(eq: PLDE, y: RationalFunction) -> SolutionCheck:
    """Substitute y into the equation and reduce the residual exactly."""
    support = eq.support
    shifted_nums = [y.num.shift(s) for s in support]
    shifted_dens = [y.den.shift(s) for s in support]
    common = Poly.one(eq.variables)
    for den in shifted_dens:
        common = common * den
    total = Poly.zero(eq.variables)
    for i, s in enumerate(support):
        cof = Poly.one(eq.variables)
        for j, den in enumerate(shifted_dens):
            if j != i:
                cof = cof * den
        total = total + eq.terms[s].expand() * shifted_nums[i] * cof
    total = total - eq.rhs * common
    if total.is_zero():
        residual = RationalFunction.from_poly(total)
    else:
        residual = RationalFunction(total, common)
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
