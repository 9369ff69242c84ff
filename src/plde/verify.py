"""Independent checks: solution substitution, bound coverage, instance generation.

Everything here works on fully expanded polynomials, deliberately avoiding
the factored fast paths, so that it can serve as a differential oracle for
the bounding machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bounds import BoundReport
from .equation import PLDE
from .factored import FactoredPoly
from .geometry import CLASS_OPPOSITE_ONLY, CLASS_USEFUL, SupportGeometry
from .polyring import InvariantError, Poly, RationalFunction, divide_exact, parse_poly
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


def check_strip_identity(strip, p, y: RationalFunction) -> bool:
    """Exact identity behind a strip rewriting, evaluated on a known solution:

        y(n + p) * D = b + sum_i terms[i] * y(n + i)
    """
    lhs = y.shift(p) * RationalFunction.from_poly(strip.D_actual.expand())
    rhs = RationalFunction.from_poly(strip.b)
    for i, num in strip.terms.items():
        rhs = rhs + RationalFunction.from_poly(num) * y.shift(i)
    return (lhs - rhs).is_zero()


# ----------------------------------------------------------------------
# instance generation


@dataclass(frozen=True)
class InstanceProfile:
    """Shape of a generated equation; everything stays at desk scale."""

    variables: tuple = ("n", "k")
    support_points: tuple = ((0, 0), (0, 1), (1, 0), (1, 1))
    min_terms: int = 2
    max_terms: int = 4
    denominator_pool: tuple = ("k+n+1", "2*k+3*n+1", "n+1", "n^2+n+1", "n*k+1")
    numerator_pool: tuple = ("1", "n", "n+k", "k^2+1")
    max_den_factors: int = 2
    coefficient_pool: tuple = ("1", "-1", "2", "n", "k+1", "n+k+2")


def random_instance(seed, profile: InstanceProfile = InstanceProfile()):
    """Equation together with a certified rational solution.

    Built from a prescribed solution p/q by taking a_s = c_s * N^s q, which
    turns the left-hand side into the polynomial sum of the c_s * N^s p.
    """
    rng = random.Random(seed)
    vars = profile.variables
    npts = rng.randint(profile.min_terms, min(profile.max_terms, len(profile.support_points)))
    support = rng.sample(list(profile.support_points), npts)
    den_factors = []
    for _ in range(rng.randint(0, profile.max_den_factors)):
        den_factors.append(parse_poly(rng.choice(profile.denominator_pool), vars))
    q = FactoredPoly(vars, 1, [(f, 1) for f in den_factors])
    p = parse_poly(rng.choice(profile.numerator_pool), vars)
    terms = {}
    rhs = Poly.zero(vars)
    for s in support:
        c = parse_poly(rng.choice(profile.coefficient_pool), vars)
        while c.is_zero():
            c = parse_poly(rng.choice(profile.coefficient_pool), vars)
        shifted_q = q.shift(s)
        coeff = FactoredPoly.from_poly(c).mul(shifted_q) if not c.is_constant() \
            else FactoredPoly(vars, c.constant_value()).mul(shifted_q)
        terms[tuple(s)] = coeff
        rhs = rhs + c * p.shift(s)
    eq = PLDE(tuple(vars), terms, rhs)
    y = RationalFunction(p, q.expand())
    if not check_solution(eq, y).ok:
        raise InvariantError("generated instance does not certify its own solution")
    return eq, y, q


def homogeneous_instance(seed, profile: InstanceProfile = InstanceProfile()):
    """Instance with zero right-hand side: numerator 1, balanced constants."""
    rng = random.Random(seed)
    vars = profile.variables
    npairs = rng.randint(1, max(1, len(profile.support_points) // 2))
    pts = rng.sample(list(profile.support_points), 2 * npairs)
    den_factors = [parse_poly(rng.choice(profile.denominator_pool), vars)
                   for _ in range(rng.randint(1, profile.max_den_factors))]
    q = FactoredPoly(vars, 1, [(f, 1) for f in den_factors])
    terms = {}
    for i in range(npairs):
        c = rng.randint(1, 3)
        terms[tuple(pts[2 * i])] = FactoredPoly(vars, c).mul(q.shift(pts[2 * i]))
        terms[tuple(pts[2 * i + 1])] = FactoredPoly(vars, -c).mul(q.shift(pts[2 * i + 1]))
    eq = PLDE(tuple(vars), terms, Poly.zero(vars))
    y = RationalFunction(Poly.one(vars), q.expand())
    if not check_solution(eq, y).ok:
        raise InvariantError("generated instance does not certify its own solution")
    return eq, y, q
