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
The products run on the primitive integer term maps of ``polyring.Poly``:
an integer shift is an invertible map of Z[n] that keeps content, so all
D_i share the content of D, and each point's rational scalar (content of
A_i times content of N) becomes one integer k_i once all of them, and the
one of f, are put over a common denominator L.  The exact content goes
back on once, at the end.

The accumulation runs on packed monomials (``polyring.pack_terms``): an
exponent vector e is the int key sum_j e_j * 2^(w*j), so that a monomial
product is one integer addition.  That is exact while no field reaches
2^w, since then no field carries into the next, and the width w is fixed
before the loop from degree bounds.  A shift keeps the degree in each
variable x_j, so every D_i has degree deg_j D and every N_i degree
deg_j N; hence after any number of points

    deg_j C <= m * deg_j D,
    deg_j T <= max_i (deg_j A_i + deg_j N) + (m - 1) * deg_j D,
    deg_j (f * C) <= deg_j f + m * deg_j D,

and the intermediate products A_i N_i, A_i N_i C, T D_i and C D_i stay
within the same bounds.  The width is the bit length of the largest of
these bounds over all j.  Each exponent of a product is the sum of the
exponents of two monomials that occur, so cancellation does not matter.
A zero total is decided on the packed keys; a nonzero residual is
unpacked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .bounds import BoundReport
from .equation import PLDE
from .factored import FactoredPoly
from .geometry import CLASS_OPPOSITE_ONLY, CLASS_USEFUL, SupportGeometry
from .polyring import (Poly, RationalFunction, add_terms, divide_exact, mul_packed, pack_terms,
                       shift_terms, unpack_terms)
from .spread import invariance_lattice, shift_orbit


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
    """The unreduced residual (total, common) of y; common is None when total is 0.

    With D = cd * d, N = cn * n and A_i = ca_i * a_i split into content and
    primitive integer part, total = cd^(m-1) / L * (T + k_f * f' * C) and
    common = cd^m * C, where T and C are the accumulation of the module
    docstring on d, n and a_i with integer scalars k_i = L * ca_i * cn,
    k_f = -L * cf * cd, f = cf * f', and L is the least common multiple of
    the denominators of those scalars.  Every step is exact over Z, on
    monomials packed with the width of the module docstring.
    """
    vars = eq.variables
    r = len(vars)
    support = eq.support
    m = len(support)
    cn, num = y.num.content, y.num.terms
    cd, den = y.den.content, y.den.terms
    cf, rhs = eq.rhs.content, eq.rhs.terms
    coeffs = [(a.content, a.terms) for a in (eq.terms[s].expand() for s in support)]
    scalars = [ca * cn for ca, _ in coeffs] + [-cf * cd]
    scale = lcm(*(c.denominator for c in scalars))
    ks = [c.numerator * (scale // c.denominator) for c in scalars]
    da = map(max, zip(*(_degrees(a, r) for _, a in coeffs)))
    width = max(max(a + n + (m - 1) * d, f + m * d)
                for a, n, d, f in zip(da, _degrees(num, r), _degrees(den, r),
                                      _degrees(rhs, r))).bit_length()
    total = {}
    common = {0: 1}
    for s, (_, a), k in zip(support, coeffs, ks):
        d = pack_terms(shift_terms(den, s), width)
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
    """
    if not check_solution(eq, y).ok:
        raise ValueError("the supplied rational function does not solve the equation")
    expanded = den_factors.expand()
    if divide_exact(y.den, expanded) is None or divide_exact(expanded, y.den) is None:
        raise ValueError("denominator factorization does not match the solution")
    geometry = SupportGeometry(eq.support)
    keys = {}  # prim -> its shift orbit key, computed at most once per call

    def key_of(p):
        if p not in keys:
            keys[p] = shift_orbit(p)[0]
        return keys[p]
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
            key = key_of(prim)  # a shifted copy has the invariance lattice W too
            ok = any(key_of(p) == key for p in report.P if invariance_lattice(p) == W)
            detail = "shifted copy in P" if ok else "no shifted copy in P"
        else:
            case = 3
            ok = True
            detail = "module not covered"
        verdicts[prim] = {"case": case, "ok": ok, "module": W, "detail": detail}
    return verdicts
