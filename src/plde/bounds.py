"""Denominator bounds for rational solutions, relative to spread modules.

The pipeline for a single module W with a useful pair certificate (p, u),
all in the equation's own coordinates; the level of a support point s is
u . (s - p) (`transform.witness_levels`):

1. bound the dispersion along u between the W-periodic parts of the
   coefficients on the minimal and the maximal level (`dispersion_bound`);
2. rewrite the equation by repeated substitution until every unknown term
   sits beyond that dispersion strip, collecting the exact reduced common
   denominator of the rewriting (`strip_rewrite`);
3. keep the W-periodic part of that denominator, shifted back by p.

The bound for W is the gcd of these over the useful pair certificates, and
the aperiodic bound the gcd over the first witness pair of each corner.
Both gcds are one loop (`_intersect`) that asks for the next certificate
only while the gcd is not 1, so the pair programs, dispersions and strips
that cannot change it are never run.

The combined driver runs this for every module that occurs as the spread
of a corner-coefficient factor, merges the results by lcm, collects the
factors of opposite-only modules into the residual set P, and reports the
face-parallel modules that no certificate can cover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from .equation import PLDE
from .factored import FactoredPoly, in_w_part
from .geometry import (CLASS_OPPOSITE_ONLY, CLASS_UNCOVERED, CLASS_USEFUL, SupportGeometry,
                       WeakCertificate, WitnessCertificate)
from .lattice import IntLattice, primitive_vector, saturation
from .polyring import (InvariantError, Poly, UnsupportedInputError, add_terms, divide_int_terms,
                       format_poly, mul_terms, shift_terms)
from .spread import NEG_INFINITY, ShiftOrbits
from .transform import witness_levels

MAX_STRIP_POINTS = 1000  # support points a strip rewriting may reach


class DegenerateFaceError(ValueError):
    """Two support points of one extreme face differ by an element of the module."""

    def __init__(self, a, b, face: str):
        super().__init__("points %r and %r of the %s face differ by an element of the "
                         "module; the dispersion bound does not apply" % (a, b, face))
        self.points = (a, b)


class StripPreconditionError(ValueError):
    """The strip rewriting needs a unique support point of minimal level."""


class StripResult:
    """The points substituted (Rminus) and left (Rplus), and the common denominator D_actual.

    ``origins`` maps each prim of D_actual to a coefficient factor of the
    equation that it is a shift of.  ``terms`` (point -> numerator over
    D_actual) and the right-hand side ``b`` over D_actual are expanded the
    first time they are read; the bound reads only D_actual and origins.
    """

    def __init__(self, Rminus: tuple, Rplus: tuple, D_actual: FactoredPoly, origins: dict,
                 numerator, live: dict, b):
        self.Rminus, self.Rplus, self.D_actual, self.origins = Rminus, Rplus, D_actual, origins
        self._numerator, self._live, self._b = numerator, live, b

    @cached_property
    def terms(self) -> dict:
        return {i: self._numerator(fr) for i, fr in self._live.items()}

    @cached_property
    def b(self) -> Poly:
        return self._numerator(self._b)


@dataclass(frozen=True)
class ModuleEntry:
    kind: str
    certificate: object = None
    s_value: object = None
    d_W: FactoredPoly | None = None


@dataclass(frozen=True)
class BoundReport:
    variables: tuple
    d: FactoredPoly
    P: tuple
    per_module: dict
    uncovered: tuple
    warnings: tuple
    orbits: ShiftOrbits = field(default_factory=ShiftOrbits, compare=False, repr=False)
    geometry: SupportGeometry | None = field(default=None, compare=False, repr=False)
    equation: PLDE | None = field(default=None, compare=False, repr=False)

    def to_json(self):
        modules = []
        for W in sorted(self.per_module, key=lambda L: L.key()):
            entry = self.per_module[W]
            rec = {"W": str(W), "class": entry.kind}
            cert = entry.certificate
            if isinstance(cert, WitnessCertificate):
                rec["pair"] = [list(cert.p), list(cert.p_prime)]
                rec["witness"] = list(cert.u)
            elif isinstance(cert, WeakCertificate):
                rec["p"] = list(cert.p)
                rec["witness"] = list(cert.u)
            if entry.s_value is not None:
                rec["s"] = "-inf" if entry.s_value == NEG_INFINITY else int(entry.s_value)
            if entry.d_W is not None:
                rec["d_W"] = entry.d_W.to_json()
            modules.append(rec)
        return {
            "variables": list(self.variables),
            "d": self.d.to_json(),
            "P": [format_poly(p) for p in self.P],
            "modules": modules,
            "uncovered": [str(W) for W in self.uncovered],
            "warnings": list(self.warnings),
        }


# ----------------------------------------------------------------------
# exact fractions with a factored denominator


class _Frac:
    """content * F * num / den, reduced; F and den are dicts from prim keys to multiplicities.

    ``num`` is an int term map with coprime coefficients and ``content`` a
    Fraction, so the strip rewriting runs on ints.  ``F`` is the factored
    part of the numerator, never expanded while the fraction lives: a
    substitution puts the shifted coefficient a_q(n+d) there, whose factors
    come back later as the denominator a_p(n+d), and `add` keeps the gcd of
    the two factored parts.  The reduction cancels F against den by the
    smaller multiplicity (Henrici's rule), then trial-divides num by each
    prim of den, once per unit of multiplicity.  By Gauss's lemma a
    quotient by a primitive prim is over Z, so the division
    (`polyring.divide_int_terms`) needs exact int division only.  The
    trial division of a prim stops at its first failure, which leaves num
    and den as they were, and is skipped when num has a lower total degree
    than the prim (the degree rule): a nonconstant prim divides no nonzero
    polynomial of lower degree, so a skipped division is one that fails.

    Under the contract of `FactoredPoly`, pairwise coprime irreducible
    prims, a prim divides F * num as often as it occurs in F plus as often
    as it divides num, so the result is the reduced fraction that trial
    division of the expanded F * num reaches.  Outside the contract every
    cancellation is still an exact division: den can only be larger than
    the reduced denominator, and a bound built from it stays sound.

    ``prims`` maps each prim key to the prim's int terms, the coefficient
    factor that the prim is a shift of and the prim's total degree.  One
    strip rewriting shares it and keys a shift f(n + d) of a coefficient
    factor f by its shift orbit (`_factors`), so equal prims have one key
    and the terms of each are made once.
    """

    __slots__ = ("content", "F", "num", "den")

    def __init__(self, content: Fraction, F: dict, num: dict, den: dict, prims: dict):
        if not num:
            F, den = {}, {}
        else:
            g = gcd(*num.values())
            if g != 1:
                content = content * g
                num = {e: c // g for e, c in num.items()}
            if F and den:
                F, den = _minus(F, den), _minus(den, F)
            if den:
                degree = max(map(sum, num))
                left = {}
                for prim, m in den.items():
                    terms, _, prim_degree = prims[prim]
                    while m and prim_degree <= degree:
                        q = divide_int_terms(num, terms)
                        if q is None:
                            break
                        num, m, degree = q, m - 1, degree - prim_degree
                    if m:
                        left[prim] = m
                den = left
        self.content = content
        self.F = F
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return not self.num

    def add(self, other: "_Frac", prims: dict) -> "_Frac":
        common = _max(self.den, other.den)
        a1 = _minus(_plus(self.F, common), self.den)
        a2 = _minus(_plus(other.F, common), other.den)
        g = _min(a1, a2)
        c1, c2 = self.content, other.content
        bottom = lcm(c1.denominator, c2.denominator)
        k1 = c1.numerator * (bottom // c1.denominator)
        k2 = c2.numerator * (bottom // c2.denominator)
        a = _expand(_minus(a1, g), prims, {e: k1 * c for e, c in self.num.items()})
        b = _expand(_minus(a2, g), prims, {e: k2 * c for e, c in other.num.items()})
        return _Frac(Fraction(1, bottom), g, add_terms(a, b), common, prims)


# multiplicity dicts, never changed once made: sum, positive part of the difference, max, min


def _plus(a: dict, b: dict) -> dict:
    return {**a, **{key: a.get(key, 0) + m for key, m in b.items()}} if b else a


def _minus(a: dict, b: dict) -> dict:
    return {key: m - n for key, m in a.items() if (n := b.get(key, 0)) < m} if b else a


def _max(a: dict, b: dict) -> dict:
    return {**a, **{key: m for key, m in b.items() if m > a.get(key, 0)}}


def _min(a: dict, b: dict) -> dict:
    return {key: min(m, b[key]) for key, m in a.items() if key in b}


def _orbit_rows(factors, orbits: ShiftOrbits, ids: dict) -> list:
    """(f, m, id of key, offset, G) for each factor (f, m), (key, offset, G) = orbits[f]."""
    rows = []
    for f, m in factors:
        key, offset, G = orbits[f]
        rows.append((f, m, ids.setdefault(key, len(ids)), offset, G))
    return rows


def _factors(rows, prims: dict, d: tuple) -> dict:
    """A coefficient's factors (`_orbit_rows`) shifted by d, as a dict from prim keys to multiplicities.

    The key of f(n + d) is (orbit id, G.reduce(offset - d)).  Its terms are
    made the first time it is seen, as those of f(n + offset - reduced),
    which is f(n + d): offset - reduced - d lies in G, the shifts fixing f.
    """
    out = {}
    for f, m, orbit_id, offset, G in rows:
        reduced = G.reduce([a - b for a, b in zip(offset, d)])
        key = (orbit_id, reduced)
        if key not in prims:
            shift = tuple(a - b for a, b in zip(offset, reduced))
            prims[key] = (shift_terms(f.terms, shift) if any(shift) else f.terms, f,
                          f.total_degree())
        out[key] = m
    return out


def _expand(mults: dict, prims: dict, terms: dict) -> dict:
    """terms times the product of prim^m over mults, as an int term map."""
    for prim, m in mults.items():
        for _ in range(m):
            terms = mul_terms(terms, prims[prim][0])
    return terms


# ----------------------------------------------------------------------


def dispersion_bound(eq: PLDE, W: IntLattice, u, orbits=None):
    """Maximal dispersion along u between the W-parts of the two extreme faces.

    The faces are the support points of minimal and maximal level u . s.
    A W-part prim f at a base point sa and one g at a top point sb with
    equal `spread.shift_orbit` keys disperse by u . sigma for sigma in
    (offset_g + sb) - (offset_f + sa) + G, with G in W: then g(n + sa - sb
    + sigma) ~ f.  The result is the maximum of |u . sigma| over those
    pairs, NEG_INFINITY if none.  u must be a primitive covector
    orthogonal to the saturated module W, and no two points of one face
    may differ by an element of W, otherwise a ValueError or a
    DegenerateFaceError is raised.  ``orbits`` is the `spread.ShiftOrbits`
    registry of the call, a fresh one if None.
    """
    u = tuple(int(x) for x in u)
    if len(u) != len(eq.variables):
        raise ValueError("covector %r does not have %d entries" % (u, len(eq.variables)))
    if any(sum(a * b for a, b in zip(u, w)) for w in W.basis):
        raise ValueError("witness covector %r is not orthogonal to the module" % (u,))
    if primitive_vector(u) != u:
        raise ValueError("witness covector %r is not primitive" % (u,))
    support = eq.support
    levels = witness_levels(support, u, support[0])
    low = min(levels.values())
    high = max(levels.values())
    A = [s for s in support if levels[s] == low]
    B = [s for s in support if levels[s] == high]
    for face, name in ((A, "base"), (B, "top")):
        for a, b in itertools.combinations(face, 2):
            if W.contains([x - y for x, y in zip(a, b)]):
                raise DegenerateFaceError(a, b, name)
    orbits = ShiftOrbits() if orbits is None else orbits

    def parts(face):  # orbit key -> the levels u . (offset + s) of the face's W-part prims
        by_key = {}
        for s in face:
            for g, _ in eq.terms[s].w_part(W, orbits).factors:
                key, offset, _ = orbits[g]
                level = levels[s] + sum(a * b for a, b in zip(u, offset))
                by_key.setdefault(key, []).append(level)
        return by_key

    base = parts(A)
    top = parts(B) if base else {}
    return max((abs(x - y) for key, ys in base.items() for y in ys for x in top.get(key, ())),
               default=NEG_INFINITY)


def strip_rewrite(eq: PLDE, p, s, u, orbits=None) -> StripResult:
    """Rewrite N^p y over a single denominator by cascading substitutions.

    Every term at a level u . (i - p) in [1, s] is replaced via the
    equation shifted by i - p, lowest level first; a substitution adds only
    to strictly higher levels, so the process stops with all remaining
    terms beyond the strip.  p must be the only support point of minimal
    level.  The reduced common denominator divides the product of the
    shifted copies of the corner coefficient collected along the way.

    The shifted coefficient factors are keyed by their `spread.shift_orbit`,
    read from ``orbits``, the registry of `dispersion_bound` (a fresh one if
    None).
    """
    p = tuple(int(x) for x in p)
    if p not in eq.terms:
        raise StripPreconditionError("%r is not a support point" % (p,))
    level = witness_levels(eq.terms, u, p)
    for q in eq.terms:
        if q != p and level[q] < 1:
            raise StripPreconditionError(
                "support point %r does not sit above the level of %r" % (q, p))
    zero = (0,) * len(p)
    reach, todo = {zero: 0}, [zero]  # the points p + v the cascade can reach, by level
    while todo:
        v = todo.pop()
        for q in eq.terms:
            t = tuple(a + b_ - c for a, b_, c in zip(v, q, p))
            if t not in reach and reach[v] + level[q] <= s:
                reach[t] = reach[v] + level[q]
                todo.append(t)
        if len(reach) > MAX_STRIP_POINTS:
            raise UnsupportedInputError("unsupported: the strip of dispersion %d reaches more "
                                        "than %d points" % (s, MAX_STRIP_POINTS))
    orbits = ShiftOrbits() if orbits is None else orbits
    a_p = eq.terms[p]
    prims, ids = {}, {}  # ids numbers the orbit keys, so that prim keys compare as ints
    factors = {q: _orbit_rows(a_q.factors, orbits, ids) for q, a_q in eq.terms.items()}
    base = _factors(factors[p], prims, zero)
    others = {q: a_q.unit for q, a_q in eq.terms.items() if q != p}
    terms = {q: _Frac(-unit / a_p.unit, _factors(factors[q], prims, zero), {zero: 1}, base, prims)
             for q, unit in others.items()}
    rhs_content, rhs = eq.rhs.content, eq.rhs.terms
    constant_rhs = rhs == {zero: 1}  # its shifts are itself, and a product by it is a copy
    b = _Frac(rhs_content / a_p.unit, {}, rhs, base, prims)
    substituted = []
    pool = base  # the product of the shifted corner coefficients
    while True:
        ready = [(level[i], i) for i in terms if level[i] <= s]
        if not ready:
            break
        _, i = min(ready)
        coeff = terms.pop(i)
        if coeff.is_zero():
            continue
        d = tuple(a - b_ for a, b_ in zip(i, p))
        ap_d = _factors(factors[p], prims, d)
        pool = _plus(pool, ap_d)
        substituted.append(i)
        den = _plus(coeff.den, ap_d)
        content = coeff.content / a_p.unit
        for q, unit in others.items():
            target = tuple(a + b_ for a, b_ in zip(q, d))
            level[target] = level[q] + level[i]
            addend = _Frac(-content * unit, _plus(coeff.F, _factors(factors[q], prims, d)),
                           coeff.num, den, prims)
            terms[target] = terms[target].add(addend, prims) if target in terms else addend
        if rhs:
            num = coeff.num if constant_rhs else mul_terms(coeff.num, shift_terms(rhs, d))
            b = b.add(_Frac(content * rhs_content, coeff.F, num, den, prims), prims)
    rminus = tuple(sorted([p] + substituted))
    live = {i: fr for i, fr in terms.items() if not fr.is_zero()}
    if any(level[i] <= s for i in live):
        raise InvariantError("a reachable term survived inside the strip")
    D = b.den
    for fr in live.values():
        D = _max(D, fr.den)
    poly = {key: Poly.from_ints(eq.variables, prims[key][0]) for key in D}
    origins = {poly[key]: prims[key][1] for key in D}
    if _minus(D, pool):  # D does not divide the pool
        raise InvariantError("common denominator escaped the substitution cascade")
    D_actual = FactoredPoly._from_canonical(eq.variables, Fraction(1),
                                            [(poly[key], m) for key, m in D.items()])

    def numerator(fr):  # the numerator of fr over the common denominator D
        return Poly.from_ints(eq.variables, _expand(_minus(_plus(fr.F, D), fr.den), prims, fr.num),
                              fr.content)

    return StripResult(rminus, tuple(sorted(live)), D_actual, origins, numerator, live, b)


# ----------------------------------------------------------------------


def _bound_for_cert(eq: PLDE, W: IntLattice, cert: WitnessCertificate, orbits: ShiftOrbits):
    u = primitive_vector(cert.u)
    s_val = dispersion_bound(eq, W, u, orbits)
    if s_val == NEG_INFINITY:
        # no periodic factor of W can occur at the corner coefficient at all
        return FactoredPoly.one(eq.variables), s_val
    strip = strip_rewrite(eq, cert.p, s_val, u, orbits)
    # a shift has the spread of what it shifts; only the prims kept are shifted back
    down = tuple(-x for x in cert.p)
    kept = [(f.shift(down), m) for f, m in strip.D_actual.factors
            if in_w_part(orbits[strip.origins[f]][2], W)]
    return FactoredPoly._from_canonical(eq.variables, Fraction(1), kept), s_val


def _intersect(eq: PLDE, W: IntLattice, certs, orbits: ShiftOrbits):
    """gcd of the bounds of the certificates certs for W, and the dispersion of the first.

    (None, None) when certs yields nothing.  No certificate is drawn once
    the gcd is 1, and the result is still the gcd over all of them: each
    multiplicity of a gcd is a minimum over the certificates, 0 for good
    once no factor is left, and every bound, so every gcd, has unit 1.
    """
    d = s = None
    for cert in certs:
        d_c, s_c = _bound_for_cert(eq, W, cert, orbits)
        if d is None:
            d, s = d_c, s_c
        else:
            d = d.gcd(d_c)
        if d.is_one():
            break
    return d, s


def module_bound(eq: PLDE, geometry: SupportGeometry, W: IntLattice, orbits=None):
    """Denominator bound of eq with respect to the module W, and the dispersion s.

    ``geometry`` is the SupportGeometry of eq's support.  The bound is the
    gcd over the witness certificates of ``geometry.useful_pairs(W)``,
    which decides them on demand, and `_intersect` stops drawing once the
    gcd is 1.  s is the dispersion of the first certificate, which is the
    one that ``geometry.classify(W)`` returns.  ``orbits`` is the shift
    orbit registry of `dispersion_bound`.
    """
    W = saturation(W)
    d, s = _intersect(eq, W, geometry.useful_pairs(W), ShiftOrbits() if orbits is None else orbits)
    if d is None:
        raise ValueError("no useful pair exists for this module")
    return d, s


def _aperiodic_bound(eq: PLDE, geometry: SupportGeometry, orbits: ShiftOrbits):
    """Bound on the aperiodic part: gcd over the corners, each by its first witness pair.

    A corner's witnesses are searched only while the gcd needs them.
    """
    support = eq.support
    zero = IntLattice.zero(len(eq.variables))
    if len(support) == 1:
        return eq.terms[support[0]].w_part(zero, orbits).shift(tuple(-x for x in support[0]))
    corners = geometry.corners
    # the first witness of each corner in corner order, None for a corner without one
    firsts = (next(filter(None, (geometry.witness(p, p2, zero) for p2 in corners if p2 != p)),
                   None) for p in corners)
    d, _ = _intersect(eq, zero, filter(None, firsts), orbits)
    if d is None:  # a covector exposing corner p alone has another corner on its top face
        raise InvariantError("no corner of the support has a witness pair")
    return d


def combined_bound(eq: PLDE) -> BoundReport:
    """Bound driver over all corner-coefficient factor spreads.

    Aperiodic factors are handled by a preprocessing pass over all corners;
    each periodic module found in a corner coefficient is classified once
    and either bounded (useful), recorded in P (opposite-only), or noted in
    the warnings.  Face-parallel modules that no pair can serve are listed
    as uncovered candidates.
    """
    support = eq.support
    r = len(eq.variables)
    warnings = []
    for s in support:
        for prim, _ in eq.terms[s].factors:
            if prim.total_degree() > 1:
                warnings.append("factor %s at %r trusted as irreducible (declared_irreducible)"
                                % (format_poly(prim), tuple(s)))
    per_module = {}
    zero = IntLattice.zero(r)
    geometry = SupportGeometry(support)  # kept with the orbits for the check of the report
    orbits = ShiftOrbits()  # every orbit of this call, and of the check of its report
    d = _aperiodic_bound(eq, geometry, orbits)
    per_module[zero] = ModuleEntry(CLASS_USEFUL, None, None, d)
    residual = []
    for q in geometry.corners:
        for prim, _mult in eq.terms[q].factors:
            Wu = orbits[prim][2]
            if Wu.is_zero():
                continue  # aperiodic factors are covered by the preprocessing pass
            if Wu not in per_module:
                cls = geometry.classify(Wu)
                if cls.kind == CLASS_USEFUL:
                    d_W, s_val = module_bound(eq, geometry, Wu, orbits)
                    per_module[Wu] = ModuleEntry(cls.kind, cls.certificate, s_val, d_W)
                    d = d.lcm(d_W)
                else:
                    per_module[Wu] = ModuleEntry(cls.kind, cls.certificate)
            entry = per_module[Wu]
            if entry.kind == CLASS_OPPOSITE_ONLY and prim not in residual:
                residual.append(prim)
            elif entry.kind == CLASS_UNCOVERED:
                warnings.append("factor %s has an uncovered spread %s"
                                % (format_poly(prim), Wu))
    uncovered = []
    for Wf in geometry.face_parallel_modules():
        if Wf not in per_module:
            cls = geometry.classify(Wf)
            per_module[Wf] = ModuleEntry(cls.kind, cls.certificate)
        if per_module[Wf].kind != CLASS_USEFUL:
            uncovered.append(Wf)
    if r > 3:
        warnings.append("face enumeration is restricted to hull edges for r > 3")
    return BoundReport(
        variables=eq.variables,
        d=d,
        P=tuple(sorted(residual, key=lambda p: p.sort_key())),
        per_module=per_module,
        uncovered=tuple(sorted(uncovered, key=lambda L: L.key())),
        warnings=tuple(warnings),
        orbits=orbits,
        geometry=geometry,
        equation=eq,
    )

