"""Denominator bounds for rational solutions, relative to spread modules.

The pipeline for a single module W with a useful pair certificate (p, u),
all in the equation's own coordinates; the level of a support point s is
u . (s - p) (`transform.witness_levels`):

1. bound the dispersion along u between the W-periodic parts of the
   coefficients on the minimal and the maximal level (`dispersion_bound`);
2. rewrite the equation by repeated substitution until every unknown term
   sits beyond that dispersion strip, each coefficient a fraction with one
   signed valuation map over the shifted coefficient factors (`_Frac`),
   summed once from all its addends when it is complete (`_sum`), and
   take the reduced common denominator of what is left (`strip_rewrite`);
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

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, sub
from .equation import PLDE
from .factored import FactoredPoly, in_w_part
from .geometry import (CLASS_OPPOSITE_ONLY, CLASS_UNCOVERED, CLASS_USEFUL, SupportGeometry,
                       WeakCertificate, WitnessCertificate)
from .lattice import IntLattice, primitive_vector
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
                 numerator):
        self.Rminus, self.Rplus, self.D_actual, self.origins = Rminus, Rplus, D_actual, origins
        self._numerator = numerator

    @cached_property
    def terms(self) -> dict:
        return {i: self._numerator(i) for i in self.Rplus}

    @cached_property
    def b(self) -> Poly:
        return self._numerator(None)


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
    """content * num * prod prim^E, reduced; E maps prim slots to nonzero exponents.

    ``num`` is an int term map with coprime coefficients and ``content`` an
    int: `strip_rewrite` scales its values so that no fraction of ints is
    needed.  E is one signed valuation map: its positive part is the
    factored part of the numerator, never expanded while the fraction
    lives, and its negative part the denominator, so a factor of a
    substituted a_q(n+d) and the same factor of a denominator a_p(n+d)
    cancel as their exponents add (Henrici's rule).  Reduced means that num
    is prime to every prim of negative exponent.

    The constructor trial-divides num by each prim of ``trial`` that has a
    negative exponent, once per unit, up to the prim's first failure.  By
    Gauss's lemma a quotient by a primitive prim is over Z, so the division
    (`polyring.divide_int_terms`) needs exact int division only, and it is
    skipped when num has a lower total degree than the prim (the degree
    rule): a nonconstant prim divides no nonzero polynomial of lower degree.
    Under the contract of `FactoredPoly`, pairwise coprime irreducible
    prims, no prim of negative exponent divides a reduced num, so callers
    name only the prims that can divide: a quotient by a_p(n+d) those of
    a_p(n+d), a nonconstant right-hand side rhs(n+d) those of the
    denominator it is multiplied by, and `_sum` those whose least exponent
    two addends share.  A product of a reduced fraction by a constant, by
    prims and by a primitive int term map prime to its denominator needs no
    division at all (`scaled`).  So every fraction is the reduced one that
    trial division of the expanded value reaches.  Outside the contract
    every cancellation is still an exact division and a skipped one only
    leaves a larger denominator, so a bound built from it stays sound.

    ``prims`` is the `_Prims` table of one strip rewriting, which numbers
    the shifted coefficient factors by int slots and makes a prim's term
    map only when a division or an expansion reads it.
    """

    __slots__ = ("content", "E", "num")

    def __init__(self, content: int, E: dict, num: dict, prims: "_Prims", trial=()):
        if not num:
            E = {}
        else:
            g = gcd(*num.values())
            if g != 1:
                content *= g
                num = {e: c // g for e, c in num.items()}
            degree = max(map(sum, num))
            for slot in trial:
                prim_degree = prims.degree[slot]
                m = n = E.get(slot, 0)
                while n < 0 and prim_degree <= degree:
                    q = divide_int_terms(num, prims.terms(slot))
                    if q is None:
                        break
                    num, n, degree = q, n + 1, degree - prim_degree
                if n != m:
                    E = _plus(E, {slot: n - m})
        self.content = content
        self.E = E
        self.num = num

    def is_zero(self) -> bool:
        return not self.num

    def scaled(self, content: int, mults: dict, num=None) -> "_Frac":
        """self times content, prod prim^m over mults and the int terms num, without a division.

        num must be primitive and prime to the prims of negative exponent
        left, so that the product stays reduced.
        """
        fr = object.__new__(_Frac)
        fr.content = self.content * content
        fr.E = _plus(self.E, mults) if mults else self.E
        fr.num = self.num if num is None else mul_terms(self.num, num)
        return fr


def _sum(addends: list, prims: "_Prims") -> _Frac:
    """The reduced sum of reduced fractions over one prim table, in one step.

    Every addend is written over the pointwise minimum g of their valuation
    maps: only its excess over g is expanded, so like terms (equal maps) just
    add their numerators.  The sum is then trial-divided only by the prims
    whose negative exponent in g two or more addends attain.  A prim whose
    least exponent one addend alone attains lies in the excess of every
    other addend, so it divides every other term of the sum, but not the
    numerator of that addend, which is reduced; so it cannot divide the sum.
    """
    if len(addends) == 1:
        return addends[0]
    g = addends[0].E
    like = True
    for fr in addends[1:]:
        if fr.E != g:
            g, like = _min(g, fr.E), False
    total = {}
    for fr in addends:
        k = fr.content
        num = {e: k * c for e, c in fr.num.items()}
        total = add_terms(total, num if like or fr.E == g else
                          _expand(_plus(fr.E, g, -1), prims, num))
    trial = [slot for slot, m in g.items()
             if m < 0 and (like or sum(fr.E.get(slot, 0) == m for fr in addends) > 1)]
    return _Frac(1, g, total, prims, trial)


# signed valuation maps, never changed once made, without zero entries (an absent slot has
# exponent 0): a + sign * b, and the pointwise minimum


def _plus(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for slot, m in b.items():
        if m := out.pop(slot, 0) + sign * m:
            out[slot] = m
    return out


def _min(a: dict, b: dict) -> dict:
    return {slot: m for slot in {**a, **b} if (m := min(a.get(slot, 0), b.get(slot, 0)))}


class _Prims:
    """The prims of one strip rewriting, numbered by small int slots.

    A shift f(n + d) of a coefficient factor f is named by its shift orbit
    (`_factors`), so equal prims share one slot.  ``origin``, ``shift`` and
    ``degree`` list each slot's coefficient factor f, the shift t with
    f(n + t) the prim, and the prim's total degree, all that a strip reads
    of most prims.  A prim's int term map is made the first time `terms`
    reads it: by a trial division that the degree rule lets run, by
    `_expand`, or for the strip's D_actual.  ``memo`` maps (orbit id,
    offset - d) to the slot of f(n + d).
    """

    __slots__ = ("origin", "shift", "degree", "_terms", "_slots", "memo")

    def __init__(self):
        self.origin, self.shift, self.degree, self._terms = [], [], [], []
        self._slots, self.memo = {}, {}

    def slot(self, orbit_id: int, reduced: tuple, f: Poly, shift: tuple, degree: int) -> int:
        """The slot of the prim f(n + shift), of orbit key (orbit_id, reduced) and that degree."""
        slot = self._slots.setdefault((orbit_id, reduced), len(self.origin))
        if slot == len(self.origin):
            self.origin.append(f)
            self.shift.append(shift)
            self.degree.append(degree)
            self._terms.append(None)
        return slot

    def terms(self, slot: int) -> dict:
        terms = self._terms[slot]
        if terms is None:
            f, shift = self.origin[slot], self.shift[slot]
            terms = self._terms[slot] = shift_terms(f.terms, shift) if any(shift) else f.terms
        return terms


def _orbit_rows(factors, orbits: ShiftOrbits, ids: dict) -> list:
    """(f, m, id of key, offset, G, degree of f) for each factor (f, m) of a coefficient.

    (key, offset, G) = orbits[f], and ids numbers the orbit keys.
    """
    rows = []
    for f, m in factors:
        key, offset, G = orbits[f]
        rows.append((f, m, ids.setdefault(key, len(ids)), offset, G, f.total_degree()))
    return rows


def _factors(rows, prims: _Prims, d: tuple) -> dict:
    """A coefficient's factors (`_orbit_rows`) shifted by d: prim slot -> multiplicity.

    f(n + d) is named by (orbit id, G.reduce(offset - d)), and its slot is
    memoized in ``prims.memo`` by (orbit id, offset - d), so a strip reduces
    each distinct shift once.  The prim is f(n + offset - reduced), which
    is f(n + d): offset - reduced - d lies in G, the shifts fixing f.
    """
    out = {}
    memo = prims.memo
    for f, m, orbit_id, offset, G, degree in rows:
        diff = tuple(map(sub, offset, d))
        slot = memo.get((orbit_id, diff))
        if slot is None:
            reduced = G.reduce(diff)
            slot = memo[orbit_id, diff] = prims.slot(orbit_id, reduced, f,
                                                     tuple(map(sub, offset, reduced)), degree)
        out[slot] = m
    return out


def _expand(mults: dict, prims: _Prims, terms: dict) -> dict:
    """terms times the product of prim^m over mults, as an int term map."""
    for slot, m in mults.items():
        for _ in range(m):
            terms = mul_terms(terms, prims.terms(slot))
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

    A point's addends are collected and summed once (`_sum`), when the point
    is substituted or, after the cascade, when it stays live; points are
    substituted from a heap of (level, point).  A substitution divides the
    coefficient by a_p(n + d) once, trial-dividing only by the prims of
    a_p(n + d), and its addends are that quotient times a constant and the
    prims of a_q(n + d), which needs no division (`_Frac`).  The running sum
    of the right-hand side is a sum of two addends; a nonconstant
    right-hand side rhs(n + d) is trial-divided by the prims of the
    quotient's denominator before it multiplies the quotient's numerator,
    since under the contract of `FactoredPoly` only its own factors can
    cancel.

    Every value is exact and every content an int.  With lam the least
    common denominator of the ratios -a_q.unit / a_p.unit and mu the
    denominator of rhs.content / a_p.unit, the cascade keeps the
    coefficient of N^i y times lam^level(i) and b times mu * lam^s: a step
    to q then multiplies by the int -a_q.unit / a_p.unit * lam^level(q),
    since level(q) >= 1, and a substitution at level l adds to b the
    quotient times the int mu * rhs.content / a_p.unit * lam^(s - l).  The
    scale is divided out only when ``terms`` or ``b`` is read.

    The shifted coefficient factors are numbered by int slots of a `_Prims`
    table, keyed by their `spread.shift_orbit` read from ``orbits``, the
    registry of `dispersion_bound` (a fresh one if None), and a prim's term
    map is made only when a division, an expansion or D_actual reads it.
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
    prims, ids = _Prims(), {}  # ids numbers the orbit keys
    factors = {q: _orbit_rows(a_q.factors, orbits, ids) for q, a_q in eq.terms.items()}
    base = _factors(factors[p], prims, zero)
    ratio = {q: -a_q.unit / a_p.unit for q, a_q in eq.terms.items() if q != p}
    lam = lcm(*(c.denominator for c in ratio.values()))
    ratio = {q: c.numerator * (lam // c.denominator) * lam ** (level[q] - 1)
             for q, c in ratio.items()}
    rhs_content = eq.rhs.content / a_p.unit
    rhs_num, mu = rhs_content.numerator, rhs_content.denominator
    rhs = eq.rhs.terms
    constant_rhs = rhs == {zero: 1}  # its shifts are itself, and a product by it is a copy
    terms = {q: [_Frac(c, _plus(_factors(factors[q], prims, zero), base, -1), {zero: 1},
                       prims)] for q, c in ratio.items()}  # point -> its addends
    b = _Frac(rhs_num * lam ** s, _plus({}, base, -1), rhs, prims, base)
    ready = [(level[q], q) for q in terms if level[q] <= s]  # a heap of the points to substitute
    heapq.heapify(ready)
    substituted = []
    pool = base  # the product of the shifted corner coefficients
    while ready:
        li, i = heapq.heappop(ready)
        coeff = _sum(terms.pop(i), prims)  # complete: every addend comes from a lower level
        if coeff.is_zero():
            continue
        d = tuple(map(sub, i, p))
        ap_d = _factors(factors[p], prims, d)
        pool = _plus(pool, ap_d)
        substituted.append(i)
        quotient = _Frac(coeff.content, _plus(coeff.E, ap_d, -1), coeff.num, prims, ap_d)
        for q, c in ratio.items():
            target = tuple(map(add, q, d))
            addend = quotient.scaled(c, _factors(factors[q], prims, d))
            if target in terms:
                terms[target].append(addend)
            else:
                terms[target] = [addend]
                level[target] = level[q] + li
                if level[target] <= s:
                    heapq.heappush(ready, (level[target], target))
        if rhs:
            k = rhs_num * lam ** (s - li)
            if constant_rhs:
                addend = quotient.scaled(k, {})
            else:
                addend = _Frac(k, quotient.E, shift_terms(rhs, d), prims,
                               quotient.E).scaled(quotient.content, {}, quotient.num)
            b = _sum([b, addend], prims)
    rminus = tuple(sorted([p] + substituted))
    live = {i: _sum(addends, prims) for i, addends in terms.items()}
    live = {i: fr for i, fr in live.items() if not fr.is_zero()}
    if any(level[i] <= s for i in live):
        raise InvariantError("a reachable term survived inside the strip")
    low = {}  # the minimum of 0 and the maps: the common denominator D, its exponents negated
    for fr in (b, *live.values()):
        low = _min(low, fr.E)
    if any(pool.get(slot, 0) < -m for slot, m in low.items()):  # D does not divide the pool
        raise InvariantError("common denominator escaped the substitution cascade")
    poly = {slot: Poly.from_ints(eq.variables, prims.terms(slot)) for slot in low}
    origins = {poly[slot]: prims.origin[slot] for slot in low}
    D_actual = FactoredPoly._from_canonical(eq.variables, Fraction(1),
                                            [(poly[slot], -m) for slot, m in low.items()])

    def numerator(i):  # the numerator over D of the coefficient of N^i y, or of b for None
        fr, scale = (b, mu * lam ** s) if i is None else (live[i], lam ** level[i])
        return Poly.from_ints(eq.variables, _expand(_plus(fr.E, low, -1), prims, fr.num),
                              Fraction(fr.content, scale))

    return StripResult(rminus, tuple(sorted(live)), D_actual, origins, numerator)


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
    one that ``geometry.classify(W)`` returns.  The bound is taken for the
    saturation of W, which the geometry's setup of W already holds.
    ``orbits`` is the shift orbit registry of `dispersion_bound`.
    """
    d, s = _intersect(eq, geometry.saturation(W), geometry.useful_pairs(W),
                      ShiftOrbits() if orbits is None else orbits)
    if d is None:
        raise ValueError("no useful pair exists for this module")
    return d, s


def _aperiodic_bound(eq: PLDE, geometry: SupportGeometry, orbits: ShiftOrbits):
    """Bound on the aperiodic part: gcd over the corners, each by its first witness pair.

    A corner's witnesses are searched only while the gcd needs them: none when
    some corner p has no aperiodic factor, since W = 0 gives p a witness pair,
    on whose base face {p} `dispersion_bound` finds no prim, so its bound is 1.
    """
    support = eq.support
    zero = IntLattice.zero(len(eq.variables))
    if len(support) == 1:
        return eq.terms[support[0]].w_part(zero, orbits).shift(tuple(-x for x in support[0]))
    corners = geometry.corners
    if any(eq.terms[p].w_part(zero, orbits).is_one() for p in corners):
        return FactoredPoly.one(eq.variables)
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

