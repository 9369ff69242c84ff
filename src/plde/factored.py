"""Factored polynomials: a unit times a multiset of canonical prime-like factors.

Coefficients and denominator bounds are carried in this form so that gcd
and lcm reduce to multiplicity bookkeeping over canonical associate
representatives.  Irreducibility of the stored factors is tracked by a
per-factor tag: degree-1 factors are verified automatically, anything of
higher degree is trusted as declared by the caller.
"""

from __future__ import annotations

from fractions import Fraction

from .polyring import Poly, format_poly, normalize_primitive, parse_poly

VERIFIED_LINEAR = "verified_linear"
DECLARED_IRREDUCIBLE = "declared_irreducible"
UNVERIFIED = "unverified"

_TAG_RANK = {VERIFIED_LINEAR: 2, DECLARED_IRREDUCIBLE: 1, UNVERIFIED: 0}


def _auto_tag(prim: Poly, tag: str | None) -> str:
    if prim.total_degree() == 1:
        return VERIFIED_LINEAR
    return tag if tag in _TAG_RANK else UNVERIFIED


class SpreadComputationError(RuntimeError):
    """Spread of a stored factor could not be determined; names the factor."""

    def __init__(self, factor: Poly, reason: str):
        super().__init__("cannot determine spread of %s: %s" % (format_poly(factor), reason))
        self.factor = factor


class FactoredPoly:
    """unit * prod(prim_i ^ mult_i) with canonical, pairwise distinct prims."""

    __slots__ = ("vars", "unit", "factors", "tags")

    def __init__(self, vars, unit=1, factors=(), tags=None):
        self.vars = tuple(vars)
        unit = Fraction(unit)
        if unit == 0:
            raise ValueError("unit must be nonzero")
        factors = list(factors)
        tags = list(tags) if tags is not None else [None] * len(factors)
        if len(tags) != len(factors):
            raise ValueError("one tag per factor expected")
        prims = []
        prim_tags = []
        for (p, mult), tag in zip(factors, tags):
            mult = int(mult)
            if mult < 1:
                raise ValueError("multiplicity must be positive")
            if p.vars != self.vars:
                raise ValueError("factor over wrong variables")
            if p.is_zero():
                raise ValueError("zero factor")
            u, prim = normalize_primitive(p)
            unit *= u ** mult
            if not prim.is_constant():
                prims.append((prim, mult))
                prim_tags.append(_auto_tag(prim, tag))
        self._merge(unit, prims, prim_tags)

    @classmethod
    def _from_canonical(cls, vars, unit, factors, tags) -> "FactoredPoly":
        """Trusted constructor: every prim already canonical, nonconstant and tagged.

        Canonical means integer-primitive with positive leading coefficient,
        as normalize_primitive returns it; multiplicities are positive ints.
        """
        fp = object.__new__(cls)
        fp.vars = vars
        fp._merge(unit, factors, tags)
        return fp

    def _merge(self, unit, factors, tags):
        """Store the factors with repeated prims merged, sorted by sort_key.

        Multiplicities of a repeated prim add up and its highest-ranked tag wins.
        """
        merged: dict[Poly, int] = {}
        tag_of: dict[Poly, str] = {}
        for (prim, mult), tag in zip(factors, tags):
            if prim in merged:
                merged[prim] += mult
                if _TAG_RANK[tag] > _TAG_RANK[tag_of[prim]]:
                    tag_of[prim] = tag
            else:
                merged[prim] = mult
                tag_of[prim] = tag
        order = sorted(merged, key=Poly.sort_key)
        self.unit = unit
        self.factors = tuple((p, merged[p]) for p in order)
        self.tags = tuple(tag_of[p] for p in order)

    # ------------------------------------------------------------------

    @classmethod
    def one(cls, vars) -> "FactoredPoly":
        return cls(vars)

    @classmethod
    def from_poly(cls, p: Poly, tag: str | None = None) -> "FactoredPoly":
        """Wrap a single (assumed irreducible) polynomial."""
        if p.is_zero():
            raise ValueError("zero polynomial has no factored form")
        if p.is_constant():
            return cls(p.vars, p.constant_value())
        return cls(p.vars, 1, [(p, 1)], [tag])

    def is_one(self) -> bool:
        return self.unit == 1 and not self.factors

    def is_constant(self) -> bool:
        return not self.factors

    def expand(self) -> Poly:
        result = Poly.const(self.vars, self.unit)
        for p, m in self.factors:
            result = result * p ** m
        return result

    def total_degree(self) -> int:
        return sum(p.total_degree() * m for p, m in self.factors)

    def multiplicity(self, prim: Poly) -> int:
        for p, m in self.factors:
            if p == prim:
                return m
        return 0

    def __eq__(self, other):
        return (isinstance(other, FactoredPoly) and self.vars == other.vars
                and self.unit == other.unit and self.factors == other.factors)

    def __hash__(self):
        return hash((self.vars, self.unit, self.factors))

    def __str__(self):
        if not self.factors:
            num = self.unit.numerator
            return str(num) if self.unit.denominator == 1 else "%d/%d" % (num, self.unit.denominator)
        pieces = []
        if self.unit == -1:
            pieces.append("-1")
        elif self.unit != 1:
            pieces.append(str(self.unit))
        for p, m in self.factors:
            s = "(%s)" % format_poly(p)
            pieces.append(s if m == 1 else "%s^%d" % (s, m))
        return "*".join(pieces)

    def __repr__(self):
        return "FactoredPoly(%s)" % str(self)

    # ------------------------------------------------------------------
    # multiplicative structure

    def _tag_for(self, prim: Poly) -> str:
        for p, t in zip((p for p, _ in self.factors), self.tags):
            if p == prim:
                return t
        return UNVERIFIED

    def mul(self, other: "FactoredPoly") -> "FactoredPoly":
        if self.vars != other.vars:
            raise ValueError("mismatched variable lists")
        return FactoredPoly._from_canonical(self.vars, self.unit * other.unit,
                                            self.factors + other.factors, self.tags + other.tags)

    def pow(self, n: int) -> "FactoredPoly":
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a factored polynomial")
        factors = [(p, m * n) for p, m in self.factors] if n else []
        return FactoredPoly._from_canonical(self.vars, self.unit ** n, factors,
                                            self.tags if n else ())

    def gcd(self, other: "FactoredPoly") -> "FactoredPoly":
        if self.vars != other.vars:
            raise ValueError("mismatched variable lists")
        mine = dict(self.factors)
        factors = []
        tags = []
        for p, m in other.factors:
            if p in mine:
                factors.append((p, min(m, mine[p])))
                tags.append(self._tag_for(p))
        return FactoredPoly._from_canonical(self.vars, Fraction(1), factors, tags)

    def lcm(self, other: "FactoredPoly") -> "FactoredPoly":
        if self.vars != other.vars:
            raise ValueError("mismatched variable lists")
        mult = dict(self.factors)
        for p, m in other.factors:
            mult[p] = max(mult.get(p, 0), m)
        factors = list(mult.items())
        tags = [max(self._tag_for(p), other._tag_for(p), key=lambda t: _TAG_RANK[t])
                for p, _ in factors]
        return FactoredPoly._from_canonical(self.vars, Fraction(1), factors, tags)

    def divides(self, other: "FactoredPoly") -> bool:
        """Multiset containment of factors (units ignored)."""
        theirs = dict(other.factors)
        return all(theirs.get(p, 0) >= m for p, m in self.factors)

    def div_exact(self, other: "FactoredPoly") -> "FactoredPoly":
        """Quotient by a factored divisor (multiset subtraction)."""
        mult = dict(self.factors)
        for p, m in other.factors:
            left = mult.get(p, 0) - m
            if left < 0:
                raise ValueError("not a factored divisor")
            mult[p] = left
        factors = [(p, m) for p, m in mult.items() if m]
        tags = [self._tag_for(p) for p, _ in factors]
        return FactoredPoly._from_canonical(self.vars, self.unit / other.unit, factors, tags)

    def shift(self, s) -> "FactoredPoly":
        """Shift every factor.

        An integer shift keeps a prim canonical (its top-degree form and its
        integer content are unchanged) but may change the factor order.
        """
        factors = [(p.shift(s), m) for p, m in self.factors]
        return FactoredPoly._from_canonical(self.vars, self.unit, factors, self.tags)

    def subst(self, matrix) -> "FactoredPoly":
        """Apply the variable substitution n -> matrix . n to every factor."""
        images = Poly.linear_forms(self.vars, matrix.rows)
        factors = [(p.compose(images, self.vars), m) for p, m in self.factors]
        return FactoredPoly(self.vars, self.unit, factors, list(self.tags))

    def drop_unit(self) -> "FactoredPoly":
        if self.unit == 1:
            return self
        return FactoredPoly._from_canonical(self.vars, Fraction(1), self.factors, self.tags)

    # ------------------------------------------------------------------
    # spread filters

    def w_part(self, W, drop_aperiodic: bool = False) -> "FactoredPoly":
        """Factors whose spread lattice is contained in W; unit reset to 1.

        With ``drop_aperiodic`` the factors with trivial spread are removed
        as well (they are handled by the aperiodic preprocessing pass).
        """
        from .spread import invariance_lattice
        from .lattice import is_sublattice

        kept = []
        tags = []
        for (p, m), tag in zip(self.factors, self.tags):
            try:
                sp = invariance_lattice(p)
            except Exception as exc:  # pragma: no cover - defensive
                raise SpreadComputationError(p, str(exc)) from exc
            if not is_sublattice(sp, W):
                continue
            if drop_aperiodic and sp.is_zero():
                continue
            kept.append((p, m))
            tags.append(tag)
        return FactoredPoly._from_canonical(self.vars, Fraction(1), kept, tags)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self):
        return {
            "unit": str(self.unit),
            "factors": [[format_poly(p), m] for p, m in self.factors],
        }

    @classmethod
    def from_json(cls, data, vars) -> "FactoredPoly":
        unit = Fraction(data.get("unit", "1"))
        factors = []
        for text, mult in data.get("factors", []):
            factors.append((parse_poly(text, vars), int(mult)))
        return cls(vars, unit, factors, [DECLARED_IRREDUCIBLE] * len(factors))

