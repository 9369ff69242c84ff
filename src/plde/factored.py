"""Factored polynomials: a unit times a multiset of canonical prime-like factors.

Coefficients and denominator bounds are carried in this form so that gcd
and lcm reduce to multiplicity bookkeeping over canonical associate
representatives.  The stored factors are trusted to be irreducible, as
degree-1 factors are and as the caller declares the others to be.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import is_sublattice
from .polyring import Poly, format_poly, normalize_primitive, parse_poly


def in_w_part(G, W) -> bool:
    """Whether a factor of invariance lattice G is in the W-part: G in W, and G = 0 only if W = 0
    (for a nonzero W, a factor of trivial spread belongs to the aperiodic pass, over W = 0)."""
    return is_sublattice(G, W) and (W.is_zero() or not G.is_zero())


class FactoredPoly:
    """unit * prod(prim_i ^ mult_i) with canonical, pairwise distinct prims."""

    __slots__ = ("vars", "unit", "factors")

    def __init__(self, vars, unit=1, factors=()):
        """The canonical form of unit * prod(p ^ mult): each content moves into the unit."""
        self.vars = tuple(vars)
        unit = Fraction(unit)
        if unit == 0:
            raise ValueError("unit must be nonzero")
        prims = []
        for p, mult in factors:
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
        self._merge(unit, prims)

    @classmethod
    def _from_canonical(cls, vars, unit, factors) -> "FactoredPoly":
        """Trusted constructor: every prim already canonical and nonconstant.

        Canonical means integer-primitive with positive leading coefficient,
        as normalize_primitive returns it; multiplicities are positive ints.
        """
        fp = object.__new__(cls)
        fp.vars = vars
        fp._merge(unit, factors)
        return fp

    def _merge(self, unit, factors):
        """Store the factors sorted by sort_key, the multiplicities of a repeated prim added."""
        merged: dict[Poly, int] = {}
        for prim, mult in factors:
            merged[prim] = merged.get(prim, 0) + mult
        self.unit = unit
        self.factors = tuple((p, merged[p]) for p in sorted(merged, key=Poly.sort_key))

    # ------------------------------------------------------------------

    @classmethod
    def one(cls, vars) -> "FactoredPoly":
        return cls(vars)

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

    def gcd(self, other: "FactoredPoly") -> "FactoredPoly":
        if self.vars != other.vars:
            raise ValueError("mismatched variable lists")
        mine = dict(self.factors)
        factors = [(p, min(m, mine[p])) for p, m in other.factors if p in mine]
        return FactoredPoly._from_canonical(self.vars, Fraction(1), factors)

    def lcm(self, other: "FactoredPoly") -> "FactoredPoly":
        if self.vars != other.vars:
            raise ValueError("mismatched variable lists")
        mult = dict(self.factors)
        for p, m in other.factors:
            mult[p] = max(mult.get(p, 0), m)
        return FactoredPoly._from_canonical(self.vars, Fraction(1), mult.items())

    def shift(self, s) -> "FactoredPoly":
        """Shift every factor.

        An integer shift keeps a prim canonical (its top-degree form and its
        integer content are unchanged) but may change the factor order.
        """
        factors = [(p.shift(s), m) for p, m in self.factors]
        return FactoredPoly._from_canonical(self.vars, self.unit, factors)

    def subst(self, matrix) -> "FactoredPoly":
        """Apply the variable substitution n -> matrix . n to every factor."""
        images = Poly.linear_forms(self.vars, matrix.rows)
        factors = [(p.compose(images, self.vars), m) for p, m in self.factors]
        return FactoredPoly(self.vars, self.unit, factors)

    # ------------------------------------------------------------------
    # spread filters

    def w_part(self, W, orbits) -> "FactoredPoly":
        """The factors that `in_w_part` keeps for W, unit 1; p has the lattice orbits[p][2].

        ``orbits`` is a `spread.ShiftOrbits` registry, the one of the call.
        """
        kept = [(p, m) for p, m in self.factors if in_w_part(orbits[p][2], W)]
        return FactoredPoly._from_canonical(self.vars, Fraction(1), kept)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self):
        return {
            "unit": str(self.unit),
            "factors": [[format_poly(p), m] for p, m in self.factors],
        }

    @classmethod
    def from_json(cls, data, vars) -> "FactoredPoly":
        """The factored polynomial of a JSON object {"unit": ..., "factors": [[text, mult], ...]}."""
        unit = Fraction(data.get("unit", "1"))
        return cls(vars, unit, [(parse_poly(text, vars), int(mult))
                                for text, mult in data.get("factors", [])])
