"""Partial linear difference equations with factored polynomial coefficients.

An equation is a finite sum of shifted copies of one unknown rational
function: sum over s in the support of a_s * y(n + s) = f, with nonzero
polynomial coefficients a_s and polynomial right-hand side f.

The JSON file format used by the command line front-end:

    {
      "variables": ["n", "k"],
      "terms": [
        {"shift": [0, 0],
         "coefficient": {"unit": "-1", "factors": [["k+n+1", 1], ["2*k+3*n+1", 1]]}},
        ...
      ],
      "rhs": "0"
    }

Coefficients may also be given as plain polynomial strings; those are
auto-factored only as far as content extraction and univariate linear
splits go, anything harder must arrive factored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .factored import FactoredPoly
from .polyring import (MAX_DEGREE, InvariantError, Poly, UnsupportedInputError, divide_exact,
                       format_poly, is_name, normalize_primitive, parse_poly)


class EquationFormatError(ValueError):
    """Malformed equation data."""


class UnsupportedCoefficientError(UnsupportedInputError):
    """A plain-text coefficient that the convenience factorizer cannot split."""


# the largest |integer| whose divisors the rational root search enumerates
MAX_ROOT_SEARCH = 10 ** 6


@dataclass(frozen=True)
class PLDE:
    """Equation data: variables, support-indexed coefficients, right-hand side."""

    variables: tuple
    terms: dict
    rhs: Poly

    def __post_init__(self):
        if not self.terms:
            raise EquationFormatError("equation has no terms")
        r = len(self.variables)
        if len(set(self.variables)) != r:
            raise EquationFormatError("variable names must be distinct")
        for s, a in self.terms.items():
            if len(s) != r:
                raise EquationFormatError("shift %r has wrong length" % (s,))
            if a.vars != self.variables:
                raise EquationFormatError("coefficient at %r is over the wrong variables" % (s,))
        if self.rhs.vars != self.variables:
            raise EquationFormatError("right-hand side is over the wrong variables")

    @property
    def support(self):
        return sorted(self.terms)

    def to_json(self):
        return {
            "variables": list(self.variables),
            "terms": [
                {"shift": list(s), "coefficient": self.terms[s].to_json()}
                for s in self.support
            ],
            "rhs": format_poly(self.rhs),
        }

    @classmethod
    def from_json(cls, data) -> "PLDE":
        if not isinstance(data, dict):
            raise EquationFormatError("equation must be a JSON object, not %s"
                                      % type(data).__name__)
        try:
            variables = variable_names(data["variables"])
            raw_terms = data["terms"]
            rhs_text = data.get("rhs", "0")
        except (KeyError, TypeError) as exc:
            raise EquationFormatError("missing field: %s" % exc) from exc
        if not raw_terms:
            raise EquationFormatError("equation has no terms")
        if not isinstance(raw_terms, (list, tuple)):
            raise EquationFormatError("terms must be a list")
        terms = {}
        for index, entry in enumerate(raw_terms):
            shift, fp = _term(entry, index, variables)
            if shift in terms:
                raise EquationFormatError("duplicate shift %r" % (shift,))
            terms[shift] = fp
        return cls(variables, terms, parse_poly(rhs_text, variables))


def variable_names(raw):
    """The variables of an equation file or command line: a non-empty list of distinct names."""
    if not isinstance(raw, (list, tuple)) or not raw or not all(isinstance(v, str) for v in raw):
        raise EquationFormatError("variables must be a non-empty list of names, not %r" % (raw,))
    variables = tuple(raw)
    if len(set(variables)) != len(variables):
        raise EquationFormatError("variable names must be distinct")
    for v in variables:
        if not is_name(v):
            raise EquationFormatError("variable %r is not a name polynomial text can use" % v)
    return variables


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _term(entry, index: int, variables):
    """The shift tuple and coefficient of term number index, checked for shape."""
    if not isinstance(entry, dict):
        raise EquationFormatError("term %d must be a JSON object" % index)
    for key in ("shift", "coefficient"):
        if key not in entry:
            raise EquationFormatError("term %d has no %r" % (index, key))
    shift = entry["shift"]
    if not isinstance(shift, (list, tuple)) or not all(_is_int(x) for x in shift):
        raise EquationFormatError("term %d: shift must be a list of integers, not %r"
                                  % (index, shift))
    coeff = entry["coefficient"]
    if isinstance(coeff, str):
        return tuple(shift), auto_factor(parse_poly(coeff, variables))
    if not isinstance(coeff, dict):
        raise EquationFormatError("term %d: coefficient must be a string or an object" % index)
    unit = coeff.get("unit", "1")
    try:
        nonzero = (_is_int(unit) or isinstance(unit, str)) and Fraction(unit) != 0
    except (ValueError, ZeroDivisionError):
        nonzero = False
    if not nonzero:
        raise EquationFormatError("term %d: unit must be a nonzero rational, not %r"
                                  % (index, unit))
    factors = coeff.get("factors", [])
    if not isinstance(factors, list) or not all(
            isinstance(f, list) and len(f) == 2 and _is_int(f[1]) and f[1] >= 1 for f in factors):
        raise EquationFormatError("term %d: factors must be a list of [text, multiplicity >= 1] "
                                  "pairs, not %r" % (index, factors))
    fp = FactoredPoly.from_json(coeff, variables)
    if fp.total_degree() > MAX_DEGREE:
        raise UnsupportedCoefficientError("unsupported: term %d has degree %d, above the limit %d"
                                          % (index, fp.total_degree(), MAX_DEGREE))
    return tuple(shift), fp


def load_equation(path) -> PLDE:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise EquationFormatError("not valid JSON: %s" % exc) from exc
    return PLDE.from_json(data)


def _univariate_linear_split(p: Poly, var_index: int):
    """Split off rational roots of a univariate polynomial, or None.

    Returns a factor list when p factors completely into linear pieces,
    which is the only split the convenience path promises.
    """
    factors = []
    current = p
    vars = p.vars
    x = Poly.variable(vars, vars[var_index])
    for _ in range(p.degree_in(var_index)):
        # the rational roots of current are those of its primitive integer part
        coeffs = {e[var_index]: c for e, c in current.terms.items()}
        d = max(coeffs)
        if d == 0:
            break
        const = coeffs.get(0, 0)
        if const == 0:
            root = Fraction(0)
        else:
            dens = _divisors(coeffs[d])
            cands = (Fraction(sign * num, den) for num in _divisors(const)
                     for den in dens for sign in (1, -1))
            root = next((c for c in cands if current.eval_at(
                [c if i == var_index else 0 for i in range(len(vars))]) == 0), None)
        if root is None:
            return None
        lin = x * root.denominator - Poly.const(vars, root.numerator)
        quo = divide_exact(current, lin)
        if quo is None:
            raise InvariantError("a rational root does not split off a linear factor")
        factors.append(lin)
        current = quo
    if not current.is_constant():
        return None
    return factors


def _divisors(n: int):
    """The positive divisors of n in ascending order; [1] for n = 0."""
    n = abs(int(n))
    if n > MAX_ROOT_SEARCH:
        raise UnsupportedCoefficientError(
            "unsupported: a rational root search over the divisors of %d (limit %d); "
            "supply the coefficient in factored form" % (n, MAX_ROOT_SEARCH))
    if n == 0:
        return [1]
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def auto_factor(p: Poly) -> FactoredPoly:
    """Convenience factorizer: content, linear forms, and univariate splits only.

    Anything beyond that raises UnsupportedCoefficientError; callers are
    expected to supply factored coefficients.
    """
    if p.is_zero():
        raise EquationFormatError("zero coefficient")
    if p.is_constant():
        return FactoredPoly(p.vars, p.constant_value())
    unit, prim = normalize_primitive(p)
    if prim.total_degree() == 1:
        return FactoredPoly(p.vars, unit, [(prim, 1)])
    present = [i for i in range(len(p.vars)) if prim.degree_in(i) > 0]
    if len(present) == 1:
        split = _univariate_linear_split(prim, present[0])
        if split is not None:
            return FactoredPoly(p.vars, unit, [(f, 1) for f in split])
    raise UnsupportedCoefficientError(
        "coefficient %s is nonlinear and not supplied in factored form" % format_poly(p))


