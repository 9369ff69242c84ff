"""Unimodular changes of variables, and witness levels of support points.

* ``transform_equation(eq, M)`` moves support points by s |-> M s and
  rewrites coefficients through the substitution matrix M^{-1}, so that y
  solves the input iff y(M^{-1} n) solves the output.  ``plde transform``
  uses it; the bounding pipeline does not change coordinates.
* ``witness_levels(points, u, p)`` gives each point s its level
  u . (s - p) above a base point p.  The dispersion bound and the strip
  rewriting of `plde.bounds` read the support only through these levels.
"""

from __future__ import annotations

from .equation import PLDE
from .lattice import UnimodularMatrix
from .polyring import Poly


def transform_equation(eq: PLDE, M: UnimodularMatrix) -> PLDE:
    """Support points move by M; coefficients by the inverse substitution."""
    A = M.inverse()
    terms = {}
    for s, fp in eq.terms.items():
        terms[M.apply(s)] = fp.subst(A)
    return PLDE(eq.variables, terms, eq.rhs.compose(Poly.linear_forms(eq.variables, A.rows)))


def witness_levels(points, u, p) -> dict:
    """Map each point s to its level u . (s - p) above the base point p."""
    return {s: sum(a * (b - c) for a, b, c in zip(u, s, p)) for s in points}
