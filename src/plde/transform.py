"""Unimodular changes of variables for equations.

Conventions, fixed once and validated by tests rather than trusted:

* ``transform_equation(eq, M)`` moves support points by s |-> M s and
  rewrites coefficients through the substitution matrix M^{-1}, so that y
  solves the input iff y(M^{-1} n) solves the output.
* ``build_normalizing_frame`` produces the point transform M whose first
  row is a given witness covector u and which maps a module W onto the
  last coordinate axes; the first coordinate of M s is then exactly u . s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equation import PLDE
from .factored import FactoredPoly
from .lattice import (IntLattice, UnimodularMatrix, orthogonal_complement_lattice,
                      primitive_vector, solve_integer, unimodular_completion)
from .polyring import InvariantError, Poly


def transform_equation(eq: PLDE, M: UnimodularMatrix) -> PLDE:
    """Support points move by M; coefficients by the inverse substitution."""
    A = M.inverse()
    terms = {}
    for s, fp in eq.terms.items():
        terms[M.apply(s)] = fp.subst(A)
    return PLDE(eq.variables, terms, eq.rhs.compose(Poly.linear_forms(eq.variables, A.rows)))


@dataclass(frozen=True)
class NormalizedFrame:
    """Change of coordinates adapted to a module W and a witness covector."""

    M: UnimodularMatrix
    t: int                      # codimension of W
    shift_offset: tuple         # translation applied after M


def build_normalizing_frame(W: IntLattice, u) -> UnimodularMatrix:
    """Point transform M with first row u, first t rows spanning the complement of W.

    Requires W saturated and u primitive inside the complement lattice.
    M maps W onto {0}^t x Z^(r-t), where t is the rank of the complement.
    """
    r = W.dim
    comp = orthogonal_complement_lattice(W)
    t = comp.rank
    if t == 0:
        raise ValueError("module has no nonzero orthogonal covector")
    basis = [list(row) for row in comp.basis]
    matrix = [[basis[j][i] for j in range(t)] for i in range(r)]
    sol = solve_integer(matrix, [int(x) for x in u], t)
    if sol is None:
        raise ValueError("witness covector is not orthogonal to the module")
    coords = sol[0]
    if primitive_vector(coords) != coords:
        raise ValueError("witness covector is imprimitive in the complement lattice")
    if t == 1:
        top_rows = [list(u)]
    else:
        T = unimodular_completion([list(coords)])
        top_rows = [[sum(z[j] * basis[j][i] for j in range(t)) for i in range(r)]
                    for z in T.rows]
    M = unimodular_completion(top_rows)
    norm = IntLattice(r, [[1 if j == i else 0 for j in range(r)] for i in range(t, r)])
    for w_row in W.basis:
        if not norm.contains(M.apply(w_row)):
            raise InvariantError("the frame does not map the module onto the last axes")
    return M


def normalize_first_shift(eq: PLDE):
    """Translate the support so its minimal first coordinate is 0.

    Returns (equation, offset); the solution set is untouched because both
    sides were shifted together.
    """
    r = len(eq.variables)
    low = min(s[0] for s in eq.terms)
    offset = tuple([-low] + [0] * (r - 1))
    return (eq.shifted(offset) if low else eq), offset


def frame_for(eq: PLDE, W: IntLattice, u):
    """Full normalization: frame, transformed equation, and point images."""
    M = build_normalizing_frame(W, u)
    moved, offset = normalize_first_shift(transform_equation(eq, M))
    return NormalizedFrame(M, W.dim - W.rank, offset), moved


def map_point(frame: NormalizedFrame, s):
    img = frame.M.apply(s)
    return tuple(a + b for a, b in zip(img, frame.shift_offset))


def pull_back(frame: NormalizedFrame, fp: FactoredPoly) -> FactoredPoly:
    """Map a factored polynomial from frame coordinates back to the original ones."""
    return fp.subst(frame.M)
