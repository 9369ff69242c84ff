"""Support-set geometry over Z^r.

Corner points, separating covectors and the pair certificates consumed by
the bounding pipeline are all decided by exact linear programming: a
simplex method on integer tableaux (`lp_feasible`); nothing here is
approximate.  `SupportGeometry` computes the corners of a support, and the
covector setup of each module, once for all the searches of one caller.

A module W is *useful* for a support S when some ordered pair of corner
points (p, p') admits an integer covector u orthogonal to W such that p is
the unique minimizer of s . u and no two maximizers differ by an element
of W.  Points congruent modulo W always tie under any admissible u, which
turns both face conditions into plain linear constraints; a single
feasibility problem therefore decides usefulness exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm as _int_lcm
from operator import mul as _mul, sub as _sub

from .lattice import (IntLattice, clear_denominators, orthogonal_complement_lattice,
                      primitive_vector, saturation)
from .polyring import InvariantError

CLASS_USEFUL = "U"
CLASS_OPPOSITE_ONLY = "O\\U"
CLASS_UNCOVERED = "uncovered"


# ----------------------------------------------------------------------
# exact linear feasibility


def lp_feasible(constraints, nvars: int):
    """One rational solution of a system of linear constraints, or None.

    Each constraint is (coefficients, relation, rhs) with relation ">=" or
    "==", meaning coefficients . v REL rhs.  The solution returned depends
    only on the solution set P, not on how its rows are written: for
    j = 0, ..., nvars - 1 in turn, with v_0, ..., v_{j-1} already fixed,
    let [lo, hi] be the range of v_j over that slice of P; then v_j is
    (lo + hi) / 2 when both ends are finite, max(lo, 0) when only lo is,
    min(hi, 0) when only hi is, and 0 when neither is.

    Each range but the last is found by two runs of an exact simplex
    (`_Tableau`); the last is read off the one-variable rows that remain.
    """
    rows = _lp_rows(constraints, nvars)
    if rows is None:
        return None
    values = []
    for j in range(nvars):
        # the slice: v_0..v_{j-1} = nums / scale substituted, rows scaled by scale
        scale = _int_lcm(*(v.denominator for v in values))
        nums = [v.numerator * (scale // v.denominator) for v in values]
        sliced = []
        for a, b in rows:
            rest = b * scale - sum(x * v for x, v in zip(a, nums))
            if any(a[j:]):
                sliced.append(([x * scale for x in a[j:]], rest))
            elif rest > 0:
                return None
        if j + 1 < nvars:
            ends = _Tableau(sliced, nvars - j).range_of_first()
            if ends is None:
                return None
            lo, hi = ends
        else:
            lo = max((Fraction(b, a[0]) for a, b in sliced if a[0] > 0), default=None)
            hi = min((Fraction(b, a[0]) for a, b in sliced if a[0] < 0), default=None)
            if lo is not None and hi is not None and lo > hi:
                return None
        if lo is not None and hi is not None:
            values.append((lo + hi) / 2)
        elif lo is not None:
            values.append(max(lo, Fraction(0)))
        elif hi is not None:
            values.append(min(hi, Fraction(0)))
        else:
            values.append(Fraction(0))
    return values


def lp_has_solution(constraints, nvars: int) -> bool:
    """Whether the constraints of `lp_feasible` have a solution; one simplex phase I."""
    rows = _lp_rows(constraints, nvars)
    return rows is not None and _Tableau(rows, nvars)._phase_one()


def _lp_rows(constraints, nvars: int):
    """The constraints as integer rows (a, b) meaning a . v >= b; None if a constant one fails."""
    rows = []
    for coeffs, rel, rhs in constraints:
        a = [*coeffs, rhs]
        if len(a) != nvars + 1:
            raise ValueError("constraint arity %d, expected %d" % (len(a) - 1, nvars))
        if rel not in (">=", "=="):
            raise ValueError("unsupported relation %r" % rel)
        a = clear_denominators(a)
        b = a.pop()
        if not any(a):
            if b > 0 or (rel == "==" and b < 0):
                return None
            continue
        rows.append((a, b))
        if rel == "==":
            rows.append(([-x for x in a], -b))
    return rows


class _Tableau:
    """Simplex dictionary over the integers for the rows a . w >= b, w free.

    Row i reads x_basis[i] = (T[i][0] + sum_c T[i][c] x_nonbasic[c-1]) / D.
    Variable ids: 0 is the phase-I variable and 1, 2, ... the row slacks,
    all constrained to be >= 0; -1, -2, ... are the free variables w_0,
    w_1, ...
    Pivots are fraction-free (Bareiss 1968), so every entry stays an
    integer minor of the starting rows, and the entering and leaving
    variables follow Bland's rule (Bland 1977), so no basis repeats.
    """

    def __init__(self, rows, nvars: int):
        self.D = 1
        self.T = [[-b] + list(a) for a, b in rows]
        self.basis = list(range(1, len(rows) + 1))
        self.nonbasic = [-(j + 1) for j in range(nvars)]
        # free variables enter the basis for good; one that no row
        # involves stays nonbasic and unconstrained
        for c in range(1, nvars + 1):
            r = next((i for i, x in enumerate(self.basis) if x > 0 and self.T[i][c]), None)
            if r is not None:
                self._pivot(r, c)

    def _pivot(self, r, c):
        T, D = self.T, self.D
        prow = T[r]
        p = prow[c]
        for i, row in enumerate(T):
            if i != r:
                f = row[c]
                new = [(x * p - f * y) // D for x, y in zip(row, prow)]
                new[c] = f
                T[i] = new
        new = [-y for y in prow]
        new[c] = D
        T[r] = new
        self.basis[r], self.nonbasic[c - 1] = self.nonbasic[c - 1], self.basis[r]
        if p < 0:
            self.T = [[-x for x in row] for row in T]
            p = -p
        self.D = p

    def _minimize(self, var, sign):
        """Minimum of sign * x_var (basic) over the feasible dictionary; None if unbounded.

        Stops early, at 0, if the phase-I variable (var 0) leaves the basis.
        """
        while var in self.basis:
            T, basis = self.T, self.basis
            obj = T[basis.index(var)]
            enter = None
            for c, x in enumerate(self.nonbasic, 1):
                coef = sign * obj[c]
                if coef and x < 0:
                    return None  # a free direction moves the objective both ways
                if coef < 0 and (enter is None or x < self.nonbasic[enter - 1]):
                    enter = c
            if enter is None:
                return Fraction(sign * obj[0], self.D)
            leave = None
            for i, x in enumerate(basis):
                a = T[i][enter]
                if x >= 0 and a < 0:
                    if leave is None:
                        leave, num, den = i, T[i][0], -a
                        continue
                    lhs, rhs = T[i][0] * den, num * -a
                    if lhs < rhs or (lhs == rhs and x < basis[leave]):
                        leave, num, den = i, T[i][0], -a
            if leave is None:
                return None
            self._pivot(leave, enter)
        return Fraction(0)

    def _phase_one(self) -> bool:
        """Reach a feasible dictionary; False if the rows have no solution.

        The phase-I variable x0 is added to every slack row (Chvatal's
        auxiliary problem), enters where the slack is most negative, which
        makes every slack nonnegative, and is then minimized.
        """
        slacks = [i for i, x in enumerate(self.basis) if x > 0]
        r = min(slacks, key=lambda i: (self.T[i][0], self.basis[i]), default=None)
        if r is None or self.T[r][0] >= 0:
            return True
        for row, x in zip(self.T, self.basis):
            row.append(self.D if x > 0 else 0)
        self.nonbasic.append(0)
        self._pivot(r, len(self.nonbasic))
        if self._minimize(0, 1) > 0:
            return False
        if 0 in self.basis:
            # degenerate: x0 = 0 is basic; swap it for any nonbasic slack
            r = self.basis.index(0)
            c = next((c for c, x in enumerate(self.nonbasic, 1) if x > 0 and self.T[r][c]), None)
            if c is None:
                del self.T[r], self.basis[r]
            else:
                self._pivot(r, c)
        c = self.nonbasic.index(0) + 1
        for row in self.T:
            del row[c]
        del self.nonbasic[c - 1]
        return True

    def range_of_first(self):
        """(min, max) of w_0 over the rows, None for an infinite end; None if no w fits."""
        if not self._phase_one():
            return None
        if -1 not in self.basis:
            return None, None  # no row involves w_0
        lo = self._minimize(-1, 1)
        neg_hi = self._minimize(-1, -1)
        return lo, None if neg_hi is None else -neg_hi


# ----------------------------------------------------------------------
# corner points


def corner_points(points) -> set:
    """Vertices of the convex hull: p with some v satisfying (s-p).v >= 1."""
    pts = [tuple(int(x) for x in p) for p in points]
    if not pts:
        raise ValueError("empty support")
    r = len(pts[0])
    corners = set()
    for p in pts:
        cons = [(tuple(a - b for a, b in zip(s, p)), ">=", 1) for s in pts if s != p]
        if lp_has_solution(cons, r):
            corners.add(p)
    return corners


# ----------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class WitnessCertificate:
    """Covector certificate for an ordered pair of support corners."""

    p: tuple
    p_prime: tuple
    u: tuple
    min_face: frozenset
    max_face: frozenset

    def check(self, points, W: IntLattice):
        pts = [tuple(p) for p in points]
        if any(w_row and sum(a * b for a, b in zip(self.u, w_row)) for w_row in W.basis):
            raise ValueError("witness covector is not orthogonal to the module")
        values = {s: sum(a * b for a, b in zip(s, self.u)) for s in pts}
        vp = values[self.p]
        vq = values[self.p_prime]
        if any(v < vp or v > vq for v in values.values()):
            raise ValueError("opposite inequalities violated")
        if frozenset(s for s, v in values.items() if v == vp) != self.min_face:
            raise ValueError("recorded minimal face is wrong")
        if frozenset(s for s, v in values.items() if v == vq) != self.max_face:
            raise ValueError("recorded maximal face is wrong")
        if self.min_face != frozenset([self.p]):
            raise ValueError("minimal face is not the singleton {p}")
        for a, b in itertools.combinations(sorted(self.max_face), 2):
            if W.contains([x - y for x, y in zip(a, b)]):
                raise ValueError("two maximal-face points differ by a module element")

    def to_json(self):
        return {
            "pair": [list(self.p), list(self.p_prime)],
            "witness": list(self.u),
            "min_face": sorted(map(list, self.min_face)),
            "max_face": sorted(map(list, self.max_face)),
        }


@dataclass(frozen=True)
class WeakCertificate:
    """One-sided certificate: p minimizes u weakly, minimal face injective mod W."""

    p: tuple
    u: tuple
    min_face: frozenset

    def to_json(self):
        return {
            "p": list(self.p),
            "witness": list(self.u),
            "min_face": sorted(map(list, self.min_face)),
        }


@dataclass(frozen=True)
class ModuleClass:
    kind: str
    certificate: object = None


class _ModuleSetup:
    """What every certificate search for one module W on one support shares.

    The covector u ranges over the span of ``basis``, a basis of the
    integer covectors orthogonal to W (rank ``t``); ``cls_of`` maps each
    support point to its congruence class modulo W, and ``point_coeffs``
    to the coefficients of its level s . u, so that by linearity the row of
    s - p is a difference of two of them; ``pairs`` holds the verdict of
    every ordered corner pair decided so far.
    """

    def __init__(self, points, W: IntLattice):
        comp = orthogonal_complement_lattice(W)
        self.W = W
        self.t = comp.rank
        self.basis = [list(row) for row in comp.basis]
        self.cls_of = {}
        classes = []
        for s in points:
            cls = next((c for c in classes if W.contains([a - b for a, b in zip(s, c[0])])), None)
            if cls is None:
                cls = []
                classes.append(cls)
            cls.append(s)
            self.cls_of[s] = cls
        # the coefficients in z of s . u, for the covector u = sum_k z_k basis[k]
        self.point_coeffs = {s: tuple(sum(map(_mul, s, b)) for b in self.basis) for s in points}
        self.pairs = {}

    def row(self, s, p):
        """The coefficients in z of the level (s - p) . u of s above p."""
        return tuple(map(_sub, self.point_coeffs[s], self.point_coeffs[p]))

    def covector(self, z):
        """The primitive integer covector with basis coordinates proportional to z."""
        z = primitive_vector(z)
        return tuple(sum(zi * b[j] for zi, b in zip(z, self.basis))
                     for j in range(len(self.basis[0])))


class SupportGeometry:
    """Corners and module certificates of one support, each computed once.

    The corners, and for every module W its covector basis, its rank and
    its congruence classes, are built on first use and kept by this object
    only; a caller that bounds one equation makes one and drops it.  Every
    pair certificate for a module is decided at most once.
    """

    def __init__(self, points):
        self.points = sorted({tuple(int(x) for x in s) for s in points})
        if not self.points:
            raise ValueError("empty support")
        self._corners = None
        self._modules = {}

    @property
    def corners(self):
        """The corner points, sorted."""
        if self._corners is None:
            self._corners = sorted(corner_points(self.points))
        return self._corners

    def _setup(self, W: IntLattice) -> _ModuleSetup:
        setup = self._modules.get(W)
        if setup is None:
            setup = self._modules[W] = _ModuleSetup(self.points, W)
        return setup

    def witness(self, p, p_prime, W: IntLattice):
        """Certificate for the ordered corner pair (p, p'), or None.

        Congruent-mod-W points are forced to tie, so requiring every class of
        size >= 2 strictly below the top value is exactly max-face injectivity,
        and the strict constraints at p make the minimal face a singleton.
        """
        p = tuple(int(x) for x in p)
        p_prime = tuple(int(x) for x in p_prime)
        setup = self._setup(W)
        if p not in setup.cls_of or p_prime not in setup.cls_of:
            raise ValueError("pair points must belong to the support")
        return self._pair(setup, p, p_prime)

    def _pair(self, setup: _ModuleSetup, p, p_prime):
        key = (p, p_prime)
        if key not in setup.pairs:
            setup.pairs[key] = self._solve_pair(setup, p, p_prime)
        return setup.pairs[key]

    def _solve_pair(self, setup: _ModuleSetup, p, p_prime):
        if setup.t == 0 or len(setup.cls_of[p]) > 1 or len(setup.cls_of[p_prime]) > 1:
            # a congruent mate of p would tie with it at the bottom, and one of
            # p' would always share the maximal face
            return None
        cons = []
        for s in self.points:
            if s != p:
                cons.append((setup.row(s, p), ">=", 1))
            if s != p_prime:
                # classes of size >= 2 stay strictly below the top value
                rhs = 1 if len(setup.cls_of[s]) > 1 else 0
                cons.append((setup.row(p_prime, s), ">=", rhs))
        z = lp_feasible(cons, setup.t)
        if z is None:
            return None
        u = setup.covector(z)
        values = {s: sum(a * b for a, b in zip(s, u)) for s in self.points}
        vmin = min(values.values())
        vmax = max(values.values())
        cert = WitnessCertificate(
            p, p_prime, u,
            frozenset(s for s, v in values.items() if v == vmin),
            frozenset(s for s, v in values.items() if v == vmax),
        )
        cert.check(self.points, setup.W)
        return cert

    def _weak(self, setup: _ModuleSetup, p):
        if setup.t == 0 or len(setup.cls_of[p]) > 1:
            return None
        base_cons = [(setup.row(s, p), ">=",
                      1 if len(setup.cls_of[s]) > 1 else 0)
                     for s in self.points if s != p]
        # exclude u = 0 by forcing some complement coordinate away from zero
        for i in range(setup.t):
            for sign in (1, -1):
                unit = tuple(sign if j == i else 0 for j in range(setup.t))
                z = lp_feasible(base_cons + [(unit, ">=", 1)], setup.t)
                if z is None:
                    continue
                u = setup.covector(z)
                levels = {s: sum(a * (x - y) for a, x, y in zip(u, s, p)) for s in self.points}
                min_face = frozenset(s for s, v in levels.items() if v == 0)
                # the base rows give every level >= 0, and >= 1 outside singleton classes
                if min(levels.values()) < 0 or any(len(setup.cls_of[s]) > 1 for s in min_face):
                    raise InvariantError("a weak covector does not make p minimal with an "
                                         "injective minimal face")
                return WeakCertificate(p, u, min_face)
        return None

    def classify(self, W: IntLattice) -> ModuleClass:
        """Classify W as useful, opposite-only, or uncovered for the support."""
        setup = self._setup(W)
        if len(self.points) == 1:
            if setup.t == 0:
                return ModuleClass(CLASS_UNCOVERED)
            p = self.points[0]
            cert = WitnessCertificate(p, p, tuple(setup.basis[0]), frozenset([p]),
                                      frozenset([p]))
            return ModuleClass(CLASS_USEFUL, cert)
        for p, p2 in itertools.permutations(self.corners, 2):
            cert = self._pair(setup, p, p2)
            if cert is not None:
                return ModuleClass(CLASS_USEFUL, cert)
        for p in self.corners:
            weak = self._weak(setup, p)
            if weak is not None:
                return ModuleClass(CLASS_OPPOSITE_ONLY, weak)
        return ModuleClass(CLASS_UNCOVERED)

    def face_parallel_modules(self):
        """Rank-1 modules along hull edges, plus rank-2 facet modules for r = 3.

        These are the only candidate spreads that leave no trace in any corner
        coefficient.  For r > 3 only the edge modules are enumerated.  A hull
        edge joins two corners, so only corner pairs are tested.
        """
        pts = self.points
        r = len(pts[0])
        if r == 1 or len(pts) == 1:
            return []
        modules = {IntLattice(r, [primitive_vector([y - x for x, y in zip(a, b)])])
                   for a, b in itertools.combinations(self.corners, 2) if self._is_edge(a, b)}
        if r == 3:
            modules.update(_facet_modules_3d(pts))
        diffs = [[x - y for x, y in zip(s, pts[0])] for s in pts[1:]]
        affine = saturation(IntLattice(r, diffs))
        if 0 < affine.rank < r:
            modules.add(affine)  # degenerate support: the whole affine direction space
        return sorted(modules, key=lambda L: L.key())

    def _is_edge(self, a, b):
        """Is the line through the corners a and b an exposed face of the hull?"""
        d = [y - x for x, y in zip(a, b)]
        cons = [(d, "==", 0)]
        for s in self.points:
            e = [x - y for x, y in zip(s, a)]
            if any(e[i] * d[j] != e[j] * d[i] for i in range(len(d)) for j in range(i)):
                cons.append((e, ">=", 1))  # off the line: strictly on one side
        return len(cons) == 1 or lp_has_solution(cons, len(d))

    def useful_pairs(self, W: IntLattice):
        """Every ordered corner pair admitting a witness certificate for W."""
        setup = self._setup(W)
        certs = (self._pair(setup, p, p2) for p, p2 in itertools.permutations(self.corners, 2))
        return [cert for cert in certs if cert is not None]


# ----------------------------------------------------------------------
# face-parallel candidate modules


def _facet_modules_3d(pts):
    modules = set()
    for a, b, c in itertools.combinations(pts, 3):
        u = [b[i] - a[i] for i in range(3)]
        v = [c[i] - a[i] for i in range(3)]
        normal = (u[1] * v[2] - u[2] * v[1],
                  u[2] * v[0] - u[0] * v[2],
                  u[0] * v[1] - u[1] * v[0])
        if not any(normal):
            continue
        vals = [sum(n * (s[i] - a[i]) for i, n in enumerate(normal)) for s in pts]
        if all(x >= 0 for x in vals) or all(x <= 0 for x in vals):
            on_plane = [s for s, x in zip(pts, vals) if x == 0]
            diffs = [[x - y for x, y in zip(s, on_plane[0])] for s in on_plane[1:]]
            L = saturation(IntLattice(3, diffs))
            if L.rank == 2:
                modules.add(L)
    return modules
