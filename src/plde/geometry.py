"""Support-set geometry over Z^r.

Everything here is exact, and rests on one polyhedral algorithm: the
double description in integers (`_facets`).  It gives the faces of a
support's convex hull: its facets, as the sets of support points they
hold, and from their incidences the corners, the hull edges and, for
r = 3, the facet modules (`_Faces`, whose docstring gives the argument).
It also decides the separating covectors of the certificates consumed
by the bounding pipeline.  Every certificate program of a module asks
whether a covector orthogonal to W puts a corner p below every other
congruence class, so each runs on one cone per corner p and kind, built
once, with one row per class above p: strictly for pair programs, by the
class's row constant for one-sided ones.  A pair's partner p' continues
that cone with its rows, a one-sided search with one unit row, and the
point is read off the generators of the continued cone (`_read_point`;
`_ModuleSetup.point`).  `SupportGeometry` computes the faces of a
support, and the setup and cones of each module, once per caller.

A module W is *useful* for a support S when some ordered pair of corner
points (p, p') admits an integer covector u orthogonal to W such that p is
the unique minimizer of s . u and no two maximizers differ by an element
of W.  Points congruent modulo W always tie under any admissible u, so
both face conditions are linear constraints, one row per congruence
class, and one feasibility problem per pair decides usefulness exactly.
A module with no useful pair is opposite-only when some corner p has a
nonzero such u with p minimal and no two points of the minimal face
congruent, and uncovered otherwise.
W is taken modulo its saturation, which admits the same covectors and
has the same classes: a covector orthogonal to W is orthogonal to every
integer vector with a multiple in W.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from operator import mul as _mul, sub as _sub

from .lattice import (IntLattice, integer_kernel, orthogonal_complement_lattice, primitive_vector,
                      saturation)
from .polyring import InvariantError

CLASS_USEFUL = "U"
CLASS_OPPOSITE_ONLY = "O\\U"
CLASS_UNCOVERED = "uncovered"


# ----------------------------------------------------------------------
# exact linear feasibility


def _read_point(lineality, rays, nvars: int, first: int):
    """One point of a polyhedron P read off its cone, or None if P is empty.

    ``lineality`` and ``rays`` are what `_facets` gave for its ``first``
    rows, the cone {(t, v) : t >= 0, a . v >= b t for every row a . v >= b
    of P}: its rays with t > 0 are the vertices v / t of P, its other rays
    and its lineality vectors the recession directions, so P is empty
    exactly when no ray has t > 0.  The point depends only on P, not on how
    its rows are written: for j = 0, ..., nvars - 1 in turn, with v_0, ...,
    v_{j-1} already fixed, v_j is `_point_rule` of the range of v_j over
    that slice of P, and the rows v_j = value t continue the cone.
    """
    if not any(v[0] for v, _ in rays):
        return None
    values = []
    for j in range(1, nvars + 1):
        ends = [Fraction(v[j], v[0]) for v, _ in rays if v[0]]
        # v_j along the recession directions; a lineality vector goes both ways
        slopes = [v[j] for v, _ in rays if not v[0]] + [x * v[j] for v in lineality for x in (1, -1)]
        value = _point_rule(None if any(x < 0 for x in slopes) else min(ends),
                            None if any(x > 0 for x in slopes) else max(ends))
        values.append(value)
        if j < nvars:
            fix = [0] * (nvars + 1)
            fix[0], fix[j] = -value.numerator, value.denominator
            lineality, rays = _facets([fix, [-x for x in fix]], lineality, rays, first)
            first += 2
    return values


def _point_rule(lo, hi):
    """The value chosen in the range [lo, hi], None for an infinite end.

    The midpoint when both ends are finite, max(lo, 0) when only lo is,
    min(hi, 0) when only hi is, and 0 when neither is.
    """
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return max(lo, Fraction(0))
    if hi is not None:
        return min(hi, Fraction(0))
    return Fraction(0)


# ----------------------------------------------------------------------
# facets, corners and edges


def _facets(rows, lineality=None, rays=(), first=0):
    """The lineality basis and the rays of the cone {a : row . a >= 0 for every row}.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996): the rows are added one at a time to the whole space,
    whose lineality basis is the unit vectors.  A row h that does not
    vanish on the lineality space takes a lineality vector l with h . l > 0
    out of it: l becomes a ray, and every other ray and lineality vector
    moves along l onto the hyperplane of h.  A row that vanishes there
    drops the rays on its negative side and adds, for each adjacent pair of
    a positive and a negative ray, their positive combination on its
    hyperplane; two rays are adjacent when no third ray is tight on every
    row both are tight on.  Each ray is a primitive integer vector with
    the bitmask of the rows it is tight on; modulo the lineality space, the
    rays are the extreme rays.

    Given ``lineality`` and ``rays``, the generators that this returned for
    ``first`` earlier rows, it continues from them instead of the whole
    space: the cone is then cut by those rows and ``rows`` together.  Bit i
    of a mask stands for the i-th row of all of them, so rows[i] has bit
    first + i.
    """
    if lineality is None:
        d = len(rows[0])
        lineality = [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]
    for t, h in enumerate(rows, first):
        bit = 1 << t
        vals = [sum(map(_mul, h, v)) for v, _ in rays]
        lvals = [sum(map(_mul, h, v)) for v in lineality]
        i = next((i for i, x in enumerate(lvals) if x), None)
        if i is not None:
            l, hl = lineality[i], lvals[i]
            if hl < 0:
                l, hl = tuple(-x for x in l), -hl
            rays = [(_onto(v, hv, l, hl), m | bit) for (v, m), hv in zip(rays, vals)]
            rays.append((l, bit - 1))
            lineality = [_onto(v, hv, l, hl) for j, (v, hv) in enumerate(zip(lineality, lvals))
                         if j != i]
            continue
        # adjacent rays span a face of dimension 2 modulo the lineality space,
        # so at least len(h) - len(lineality) - 2 rows are tight on both
        tight = len(h) - len(lineality) - 2
        masks = [m for _, m in rays]
        negative = [j for j, x in enumerate(vals) if x < 0]
        new = []
        for i, (vi, mi) in enumerate(rays):
            if vals[i] <= 0:
                continue
            for j in negative:
                common = mi & masks[j]
                if common.bit_count() >= tight and not any(
                        m & common == common for o, m in enumerate(masks) if o != i and o != j):
                    new.append((_onto(rays[j][0], vals[j], vi, vals[i]), common | bit))
        rays = [(v, m | bit if hv == 0 else m) for (v, m), hv in zip(rays, vals) if hv >= 0] + new
    return lineality, rays


def _onto(v, hv, l, hl):
    """The primitive multiple of hl * v - hv * l, where h . v = hv and h . l = hl > 0.

    It lies on the hyperplane h . x = 0, and is v itself when v does.
    """
    if not hv:
        return v
    w = [hl * x - hv * y for x, y in zip(v, l)]
    g = _int_gcd(*w)
    return tuple(x // g for x in w)


class _Faces:
    """The facets of the convex hull of a support, and the faces read off them.

    The facets are the rays (c0, c) of the cone {a : a . (1, s) >= 0 for
    every support point s} (`_facets`), with c0 + c . s >= 0 tight exactly
    on the facet's points.  The cone's lineality space holds the (c0, c)
    with c0 + c . s = 0 throughout, so the support's affine hull has
    dimension k = r minus its rank; for k < r each ray stands for its class
    modulo the lineality space, which leaves its tight set unchanged.  For
    k = 0 the one ray is tight on no point and bounds no face.

    The facets of a polytope, as subsets of its points, are unique, so the
    incidence sets below depend on the point set alone, not on the order
    of the double description.  The smallest face holding a set of points
    is the intersection of the facets incident to all of them (the whole
    hull if there are none); its dimension is k minus the rank of their
    normals, and it is the hull of the support points it holds.  So a
    point is a corner, that is its incident normals have rank k, exactly
    when its smallest face holds no other point; and two corners span an
    edge, that is their common normals have rank k - 1, exactly when their
    smallest face holds no third corner.
    """

    def __init__(self, points):
        self.points = points
        lineality, self.facets = _facets([(1, *s) for s in points])
        self.dim = len(points[0]) - len(lineality)
        self.corner_mask = 0
        for i in range(len(points)):
            if self._face(1 << i) == 1 << i:
                self.corner_mask |= 1 << i
        self.corners = [s for i, s in enumerate(points) if self.corner_mask >> i & 1]

    def _face(self, mask):
        """The points (a bitmask) of the smallest face holding the points of mask."""
        face = (1 << len(self.points)) - 1
        for _, m in self.facets:
            if m & mask == mask:
                face &= m
        return face

    def edges(self):
        """The pairs of corners that span an edge of the hull."""
        bits = {s: 1 << i for i, s in enumerate(self.points)}
        pairs = []
        for a, b in itertools.combinations(self.corners, 2):
            pair = bits[a] | bits[b]
            if self._face(pair) & self.corner_mask == pair:
                pairs.append((a, b))
        return pairs


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


def _saturated(W: IntLattice) -> bool:
    """Whether W is its own saturation: W = 0, or the maximal minors of its basis have gcd 1."""
    def det(m):  # by expansion along the first row
        return m[0][0] if len(m) == 1 else sum(
            (-1) ** j * x * det([r[:j] + r[j + 1:] for r in m[1:]]) for j, x in enumerate(m[0]))
    return W.is_zero() or _int_gcd(*(det([[row[c] for c in cols] for row in W.basis])
                                     for cols in itertools.combinations(range(W.dim), W.rank))) == 1


class _ModuleSetup:
    """What every certificate search for one module W on one support shares.

    ``W`` is the saturation of the module given.  The covector u ranges
    over the span of ``basis``, a basis of the integer covectors orthogonal
    to W (rank ``t``); ``cls_of`` maps each support point to its
    congruence class modulo W, and ``point_coeffs`` to the coefficients of
    its level s . u, so that by linearity the row of s - p is a difference
    of two of them; ``images`` maps those of each class to its row
    constant, 1 for two or more points and 0 for one; ``cones`` keeps the
    cones of `point`, one per corner and kind of program, ``pairs`` the
    verdict of every ordered corner pair decided so far, and ``cls`` the
    `ModuleClass` of W once decided.
    """

    def __init__(self, points, W: IntLattice):
        comp = orthogonal_complement_lattice(W)
        self.W = W if _saturated(W) else orthogonal_complement_lattice(comp)
        self.t = comp.rank
        self.basis = [list(row) for row in comp.basis]
        # the coefficients in z of s . u, for the covector u = sum_k z_k basis[k]
        self.point_coeffs = {s: tuple(sum(map(_mul, s, b)) for b in self.basis) for s in points}
        # s - s' lies in the saturated W exactly when every covector orthogonal
        # to W takes one value at s and s': the classes share coefficients
        classes = {}
        for s in points:
            classes.setdefault(self.point_coeffs[s], []).append(s)
        self.cls_of = {s: classes[self.point_coeffs[s]] for s in points}
        self.images = {c: int(len(members) > 1) for c, members in classes.items()}
        self.cones = {}
        self.pairs = {}
        self.cls = None

    def point(self, p, strict: bool, rows):
        """The z of one certificate program at the corner p, or None if it has none.

        Every certificate program goes through here.  Its cone is built
        once per p and kind: one row per other congruence class c puts c
        above p, by 1 if ``strict`` (pair programs), else by the row
        constant of c (one-sided programs), that is (c - c_p) . z >= 1 or
        >= images[c].  ``rows``, each (-b, *a) for a . z >= b, continue it:
        a partner's rows, or one unit row.  No continuation of a cone with
        no ray with t > 0 has a point.
        """
        key = (p, strict)
        if key not in self.cones:
            cp = self.point_coeffs[p]
            low = [(1,) + (0,) * self.t] + [(-1 if strict else -b, *map(_sub, c, cp))
                                            for c, b in self.images.items() if c != cp]
            lineality, rays = _facets(low)
            self.cones[key] = (lineality, rays, len(low)) if any(v[0] for v, _ in rays) else None
        if self.cones[key] is None:
            return None
        lineality, rays, first = self.cones[key]
        return _read_point(*_facets(rows, lineality, rays, first), self.t, first + len(rows))

    def covector(self, z):
        """The primitive integer covector with basis coordinates proportional to z."""
        z = primitive_vector(z)
        return tuple(sum(zi * b[j] for zi, b in zip(z, self.basis))
                     for j in range(len(self.basis[0])))


class SupportGeometry:
    """Corners, faces and module certificates of one support, each computed once.

    The face enumeration (`_Faces`), and for every module W its covector
    basis, its rank and its congruence classes modulo the saturation of W,
    are built on first use and kept by this object only; `combined_bound`
    makes one per equation and keeps it in its report for the check of that
    report.  Every pair certificate and every class of a module is decided
    at most once.
    """

    def __init__(self, points):
        self.points = sorted({tuple(int(x) for x in s) for s in points})
        if not self.points:
            raise ValueError("empty support")
        self._faces = None
        self._modules = {}

    def _hull(self) -> _Faces:
        if self._faces is None:
            self._faces = _Faces(self.points)
        return self._faces

    @property
    def corners(self):
        """The corner points, sorted."""
        return self._hull().corners

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
        # every class other than those of p and p' lies below p', strictly if
        # it has two or more points; the row for p is implied by its cone
        cp, cq = setup.point_coeffs[p], setup.point_coeffs[p_prime]
        top = [(-b, *map(_sub, cq, c)) for c, b in setup.images.items() if c != cq and c != cp]
        z = setup.point(p, True, top)
        if z is None:
            return None
        u = setup.covector(z)
        values = {s: sum(a * b for a, b in zip(s, u)) for s in self.points}
        vmin, vmax = min(values.values()), max(values.values())
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
        # exclude u = 0 by forcing some complement coordinate away from zero:
        # z_i >= 1, then -z_i >= 1, for i = 0, ..., t - 1
        for i in range(setup.t):
            for sign in (1, -1):
                z = setup.point(p, False, [(-1,) + (0,) * i + (sign,) + (0,) * (setup.t - 1 - i)])
                if z is None:
                    continue
                u = setup.covector(z)
                levels = {s: sum(a * (x - y) for a, x, y in zip(u, s, p)) for s in self.points}
                min_face = frozenset(s for s, v in levels.items() if v == 0)
                # the cone's rows give every level >= 0, and >= 1 outside singleton classes
                if min(levels.values()) < 0 or any(len(setup.cls_of[s]) > 1 for s in min_face):
                    raise InvariantError("a weak covector does not make p minimal with an "
                                         "injective minimal face")
                return WeakCertificate(p, u, min_face)
        return None

    def classify(self, W: IntLattice) -> ModuleClass:
        """Classify W as useful, opposite-only, or uncovered for the support, once per W."""
        setup = self._setup(W)
        if setup.cls is None:
            cert = next(self.useful_pairs(W), None)
            if cert is not None:
                setup.cls = ModuleClass(CLASS_USEFUL, cert)
            else:
                weak = next(filter(None, (self._weak(setup, p) for p in self.corners)), None)
                setup.cls = ModuleClass(CLASS_UNCOVERED if weak is None else CLASS_OPPOSITE_ONLY,
                                        weak)
        return setup.cls

    def face_parallel_modules(self):
        """Rank-1 modules along hull edges, plus rank-2 facet modules for r = 3.

        These are the only candidate spreads that leave no trace in any corner
        coefficient.  For r > 3 only the edge modules are enumerated.  Edges
        and facets are read off the one face enumeration of the support.
        """
        pts = self.points
        r = len(pts[0])
        if r == 1 or len(pts) == 1:
            return []
        faces = self._hull()
        modules = {IntLattice(r, [primitive_vector([y - x for x, y in zip(a, b)])])
                   for a, b in faces.edges()}
        if r == faces.dim == 3:
            # a full-dimensional hull has no lineality, so each facet (c0, c) is unique
            modules.update(integer_kernel([f[1:]], 3) for f, _ in faces.facets)
        if faces.dim < r:
            # degenerate support: the whole affine direction space
            modules.add(saturation(IntLattice(r, [list(map(_sub, s, pts[0])) for s in pts[1:]])))
        return sorted(modules, key=lambda L: L.key())

    def useful_pairs(self, W: IntLattice):
        """The witness certificates for W of the ordered corner pairs, as a generator.

        Each pair is decided only when the next certificate is asked for;
        the first is the certificate of `classify`.  A single point p has no
        pair, but gets (p, p) along a covector orthogonal to W, if any.
        """
        setup = self._setup(W)
        if len(self.points) == 1 and setup.t:
            p = self.points[0]
            yield WitnessCertificate(p, p, tuple(setup.basis[0]), frozenset([p]), frozenset([p]))
        # a corner congruent to another point has no pair
        alone = [p for p in self.corners if len(setup.cls_of[p]) == 1]
        for p, p2 in itertools.permutations(alone, 2):
            cert = self._pair(setup, p, p2)
            if cert is not None:
                yield cert
