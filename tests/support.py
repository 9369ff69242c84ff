"""Shared random generators and reference checks for the property suites (fixed seeds throughout)."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod
from operator import mul, sub

from plde import bounds
from plde.equation import PLDE
from plde.factored import FactoredPoly
from plde.geometry import WeakCertificate, WitnessCertificate, _facets, _onto, _read_point
from plde.lattice import (IntLattice, ShiftCoset, UnimodularMatrix, _split, clear_denominators,
                          integer_kernel, orthogonal_complement_lattice, primitive_vector,
                          reduce_by_span, saturation)
from plde.polyring import (MAX_COEFF_BITS, MAX_DEGREE, MAX_TERMS, InvariantError, ParseError,
                           Poly, RationalFunction, UnsupportedInputError, divide_exact,
                           format_poly, normalize_primitive, parse_poly, shift_terms)
from plde.spread import ShiftOrbits, _derivative
from plde.verify import check_solution

VARS2 = ("n", "k")

# factor pool: linear and quadratic shapes with assorted spread lattices
FACTOR_POOL = [
    "k+n+1", "2*k+3*n+1", "4*k-2*n+1", "n+1", "k+2", "n-k+2",
    "n^2+n+1", "n*k+1", "n^2+k^2+1", "2*n-3*k",
]


def random_poly(rng, vars=VARS2, max_degree=3, max_terms=5, coeff_range=6,
                integer=True, nonzero=False):
    r = len(vars)
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        e = tuple(rng.randint(0, max_degree) for _ in range(r))
        while sum(e) > max_degree:
            e = tuple(rng.randint(0, max_degree) for _ in range(r))
        c = rng.randint(-coeff_range, coeff_range)
        if not integer:
            c = Fraction(c, rng.randint(1, 4))
        if c:
            terms[e] = terms.get(e, 0) + c
    p = Poly(vars, {e: c for e, c in terms.items() if c})
    if nonzero and p.is_zero():
        return Poly.const(vars, rng.randint(1, coeff_range))
    return p


def coefficients(p: Poly) -> dict:
    """The coefficient map of p: its content times each of its primitive integer terms."""
    return {e: p.content * c for e, c in p.terms.items()}


def is_canonical(p: Poly) -> bool:
    """Whether p has the layout of Poly: a Fraction content, nonzero unless p is zero, times an
    int term map with coprime coefficients whose leading one in graded lex order is positive.
    """
    if not p.terms:
        return p.content == 0 and type(p.content) is Fraction
    return (type(p.content) is Fraction and p.content != 0
            and all(type(c) is int and c for c in p.terms.values())
            and gcd(*p.terms.values()) == 1
            and p.terms[max(p.terms, key=lambda e: (sum(e), e))] > 0)


def int_terms(p: Poly):
    """(c, t) with p = c * t, c > 0, t an int term map with coprime coefficients, signs as p's."""
    sign = -1 if p.content < 0 else 1
    return sign * p.content, {e: sign * c for e, c in p.terms.items()}


def random_factor(rng, vars=VARS2, shifted=True):
    p = parse_poly(rng.choice(FACTOR_POOL), vars)
    if shifted:
        s = tuple(rng.randint(-2, 2) for _ in vars)
        p = p.shift(s)
    return p


def random_shift(rng, r=2, radius=3):
    return tuple(rng.randint(-radius, radius) for _ in range(r))


def identity_matrix(n: int) -> UnimodularMatrix:
    return UnimodularMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def leading_exponent(p: Poly) -> tuple:
    """The largest exponent vector of a nonzero p in graded lexicographic order."""
    return max(p.terms, key=lambda e: (sum(e), e))


def leading_coefficient(p: Poly) -> Fraction:
    """The coefficient of p's leading monomial in graded lexicographic order."""
    return p.content * p.terms[leading_exponent(p)]


def factored_mul(a: FactoredPoly, b: FactoredPoly) -> FactoredPoly:
    """The product of two factored polynomials: units multiplied, multiplicities added."""
    if a.vars != b.vars:
        raise ValueError("mismatched variable lists")
    return FactoredPoly._from_canonical(a.vars, a.unit * b.unit, a.factors + b.factors)


def factored_divides(a: FactoredPoly, b: FactoredPoly) -> bool:
    """Whether the factors of a are a sub-multiset of those of b (units ignored)."""
    theirs = dict(b.factors)
    return all(theirs.get(p, 0) >= m for p, m in a.factors)


def factored_from_poly(p: Poly) -> FactoredPoly:
    """A single (assumed irreducible) polynomial as a factored polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial has no factored form")
    if p.is_constant():
        return FactoredPoly(p.vars, p.constant_value())
    return FactoredPoly(p.vars, 1, [(p, 1)])


def coset_contains(c: ShiftCoset, v) -> bool:
    """Whether v lies in the coset c; never for the empty coset."""
    return not c.is_empty and c.lattice.reduce(v) == c.base


def random_unimodular(rng, n=2, steps=6):
    """Product of random elementary row operations; determinant stays +-1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            q = rng.randint(-2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return UnimodularMatrix(rows)


def random_rational(rng, vars=VARS2):
    num = random_poly(rng, vars, max_degree=2, max_terms=3, nonzero=True)
    return RationalFunction(num, [(random_factor(rng, vars), 1)])


def lp_feasible(constraints, nvars: int):
    """One rational solution of a system of linear constraints, or None.

    Each constraint is (coefficients, relation, rhs) with relation ">=" or
    "==", meaning coefficients . v REL rhs.  The cone of the whole list,
    {(t, v) : t >= 0, a . v >= b t for every row a . v >= b}, is built from
    scratch and its point read off as a certificate program's is
    (`plde.geometry._read_point`): the constraint-list reference that the
    programs of ``_ModuleSetup.point`` must agree with.
    """
    rows = lp_rows(constraints, nvars)
    if rows is None:
        return None
    cone = [(1,) + (0,) * nvars] + [(-b, *a) for a, b in rows]
    return _read_point(*_facets(cone), nvars, len(cone))


def lp_rows(constraints, nvars: int):
    """The constraints as integer rows (a, b) meaning a . v >= b; None if a constant one fails.

    Rows whose a are positive multiples of one primitive direction bound
    the same half-spaces, so only the tightest, with the largest
    b / gcd(a), is kept: the solution set is unchanged.  A row with an
    entry other than an int is scaled to clear its denominators.
    """
    tightest = {}
    for coeffs, rel, rhs in constraints:
        a, b = [*coeffs], rhs
        if len(a) != nvars:
            raise ValueError("constraint arity %d, expected %d" % (len(a), nvars))
        if rel not in (">=", "=="):
            raise ValueError("unsupported relation %r" % rel)
        try:
            gcd(*a, b)  # a TypeError unless every entry is an int
        except TypeError:
            a = clear_denominators([*a, b])
            b = a.pop()
        g = gcd(*a)
        if not g:
            if b > 0 or (rel == "==" and b < 0):
                return None
            continue
        halves = [(a, b), ([-x for x in a], -b)] if rel == "==" else [(a, b)]
        for a, b in halves:
            key = tuple(x // g for x in a)
            kept = tightest.get(key)
            # tighter: b / g > kept_b / kept_g, with both gcds positive
            if kept is None or b * kept[2] > kept[1] * g:
                tightest[key] = (a, b, g)
    return [(a, b) for a, b, _ in tightest.values()]


def fourier_motzkin(constraints, nvars):
    """Reference LP for the differential test of ``lp_feasible``.

    Fourier-Motzkin elimination of v_{n-1}, ..., v_0, then back-substitution
    that sets each v_j to the midpoint of its range given v_0..v_{j-1}, or
    to the finite end nearest 0 clipped at 0, or to 0 when the range is
    the whole line.  Same input format and result as ``lp_feasible``.
    Each derived row is scaled by the positive 1 / max |coefficient|, which
    leaves its half-space unchanged, and exact repeats are dropped at every
    step, so repeats of one half-space do not multiply.
    """
    ineqs = []
    for coeffs, rel, rhs in constraints:
        row = [Fraction(c) for c in coeffs]
        b = Fraction(rhs)
        ineqs.append((row, b))
        if rel == "==":
            ineqs.append(([-c for c in row], -b))
    stack = []
    current = ineqs
    for j in reversed(range(nvars)):
        stack.append((j, current))
        pos = [c for c in current if c[0][j] > 0]
        neg = [c for c in current if c[0][j] < 0]
        new = {(tuple(row), b): None for row, b in current if row[j] == 0}
        for ap, bp in pos:
            for an, bn in neg:
                lam, mu = -an[j], ap[j]
                row = [lam * a + mu * b for a, b in zip(ap, an)]
                scale = max(map(abs, row)) or 1
                new[tuple(x / scale for x in row), (lam * bp + mu * bn) / scale] = None
        current = [(list(row), b) for row, b in new]
    if any(b > 0 for _, b in current):
        return None
    values = [Fraction(0)] * nvars
    for j, cons in reversed(stack):
        lo = hi = None
        for row, b in cons:
            if row[j]:
                bound = (b - sum(row[i] * values[i] for i in range(j))) / row[j]
                if row[j] > 0:
                    lo = bound if lo is None else max(lo, bound)
                else:
                    hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            values[j] = (lo + hi) / 2
        elif lo is not None:
            values[j] = max(lo, Fraction(0))
        elif hi is not None:
            values[j] = min(hi, Fraction(0))
    return values


def reference_facets(rows, lineality=None, rays=(), first=0):
    """Reference double description for the differential test of ``plde.geometry._facets``.

    Same input and result.  Each row takes the value of every ray and
    lineality vector up front, and a positive/negative pair of rays is
    adjacent when no third ray, scanned by index over all the others, is
    tight on every row that both are tight on.
    """
    if lineality is None:
        d = len(rows[0])
        lineality = [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]
    for t, h in enumerate(rows, first):
        bit = 1 << t
        vals = [sum(map(mul, h, v)) for v, _ in rays]
        lvals = [sum(map(mul, h, v)) for v in lineality]
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


def reference_corner_points(points):
    """Corners by one LP per point: p with some v such that (s - p) . v >= 1 for every other s."""
    pts = sorted(set(tuple(p) for p in points))
    r = len(pts[0])
    return {p for p in pts
            if lp_feasible([(tuple(a - b for a, b in zip(s, p)), ">=", 1) for s in pts if s != p],
                           r) is not None}


def reference_is_edge(points, a, b):
    """Is the line through a and b an exposed face of the hull?  One LP."""
    d = [y - x for x, y in zip(a, b)]
    cons = [(d, "==", 0)]
    for s in points:
        e = [x - y for x, y in zip(s, a)]
        if any(e[i] * d[j] != e[j] * d[i] for i in range(len(d)) for j in range(i)):
            cons.append((e, ">=", 1))  # off the line: strictly on one side
    return len(cons) == 1 or lp_feasible(cons, len(d)) is not None


def reference_facet_modules_3d(pts):
    """The rank-2 modules of the facets of an r = 3 support, by every plane through three points."""
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


def face_parallel_modules_all_pairs(points):
    """Reference for ``SupportGeometry.face_parallel_modules`` by LPs and a loop over point triples.

    Every pair of points, not only of corners, is tested for an edge by
    ``reference_is_edge``; for r = 3 every plane through three points is
    tested for a facet.
    """
    pts = sorted(set(tuple(p) for p in points))
    r = len(pts[0])
    if r == 1 or len(pts) == 1:
        return []
    modules = {IntLattice(r, [primitive_vector([y - x for x, y in zip(a, b)])])
               for a, b in itertools.combinations(pts, 2) if reference_is_edge(pts, a, b)}
    if r == 3:
        modules.update(reference_facet_modules_3d(pts))
    affine = saturation(IntLattice(r, [[x - y for x, y in zip(s, pts[0])] for s in pts[1:]]))
    if 0 < affine.rank < r:
        modules.add(affine)
    return sorted(modules, key=lambda L: L.key())


def level_row(setup, s, p):
    """The coefficients in z of the level (s - p) . u of s above p, for a module setup."""
    return tuple(map(sub, setup.point_coeffs[s], setup.point_coeffs[p]))


def pair_constraints(setup, p, p_prime):
    """The pair program of the corners (p, p') of a module setup, as one constraint list.

    Every support point other than p lies strictly above p; every point
    other than p' lies below p', strictly when its class modulo W has two
    or more points.  Built from scratch, one row per point, for
    ``lp_feasible``; ``_ModuleSetup.point`` continues a cone per p instead.
    """
    cons = []
    for s in setup.cls_of:
        if s != p:
            cons.append((level_row(setup, s, p), ">=", 1))
        if s != p_prime:
            cons.append((level_row(setup, p_prime, s), ">=", 1 if len(setup.cls_of[s]) > 1 else 0))
    return cons


def program_constraints(setup, p, strict, rows):
    """A program of ``_ModuleSetup.point`` as one constraint list, its cone built from scratch.

    Every support point other than p lies above p, by 1 if ``strict``, else
    by 1 exactly when its class modulo W has two or more points, one row
    per point; then each continuing row (-b, *a) as a . z >= b.
    """
    cons = [(level_row(setup, s, p), ">=", 1 if strict or len(setup.cls_of[s]) > 1 else 0)
            for s in setup.cls_of if s != p]
    return cons + [(tuple(a), ">=", -b) for b, *a in rows]


def reference_witness(geometry, p, p_prime, W: IntLattice):
    """``SupportGeometry.witness`` by ``lp_feasible`` on ``pair_constraints``."""
    setup = geometry._setup(W)
    if setup.t == 0 or len(setup.cls_of[p]) > 1 or len(setup.cls_of[p_prime]) > 1:
        return None
    z = lp_feasible(pair_constraints(setup, p, p_prime), setup.t)
    if z is None:
        return None
    u = setup.covector(z)
    values = {s: sum(a * b for a, b in zip(s, u)) for s in geometry.points}
    low, high = min(values.values()), max(values.values())
    return WitnessCertificate(p, p_prime, u, frozenset(s for s, v in values.items() if v == low),
                              frozenset(s for s, v in values.items() if v == high))


def reference_weak(geometry, p, W: IntLattice):
    """``SupportGeometry._weak`` at the corner p by ``lp_feasible``, with the z it was read from.

    The one-sided program is built from scratch by ``program_constraints``,
    one row per point, and continued by the unit rows z_i >= 1 and
    -z_i >= 1, for i = 0, ..., t - 1, in turn.  (None, None) if none has a
    point.
    """
    setup = geometry._setup(W)
    if setup.t == 0 or len(setup.cls_of[p]) > 1:
        return None, None
    base = program_constraints(setup, p, False, [])
    for i in range(setup.t):
        for sign in (1, -1):
            unit = tuple(sign if j == i else 0 for j in range(setup.t))
            z = lp_feasible(base + [(unit, ">=", 1)], setup.t)
            if z is not None:
                u = setup.covector(z)
                levels = {s: sum(a * (x - y) for a, x, y in zip(u, s, p)) for s in geometry.points}
                return WeakCertificate(p, u, frozenset(s for s, v in levels.items() if v == 0)), z
    return None, None


def reference_module_bound(eq: PLDE, geometry, W: IntLattice):
    """module_bound eagerly: the gcd over the whole list of useful pairs, and s of the first."""
    W = saturation(W)
    certs = list(geometry.useful_pairs(W))
    if not certs:
        raise ValueError("no useful pair exists for this module")
    orbits = ShiftOrbits()
    d, s = bounds._bound_for_cert(eq, W, certs[0], orbits)
    for c in certs[1:]:
        d = d.gcd(bounds._bound_for_cert(eq, W, c, orbits)[0])
    return d, s


def reference_aperiodic_bound(eq: PLDE, geometry):
    """The aperiodic bound eagerly: the first witness of every corner, gcd over all of them."""
    zero = IntLattice.zero(len(eq.variables))
    if len(eq.support) == 1:
        p = eq.support[0]
        return eq.terms[p].shift(tuple(-x for x in p)).w_part(zero, ShiftOrbits())
    corners = geometry.corners
    result = None
    orbits = ShiftOrbits()
    for p in corners:
        cert = None
        for p2 in corners:
            if p2 == p:
                continue
            cert = geometry.witness(p, p2, zero)
            if cert is not None:
                break
        if cert is None:
            continue
        d_p, _ = bounds._bound_for_cert(eq, zero, cert, orbits)
        result = d_p if result is None else result.gcd(d_p)
    return result if result is not None else FactoredPoly.one(eq.variables)


def _layer(p: Poly, d: int) -> Poly:
    return Poly(p.vars, {e: c for e, c in coefficients(p).items() if sum(e) == d})


def solve_integer(matrix, rhs, ncols: int):
    """Solve matrix . x = rhs over Z.

    Returns (particular solution tuple, kernel IntLattice) or None when no
    integer solution exists.  The solutions (t, x) of [-rhs | matrix] . (t, x)
    = 0 form a lattice whose Hermite basis starts with (1, x0) exactly when
    x0 solves the system; its other rows are (0, g) for g in the kernel.
    """
    K = integer_kernel([[-b] + list(row) for b, row in zip(rhs, matrix)], ncols + 1).basis
    if not K or K[0][0] != 1:
        return None
    return K[0][1:], IntLattice(ncols, [row[1:] for row in K[1:]])


def complement_within(K: IntLattice, G: IntLattice) -> IntLattice:
    """A lattice K' with K = G (+) K', for G saturated within K.

    The basis of K is split by its images under the covectors orthogonal to
    G: the rows of zero image span K meet span_Q(G), which is G exactly when
    G lies in K saturated, and the other rows span the complement.
    """
    if K == G:
        return IntLattice.zero(K.dim)
    comp = orthogonal_complement_lattice(G).basis
    images = [[sum(a * b for a, b in zip(c, v)) for c in comp] for v in K.basis]
    rest, inside = _split(K.basis, images)
    if IntLattice(K.dim, inside) != G:
        raise ValueError("inner lattice is not a saturated sublattice of the outer one")
    return IntLattice(K.dim, rest)


def reference_invariance_lattice(p: Poly) -> IntLattice:
    """The lattice of integer shifts fixing p, as the integer kernel of its partial derivatives.

    A vector v fixes p exactly when the derivative of p along v vanishes
    identically (the t |-> p(n+tv) curve is polynomial, so a vanishing
    derivative makes it constant); the kernel is saturated.  Every kernel
    vector is checked to fix p.
    """
    if p.is_constant():
        raise ValueError("spread of a constant polynomial is not defined here")
    r = len(p.vars)
    partials = [{e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.terms.items() if e[i]}
                for i in range(r)]
    K = integer_kernel([[dp.get(e, 0) for dp in partials] for e in set().union(*partials)], r)
    if any(p.shift(g) != p for g in K.basis):
        raise InvariantError("a kernel vector of the partials does not fix the polynomial")
    return K


def reference_shift_orbit(p: Poly):
    """`spread.shift_orbit` with its rounds run until the derivatives along the directions vanish.

    The library stops after a round of degree D = 0 instead, whose kept
    directions have vanishing derivatives already; the two agree exactly.
    """
    r = len(p.vars)
    q = p.terms
    s0 = (0,) * r
    dirs = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    while True:
        derivs = [_derivative(q, d) for d in dirs]
        D = max((sum(e) for dv in derivs for e in dv), default=-1)
        if D < 0:
            break
        monomials = sorted(e for e in set(q).union(*derivs) if sum(e) == D)
        cols = [[dv.get(e, 0) for e in monomials] for dv in derivs]
        tau, ker = reduce_by_span(cols, [q.get(e, 0) for e in monomials])
        step = tuple(sum(t * d[j] for t, d in zip(tau, dirs)) for j in range(r))
        q = shift_terms(q, step)
        s0 = tuple(map(sum, zip(s0, step)))
        dirs = [tuple(sum(k * d[j] for k, d in zip(row, dirs)) for j in range(r))
                for row in ker]
    G = IntLattice(r, dirs)
    return Poly.from_ints(p.vars, q), G.reduce(s0), G


def reference_shift_equiv(p: Poly, q: Poly) -> ShiftCoset:
    """Shift equivalence by stages: all s with q(n+s) = c * p(n), c a nonzero constant.

    Leading forms pin down c, the layer of degree d-1 is linear in s and
    gives a candidate coset, and the directions of its lattice outside the
    invariance lattice G of q are decided by expanding q(n + s0 + sum t_i
    dir_i) in the variables t_i and solving its affine equations over Z,
    round after round.
    """
    r = len(p.vars)
    p = normalize_primitive(p)[1]
    q = normalize_primitive(q)[1]
    d = q.total_degree()
    if p.total_degree() != d:
        return ShiftCoset.empty(r)
    c = Fraction(leading_coefficient(q), leading_coefficient(p))
    if _layer(q, d) != _layer(p, d) * c:
        return ShiftCoset.empty(r)
    target = p * c
    partials = [Poly(q.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: a * e[i]
                              for e, a in coefficients(_layer(q, d)).items() if e[i]})
                for i in range(r)]
    rhs = coefficients(_layer(target, d - 1) - _layer(q, d - 1))
    partials = [coefficients(pp) for pp in partials]
    monomials = sorted(set(rhs) | set().union(*partials))
    rows = [clear_denominators([pp.get(e, 0) for pp in partials] + [rhs.get(e, 0)])
            for e in monomials]
    sol = solve_integer([row[:-1] for row in rows], [row[-1] for row in rows], r)
    if sol is None:
        return ShiftCoset.empty(r)
    s0, K = sol
    G = reference_invariance_lattice(q)
    directions = [list(v) for v in complement_within(K, G).basis]
    s0 = list(s0)
    while directions:
        m = len(directions)
        tvars = tuple(q.vars) + tuple("_t%d" % i for i in range(m))
        gens = [Poly.variable(tvars, v) for v in tvars]
        exprs = [sum((gens[r + i] * directions[i][j] for i in range(m)),
                     gens[j] + Poly.const(tvars, s0[j])) for j in range(r)]
        phi = q.compose(exprs, tvars) - target.compose(gens[:r], tvars)
        eqs = {}
        for e, coeff in coefficients(phi).items():
            eqs.setdefault(e[:r], {})[e[r:]] = coeff
        linear = [e for e in eqs.values() if max(map(sum, e)) <= 1]
        if not linear:
            raise InvariantError("the residual system has no affine equation in the directions")
        units = [tuple(int(j == i) for j in range(m)) for i in range(m)]
        rows = [clear_denominators([e.get(u, 0) for u in units] + [-e.get((0,) * m, 0)])
                for e in linear]
        sol = solve_integer([row[:-1] for row in rows], [row[-1] for row in rows], m)
        if sol is None:
            return ShiftCoset.empty(r)
        tau, ker = sol
        if ker.rank == m:
            raise InvariantError("the affine residual equations do not involve the directions")
        s0 = [a + sum(tau[i] * directions[i][j] for i in range(m)) for j, a in enumerate(s0)]
        directions = [[sum(row[i] * directions[i][j] for i in range(m)) for j in range(r)]
                      for row in ker.basis]
    return ShiftCoset.of(s0, G) if q.shift(s0) == target else ShiftCoset.empty(r)


def reduce_by_trial_division(num, den):
    """Reference for the differential test of ``bounds._Frac``: num / den reduced.

    Divides num by each prim of den as often as it goes, up to the
    multiplicity, with no test before a division.  Returns the reduced
    numerator and denominator, the denominator's unit moved into num.
    """
    if den.unit != 1:
        num = num * (1 / den.unit)
        den = FactoredPoly(den.vars, 1, den.factors)
    if num.is_zero():
        return num, FactoredPoly.one(den.vars)
    factors = []
    for prim, mult in den.factors:
        m = mult
        while m:
            q = divide_exact(num, prim)
            if q is None:
                break
            num = q
            m -= 1
        if m:
            factors.append((prim, m))
    return num, FactoredPoly(den.vars, 1, factors)


def divide_over_q(p: Poly, q: Poly):
    """Reference for the integer division kernel: long division over Q, or None.

    Cancels leading terms under graded lex with Fraction coefficients and
    fails when the leading monomial of q stops dividing the remainder's.
    """
    eq = leading_exponent(q)
    quotient = {}
    rem = coefficients(p)
    q = coefficients(q)
    while rem:
        ep = max(rem, key=lambda e: (sum(e), e))
        diff = tuple(a - b for a, b in zip(ep, eq))
        if any(d < 0 for d in diff):
            return None
        c = rem[ep] / q[eq]
        quotient[diff] = c
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(diff, e2))
            rem[e] = rem.get(e, Fraction(0)) - c * c2
            if not rem[e]:
                del rem[e]
    return Poly(p.vars, quotient)


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Reference gcd: normalized gcd via primitive-part Euclidean recursion (PRS).

    The library never takes a polynomial gcd; its cancellations divide by
    declared prims.  This is what residuals, parsed solutions and spread
    cosets are compared against.  The main variable at each level is the
    one with the smallest maximal degree among variables shared by both
    inputs; contents are extracted recursively.  Adequate for small
    degrees in a handful of variables.
    """
    if p.is_zero() and q.is_zero():
        return Poly.zero(p.vars)
    if p.is_zero():
        return normalize_primitive(q)[1]
    if q.is_zero():
        return normalize_primitive(p)[1]
    if p.vars != q.vars:
        raise ValueError("mismatched variable lists")
    g = _gcd_recursive(normalize_primitive(p)[1], normalize_primitive(q)[1])
    return normalize_primitive(g)[1]


def _gcd_recursive(p: Poly, q: Poly) -> Poly:
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_constant() or q.is_constant():
        return Poly.one(p.vars)
    r = len(p.vars)
    shared = [i for i in range(r) if p.degree_in(i) > 0 and q.degree_in(i) > 0]
    if not shared:
        return Poly.one(p.vars)
    x = min(shared, key=lambda i: max(p.degree_in(i), q.degree_in(i)))
    cp, pp = _content_and_primitive(p, x)
    cq, qq = _content_and_primitive(q, x)
    cont = _gcd_recursive(cp, cq)
    a, b = pp, qq
    if a.degree_in(x) < b.degree_in(x):
        a, b = b, a
    while True:
        rem = _pseudo_rem(a, b, x)
        if rem.is_zero():
            g = b
            break
        if rem.degree_in(x) == 0:
            g = Poly.one(p.vars)
            break
        # a nonzero constant is a unit over Q: dropping the integer content keeps
        # the remainders from growing
        a, b = b, normalize_primitive(_content_and_primitive(rem, x)[1])[1]
    if not g.is_constant():
        g = _content_and_primitive(g, x)[1]
    return cont * g


def _content_and_primitive(p: Poly, x: int):
    """Content (gcd of coefficients wrt variable x) and primitive part."""
    coeffs = {}
    for e, c in p.terms.items():
        coeffs.setdefault(e[x], {})[e[:x] + (0,) + e[x + 1:]] = c
    polys = [Poly.from_ints(p.vars, t, p.content) for t in coeffs.values()]
    cont = Poly.zero(p.vars)
    for q in polys:
        cont = gcd_poly(cont, q)
        if cont.is_constant() and not cont.is_zero():
            cont = Poly.one(p.vars)
            break
    pp = divide_exact(p, cont)
    if pp is None:
        raise InvariantError("the content of a polynomial does not divide it")
    return cont, pp


def _pseudo_rem(a: Poly, b: Poly, x: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable x."""
    db = b.degree_in(x)
    lc_b = _coeff_in(b, x, db)
    r = a
    while not r.is_zero() and r.degree_in(x) >= db:
        dr = r.degree_in(x)
        lc_r = _coeff_in(r, x, dr)
        mono = [0] * len(a.vars)
        mono[x] = dr - db
        shift_term = Poly.from_ints(a.vars, {tuple(mono): 1})
        r = r * lc_b - b * (lc_r * shift_term)
    return r


def _coeff_in(p: Poly, x: int, d: int) -> Poly:
    return Poly.from_ints(p.vars, {e[:x] + (0,) + e[x + 1:]: c for e, c in p.terms.items()
                                   if e[x] == d}, p.content)


class ReducedRational:
    """Reference rational function: num / den in lowest terms by `gcd_poly`.

    The denominator is integer-primitive with a positive leading
    coefficient, as ``RationalFunction`` prints it, and equality and the
    arithmetic are those of the field of fractions.  The library's
    ``RationalFunction`` has no arithmetic: it cancels only by its
    declared prims, and residuals and parsed solutions are compared with
    this reduction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        den = Poly.one(num.vars) if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = num, Poly.one(num.vars)
            return
        g = gcd_poly(num, den)
        if not g.is_constant():
            num, den = divide_exact(num, g), divide_exact(den, g)
        unit, self.den = normalize_primitive(den)
        self.num = num * (1 / unit)

    @classmethod
    def of(cls, y) -> "ReducedRational":
        """y = num / den reduced, for anything with Poly attributes num and den."""
        return cls(y.num, y.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        return ReducedRational(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ReducedRational(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = ReducedRational(other)
        return ReducedRational(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        return isinstance(other, ReducedRational) and same_rational(self, other)

    def __hash__(self):
        return hash((self.num, self.den))

    def shift(self, s) -> "ReducedRational":
        return ReducedRational(self.num.shift(s), self.den.shift(s))

    def __str__(self):
        if self.den.is_constant():
            return format_poly(self.num)
        return "(%s)/(%s)" % (format_poly(self.num), format_poly(self.den))

    def __repr__(self):
        return "ReducedRational(%r)" % str(self)


def spread_box_oracle(p: Poly, q: Poly, radius: int):
    """Brute force reference for ``spread.shift_equiv``: all s in the box with gcd(p, N^s q)
    nonconstant."""
    hits = set()
    for s in itertools.product(range(-radius, radius + 1), repeat=len(p.vars)):
        if not gcd_poly(p, q.shift(s)).is_constant():
            hits.add(s)
    return hits


def reference_check_solution(eq: PLDE, y: RationalFunction):
    """Reference for ``verify.check_solution``: (residual, ok) by quadratic products over Q,
    the residual a `ReducedRational`, in lowest terms by the PRS gcd."""
    total, common = reference_residual(eq, y)
    residual = ReducedRational(total, common)
    return residual, residual.is_zero()


def reference_residual(eq: PLDE, y: RationalFunction):
    """The unreduced residual (total, common) of y, as Polys over Q.

    Builds total = sum_i A_i N_i prod_{j != i} D_j - f * prod_j D_j with a
    fresh cofactor of m - 1 shifted denominators for each of the m points.
    """
    support = eq.support
    shifted_nums = [y.num.shift(s) for s in support]
    shifted_dens = [y.den.shift(s) for s in support]
    common = Poly.one(eq.variables)
    for den in shifted_dens:
        common = common * den
    total = Poly.zero(eq.variables)
    for i, s in enumerate(support):
        cof = Poly.one(eq.variables)
        for j, den in enumerate(shifted_dens):
            if j != i:
                cof = cof * den
        total = total + eq.terms[s].expand() * shifted_nums[i] * cof
    return total - eq.rhs * common, common


def evaluate_terms(terms: dict, point):
    """The value of a term map at a point, by direct evaluation."""
    return sum(c * prod(x ** d for x, d in zip(point, e)) for e, c in terms.items())


def reference_parse_poly(text, vars) -> Poly:
    """Reference for the differential test of ``parse_poly``: the parser on Fraction ``Poly``s.

    Same grammar, tokens, size limits and errors as the library parser, but
    every atom, sum, product and power is a ``Poly`` over QQ, as the library
    built them before it parsed on integer term maps.
    """
    if not isinstance(text, str):
        raise ParseError("expected polynomial text, not %r" % (text,), 0)
    parser = _ReferenceParser(text, vars)
    try:
        result = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.tokens[parser.pos][2]) from None
    tok = parser.tokens[parser.pos]
    if tok[0] != "end":
        raise ParseError("unexpected trailing input %r" % tok[1], tok[2])
    return result


def _reference_tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _ReferenceParser:
    def __init__(self, text, vars):
        self.tokens = _reference_tokenize(text)
        self.pos = 0
        self.vars = tuple(vars)
        self.budget = MAX_TERMS

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1] or "end of input"), tok[2])
        return tok

    def parse_expr(self):
        sign = 1
        if self.tokens[self.pos][0] in "+-" and self.advance()[0] == "-":
            sign = -1
        result = self.parse_term() * sign
        while self.tokens[self.pos][0] in "+-":
            op = self.advance()[0]
            t = self.parse_term()
            result = result + t if op == "+" else result - t
        return result

    def parse_term(self):
        result = self.parse_factor()
        while self.tokens[self.pos][0] == "*":
            pos = self.advance()[2]
            factor = self.parse_factor()
            degree = result.total_degree() + factor.total_degree()
            self.limit(degree, pos)
            self.limit_bits(self.norm_bits(result) + self.norm_bits(factor), pos)
            self.charge(min(len(result.terms) * len(factor.terms),
                            self.monomials(degree, result, factor)), pos)
            result = result * factor
        return result

    def parse_factor(self):
        result = self.parse_atom()
        while self.tokens[self.pos][0] == "^":
            self.advance()
            tok = self.expect("int")
            digits = tok[1].lstrip("0")
            if len(digits) > len(str(MAX_DEGREE)):
                raise UnsupportedInputError("unsupported: an exponent of %d digits at position %d "
                                            "exceeds the degree limit %d"
                                            % (len(digits), tok[2], MAX_DEGREE))
            e = int(digits or "0")
            degree = result.total_degree() * e
            self.limit(max(e, degree), tok[2])
            self.limit_bits(e * self.norm_bits(result), tok[2])
            n = len(result.terms)
            self.charge(min(comb(n + e - 1, e) if n else 1, self.monomials(degree, result)),
                        tok[2])
            result = result ** e
        return result

    def parse_atom(self):
        tok = self.advance()
        if tok[0] == "int":
            self.limit_bits(-(-10 * len(tok[1]) // 3), tok[2])
            return Poly.const(self.vars, int(tok[1]))
        if tok[0] == "name":
            if tok[1] not in self.vars:
                raise ParseError("unknown variable %r" % tok[1], tok[2])
            return Poly.variable(self.vars, tok[1])
        if tok[0] == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError("expected a number, variable or parenthesis, found %r"
                         % (tok[1] or "end of input"), tok[2])

    @staticmethod
    def limit(degree, position):
        if degree > MAX_DEGREE:
            raise UnsupportedInputError("unsupported: degree %d at position %d exceeds the limit "
                                        "%d" % (degree, position, MAX_DEGREE))

    @staticmethod
    def norm_bits(p):
        return int(sum(abs(c) for c in coefficients(p).values())).bit_length()

    @staticmethod
    def limit_bits(bits, position):
        if bits > MAX_COEFF_BITS:
            raise UnsupportedInputError("unsupported: coefficients of up to %d bits at position %d "
                                        "exceed the limit %d" % (bits, position, MAX_COEFF_BITS))

    @staticmethod
    def monomials(degree, *polys):
        used = len({i for p in polys for e in p.terms for i, x in enumerate(e) if x})
        return comb(max(degree, 0) + used, used)

    def charge(self, bound, position):
        self.budget -= bound
        if self.budget < 0:
            raise UnsupportedInputError("unsupported: the products and powers up to position %d "
                                        "exceed the budget of %d terms per polynomial text"
                                        % (position, MAX_TERMS))


# atoms of random polynomial text: the variables, small and large integers,
# zero, a name that is not a variable, and non-ASCII digits and letters
_TEXT_ATOMS = ["n", "k", "n", "k", "0", "1", "2", "3", "17", "123456789012345678901234567890",
               "m", "٣", "é", "n_1"]
_TEXT_SPACES = ["", "", "", " ", "  ", "\t", "\n", " ", "\x1c"]
_TEXT_NOISE = ["", "+", "-", "*", "^", "(", ")", "^-2", "2 n", "%", "/", "²", "^101", "^0"]


def random_poly_text(rng, depth=3):
    """Seeded polynomial text with nesting, unary signs, powers, zero and whitespace."""
    def space():
        return rng.choice(_TEXT_SPACES)

    def expr(d):
        pieces = [rng.choice(["", "", "-", "+"]) + term(d)]
        for _ in range(rng.randint(0, 2)):
            pieces.append(space() + rng.choice("+-") + space() + term(d))
        return "".join(pieces)

    def term(d):
        return ("*" + space()).join(factor(d) for _ in range(rng.randint(1, 3)))

    def factor(d):
        text = atom(d)
        # high powers of variables and integers, whose repeated powers meet
        # the coefficient limit; low powers of sums, which the Fraction
        # reference would expand slowly to the term budget
        exponents = [0, 1, 2, 3] if text.startswith("(") else [0, 1, 2, 12, 40]
        for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
            text += "^" + space() + str(rng.choice(exponents))
        return text + space()

    def atom(d):
        if d and rng.random() < 0.35:
            return "(" + space() + expr(d - 1) + ")"
        return rng.choice(_TEXT_ATOMS[:10] if rng.random() < 0.95 else _TEXT_ATOMS)

    return space() + expr(depth)


def random_malformed_text(rng):
    """random_poly_text with one piece of noise inserted or one character dropped."""
    text = random_poly_text(rng)
    i = rng.randint(0, len(text))
    if rng.random() < 0.3 and text:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(_TEXT_NOISE) + text[i:]


def act_on_rational(A: UnimodularMatrix, y: RationalFunction) -> RationalFunction:
    """(A.y)(n) = y(A n); multiplicative and additive in y.

    It satisfies A.(N^s y) = N^{A^{-1} s}(A.y) for every unimodular A, so y
    solves an equation iff act_on_rational(M^{-1}, y) solves its
    ``transform_equation(eq, M)``.
    """
    images = Poly.linear_forms(y.num.vars, A.rows)
    return RationalFunction(y.num.compose(images), [(f.compose(images), mult)
                                                    for f, mult in y.factors])


def over(num: Poly, q: FactoredPoly) -> RationalFunction:
    """num / q, with the prims of the factored q declared."""
    return RationalFunction(num * (1 / q.unit), q.factors)


def shift_rational(y: RationalFunction, s) -> RationalFunction:
    """y(n + s), with the shifted prims of y declared."""
    return RationalFunction(y.num.shift(s), [(f.shift(s), mult) for f, mult in y.factors])


def add_poly(y: RationalFunction, p: Poly) -> RationalFunction:
    """y + p, with the prims of y declared."""
    return RationalFunction(y.num + p * y.den, y.factors)


def mul_poly(y: RationalFunction, c) -> RationalFunction:
    """y * c for a polynomial or a rational c, with the prims of y declared."""
    return RationalFunction(y.num * c, y.factors)


def same_rational(a, b) -> bool:
    """Whether two rational functions are equal, by cross-multiplication: exact, and no gcd."""
    return a.num * b.den == b.num * a.den


def check_strip_identity(strip, p, y: RationalFunction) -> bool:
    """Exact identity behind a strip rewriting, evaluated on a known solution:

        y(n + p) * D = b + sum_i terms[i] * y(n + i)

    A product whose numerator the shifted denominator of y divides is made a
    polynomial by one exact division, so the sum needs no gcd; in the usual
    case every product is one, as terms[i] carries the denominator of y(n + i).
    """
    def times(num, i):  # num * y(n + i)
        product, den = num * y.num.shift(i), y.den.shift(i)
        quotient = divide_exact(product, den)
        if quotient is None:
            return ReducedRational(product, den)
        return ReducedRational(quotient)

    rhs = ReducedRational(strip.b)
    for i, num in strip.terms.items():
        rhs = rhs + times(num, i)
    return (times(strip.D_actual.expand(), p) - rhs).is_zero()


@dataclass(frozen=True)
class InstanceProfile:
    """Shape of a generated equation; everything stays at desk scale."""

    variables: tuple = ("n", "k")
    support_points: tuple = ((0, 0), (0, 1), (1, 0), (1, 1))
    min_terms: int = 2
    max_terms: int = 4
    denominator_pool: tuple = ("k+n+1", "2*k+3*n+1", "n+1", "n^2+n+1", "n*k+1")
    numerator_pool: tuple = ("1", "n", "n+k", "k^2+1")
    max_den_factors: int = 2
    coefficient_pool: tuple = ("1", "-1", "2", "n", "k+1", "n+k+2")


def random_instance(seed, profile: InstanceProfile = InstanceProfile()):
    """Equation together with a certified rational solution.

    Built from a prescribed solution p/q by taking a_s = c_s * N^s q, which
    turns the left-hand side into the polynomial sum of the c_s * N^s p.
    """
    rng = random.Random(seed)
    vars = profile.variables
    npts = rng.randint(profile.min_terms, min(profile.max_terms, len(profile.support_points)))
    support = rng.sample(list(profile.support_points), npts)
    den_factors = []
    for _ in range(rng.randint(0, profile.max_den_factors)):
        den_factors.append(parse_poly(rng.choice(profile.denominator_pool), vars))
    q = FactoredPoly(vars, 1, [(f, 1) for f in den_factors])
    p = parse_poly(rng.choice(profile.numerator_pool), vars)
    terms = {}
    rhs = Poly.zero(vars)
    for s in support:
        c = parse_poly(rng.choice(profile.coefficient_pool), vars)
        while c.is_zero():
            c = parse_poly(rng.choice(profile.coefficient_pool), vars)
        shifted_q = q.shift(s)
        coeff = factored_mul(factored_from_poly(c), shifted_q)
        terms[tuple(s)] = coeff
        rhs = rhs + c * p.shift(s)
    eq = PLDE(tuple(vars), terms, rhs)
    y = over(p, q)
    if not check_solution(eq, y).ok:
        raise InvariantError("generated instance does not certify its own solution")
    return eq, y, q


# known solutions of the bundled equations, as in the paper: numerator, denominator factors
_SYS_DEN = ("n+k+1", "n+k+2", "n+k+3", "n^2+n+1", "n^2+3*n+3", "3*n+2*k+1")
BUNDLED_SOLUTIONS = {
    "ex1": ("n^2+2*k^2", ("k+n+1",)),
    "ex2": ("n^2+2*k^2", ("k+n+1",)),
    "nrm": ("3*k^2-4*n*k+2*n^2", ("n+1",)),
    "skew": ("1", ("n+k+1",)),
    "sys1": ("1", _SYS_DEN),
    "sys2": ("1", _SYS_DEN),
}


def bundled_solution(eq: PLDE, name: str):
    """(y, q): the known solution y of the bundled equation ``name`` and its factored denominator."""
    num, factors = BUNDLED_SOLUTIONS[name]
    q = FactoredPoly(eq.variables, 1, [(parse_poly(f, eq.variables), 1) for f in factors])
    return over(parse_poly(num, eq.variables), q), q


def dispersion_family(s, signs=(1, 1, -1, 1), numerator="1"):
    """The dispersion family on the unit square, with its solution g/q and q.

    q = (n+k+1)(n+k+1+s)(3n+2k+1), g = ``numerator`` and a_p = c_p * q(n + p)
    with the units c_p at (0, 0), (0, 1), (1, 0), (1, 1), so the rhs is the
    sum of c_p * g(n + p), 2 for the default ones; the module (1, -1) has
    dispersion s.
    """
    vars = ("n", "k")
    q = FactoredPoly(vars, 1, [(parse_poly(t, vars), 1)
                               for t in ("n+k+1", "n+k+%d" % (1 + s), "3*n+2*k+1")])
    g = parse_poly(numerator, vars)
    points = list(zip(((0, 0), (0, 1), (1, 0), (1, 1)), signs))
    rhs = Poly.zero(vars)
    for p, c in points:
        rhs = rhs + g.shift(p) * c
    eq = PLDE(vars, {p: factored_mul(FactoredPoly(vars, c), q.shift(p)) for p, c in points}, rhs)
    y = over(g, q)
    if not check_solution(eq, y).ok:
        raise InvariantError("the dispersion family does not certify its own solution")
    return eq, y, q


def wide_case(draws):
    """The wide known-solution case on r = 3, with its solution y = (n+1)/q and q.

    The points are the distinct ones among ``draws`` draws from {0,...,4}^3,
    then c_s in {1, -1, 2} and b_s in 1..6 are drawn point by point in sorted
    order, all from random.Random(1).  q = (n+k+m+1)(2n+k+3), a_s = c_s *
    (n+k+m+b_s) * q(n + s) and the rhs is the sum of c_s (n+k+m+b_s)(n+1+s_1).
    """
    vars = ("n", "k", "m")
    rng = random.Random(1)
    points = sorted({tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(draws)})
    q = FactoredPoly(vars, 1, [(parse_poly(t, vars), 1) for t in ("n+k+m+1", "2*n+k+3")])
    terms = {}
    rhs = Poly.zero(vars)
    for s in points:
        c = rng.choice([1, -1, 2])
        extra = parse_poly("n+k+m+%d" % rng.randint(1, 6), vars)
        terms[s] = factored_mul(FactoredPoly(vars, c, [(extra, 1)]), q.shift(s))
        rhs = rhs + Poly.const(vars, c) * extra * parse_poly("n+%d" % (1 + s[0]), vars)
    eq = PLDE(vars, terms, rhs)
    y = over(parse_poly("n+1", vars), q)
    if not check_solution(eq, y).ok:
        raise InvariantError("the wide case does not certify its own solution")
    return eq, y, q


def homogeneous_instance(seed, profile: InstanceProfile = InstanceProfile()):
    """Instance with zero right-hand side: numerator 1, balanced constants."""
    rng = random.Random(seed)
    vars = profile.variables
    npairs = rng.randint(1, max(1, len(profile.support_points) // 2))
    pts = rng.sample(list(profile.support_points), 2 * npairs)
    den_factors = [parse_poly(rng.choice(profile.denominator_pool), vars)
                   for _ in range(rng.randint(1, profile.max_den_factors))]
    q = FactoredPoly(vars, 1, [(f, 1) for f in den_factors])
    terms = {}
    for i in range(npairs):
        c = rng.randint(1, 3)
        terms[tuple(pts[2 * i])] = factored_mul(FactoredPoly(vars, c), q.shift(pts[2 * i]))
        terms[tuple(pts[2 * i + 1])] = factored_mul(FactoredPoly(vars, -c), q.shift(pts[2 * i + 1]))
    eq = PLDE(tuple(vars), terms, Poly.zero(vars))
    y = over(Poly.one(vars), q)
    if not check_solution(eq, y).ok:
        raise InvariantError("generated instance does not certify its own solution")
    return eq, y, q
