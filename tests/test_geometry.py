import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from plde import geometry
from plde.bounds import combined_bound
from plde.equation import PLDE
from plde.geometry import CLASS_OPPOSITE_ONLY, CLASS_UNCOVERED, CLASS_USEFUL, SupportGeometry
from plde.lattice import IntLattice, saturation
from support import (InstanceProfile, face_parallel_modules_all_pairs, fourier_motzkin,
                     lp_feasible, lp_rows, program_constraints, random_instance,
                     reference_corner_points, reference_is_edge, reference_weak,
                     reference_witness)

N_CASES = 200

EX1_S = [(0, 0), (0, 1), (1, 0)]
EX2_S = [(0, 1), (1, 0), (1, 1), (2, 0)]
SYS1_S = [(0, 0), (0, 1), (1, 0), (1, 1)]
SYS2_S = [(0, 1), (1, 0), (1, 2), (2, 1)]


def L(*rows, dim=2):
    return IntLattice(dim, rows)


# ----------------------------------------------------------------------
# corners


def test_corner_triangle():
    assert set(SupportGeometry([(0, 0), (0, 1), (1, 0)]).corners) == {(0, 0), (0, 1), (1, 0)}


def test_corner_collinear_midpoint():
    assert set(SupportGeometry([(0, 0), (1, 0), (2, 0)]).corners) == {(0, 0), (2, 0)}


def test_corner_quadrilateral():
    assert set(SupportGeometry(EX2_S).corners) == set(EX2_S)


def test_non_corners_are_convex_combinations():
    rng = random.Random(501)
    for _ in range(60):
        pts = list({(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))})
        if len(pts) < 3:
            continue
        corners = set(SupportGeometry(pts).corners)
        for p in pts:
            if p in corners:
                continue
            others = [s for s in pts if s != p]
            m = len(others)
            cons = [([Fraction(1)] * m, "==", 1)]
            for c in range(2):
                cons.append(([Fraction(others[i][c]) for i in range(m)], "==", p[c]))
            for i in range(m):
                row = [Fraction(0)] * m
                row[i] = Fraction(1)
                cons.append((row, ">=", 0))
            assert lp_feasible(cons, m) is not None


# ----------------------------------------------------------------------
# exact feasibility


def test_lp_infeasible():
    assert lp_feasible([((1,), ">=", 1), ((-1,), ">=", 0)], 1) is None


def test_lp_with_equality():
    sol = lp_feasible([((1, 1), "==", 0), ((1, 0), ">=", 1)], 2)
    assert sol is not None and sol[0] + sol[1] == 0 and sol[0] >= 1


def test_lp_witness_system():
    # covector for the square's diagonal pair, orthogonal to (1,-1)
    cons = [((1, -1), "==", 0)]
    for s in SYS1_S:
        if s != (0, 0):
            cons.append((s, ">=", 1))
    sol = lp_feasible(cons, 2)
    assert sol is not None and sol[0] == sol[1] and sol[0] >= 1


def test_lp_solutions_satisfy_all_constraints():
    rng = random.Random(502)
    for _ in range(N_CASES):
        cons = []
        for _ in range(rng.randint(1, 6)):
            row = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            rel = rng.choice([">=", "=="])
            cons.append((row, rel, Fraction(rng.randint(-2, 2))))
        sol = lp_feasible(cons, 3)
        if sol is None:
            continue
        for row, rel, rhs in cons:
            val = sum(a * b for a, b in zip(row, sol))
            assert val == rhs if rel == "==" else val >= rhs


def _random_system(rng, nvars, mode):
    """At most 6 inequalities, an equality counting as two; ``mode`` biases
    towards boxed, contradictory or unbounded solution sets."""
    cons = []
    free = rng.randrange(nvars) if mode == "unbounded" else None
    budget = rng.randint(1, {"boxed": 4, "contradiction": 5}.get(mode, 6))
    while budget > 0:
        row = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(nvars)]
        if free is not None:
            row[free] = Fraction(0)
        rhs = Fraction(rng.randint(-3, 3), rng.choice((1, 3)))
        rel = "==" if budget >= 2 and rng.random() < 0.25 else ">="
        budget -= 2 if rel == "==" else 1
        cons.append((tuple(row), rel, rhs))
    if mode == "boxed":
        for i in rng.sample(range(nvars), rng.randint(1, nvars)):
            unit = tuple(Fraction(int(j == i)) for j in range(nvars))
            cons += [(unit, ">=", -2), (tuple(-x for x in unit), ">=", -2)]
    elif mode == "contradiction":
        row, _, rhs = cons[0]
        cons.append((tuple(-x for x in row), ">=", -rhs + 1))
    return cons[:6]


def test_lp_point_matches_fourier_motzkin():
    rng = random.Random(505)
    outcomes = {"infeasible": 0, "feasible": 0}
    for case in range(480):
        nvars = 1 + case % 4
        mode = ("random", "boxed", "contradiction", "unbounded")[case // 4 % 4]
        cons = _random_system(rng, nvars, mode)
        expected = fourier_motzkin(cons, nvars)
        assert lp_feasible(cons, nvars) == expected, cons
        outcomes["infeasible" if expected is None else "feasible"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_lp_point_ignores_repeated_and_scaled_rows():
    # rows along one direction are reduced to the tightest, which leaves the
    # solution set, and so the point, unchanged
    rng = random.Random(507)

    def half_spaces(rows):
        return sorted((tuple(x // math.gcd(*a) for x in a), Fraction(b, math.gcd(*a)))
                      for a, b in rows)

    feasible = 0
    for case in range(240):
        nvars = 1 + case % 3
        cons = _random_system(rng, nvars, ("random", "boxed")[case % 2])
        padded = list(cons)
        for row, rel, rhs in cons:
            for _ in range(rng.randint(1, 2)):
                c = Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
                padded.append((tuple(c * x for x in row), rel, c * rhs))
            if rel == ">=":
                padded.append((row, ">=", rhs - rng.randint(1, 3)))  # a looser parallel row
        rng.shuffle(padded)
        point = lp_feasible(cons, nvars)
        assert lp_feasible(padded, nvars) == point, cons
        rows = lp_rows(padded, nvars)
        if rows is not None:
            assert half_spaces(rows) == half_spaces(lp_rows(cons, nvars))
            assert len(half_spaces(rows)) == len(set(d for d, _ in half_spaces(rows)))
        feasible += point is not None
    assert feasible >= 100


def test_pipeline_lp_systems_match_fourier_motzkin(ex1, ex2, nrm, skew, sys1, sys2, monkeypatch):
    # the programs that combined_bound itself runs, on the bundled files and
    # the golden equations, get the point of the reference on their
    # constraint lists: each pair program and each one-sided try
    systems = []
    point = geometry._ModuleSetup.point

    def recording(setup, p, strict, rows):
        z = point(setup, p, strict, rows)
        systems.append((strict, program_constraints(setup, p, strict, rows), setup.t, z))
        return z

    monkeypatch.setattr(geometry._ModuleSetup, "point", recording)
    golden = json.loads((Path(__file__).parent / "golden" / "equations.json").read_text())
    for eq in [ex1, ex2, nrm, skew, sys1, sys2] + [PLDE.from_json(d) for d in golden.values()]:
        combined_bound(eq)
    for _, constraints, nvars, z in systems:
        assert z == fourier_motzkin(constraints, nvars), constraints
    pairs = [nvars for strict, _, nvars, _ in systems if strict]
    assert len(pairs) >= 300 and set(pairs) == {1, 2, 3, 4}
    one_sided = [z is not None for strict, _, _, z in systems if not strict]
    assert len(one_sided) >= 150 and 80 <= sum(one_sided) < len(one_sided), one_sided


def _program_equations(bundled, base):
    """The bundled and golden equations, then 12 seeded ones for each r = 2, 3, 4.

    The seeded supports have up to 9, 12 and 8 points on {0,1,2}^r, from
    seeds base * r + 0, ..., base * r + 11.
    """
    golden = json.loads((Path(__file__).parent / "golden" / "equations.json").read_text())
    equations = bundled + [PLDE.from_json(d) for d in golden.values()]
    for r, variables, most in ((2, ("n", "k"), 9), (3, ("n", "k", "m"), 12),
                               (4, ("n", "k", "m", "j"), 8)):
        profile = InstanceProfile(
            variables=variables, support_points=tuple(itertools.product(range(3), repeat=r)),
            min_terms=3, max_terms=most, max_den_factors=1,
            denominator_pool=("+".join(variables) + "+1", "2*n+k+1", "n*k+1", "n^2+k+1"),
            coefficient_pool=("1", "-1", "n", "k+2"))
        equations += [random_instance(base * r + seed, profile)[0] for seed in range(12)]
    return equations


def test_pair_programs_match_lp_feasible_on_their_constraint_lists(ex1, ex2, nrm, skew, sys1,
                                                                  sys2):
    # every ordered corner pair of every module that combined_bound
    # classifies, on the bundled and golden equations and on seeded supports
    # of up to 12 points on {0,1,2}^r, gets from the cone continued per
    # corner the verdict and certificate that lp_feasible gives on the pair's
    # constraint list built from scratch
    equations = _program_equations([ex1, ex2, nrm, skew, sys1, sys2], 1000)
    pairs = found = 0
    for eq in equations:
        report = combined_bound(eq)
        fresh = SupportGeometry(eq.support)
        corners = fresh.corners
        for W in report.per_module:
            for p, p_prime in itertools.permutations(corners, 2):
                cert = report.geometry.witness(p, p_prime, W)
                assert cert == reference_witness(fresh, p, p_prime, W), (eq.support, W, p, p_prime)
                pairs += 1
                found += cert is not None
    assert len(equations) == 78 and pairs >= 20000 and found >= 3000, (pairs, found)


def test_one_sided_programs_match_lp_feasible_on_their_constraint_lists(ex1, ex2, nrm, skew,
                                                                       sys1, sys2):
    # every corner of every module that combined_bound classifies, every face
    # module and six seeded random modules, on the bundled and golden
    # equations and on seeded supports of up to 12 points on {0,1,2}^r, gets
    # from the corner's one-sided cone, continued by each unit row in turn,
    # the certificate that lp_feasible gives on the one-sided constraint
    # list built from scratch
    equations = _program_equations([ex1, ex2, nrm, skew, sys1, sys2], 2000)
    rng = random.Random(513)
    cases = found = later = 0
    ranks = set()
    for eq in equations:
        r = len(eq.variables)
        geo, fresh = SupportGeometry(eq.support), SupportGeometry(eq.support)
        modules = set(combined_bound(eq).per_module) | set(geo.face_parallel_modules())
        modules |= {IntLattice(r, [[rng.randint(-2, 2) for _ in range(r)]
                                   for _ in range(rng.randint(0, r - 1))]) for _ in range(6)}
        for W in modules:
            setup = geo._setup(W)
            for p in geo.corners:
                cert = geo._weak(setup, p)
                expected, z = reference_weak(fresh, p, W)
                assert cert == expected, (eq.support, W, p)
                cases += 1
                if cert is not None:
                    found += 1
                    later += -1 < z[0] < 1
                    ranks.add(setup.t)
    assert len(equations) == 78 and cases >= 5000 and found >= 2500, (cases, found)
    # some certificates come after the first unit direction, and every t occurs
    assert later >= 30 and ranks == {1, 2, 3, 4}, (later, ranks)


def test_saturation_test_matches_the_double_complement():
    # a module setup skips the saturation of a module that the gcd of its
    # maximal minors shows saturated; the verdict agrees with saturation()
    rng = random.Random(512)
    seen = Counter()
    for _ in range(400):
        r = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(0, r))]
        W = IntLattice(r, rows)
        assert geometry._saturated(W) == (saturation(W) == W), W
        seen[geometry._saturated(W)] += 1
    assert min(seen[True], seen[False]) >= 50, seen


# ----------------------------------------------------------------------
# witnesses


def test_witness_square_diagonal():
    cert = SupportGeometry(SYS1_S).witness((0, 0), (1, 1), L((1, -1)))
    assert cert is not None
    assert cert.u == (1, 1)
    assert cert.min_face == frozenset([(0, 0)])
    assert cert.max_face == frozenset([(1, 1)])


def test_witness_blocked_by_congruent_max_face():
    assert SupportGeometry(EX1_S).witness((0, 0), (0, 1), L((1, -1))) is None


def test_witness_skew_module():
    cert = SupportGeometry(EX1_S).witness((1, 0), (0, 1), L((1, 2)))
    assert cert is not None
    values = {s: sum(a * b for a, b in zip(s, cert.u)) for s in EX1_S}
    assert values[(1, 0)] < values[(0, 0)] < values[(0, 1)]
    assert cert.min_face == frozenset([(1, 0)])
    assert cert.max_face == frozenset([(0, 1)])


def test_witness_certificates_verify_on_random_supports():
    rng = random.Random(503)
    mods = [L((1, -1)), L((1, 0)), L((0, 1)), L((2, 1)), IntLattice.zero(2)]
    done = 0
    while done < N_CASES:
        pts = list({(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 6))})
        if len(pts) < 2:
            continue
        W = rng.choice(mods)
        corners = sorted(SupportGeometry(pts).corners)
        p = rng.choice(corners)
        p2 = rng.choice([c for c in corners if c != p] or corners)
        if p2 == p:
            continue
        cert = SupportGeometry(pts).witness(p, p2, W)
        if cert is not None:
            cert.check(pts, W)  # raises on any violated postcondition
        done += 1


# ----------------------------------------------------------------------
# classification


def test_classify_golden_cases():
    assert SupportGeometry(EX2_S).classify(L((1, -1))).kind == CLASS_UNCOVERED
    assert SupportGeometry(EX1_S).classify(L((1, -1))).kind == CLASS_OPPOSITE_ONLY
    assert SupportGeometry(SYS1_S).classify(L((1, 0))).kind == CLASS_UNCOVERED
    assert SupportGeometry(SYS1_S).classify(L((0, 1))).kind == CLASS_UNCOVERED
    assert SupportGeometry(SYS1_S).classify(L((1, -1))).kind == CLASS_USEFUL
    assert SupportGeometry(SYS2_S).classify(L((1, 1))).kind == CLASS_UNCOVERED


def test_classify_zero_module_is_useful():
    for pts in (EX1_S, EX2_S, SYS1_S, SYS2_S):
        assert SupportGeometry(pts).classify(IntLattice.zero(2)).kind == CLASS_USEFUL


def test_classify_full_module_is_uncovered():
    assert SupportGeometry(SYS1_S).classify(IntLattice.full(2)).kind == CLASS_UNCOVERED


def test_classify_decides_each_module_once(monkeypatch):
    # the class of a module is kept with its setup: a second classify of the
    # same W returns the same object and runs no program, neither a pair
    # program nor a one-sided (weak) program of an opposite-only module
    calls = [0]
    point = geometry._ModuleSetup.point

    def counting(setup, p, strict, rows):
        calls[0] += 1
        return point(setup, p, strict, rows)

    monkeypatch.setattr(geometry._ModuleSetup, "point", counting)
    first_lps = Counter()
    for pts, W in ((EX1_S, IntLattice.zero(2)), (EX1_S, L((1, -1))), (EX2_S, L((1, -1))),
                   (SYS1_S, L((1, -1))), (SYS1_S, L((1, 0))), (SYS2_S, L((1, 1))),
                   (SYS1_S, IntLattice.full(2))):
        geo = SupportGeometry(pts)
        calls[0] = 0
        first = geo.classify(W)
        first_lps[first.kind] += calls[0]
        calls[0] = 0
        assert geo.classify(W) is first and calls[0] == 0, (pts, W)
    # the uncovered modules here are decided by congruence classes alone
    assert set(first_lps) == {CLASS_USEFUL, CLASS_OPPOSITE_ONLY, CLASS_UNCOVERED}
    assert first_lps == {CLASS_USEFUL: 2, CLASS_OPPOSITE_ONLY: 1, CLASS_UNCOVERED: 0}


def test_useful_implies_singleton_faces_in_rank_one():
    # for r=2 and a rank-1 module both certificate faces must be singletons
    rng = random.Random(504)
    mods = [L((1, -1)), L((1, 0)), L((0, 1)), L((1, 1)), L((2, 1))]
    done = 0
    while done < N_CASES:
        pts = list({(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 6))})
        if len(pts) < 2:
            continue
        W = rng.choice(mods)
        cls = SupportGeometry(pts).classify(W)
        if cls.kind == CLASS_USEFUL and W.rank == 1:
            assert len(cls.certificate.min_face) == 1
            assert len(cls.certificate.max_face) == 1
        done += 1


def test_weak_certificates_on_supports_without_useful_pairs(monkeypatch):
    # classify reaches the one-sided search only when no corner pair is
    # useful; a weak certificate must make p the unique minimal point of
    # its congruence class, with every level u . (s - p) >= 0, and it must
    # exist whenever a small integer covector with those levels does
    rng = random.Random(505)
    weak = SupportGeometry._weak
    reached = []

    def recording(self, setup, p):
        cert = weak(self, setup, p)
        reached.append((self.points, setup.W, p, cert))
        return cert

    monkeypatch.setattr(SupportGeometry, "_weak", recording)
    mods2 = [L((1, -1)), L((1, 0)), L((0, 1)), L((1, 1)), L((2, 1))]
    mods3 = [L((1, -1, 0), dim=3), L((0, 0, 1), dim=3), L((1, 0, 0), (0, 1, -1), dim=3)]
    for _ in range(N_CASES):
        r = rng.choice([2, 3])
        pts = list({tuple(rng.randint(0, 2) for _ in range(r)) for _ in range(rng.randint(2, 6))})
        if len(pts) >= 2:
            SupportGeometry(pts).classify(rng.choice(mods2 if r == 2 else mods3))
    found = 0
    for points, W, p, cert in reached:
        r = len(p)
        classes = {s: [t for t in points if W.contains([a - b for a, b in zip(s, t)])]
                   for s in points}
        box = [u for u in itertools.product(range(-3, 4), repeat=r)
               if any(u) and not any(sum(a * b for a, b in zip(u, w)) for w in W.basis)]
        small = [u for u in box
                 if all(sum(a * (x - y) for a, x, y in zip(u, s, p)) >= (len(classes[s]) > 1)
                        for s in points if s != p)]
        if cert is None:
            assert not small or len(classes[p]) > 1, (points, W, p)
            continue
        found += 1
        assert len(classes[p]) == 1 and not any(sum(a * b for a, b in zip(cert.u, w))
                                                for w in W.basis)
        levels = {s: sum(a * (x - y) for a, x, y in zip(cert.u, s, p)) for s in points}
        assert min(levels.values()) == 0
        assert cert.min_face == frozenset(s for s, v in levels.items() if v == 0)
        assert all(not W.contains([x - y for x, y in zip(a, b)])
                   for a, b in itertools.combinations(sorted(cert.min_face), 2))
    assert found >= 20 and len(reached) > found


# ----------------------------------------------------------------------
# face-parallel candidates


def test_face_modules_quadrilateral():
    assert (SupportGeometry(EX2_S).face_parallel_modules()
            == sorted([L((1, 0)), L((1, -1))], key=lambda x: x.key()))


def test_face_modules_square():
    assert set(SupportGeometry(SYS1_S).face_parallel_modules()) == {L((1, 0)), L((0, 1))}


def test_face_modules_segment():
    assert SupportGeometry([(1, 0), (0, 1)]).face_parallel_modules() == [L((1, -1))]


def test_face_modules_3d():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    mods = SupportGeometry(pts).face_parallel_modules()
    facet = IntLattice(3, [(1, 0, 0), (0, 1, 0)])
    assert facet in mods
    assert any(m.rank == 1 for m in mods)


def test_face_modules_match_the_all_pairs_search(monkeypatch):
    # the face enumeration finds every edge module the all-pairs LP
    # reference finds, and the facets of r = 3 supports, with no program at all
    lps = []
    point = geometry._ModuleSetup.point
    monkeypatch.setattr(geometry._ModuleSetup, "point",
                        lambda *args: lps.append(args) or point(*args))
    rng = random.Random(506)
    compared = with_inner_points = 0
    for r, side, most in ((2, 3, 8), (3, 2, 8), (4, 1, 7)):
        grid = list(itertools.product(range(side + 1), repeat=r))
        for _ in range(70):
            pts = rng.sample(grid, rng.randint(2, most))
            corners = len(SupportGeometry(pts).corners)
            del lps[:]
            mods = SupportGeometry(pts).face_parallel_modules()
            assert not lps
            assert mods == face_parallel_modules_all_pairs(pts)
            compared += 1
            with_inner_points += corners < len(pts)
    assert compared == 210 and with_inner_points >= 40


def _degenerate_support(rng, r, dim, size):
    """Distinct points of Z^r whose affine hull has dimension at most dim."""
    base = [rng.randint(-2, 2) for _ in range(r)]
    dirs = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(dim)]
    return sorted({tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
                   for cs in (tuple(rng.randint(-2, 2) for _ in range(dim))
                              for _ in range(size))})


def test_face_enumeration_matches_lp_reference():
    # corners, edges and face modules from one double description equal the
    # LP reference: one LP per point for corners and one per corner pair for
    # edges; degenerate supports (one point, two points, collinear, in a
    # plane or a hyperplane) are seen in their affine hulls
    rng = random.Random(508)
    dims = {}
    # (dimension at most, points) of the degenerate shapes, then random supports
    shapes = [(0, 1), (1, 2), (1, 5), (2, 7), (3, 9), None]
    for case in range(360):
        r = 1 + case % 4
        shape = shapes[case // 4 % len(shapes)]
        if shape is not None:
            pts = _degenerate_support(rng, r, *shape)
        else:
            pts = sorted({tuple(rng.randint(0, 3) for _ in range(r))
                          for _ in range(rng.randint(2, 10))})
        g = SupportGeometry(pts)
        corners = sorted(reference_corner_points(pts))
        assert g.corners == corners, pts
        assert g._hull().edges() == [(a, b) for a, b in itertools.combinations(corners, 2)
                                     if reference_is_edge(pts, a, b)], pts
        assert g.face_parallel_modules() == face_parallel_modules_all_pairs(pts), pts
        dims[r, g._hull().dim] = dims.get((r, g._hull().dim), 0) + 1
    # every affine dimension occurs for every r
    assert all(dims.get((r, k), 0) >= 5 for r in range(1, 5) for k in range(r + 1)), dims


def test_all_useful_pairs_contains_both_orientations():
    certs = list(SupportGeometry(SYS1_S).useful_pairs(L((1, -1))))
    pairs = {(c.p, c.p_prime) for c in certs}
    assert ((0, 0), (1, 1)) in pairs and ((1, 1), (0, 0)) in pairs
