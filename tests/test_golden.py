"""Golden reports: combined_bound must reproduce every stored report byte for byte.

The stored text of each report is ``json.dumps(report.to_json(),
sort_keys=True)``, so witness covectors, pair choices, dispersions and
factor order are all pinned.  The inputs are the bundled equations and
seeded ``random_instance`` equations (tests/support.py), and the dispersion
family at strip widths the bench does not reach, and once with rational
units and a nonconstant right-hand side; the JSON of the generated
equations is stored alongside so that the cases do not depend on the generator.

``strips.json`` pins every strip that those reports run: the corner p, the
dispersion s, the covector u and the whole `bounds.StripResult` (Rminus,
Rplus, D_actual, origins, terms and b) of each strip, in the order the
bound runs them.

To rewrite the files after an intended change of the reports:

    PYTHONPATH=src python tests/test_golden.py
"""

import itertools
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
BUNDLED = ("ex1", "ex2", "nrm", "skew", "sys1", "sys2")


def _profiles():
    from support import InstanceProfile

    r2 = InstanceProfile(
        variables=("n", "k"),
        support_points=tuple(itertools.product(range(3), repeat=2)),
        min_terms=3, max_terms=5,
        denominator_pool=("k+n+1", "2*k+3*n+1", "4*k-2*n+1", "n+1", "n-k+2", "n^2+n+1",
                          "n*k+1"),
        coefficient_pool=("1", "-1", "2", "n", "k+1", "n+k+2"))
    r3 = InstanceProfile(
        variables=("n", "k", "m"),
        support_points=tuple(itertools.product(range(2), repeat=3)),
        min_terms=3, max_terms=6,
        denominator_pool=("n+k+m+1", "2*n+k+1", "k+m+1", "n-m+2", "n^2+m+1", "n*k+m+1"),
        numerator_pool=("1", "n", "k+m", "m^2+1"),
        coefficient_pool=("1", "-1", "2", "n", "k+1", "m+n+2"))
    r1 = InstanceProfile(
        variables=("n",),
        support_points=tuple((i,) for i in range(4)),
        min_terms=2, max_terms=4,
        denominator_pool=("n+1", "2*n+1", "n+3", "n^2+n+1", "3*n-2"),
        numerator_pool=("1", "n", "n^2+1"),
        coefficient_pool=("1", "-1", "2", "n", "n+2"))
    r4 = InstanceProfile(
        variables=("n", "k", "m", "j"),
        support_points=tuple(itertools.product(range(2), repeat=4)),
        min_terms=3, max_terms=5,
        denominator_pool=("n+k+m+j+1", "n-j+2", "k+m+1", "2*n+k+1", "n^2+j+1", "n*k+m+1"),
        numerator_pool=("1", "n", "k+j", "m^2+1"),
        coefficient_pool=("1", "-1", "2", "n", "k+1", "j+m+2"))
    # the shape of the bench's geometry workload: r = 3 with 9-12 points and
    # r = 4 with 6-8 points on the grid {0,1,2}^r, one denominator factor at most
    g3 = InstanceProfile(
        variables=("n", "k", "m"),
        support_points=tuple(itertools.product(range(3), repeat=3)),
        min_terms=9, max_terms=12,
        denominator_pool=("n+k+m+1", "2*n+k+1", "k+m+1", "n^2+m+1", "n*k+m+1"),
        numerator_pool=("1", "n", "k+m", "m^2+1"),
        max_den_factors=1,
        coefficient_pool=("1", "-1", "2", "n", "k+1", "m+n+2"))
    g4 = InstanceProfile(
        variables=("n", "k", "m", "j"),
        support_points=tuple(itertools.product(range(3), repeat=4)),
        min_terms=6, max_terms=8,
        denominator_pool=("n+k+m+j+1", "2*n+k+1", "k+m+1", "n^2+j+1", "n*k+m+j^2+1"),
        numerator_pool=("1", "n", "k+j"),
        max_den_factors=1,
        coefficient_pool=("1", "-1", "2", "n", "j+2"))
    return {"r1": r1, "r2": r2, "r3": r3, "r4": r4, "g3": g3, "g4": g4}


# (profile, seed) of the generated cases
GENERATED = (tuple(("r2", seed) for seed in range(1, 11))
             + tuple(("r3", seed) for seed in range(1, 11))
             + tuple(("r1", seed) for seed in range(1, 6))
             + tuple(("r4", seed) for seed in (1, 5, 6, 7, 10))
             # g3-17 and g4-9 have an aperiodic factor at every corner
             + (("g3", 17), ("g3", 18), ("g4", 9), ("g4", 10)))
# dispersions s of the family q = (n+k+1)(n+k+1+s)(3n+2k+1), wider than the bench's s <= 6
WIDE = (12, 16)
# dispersions s of the same family with rational units and the solution 6(n+1)/q, so that the
# strips divide by units other than 1 and multiply by a nonconstant right-hand side
UNITS = (8,)


def _units_family(s):
    from fractions import Fraction

    from support import dispersion_family

    return dispersion_family(s, signs=(Fraction(-3, 2), 1, Fraction(1, 3), 2), numerator="6*n+6")


def _case_names():
    return (list(BUNDLED) + ["%s-%d" % case for case in GENERATED]
            + ["dispersion-%d" % s for s in WIDE] + ["dispersion-units-%d" % s for s in UNITS])


def _equation(name):
    from plde.equation import PLDE, load_equation

    if name in BUNDLED:
        return load_equation(ROOT / "equations" / ("%s.json" % name))
    generated = json.loads((GOLDEN / "equations.json").read_text())
    return PLDE.from_json(generated[name])


def _report_text(eq):
    from plde.bounds import combined_bound

    return json.dumps(combined_bound(eq).to_json(), sort_keys=True) + "\n"


def test_golden_reports_are_byte_identical():
    for name in _case_names():
        expected = (GOLDEN / ("%s.json" % name)).read_text()
        assert _report_text(_equation(name)) == expected, name


def _strip_records(name):
    """Every strip that combined_bound runs on the case name, as JSON records."""
    import plde.bounds
    from plde.polyring import format_poly

    records = []
    original = plde.bounds.strip_rewrite

    def recording(eq, p, s, u, orbits=None):
        strip = original(eq, p, s, u, orbits)
        records.append({
            "p": list(p), "s": s, "u": list(u),
            "Rminus": [list(i) for i in strip.Rminus],
            "Rplus": [list(i) for i in strip.Rplus],
            "D_actual": strip.D_actual.to_json(),
            "origins": [[format_poly(f), format_poly(strip.origins[f])]
                        for f, _ in strip.D_actual.factors],
            "terms": [[list(i), format_poly(strip.terms[i])] for i in sorted(strip.terms)],
            "b": format_poly(strip.b)})
        return strip

    plde.bounds.strip_rewrite = recording
    try:
        plde.bounds.combined_bound(_equation(name))
    finally:
        plde.bounds.strip_rewrite = original
    return records


def _strips_text():
    return json.dumps({name: _strip_records(name) for name in _case_names()},
                      sort_keys=True) + "\n"


def test_golden_strips_are_identical():
    # every StripResult of the golden and bundled equations, not only the
    # part of it that reaches a report
    expected = json.loads((GOLDEN / "strips.json").read_text())
    assert sum(map(len, expected.values())) == 81
    for name in _case_names():
        assert _strip_records(name) == expected[name], name


def _known_solution(name):
    """(eq, y, q): the equation of a case, a known solution y and its factored denominator q."""
    from support import bundled_solution, dispersion_family, random_instance

    if name in BUNDLED:
        eq = _equation(name)
        return (eq,) + bundled_solution(eq, name)
    kind, number = name.rsplit("-", 1)
    if kind == "dispersion":
        return dispersion_family(int(number))
    if kind == "dispersion-units":
        return _units_family(int(number))
    return random_instance(int(number), _profiles()[kind])


def test_check_reads_the_orbits_it_would_compute():
    # check_bound_covers reads spread modules and orbit keys from the registry
    # report.orbits that the bound filled; each entry, those the check added
    # included, is what shift_orbit computes afresh
    from plde.bounds import combined_bound
    from plde.spread import shift_orbit
    from plde.verify import check_bound_covers

    for name in _case_names():
        eq, y, q = _known_solution(name)
        assert eq.to_json() == _equation(name).to_json(), name
        report = combined_bound(eq)
        assert all(v["ok"] for v in check_bound_covers(eq, y, q, report).values()), name
        assert all(f in report.orbits for f, _ in q.factors), name
        for p, orbit in report.orbits.items():
            assert orbit == shift_orbit(p), (name, p)


def test_check_reads_the_classes_it_would_compute(monkeypatch):
    # check_bound_covers reads each module's class from report.geometry, the
    # SupportGeometry of the bound: when every factor's module was classified
    # by the bound, the check runs no program, neither a pair program nor a
    # one-sided one, and builds no geometry of its own;
    # each class it reads is what a fresh SupportGeometry computes, and the
    # report's per_module entries agree with the geometry's classes
    import plde.geometry
    from plde.bounds import combined_bound
    from plde.geometry import SupportGeometry
    from plde.verify import check_bound_covers
    from support import homogeneous_instance, random_instance

    counts = Counter()
    point = plde.geometry._ModuleSetup.point
    init = SupportGeometry.__init__

    def counting_program(setup, p, strict, rows):
        counts["program"] += 1
        return point(setup, p, strict, rows)

    def counting_init(self, points):
        counts["geometry"] += 1
        init(self, points)

    monkeypatch.setattr(plde.geometry._ModuleSetup, "point", counting_program)
    monkeypatch.setattr(SupportGeometry, "__init__", counting_init)
    cases = [(name,) + _known_solution(name) for name in _case_names()]
    cases += [("random-%d" % seed,) + random_instance(seed) for seed in range(1, 31)]
    cases += [("homogeneous-%d" % seed,) + homogeneous_instance(seed) for seed in range(1, 31)]
    free = 0
    for name, eq, y, q in cases:
        report = combined_bound(eq)
        modules = {report.orbits[f][2] for f, _ in q.factors}
        counts.clear()
        assert all(v["ok"] for v in check_bound_covers(eq, y, q, report).values()), name
        if modules <= report.per_module.keys():
            assert not counts, (name, counts)
            free += 1
        for W in modules:
            assert SupportGeometry(eq.support).classify(W) == report.geometry.classify(W), (name, W)
        for W, entry in report.per_module.items():
            cls = report.geometry.classify(W)
            assert cls.kind == entry.kind, (name, W)
            assert W.is_zero() or cls.certificate == entry.certificate, (name, W)
    assert free == len(cases)


def test_golden_set_has_non_axis_witnesses():
    # the stored covectors must exercise the LP point rule, not only unit vectors
    witnesses = set()
    for name in _case_names():
        report = json.loads((GOLDEN / ("%s.json" % name)).read_text())
        witnesses.update(tuple(m["witness"]) for m in report["modules"] if "witness" in m)
    non_axis = [u for u in witnesses if sum(1 for x in u if x) > 1]
    assert len(non_axis) >= 3


def write_golden():
    from support import dispersion_family, random_instance

    GOLDEN.mkdir(exist_ok=True)
    profiles = _profiles()
    generated = {}
    for profile, seed in GENERATED:
        eq, _, _ = random_instance(seed, profiles[profile])
        generated["%s-%d" % (profile, seed)] = eq.to_json()
    for s in WIDE:
        generated["dispersion-%d" % s] = dispersion_family(s)[0].to_json()
    for s in UNITS:
        generated["dispersion-units-%d" % s] = _units_family(s)[0].to_json()
    (GOLDEN / "equations.json").write_text(json.dumps(generated, indent=1, sort_keys=True) + "\n")
    for name in _case_names():
        (GOLDEN / ("%s.json" % name)).write_text(_report_text(_equation(name)))
    (GOLDEN / "strips.json").write_text(_strips_text())


if __name__ == "__main__":
    sys.exit(write_golden())
