import dataclasses
import itertools
from fractions import Fraction

import pytest

from plde.bounds import combined_bound
from plde.equation import PLDE, load_equation
from plde.factored import FactoredPoly
from plde.polyring import Poly, RationalFunction, divide_exact, parse_poly, parse_rational
from plde.verify import _cancel, _residual, check_bound_covers, check_solution
from support import (VARS2, InstanceProfile, ReducedRational, add_poly, factored_mul,
                     homogeneous_instance, mul_poly, random_instance, reference_check_solution,
                     reference_residual, same_rational)

N_CASES = 200


def P(text):
    return parse_poly(text, VARS2)


# ----------------------------------------------------------------------
# solution checking


def test_check_solution_accepts_known_solutions(ex1, ex2, nrm):
    y = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    assert check_solution(ex1, y).ok
    assert check_solution(ex2, y).ok
    assert check_solution(nrm, parse_rational("(3*k^2-4*n*k+2*n^2)/(n+1)", VARS2)).ok


def test_check_solution_rejects_constant(ex1):
    result = check_solution(ex1, parse_rational("1", VARS2))
    assert not result.ok
    # the residual of y=1 is the coefficient sum
    total = Poly.zero(VARS2)
    for s in ex1.support:
        total = total + ex1.terms[s].expand()
    assert result.residual.num == total and result.residual.den == Poly.one(VARS2)


def test_check_solution_system(sys1, sys2):
    # the verdict is exact whether the denominator is declared factor by factor or as one product
    big = "(n+k+1)*(n+k+2)*(n+k+3)*(n^2+n+1)*(n^2+3*n+3)*(3*n+2*k+1)"
    for y in (parse_rational("1/(%s)" % big, VARS2), RationalFunction(Poly.one(VARS2), [(P(big), 1)])):
        assert check_solution(sys1, y).ok
        assert check_solution(sys2, y).ok


R3 = InstanceProfile(
    variables=("n", "k", "m"),
    support_points=((0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)),
    min_terms=2, max_terms=5,
    denominator_pool=("n+k+m+1", "2*n+k+1", "n^2+m+1", "n*k+m+1"),
    numerator_pool=("1", "n", "k+m", "m^2+1"),
    coefficient_pool=("1", "-1", "2", "n", "k+1", "m+n+2"))


def _scaled(eq, c):
    """eq with every coefficient and the right-hand side multiplied by c; same solutions."""
    unit = FactoredPoly(eq.variables, c)
    return PLDE(eq.variables, {s: factored_mul(a, unit) for s, a in eq.terms.items()}, eq.rhs * c)


def _candidates(y, q):
    """y, three non-solutions near it, 0 and y + 3/2 with an unreduced denominator.

    Every candidate declares irreducible factors, so its residual is in lowest terms.
    """
    vars = y.num.vars
    one = Poly.one(vars)
    yield y
    yield add_poly(y, one)
    yield add_poly(mul_poly(y, Fraction(3, 7)), one)
    if q.factors:
        f = q.factors[0][0]
        moved = f.shift((1,) + (0,) * (len(vars) - 1))
        factors = dict(y.factors)
        factors[f] -= 1
        yield RationalFunction(y.num, [(moved, 1)] + [(g, m) for g, m in factors.items() if m])
    yield RationalFunction(Poly.zero(vars))
    # the constructor makes denominators primitive; this one has content 2/3
    raw = object.__new__(RationalFunction)
    raw.num, raw.den = y.num * Fraction(2, 3) + y.den, y.den * Fraction(2, 3)
    raw.factors = y.factors
    yield raw


def _same_reduced(got, residual):
    """Whether a residual of check_solution is the reference's, in lowest terms and printed alike."""
    return ((got.num, got.den) == (residual.num, residual.den)
            and str(got) == str(residual))


def test_check_solution_matches_quadratic_reference():
    checked = solved = 0
    for seed in range(1, 25):
        profile = R3 if seed % 6 == 0 else InstanceProfile()
        eq, y, q = (random_instance(seed, profile) if seed % 2
                    else homogeneous_instance(seed, profile))
        for eq in (eq, _scaled(eq, Fraction(-5, 3))):
            for cand in _candidates(y, q):
                got = check_solution(eq, cand)
                residual, ok = reference_check_solution(eq, cand)
                assert got.ok == ok, (seed, str(cand))
                assert _same_reduced(got.residual, residual), (seed, str(cand))
                checked += 1
                solved += ok
    assert solved >= 48 and checked - solved >= 120


# the shapes of the bench's geometry workload: r = 3 supports of 9-12
# points on a 3x3x3 grid and r = 4 supports of 6-8 points on a 3^4 grid
GEOMETRY_R3 = InstanceProfile(
    variables=("n", "k", "m"), support_points=tuple(itertools.product(range(3), repeat=3)),
    min_terms=9, max_terms=12, max_den_factors=1,
    denominator_pool=("n+k+m+2", "2*n+k+1", "k+m+3", "n^2+m+1", "n*k+m+2"),
    numerator_pool=("1", "n", "k+m", "m^2+1"),
    coefficient_pool=("2", "-3", "n", "k+1", "m+n+2"))
GEOMETRY_R4 = InstanceProfile(
    variables=("n", "k", "m", "l"), support_points=tuple(itertools.product(range(3), repeat=4)),
    min_terms=6, max_terms=8, max_den_factors=1,
    denominator_pool=("n+k+m+l+1", "2*n+k+3", "k+m+2", "n^2+l+1"),
    numerator_pool=("1", "n", "k+l"),
    coefficient_pool=("1", "-2", "n", "l+3"))


def _same_residual(eq, cand):
    """Whether _residual agrees with the reference: the same zero test, and equal
    fractions by cross-multiplication, which is exact and needs no gcd."""
    total, common = _residual(eq, cand)
    ref_total, ref_common = reference_residual(eq, cand)
    if common is None:
        return ref_total.is_zero()
    return not ref_total.is_zero() and total * ref_common == ref_total * common


def test_check_solution_matches_reference_on_geometry_shapes():
    shapes = set()
    for seed in range(1, 19):
        profile = GEOMETRY_R3 if seed % 2 else GEOMETRY_R4
        eq, y, q = random_instance(seed, profile)
        if not q.factors:
            continue
        got = check_solution(eq, y)
        residual, ok = reference_check_solution(eq, y)
        assert got.ok and ok and _same_reduced(got.residual, residual), seed
        wrong = add_poly(y, Poly.one(eq.variables))
        assert _residual(eq, wrong)[1] is not None, seed
        assert _same_residual(eq, wrong), seed
        # the PRS gcd reduces the cancelled residual to what the shifted prims leave
        got = check_solution(eq, wrong)
        assert not got.ok and _same_reduced(got.residual, ReducedRational(*_residual(eq, wrong))), seed
        shapes.add((len(eq.variables), len(eq.support)))
    assert {m for r, m in shapes if r == 3} >= {10, 12}
    assert {m for r, m in shapes if r == 4} >= {6, 8}


BUNDLED_SOLUTIONS = {
    "ex1": "(n^2+2*k^2)/(k+n+1)",
    "ex2": "(n^2+2*k^2)/(k+n+1)",
    "nrm": "(3*k^2-4*n*k+2*n^2)/(n+1)",
    "skew": "1/(n+k+1)",
    "sys1": "1/((n+k+1)*(n+k+2)*(n+k+3)*(3*n+2*k+1)*(n^2+n+1)*(n^2+3*n+3))",
    "sys2": "1/((n+k+1)*(n+k+2)*(n+k+3)*(3*n+2*k+1)*(n^2+n+1)*(n^2+3*n+3))",
}


def test_cancelled_residual_matches_reference_differentially(eqdir):
    # y, y + 1 and y * (n + 2) on seeded instances with r = 2, 3 and 4 and on
    # the bundled files: the same verdict and the same residual as the
    # reference, which clears denominators over all m shifted copies of D
    instances = []
    for seed in range(1, 9):
        for profile in (InstanceProfile(), R3, GEOMETRY_R3, GEOMETRY_R4):
            eq, y, _ = random_instance(seed, profile)
            instances.append((eq, y))
    for name, text in BUNDLED_SOLUTIONS.items():
        eq = load_equation(eqdir / ("%s.json" % name))
        instances.append((eq, parse_rational(text, eq.variables)))
    solved = 0
    for eq, y in instances:
        vars = eq.variables
        assert check_solution(eq, y).ok, str(eq)
        for cand in (y, add_poly(y, Poly.one(vars)),
                     mul_poly(y, Poly.variable(vars, vars[0]) + Poly.const(vars, 2))):
            assert _same_residual(eq, cand), (str(eq), str(cand))
            ok = check_solution(eq, cand).ok
            assert ok == reference_residual(eq, cand)[0].is_zero(), (str(eq), str(cand))
            solved += ok
    assert len(instances) == 38 and solved >= 38


def test_residual_has_one_denominator_per_distinct_cancelled_denominator(sys1, sys2):
    # y + 1 for the known solution y of sys1 and sys2: the cancel leaves two
    # distinct denominators at the four support points, each twice, so the
    # common denominator is the product of the two, of degree 12 and 10, not
    # the product over all points (24 and 20); the reduced residual is a
    # polynomial
    y = parse_rational(BUNDLED_SOLUTIONS["sys1"], VARS2)
    cand = add_poly(y, Poly.one(VARS2))
    for eq, degree, residual in ((sys1, 12, "22*n+16*k+33"), (sys2, 10, "34*n+8*k+68")):
        assert _residual(eq, cand)[1].total_degree() == degree
        got = check_solution(eq, cand)
        assert not got.ok and str(got.residual) == residual
        assert _same_residual(eq, cand)


def _pair_equation(a0, a1, rhs):
    """a0 * y(n, k) + a1 * y(n + 1, k) = rhs over (n, k), coefficients as (unit, [(text, mult)])."""
    terms = {s: FactoredPoly(VARS2, unit, [(P(t), m) for t, m in factors])
             for s, (unit, factors) in (((0, 0), a0), ((1, 0), a1))}
    return PLDE(VARS2, terms, P(rhs))


def test_cancel_stops_at_the_coefficients_multiplicity():
    # D(n) = (n+k+1)^2 but A_(0,0) holds n+k+1 once: one factor is left on each side
    a = FactoredPoly(VARS2, 3, [(P("n+k+1"), 1), (P("n+2"), 1)])
    left, d = _cancel(a, P("(n+k+1)^2").terms)
    assert left == P("n+2").terms and d == P("n+k+1").terms
    # y = 1/(n+k+1)^2 leaves 3*(n+2)/(n+k+1) + 1, so no candidate here solves the equation
    eq = _pair_equation((3, [("n+k+1", 1), ("n+2", 1)]), (1, [("n+k+2", 2)]), "1")
    y = parse_rational("1/((n+k+1)^2)", VARS2)
    for cand in (y, mul_poly(y, P("n+k+1")), add_poly(y, Poly.one(VARS2))):
        got = check_solution(eq, cand)
        residual, ok = reference_check_solution(eq, cand)
        assert not ok and not got.ok and _same_reduced(got.residual, residual), str(cand)
        assert _same_residual(eq, cand)
    # y = 1/(k+1)^2 does not move under n -> n+1, so (k+1) * (y(n) - y(n+1)) = 0
    # although each coefficient holds k+1 only once
    solved = _pair_equation((1, [("k+1", 1)]), (-1, [("k+1", 1)]), "0")
    y = parse_rational("1/((k+1)^2)", VARS2)
    assert _residual(solved, y)[0].is_zero()
    assert check_solution(solved, y).ok and _same_residual(solved, y)
    assert not check_solution(solved, mul_poly(y, P("n"))).ok
    assert _same_residual(solved, mul_poly(y, P("n")))


def test_cancel_by_a_declared_reducible_factor():
    # n^2-1 is declared as a prim; it divides D(n) = (n+1)*(n-1) but not D(n) = n+1
    a = FactoredPoly(VARS2, 1, [(P("n^2-1"), 1)])
    assert _cancel(a, P("n+1").terms) == (P("n^2-1").terms, P("n+1").terms)
    assert _cancel(a, P("n^2-1").terms) == ({(0, 0): 1}, {(0, 0): 1})
    # (n^2-1) * y(n) - (n+2) * y(n+1) = n - 2 for y = 1/(n+1)
    eq = _pair_equation((1, [("n^2-1", 1)]), (-1, [("n+2", 1)]), "n-2")
    # n/(n^2-1) declares n^2-1 as one factor: its residual is the reference's
    # value, but only irreducible declared factors promise lowest terms
    for text, solves, irreducible in (("1/(n+1)", True, True), ("1/((n+1)*(n-1))", False, True),
                                      ("n/(n^2-1)", False, False),
                                      ("(n+1)/(n+k+1)", False, True)):
        cand = parse_rational(text, VARS2)
        got = check_solution(eq, cand)
        residual, ok = reference_check_solution(eq, cand)
        assert got.ok == ok == solves and same_rational(got.residual, residual), text
        assert not irreducible or _same_reduced(got.residual, residual), text
        assert _same_residual(eq, cand), text


# ----------------------------------------------------------------------
# coverage contract


def test_cover_cases_on_golden_examples(sys1, sys2, ex1, ex2):
    y = RationalFunction(Poly.one(VARS2),
                         [(P("(n+k+1)*(n+k+2)*(n+k+3)*(n^2+n+1)*(n^2+3*n+3)*(3*n+2*k+1)"), 1)])
    den = FactoredPoly(VARS2, 1, [(P("n+k+1"), 1), (P("n+k+2"), 1), (P("n+k+3"), 1),
                                  (P("n^2+n+1"), 1), (P("n^2+3*n+3"), 1),
                                  (P("3*n+2*k+1"), 1)])
    rep1 = combined_bound(sys1)
    rep2 = combined_bound(sys2)
    joined = rep1.d.lcm(rep2.d)
    # replace keeps each report's registry and support geometry for its check
    merged1 = dataclasses.replace(rep1, d=joined)
    merged2 = dataclasses.replace(rep2, d=joined)
    # each equation covers its own useful modules; the other's factors fall
    # into its uncovered directions, which is exactly why the lcm is needed
    v1 = check_bound_covers(sys1, y, den, merged1)
    v2 = check_bound_covers(sys2, y, den, merged2)
    assert all(v["ok"] for v in v1.values())
    assert all(v["ok"] for v in v2.values())
    for prim in (P("n+k+1"), P("n+k+2"), P("n+k+3"), P("3*n+2*k+1")):
        assert v1[prim]["case"] == 1
    for prim in (P("n^2+n+1"), P("n^2+3*n+3")):
        assert v1[prim]["case"] == 3 and v2[prim]["case"] == 1
    assert v2[P("n+k+1")]["case"] == 3
    # every factor of the printed solution is case 1 for at least one equation
    for prim, _ in den.factors:
        assert v1[prim]["case"] == 1 or v2[prim]["case"] == 1

    y1 = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    den1 = FactoredPoly(VARS2, 1, [(P("k+n+1"), 1)])
    v1 = check_bound_covers(ex1, y1, den1, combined_bound(ex1))
    assert v1[P("k+n+1")]["case"] == 2 and v1[P("k+n+1")]["ok"]

    v2 = check_bound_covers(ex2, y1, den1, combined_bound(ex2))
    assert v2[P("k+n+1")]["case"] == 3 and v2[P("k+n+1")]["ok"]


def test_cover_rejects_a_report_of_another_support(ex1, ex2):
    # the module classes come from the report's geometry, so a report of
    # another equation, or one without a geometry, must not be read
    y = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    den = FactoredPoly(VARS2, 1, [(P("k+n+1"), 1)])
    rep1 = combined_bound(ex1)
    with pytest.raises(ValueError, match="support geometry"):
        check_bound_covers(ex2, y, den, rep1)
    with pytest.raises(ValueError, match="support geometry"):
        check_bound_covers(ex1, y, den, dataclasses.replace(rep1, geometry=None))
    bare = type(rep1)(rep1.variables, rep1.d, rep1.P, rep1.per_module, rep1.uncovered,
                      rep1.warnings)
    with pytest.raises(ValueError, match="support geometry"):
        check_bound_covers(ex1, y, den, bare)
    assert check_bound_covers(ex1, y, den, rep1)[P("k+n+1")]["ok"]


def test_cover_rejects_a_report_of_another_equation(eqdir, sys1, ex1):
    # same supports, other coefficients: the verdicts would be read from the
    # d and P of an equation that the solution does not solve
    for seed, other in ((26, sys1), (47, ex1)):
        eq, y, q = random_instance(seed)
        assert eq.support == other.support and eq != other
        with pytest.raises(ValueError, match="support geometry"):
            check_bound_covers(eq, y, q, combined_bound(other))
        assert all(v["ok"] for v in check_bound_covers(eq, y, q, combined_bound(eq)).values())
    # an equal equation, loaded again, is the same equation
    y = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    den = FactoredPoly(VARS2, 1, [(P("k+n+1"), 1)])
    again = load_equation(eqdir / "ex1.json")
    assert again is not ex1 and again == ex1
    assert check_bound_covers(again, y, den, combined_bound(ex1))[P("k+n+1")]["ok"]


def test_cover_accepts_factorizations_up_to_a_constant(ex1):
    y = parse_rational("(n^2+2*k^2)/(k+n+1)", VARS2)
    rep = combined_bound(ex1)
    for unit in (1, -1, 3, Fraction(-2, 5)):
        den = FactoredPoly(VARS2, unit, [(P("k+n+1"), 1)])
        assert check_bound_covers(ex1, y, den, rep)[P("k+n+1")]["ok"], unit
    for factors in ([(P("k+n+1"), 2)], [(P("k+n+1"), 1), (P("n+1"), 1)], []):
        with pytest.raises(ValueError, match="denominator factorization does not match"):
            check_bound_covers(ex1, y, FactoredPoly(VARS2, 1, factors), rep)


def test_cover_rejects_non_solutions(ex1):
    y = parse_rational("1/(n+1)", VARS2)
    with pytest.raises(ValueError):
        check_bound_covers(ex1, y, FactoredPoly(VARS2, 1, [(P("n+1"), 1)]),
                           combined_bound(ex1))


# ----------------------------------------------------------------------
# generation


def test_random_instance_certifies_itself():
    from plde.polyring import divide_exact

    eq, y, q = random_instance(42)
    assert check_solution(eq, y).ok
    assert divide_exact(q.expand(), y.den) is not None


def test_random_instance_polynomial_solution():
    profile = InstanceProfile(max_den_factors=0)
    eq, y, q = random_instance(5, profile)
    assert y.den == Poly.one(VARS2)
    assert check_solution(eq, y).ok


def test_random_instance_aperiodic_denominator():
    profile = InstanceProfile(denominator_pool=("n*k+1",), max_den_factors=1)
    found = False
    for seed in range(40):
        eq, y, q = random_instance(seed, profile)
        if q.factors:
            found = True
            assert q.factors[0][0] == P("n*k+1")
            assert check_solution(eq, y).ok
    assert found


def test_every_generated_factor_lands_in_exactly_one_case():
    done = 0
    seed = 0
    while done < N_CASES:
        seed += 1
        eq, y, q = (random_instance(seed) if seed % 2 else homogeneous_instance(seed))
        rep = combined_bound(eq)
        verdicts = check_bound_covers(eq, y, q, rep)
        assert len(verdicts) == len(q.factors)
        for prim, rec in verdicts.items():
            assert rec["case"] in (1, 2, 3)
            assert rec["ok"], (seed, prim, rec)
        done += 1
