import ast
import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import plde.bounds
import plde.factored
import plde.geometry
import plde.spread
from plde.bounds import (DegenerateFaceError, StripPreconditionError, _expand, _factors,
                         _Frac, _aperiodic_bound, _min, _orbit_rows, _plus, _sum, combined_bound,
                         dispersion_bound, module_bound, strip_rewrite)
from plde.equation import PLDE
from plde.factored import FactoredPoly
from plde.geometry import CLASS_USEFUL, SupportGeometry
from plde.lattice import IntLattice, saturation
from plde.polyring import (InvariantError, Poly, UnsupportedInputError, divide_exact,
                           divide_int_terms, parse_poly, parse_rational)
from plde.spread import NEG_INFINITY, ShiftOrbits, invariance_lattice
from plde.transform import transform_equation, witness_levels
from plde.verify import check_bound_covers, check_solution
from support import (VARS2, InstanceProfile, bundled_solution, check_strip_identity,
                     dispersion_family, factored_divides, factored_mul, int_terms, over,
                     random_instance, random_poly, random_shift, random_unimodular,
                     reduce_by_trial_division, reference_aperiodic_bound, reference_module_bound,
                     wide_case)

N_CASES = 200


def P(text):
    return parse_poly(text, VARS2)


def F(*texts, unit=1):
    return FactoredPoly(VARS2, unit, [(P(t), 1) for t in texts])


def L(*rows):
    return IntLattice(2, rows)


def factor_set(fp):
    return dict(fp.factors)


# ----------------------------------------------------------------------
# dispersion bound


def test_dispersion_square_diagonal_module(sys1):
    assert dispersion_bound(sys1, L((1, -1)), (1, 1)) == 2


def test_dispersion_square_skew_module(sys1):
    assert dispersion_bound(sys1, L((2, -3)), (3, 2)) == 0


def test_dispersion_sys2_vertical_module(sys2):
    assert dispersion_bound(sys2, L((0, 1)), (1, 0)) == 1


def test_dispersion_rejects_degenerate_faces():
    terms = {(0, 0): F("n+1"), (0, 1): F("n+2"), (1, 0): F("k+1")}
    eq = PLDE(VARS2, terms, Poly.zero(VARS2))
    with pytest.raises(DegenerateFaceError) as err:
        dispersion_bound(eq, L((0, 1)), (1, 0))
    assert set(err.value.points) == {(0, 0), (0, 1)}


def test_dispersion_rejects_bad_covectors(sys1):
    W = L((1, -1))
    with pytest.raises(ValueError):
        dispersion_bound(sys1, W, (1, 0))  # not orthogonal
    with pytest.raises(ValueError):
        dispersion_bound(sys1, W, (2, 2))  # imprimitive


def test_dispersion_negative_infinity_without_periodic_parts():
    terms = {(0, 0): F("n*k+1"), (1, 1): F("n*k+3")}
    eq = PLDE(VARS2, terms, Poly.zero(VARS2))
    assert dispersion_bound(eq, IntLattice.zero(2), (1, 0)) == NEG_INFINITY


# ----------------------------------------------------------------------
# strip rewriting


def test_strip_zero_width(sys1):
    strip = strip_rewrite(sys1, (0, 0), 0, (3, 2))
    assert strip.Rminus == ((0, 0),)
    c = sys1.terms[(0, 0)]
    assert strip.D_actual == FactoredPoly(c.vars, 1, c.factors)


def test_strip_square_diagonal_cascade(sys1):
    strip = strip_rewrite(sys1, (0, 0), 2, (1, 1))
    assert len(strip.Rminus) == 6
    wpart = strip.D_actual.w_part(L((1, -1)), ShiftOrbits())
    assert factor_set(wpart) == {P("n+k+1"): 1, P("n+k+2"): 1, P("n+k+3"): 1}


def test_strip_sys2_substitutions(sys2):
    strip = strip_rewrite(sys2, (0, 1), 1, (1, 0))
    assert set(strip.Rminus) == {(0, 1), (1, 0), (1, 2)}
    wpart = strip.D_actual.shift((0, -1)).w_part(L((0, 1)), ShiftOrbits())
    assert factor_set(wpart) == {P("n^2+n+1"): 1, P("n^2+3*n+3"): 1}


def test_strip_identity_on_golden_case(sys1):
    strip = strip_rewrite(sys1, (0, 0), 2, (1, 1))
    big = "(n+k+1)*(n+k+2)*(n+k+3)*(n^2+n+1)*(n^2+3*n+3)*(3*n+2*k+1)"
    y = parse_rational("1/(%s)" % big, VARS2)
    assert check_solution(sys1, y).ok
    assert check_strip_identity(strip, (0, 0), y)


def test_strip_requires_unique_base_point():
    terms = {(0, 0): F("n+1"), (0, 1): F("n+2"), (1, 0): F("k+1")}
    eq = PLDE(VARS2, terms, Poly.zero(VARS2))
    with pytest.raises(StripPreconditionError):
        strip_rewrite(eq, (0, 0), 1, (1, 0))


_FRAC_POOL = ["k+n+1", "2*k+3*n+1", "n*k+1", "n+1", "4*k-2*n+1", "n^2+n+1", "n^2+k^2+1"]


def _frac_keys():
    """(prims, counter): a strip's prim table and the valuation map of a FactoredPoly in it."""
    prims, ids, keys, orbits = {}, {}, {}, ShiftOrbits()

    def counter(fp):  # keyed as in a strip: shifts of one pool prim share an orbit id
        return _factors(_orbit_rows(fp.factors, orbits, ids), prims, keys, (0, 0))

    return prims, counter


def _frac_value(fr, prims):
    """(numerator, factored denominator) of a _Frac, the numerator expanded."""
    num = Poly.from_ints(VARS2, _expand({k: m for k, m in fr.E.items() if m > 0}, prims, fr.num),
                         fr.content)
    den = FactoredPoly(VARS2, 1, [(Poly.from_ints(VARS2, prims[key][0]), -m)
                                  for key, m in fr.E.items() if m < 0])
    return num, den


def test_frac_reduction_matches_trial_division():
    # the factored part cancels against den in the signed map, and num is
    # trial-divided by what is left, so the reduction equals plain trial
    # division over Q of the expanded product, also when 2^61-1 divides a
    # coefficient denominator of the rational numerator
    rng = random.Random(709)
    prims, counter = _frac_keys()
    for case in range(N_CASES):
        texts = rng.sample(_FRAC_POOL, rng.randint(1, 3))
        factors = [(P(t).shift(random_shift(rng, 2, 2)), rng.randint(1, 3)) for t in texts]
        den = FactoredPoly(VARS2, rng.choice([1, -2, Fraction(3, 5)]), factors)
        num = random_poly(rng, max_degree=2, max_terms=3, integer=case % 2 == 0, nonzero=True)
        for f, mult in factors:
            num = num * f ** rng.randint(0, mult + 1)
        if case % 8 == 0:
            num = num * Fraction(1, 2**61 - 1)
        # the factored part: pool prims, shifted, some of them also in den
        own = [f for f, _ in rng.sample(factors, rng.randint(0, len(factors)))]
        own += [P(t).shift(random_shift(rng, 2, 2)) for t in rng.sample(_FRAC_POOL,
                                                                         rng.randint(0, 2))]
        part = FactoredPoly(VARS2, 1, [(f, m) for f in own if (m := rng.randint(0, 3))])
        content, terms = int_terms(num)
        E = _plus(counter(part), counter(den), -1)
        got = _Frac(content * part.unit / den.unit, E, terms, prims, counter(den))
        assert _frac_value(got, prims) == reduce_by_trial_division(num * part.expand(), den), \
            (num, part, den)


def test_frac_sums_divide_only_by_equal_valuations(monkeypatch):
    # a sum of two to four reduced fractions over one prim pool is the
    # reference reduction of the expanded sum, and _sum trial-divides only by
    # the prims whose least negative exponent two or more addends attain:
    # like terms (equal maps), unequal exponents, disjoint prims and sums
    # that vanish; and a product by a constant and by prims (scaled) stays
    # reduced without a division
    rng = random.Random(710)
    prims, counter = _frac_keys()
    keys = list(counter(FactoredPoly(VARS2, 1, [(P(t).shift(random_shift(rng, 2, 2)), 1)
                                                for t in _FRAC_POOL])))
    key_of = {frozenset(terms.items()): key for key, (terms, _, _) in prims.items()}
    seen = Counter()

    def random_map(among):
        return {key: rng.choice([-3, -2, -1, -1, 1, 2]) for key in rng.sample(among, 3)}

    def reduced(E, num):  # a reduced _Frac of content * num * prod prim^E
        content, terms = int_terms(num)
        return _Frac(content, E, terms, prims, E)

    def random_num():
        return random_poly(rng, max_degree=2, max_terms=3, nonzero=True)

    def negated(fr):
        return _Frac(-fr.content, fr.E, fr.num, prims)

    divisors = []

    def recording(num, prim):
        divisors.append(key_of[frozenset(prim.items())])
        return divide_int_terms(num, prim)

    for case in range(N_CASES):
        kind = ("equal", "unequal", "disjoint", "vanish")[case % 4]
        count = 2 + case // 4 % 3
        E1 = random_map(keys[:4] if kind == "disjoint" else keys)
        num1 = random_poly(rng, max_degree=2, max_terms=3, integer=case % 8 < 4, nonzero=True)
        addends = [reduced(E1, num1)]
        if kind == "equal":  # the numerators add up to a multiple of some denominator prims
            for _ in range(count - 2):
                addends.append(reduced(dict(E1), random_num()))
            lower = [key for key, m in addends[0].E.items() if m < 0]
            cancel = Poly.from_ints(VARS2, _expand(
                {key: 1 for key in rng.sample(lower, rng.randint(0, len(lower)))}, prims,
                {(0, 0): 1}))
            last = cancel * random_poly(rng, max_degree=1, max_terms=2, nonzero=True)
            for fr in addends:
                last = last - Poly.from_ints(VARS2, fr.num, fr.content)
            addends.append(reduced(dict(addends[0].E), last))
        elif kind == "unequal":
            for _ in range(count - 1):
                E2 = dict(E1)
                for key in rng.sample(keys, 2):
                    E2[key] = E2.get(key, 0) + rng.choice([-2, -1, 1]) or -1
                addends.append(reduced(E2, random_num()))
        elif kind == "disjoint":
            addends += [reduced(random_map(keys[4:]), random_num()) for _ in range(count - 1)]
        else:
            addends += [reduced(random_map(keys), random_num()) for _ in range(count - 2)]
            addends.append(negated(_sum(addends, prims)))
        if case % 5 == 0:  # scaled is the product, reduced with no division
            (key, m), = {rng.choice(keys): rng.choice([-1, 1, 2])}.items()
            n0, d0 = _frac_value(addends[-1], prims)
            n1, d1 = _frac_value(addends[-1].scaled(Fraction(-3, 7), {key: m}), prims)
            prim = Poly.from_ints(VARS2, prims[key][0]) ** abs(m)
            left, right = n1 * d0.expand(), n0 * d1.expand() * Fraction(-3, 7)
            assert (left == right * prim if m > 0 else left * prim == right), case
            assert reduce_by_trial_division(n1, d1) == (n1, d1), case
        maps = [fr.E for fr in addends]
        if all(E == maps[0] for E in maps):
            seen["equal maps"] += 1
        elif any(a.keys() & b.keys() for a, b in itertools.combinations(maps, 2)):
            seen["shared prims"] += 1
        else:
            seen["disjoint prims"] += 1
        values = [_frac_value(fr, prims) for fr in addends]
        common = FactoredPoly.one(VARS2)
        for _, den in values:
            common = common.lcm(den)
        expanded = Poly.zero(VARS2)
        for num, den in values:
            expanded = expanded + num * divide_exact(common.expand(), den.expand())
        divisors.clear()
        with monkeypatch.context() as m:
            m.setattr(plde.bounds, "divide_int_terms", recording)
            got = _sum(addends, prims)
        assert _frac_value(got, prims) == reduce_by_trial_division(expanded, common), case
        g = maps[0]
        for E in maps[1:]:
            g = _min(g, E)
        for key in divisors:
            assert g.get(key, 0) < 0 and sum(E.get(key, 0) == g[key] for E in maps) > 1, \
                (case, key)
        seen["vanished"] += got.is_zero()
        seen["divided"] += not got.is_zero() and got.E != g
        seen["%d addends" % count] += 1
    assert min(seen.values()) >= 10 and len(seen) == 8, seen


def test_combined_cancels_corner_factors_by_multiplicity(sys1, monkeypatch):
    # dispersion family q = (n+k+1)(n+k+1+s)(3n+2k+1), a_s = c_s N^s q on the unit square
    s = 4
    q = F("n+k+1", "n+k+%d" % (1 + s), "3*n+2*k+1")
    terms = {}
    rhs = Poly.zero(VARS2)
    for pt, c in zip([(0, 0), (0, 1), (1, 0), (1, 1)], [1, -1, 1, 1]):
        terms[pt] = factored_mul(FactoredPoly(VARS2, c), q.shift(pt))
        rhs = rhs + Poly.const(VARS2, c)
    eq = PLDE(VARS2, terms, rhs)
    assert check_solution(eq, over(Poly.one(VARS2), q)).ok
    combined_bound(sys1)
    succeeded = []

    def recording(num, prim):  # the divisors of the trial divisions that succeed
        quotient = divide_int_terms(num, prim)
        if quotient is not None:
            succeeded.append(prim)
        return quotient

    monkeypatch.setattr(plde.bounds, "divide_int_terms", recording)
    combined_bound(eq)
    # the shifted corner factors cancel by multiplicity, so next to no division
    # is left (dividing them back out of expanded numerators took 318 here)
    assert len(succeeded) <= 32, len(succeeded)


def test_wide_strips_shift_each_prim_once(monkeypatch):
    # on the dispersion family at s = 16 and 32, the strips key shifted prims
    # by shift orbit, so a prim's terms are made once per strip (3,952 and
    # 14,560 shift_terms calls when each substitution shifted every factor),
    # the constant right-hand side is never shifted (460 and 1,436 calls when
    # it was), and the degree rule skips every trial division (5,972 and
    # 22,636 before)
    shifts = []
    divisions = []
    prim_maps = {}
    strips = []
    shift_terms, factors = plde.bounds.shift_terms, plde.bounds._factors
    original = plde.bounds.strip_rewrite

    def counting_shift(terms, d):
        shifts.append(d)
        return shift_terms(terms, d)

    def counting_division(num, prim):
        divisions.append(prim)
        return divide_int_terms(num, prim)

    def recording_factors(rows, prims, keys, d):
        prim_maps[id(prims)] = prims
        return factors(rows, prims, keys, d)

    def recording_strip(eq, p, s, u, orbits=None):
        strip = original(eq, p, s, u, orbits)
        strips.append((strip, p))
        return strip

    monkeypatch.setattr(plde.bounds, "shift_terms", counting_shift)
    monkeypatch.setattr(plde.bounds, "divide_int_terms", counting_division)
    monkeypatch.setattr(plde.bounds, "_factors", recording_factors)
    monkeypatch.setattr(plde.bounds, "strip_rewrite", recording_strip)
    for s, most_shifts in ((16, 156), (32, 316)):
        eq, y, _ = dispersion_family(s)
        for log in (shifts, divisions, strips):
            log.clear()
        prim_maps.clear()
        combined_bound(eq)
        assert len(shifts) <= most_shifts, (s, len(shifts))
        assert not divisions, s
        assert len(prim_maps) == len(strips) >= 2
        for prims in prim_maps.values():  # the keys are canonical
            assert len({frozenset(terms.items()) for terms, _, _ in prims.values()}) == len(prims)
        assert max(len(strip.Rminus) for strip, _ in strips) > 1
        for strip, p in strips:
            assert check_strip_identity(strip, p, y), (s, p)


def test_strip_sums_divide_only_where_they_can_cancel(monkeypatch):
    # the family with all four signs +1 and rhs 4, the shape of the bench's
    # dispersion-s4-4 and dispersion-s6-0: no trial division is left.  The
    # 120 and 320 that succeeded when a point's addends were added two at a
    # time divided pairwise partial sums whose numerators cancel only once the
    # third addend arrives; a point's addends are now summed in one step.
    # The 12 and 20 that failed, and the 176 and 434 when a sum tried every
    # prim of its denominator, are gone with them
    outcomes = Counter()
    strips = []
    original = plde.bounds.strip_rewrite

    def counting_division(num, prim):
        quotient = divide_int_terms(num, prim)
        outcomes[quotient is not None] += 1
        return quotient

    def recording_strip(eq, p, s, u, orbits=None):
        strip = original(eq, p, s, u, orbits)
        strips.append((strip, p))
        return strip

    monkeypatch.setattr(plde.bounds, "divide_int_terms", counting_division)
    monkeypatch.setattr(plde.bounds, "strip_rewrite", recording_strip)
    for s, succeeded, failed in ((4, 0, 0), (6, 0, 0)):
        eq, y, _ = dispersion_family(s, signs=(1, 1, 1, 1))
        assert eq.rhs == Poly.const(VARS2, 4)
        outcomes.clear()
        strips.clear()
        combined_bound(eq)
        assert (outcomes[True], outcomes[False]) == (succeeded, failed), (s, outcomes)
        assert strips
        for strip, p in strips:
            assert check_strip_identity(strip, p, y), (s, p)


def test_strips_reduce_each_shift_once(ex1, ex2, nrm, skew, sys1, sys2, monkeypatch):
    # a strip keys f(n + d) by (orbit, G.reduce(offset - d)) and memoizes the
    # key by (orbit, offset - d), so it reduces each distinct input once,
    # though every substitution shifts the factors of every coefficient (on
    # dispersion seed 1 of the bench, 3,648 reductions for 1,501 inputs before)
    reductions = []
    reduce = IntLattice.reduce
    original = plde.bounds.strip_rewrite
    totals = Counter()

    def counting(self, v):
        reductions.append(v)
        return reduce(self, v)

    def recording_strip(eq, p, s, u, orbits):
        factors = [f for a in eq.terms.values() for f, _ in a.factors]
        for f in factors:  # the orbits are read before the count starts
            orbits[f]
        reductions.clear()
        strip = original(eq, p, s, u, orbits)
        inputs = {(orbits[f][0], tuple(o - a + b for o, a, b in zip(orbits[f][1], i, p)))
                  for f in factors for i in strip.Rminus}
        assert len(reductions) == len(inputs), (p, s, u)
        totals["reductions"] += len(reductions)
        totals["shifts"] += len(factors) * len(strip.Rminus)
        return strip

    monkeypatch.setattr(IntLattice, "reduce", counting)
    monkeypatch.setattr(plde.bounds, "strip_rewrite", recording_strip)
    for eq in (ex1, ex2, nrm, skew, sys1, sys2, dispersion_family(6)[0], wide_case(8)[0]):
        combined_bound(eq)
    # 1,701 shifted factors, 967 of them distinct
    assert totals["shifts"] > totals["reductions"] > 0, totals


def test_wide_known_solution_case(monkeypatch):
    # the wide case at 8 and 12 draws (8 and 12 points): the bound is the
    # same as before the strips summed each point once, covers the solution,
    # and every strip satisfies its identity; the trial divisions are pinned
    # (619 and 593 before, of which 618 and 591 failed)
    outcomes = Counter()
    strips = []
    original = plde.bounds.strip_rewrite

    def counting_division(num, prim):
        quotient = divide_int_terms(num, prim)
        outcomes[quotient is not None] += 1
        return quotient

    def recording_strip(eq, p, s, u, orbits=None):
        strip = original(eq, p, s, u, orbits)
        strips.append((strip, p))
        return strip

    monkeypatch.setattr(plde.bounds, "divide_int_terms", counting_division)
    monkeypatch.setattr(plde.bounds, "strip_rewrite", recording_strip)
    vars3 = ("n", "k", "m")
    for draws, d, succeeded, failed in ((8, ("n+k+m+1",), 1, 506),
                                        (12, ("n+k+m+1", "2*n+k+3"), 2, 436)):
        eq, y, q = wide_case(draws)
        assert len(eq.support) == draws
        assert check_solution(eq, y).ok
        outcomes.clear()
        strips.clear()
        report = combined_bound(eq)
        assert report.d == FactoredPoly(vars3, 1, [(parse_poly(f, vars3), 1) for f in d]), draws
        assert all(v["ok"] for v in check_bound_covers(eq, y, q, report).values()), draws
        assert (outcomes[True], outcomes[False]) == (succeeded, failed), (draws, outcomes)
        assert strips
        for strip, p in strips:
            assert check_strip_identity(strip, p, y), (draws, p)


def test_strip_size_limit():
    # the strip of the dispersion family reaches 990 points at s = 43, under
    # MAX_STRIP_POINTS, and 1,035 at s = 44, which is refused as unsupported
    eq, _, q = dispersion_family(43)
    assert combined_bound(eq).d == q
    eq, _, _ = dispersion_family(44)
    with pytest.raises(UnsupportedInputError) as exc:
        combined_bound(eq)
    assert str(exc.value).startswith("unsupported") and "44" in str(exc.value)


_OPTIMIZED_STRIP = """
import sys
import plde.bounds
from plde import InvariantError, load_equation, strip_rewrite

if not sys.flags.optimize:
    sys.exit("not running under python -O")
plde.bounds._min = plde.bounds._plus  # sums keep both denominators, so D outgrows the pool
try:
    strip_rewrite(load_equation(sys.argv[1]), (0, 0), 2, (1, 1))
except InvariantError as exc:
    print("InvariantError:", exc)
"""


def test_strip_invariant_check_survives_optimize(sys1, eqdir, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(plde.bounds, "_min", plde.bounds._plus)
        with pytest.raises(InvariantError, match="escaped the substitution cascade"):
            strip_rewrite(sys1, (0, 0), 2, (1, 1))
    src = str(Path(plde.bounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_STRIP, str(eqdir / "sys1.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("InvariantError: common denominator escaped")


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    # python -O strips assert, so every library check must raise instead, and
    # with a typed error (InvariantError), not a hand-made AssertionError
    package = Path(plde.bounds.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert not found


def test_library_has_no_test_only_names():
    # every public module-level name of the library is used by the library
    # itself (a re-export in __init__ does not count) or by the benchmark, and
    # so is every public method of a library class, as a name or an attribute;
    # test generators and references live in tests/support.py
    package = Path(plde.bounds.__file__).resolve().parent
    defined = set()  # (name, where it is defined, whether it is a method)
    used = set()
    attributes = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                targets = []
            defined.update((name, path.name, False) for name in targets)
            if isinstance(node, ast.ClassDef):
                defined.update((item.name, "%s:%s" % (path.name, node.name), True)
                               for item in node.body if isinstance(item, ast.FunctionDef))
        if path.name != "__init__.py":
            used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
            attributes.update(node.attr for node in ast.walk(tree)
                              if isinstance(node, ast.Attribute))
    bench = package.parents[1] / "bench"
    words = {w for path in bench.glob("*.py") for w in re.findall(r"\w+", path.read_text())}
    unused = sorted("%s:%s" % (where, name) for name, where, method in defined
                    if not name.startswith("_") and name not in used | words
                    and not (method and name in attributes))
    assert not unused


# ----------------------------------------------------------------------
# per-module bounds


def test_bound_square_diagonal(sys1):
    d, _ = module_bound(sys1, SupportGeometry(sys1.support), L((1, -1)))
    assert factor_set(d) == {P("n+k+1"): 1, P("n+k+2"): 1, P("n+k+3"): 1}


def test_bound_square_skew(sys1):
    d, _ = module_bound(sys1, SupportGeometry(sys1.support), L((2, -3)))
    assert factor_set(d) == {P("3*n+2*k+1"): 1}


def test_bound_unsaturated_module_input(sys1):
    geometry = SupportGeometry(sys1.support)
    assert module_bound(sys1, geometry, L((2, -2)))[0] == module_bound(sys1, geometry, L((1, -1)))[0]


def test_bound_ex1_skew_module_is_trivial(ex1):
    assert module_bound(ex1, SupportGeometry(ex1.support), L((1, 2)))[0].is_one()


def test_bound_rejects_useless_module(sys1):
    with pytest.raises(ValueError):
        module_bound(sys1, SupportGeometry(sys1.support), L((1, 0)))


def test_bound_single_point_support():
    # one support point makes no corner pair; classify's (p, p) certificate stands in,
    # and y = f(n-1, k) / a(n-1, k) has the shifted coefficient as its denominator
    eq = PLDE.from_json({"variables": ["n", "k"], "rhs": "n+1", "terms": [
        {"shift": [1, 0], "coefficient": {"unit": "2", "factors": [["n+k+1", 2], ["n*k+1", 1]]}}]})
    geometry = SupportGeometry(eq.support)
    d, s = module_bound(eq, geometry, L((1, -1)))
    assert factor_set(d) == {P("n+k"): 2} and s == 0
    assert geometry.classify(L((1, -1))).certificate.p_prime == (1, 0)


# ----------------------------------------------------------------------
# combined reports


def test_combined_sys1(sys1):
    rep = combined_bound(sys1)
    assert factor_set(rep.d) == {P("n+k+1"): 1, P("n+k+2"): 1, P("n+k+3"): 1,
                                 P("3*n+2*k+1"): 1}
    assert rep.P == ()
    assert set(rep.uncovered) == {L((1, 0)), L((0, 1))}


def test_combined_sys2(sys2):
    rep = combined_bound(sys2)
    assert factor_set(rep.d) == {P("n^2+n+1"): 1, P("n^2+3*n+3"): 1, P("3*n+2*k+1"): 1}
    assert set(rep.uncovered) == {L((1, 1)), L((1, -1))}


def test_combined_ex1(ex1):
    rep = combined_bound(ex1)
    assert rep.d.is_one()
    assert rep.P == (P("k+n+1"),)
    assert rep.per_module[L((1, -1))].kind == "O\\U"
    # the two declared quadratic factors are trusted, and the report says so
    assert sum("trusted as irreducible" in w for w in rep.warnings) == 2


def test_combined_strips_each_input_once(sys1, sys2, monkeypatch):
    calls = []
    original = plde.bounds.strip_rewrite

    def counting(eq, p, s, u, orbits=None):
        calls.append((tuple(p), s, tuple(u)))
        return original(eq, p, s, u, orbits)

    monkeypatch.setattr(plde.bounds, "strip_rewrite", counting)
    for eq in (sys1, sys2):
        calls.clear()
        combined_bound(eq)
        assert calls and len(calls) == len(set(calls))


def test_combined_computes_corners_and_pairs_once(sys1, sys2, ex2, monkeypatch):
    # corners, edges and facets all come from one face enumeration per call
    face_calls = []
    pair_calls = []
    faces = plde.geometry._Faces
    solve_pair = plde.geometry.SupportGeometry._solve_pair

    def counting_faces(points):
        face_calls.append(tuple(points))
        return faces(points)

    def counting_pairs(self, setup, p, p_prime):
        pair_calls.append((setup.W, p, p_prime))
        return solve_pair(self, setup, p, p_prime)

    monkeypatch.setattr(plde.geometry, "_Faces", counting_faces)
    monkeypatch.setattr(plde.geometry.SupportGeometry, "_solve_pair", counting_pairs)
    for eq in (sys1, sys2, ex2):
        face_calls.clear()
        pair_calls.clear()
        combined_bound(eq)
        assert len(face_calls) == 1
        assert pair_calls and len(pair_calls) == len(set(pair_calls))


def test_combined_is_deterministic(sys1):
    a = combined_bound(sys1).to_json()
    b = combined_bound(sys1).to_json()
    assert a == b


# ----------------------------------------------------------------------
# aperiodic preprocessing


def test_aperiodic_bound_trivial_cases(sys1, ex1):
    for eq in (sys1, ex1):
        assert _aperiodic_bound(eq, SupportGeometry(eq.support), ShiftOrbits()).is_one()


def _around_nk_plus_one():
    """(eq, q): an equation with the solution 1/q, q = nk+1, and q shifted at every corner."""
    rng = random.Random(7)
    q = FactoredPoly(VARS2, 1, [(P("n*k+1"), 1)])
    support = [(0, 0), (1, 0), (0, 1)]
    terms = {}
    rhs = Poly.zero(VARS2)
    for s in support:
        c = Poly.const(VARS2, rng.choice([1, 2, -1]))
        terms[s] = factored_mul(FactoredPoly(VARS2, c.constant_value()), q.shift(s))
        rhs = rhs + c
    return PLDE(VARS2, terms, rhs), q


def test_aperiodic_bound_needs_a_witness_for_some_corner(monkeypatch):
    # for W = 0 every corner of two or more points has a first witness (a
    # covector exposing it alone has another corner on its top face), so the
    # pass raises when it finds none; it searches only when every corner has
    # an aperiodic factor, as nk+1 shifted is at every corner of eq
    rng = random.Random(711)
    for r in (2, 3):
        for _ in range(20):
            points = {random_shift(rng, r, 2) for _ in range(rng.randint(2, 7))}
            if len(points) == 1:
                continue
            geometry, zero = SupportGeometry(points), IntLattice.zero(r)
            for p in geometry.corners:
                assert any(geometry.witness(p, q, zero) for q in geometry.corners if q != p)
    eq, _ = _around_nk_plus_one()
    monkeypatch.setattr(SupportGeometry, "witness", lambda self, p, p_prime, W: None)
    with pytest.raises(InvariantError, match="witness pair"):
        _aperiodic_bound(eq, SupportGeometry(eq.support), ShiftOrbits())


def test_aperiodic_bound_catches_constructed_factor():
    eq, q = _around_nk_plus_one()
    assert check_solution(eq, over(Poly.one(VARS2), q)).ok
    ap = _aperiodic_bound(eq, SupportGeometry(eq.support), ShiftOrbits())
    assert ap.multiplicity(P("n*k+1")) >= 1
    assert all(invariance_lattice(prim).rank == 0 for prim, _ in ap.factors)


def test_intersection_stops_once_the_gcd_is_one(ex1, ex2, nrm, skew, sys1, sys2, monkeypatch):
    running = {}  # module -> gcd of the certificate bounds drawn so far
    counts = {}
    bound_for_cert = plde.bounds._bound_for_cert
    solve_pair = plde.geometry.SupportGeometry._solve_pair
    point = plde.geometry._ModuleSetup.point

    def counting_bound(eq, W, cert, orbits):
        assert W not in running or not running[W].is_one()
        counts["bounds"] += 1
        d, s = bound_for_cert(eq, W, cert, orbits)
        running[W] = running[W].gcd(d) if W in running else d
        return d, s

    def checking_pair(self, setup, p, p_prime):
        # the pair programs of a module whose gcd is already 1 are not run
        assert setup.W not in running or not running[setup.W].is_one()
        return solve_pair(self, setup, p, p_prime)

    def counting(setup, p, strict, rows):
        # a pair program or a one-sided try, each one program
        counts["programs"] += 1
        return point(setup, p, strict, rows)

    monkeypatch.setattr(plde.bounds, "_bound_for_cert", counting_bound)
    monkeypatch.setattr(plde.geometry.SupportGeometry, "_solve_pair", checking_pair)
    monkeypatch.setattr(plde.geometry._ModuleSetup, "point", counting)
    made = {}
    for name, eq in (("ex1", ex1), ("ex2", ex2), ("nrm", nrm), ("skew", skew), ("sys1", sys1),
                     ("sys2", sys2)):
        running.clear()
        counts.update(bounds=0, programs=0)
        combined_bound(eq)
        made[name] = (counts["bounds"], counts["programs"])
    # deciding every pair and corner takes (5, 14) on ex1, (8, 22) on sys1 and
    # sys2; only ex2 has an aperiodic factor at every corner, so the aperiodic
    # pass of the others runs no program and bounds no certificate
    assert made == {"ex1": (1, 9), "ex2": (2, 5), "nrm": (1, 9), "skew": (0, 0),
                    "sys1": (4, 14), "sys2": (4, 14)}


def test_one_shift_orbit_per_prim_and_call(ex1, ex2, nrm, skew, sys1, sys2, monkeypatch):
    # a bound and the check of its report share the registry report.orbits:
    # each prim's orbit is computed once, only for coefficient factors, the
    # solution's denominator factors and prims of P; a strip prim has the
    # spread of the coefficient factor it shifts, so no shifted copy gets an
    # orbit; no pair is decided by shift_equiv, and the process-wide
    # invariance_lattice cache is never read
    runs = Counter()
    shift_orbit = plde.spread.shift_orbit

    def counting(p):
        runs[p] += 1
        return shift_orbit(p)

    def forbidden(*args):
        raise AssertionError("called on the bound or check path")

    for module in (plde.spread, plde.factored, plde.bounds, plde.verify):
        for name, patch in (("shift_orbit", counting), ("shift_equiv", forbidden),
                            ("invariance_lattice", forbidden)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, patch)
    made = {}
    for name, eq in (("ex1", ex1), ("ex2", ex2), ("nrm", nrm), ("skew", skew), ("sys1", sys1),
                     ("sys2", sys2)):
        runs.clear()
        y, den = bundled_solution(eq, name)
        report = combined_bound(eq)
        check_bound_covers(eq, y, den, report)
        assert set(runs.values()) <= {1} and set(runs) == set(report.orbits), name
        allowed = {f for a in eq.terms.values() for f, _ in a.factors}
        allowed.update(report.P, (f for f, _ in den.factors))
        assert set(runs) <= allowed, (name, set(runs) - allowed)
        made[name] = len(runs)
    # every support point here is a corner, so the corner loop reads each
    # coefficient factor's spread (skew has none); the check adds the
    # denominator factors that are not coefficient factors
    assert made == {"ex1": 4, "ex2": 5, "nrm": 4, "skew": 1, "sys1": 11, "sys2": 12}


def test_lattices_only_of_coefficient_factors(ex1, ex2, nrm, skew, sys1, sys2, monkeypatch):
    # a strip prim has the spread of the coefficient factor it shifts, so the
    # bound alone looks up no spread of a shifted copy, and reads none from
    # the invariance_lattice cache
    seen = []
    shift_orbit = plde.spread.shift_orbit

    def recording(p):
        seen.append(p)
        return shift_orbit(p)

    def forbidden(*args):
        raise AssertionError("invariance_lattice called on the bound path")

    monkeypatch.setattr(plde.spread, "shift_orbit", recording)
    for module in (plde.spread, plde.factored, plde.bounds):
        if hasattr(module, "invariance_lattice"):
            monkeypatch.setattr(module, "invariance_lattice", forbidden)
    made = {}
    for name, eq in (("ex1", ex1), ("ex2", ex2), ("nrm", nrm), ("skew", skew), ("sys1", sys1),
                     ("sys2", sys2)):
        seen.clear()
        report = combined_bound(eq)
        factors = {f for a in eq.terms.values() for f, _ in a.factors}
        assert set(seen) <= factors, (name, set(seen) - factors)
        assert set(seen) == set(report.orbits), name
        made[name] = len(set(seen))
    assert made == {"ex1": 4, "ex2": 4, "nrm": 4, "skew": 0, "sys1": 8, "sys2": 8}


# ----------------------------------------------------------------------
# property suites


def _pick_module(eq, q):
    cands = []
    for prim, _ in q.factors:
        W = invariance_lattice(prim)
        if not W.is_zero() and W not in cands:
            cands.append(W)
    cands.append(IntLattice.zero(2))
    for W in cands:
        certs = list(SupportGeometry(eq.support).useful_pairs(saturation(W)))
        if certs:
            return saturation(W), certs[0]
    return None, None


def test_strip_runs_satisfy_identity_and_divisibility():
    done = 0
    seed = 0
    while done < N_CASES:
        seed += 1
        eq, y, q = random_instance(seed)
        W, cert = _pick_module(eq, q)
        if cert is None:
            continue
        p, u = cert.p, cert.u
        s = dispersion_bound(eq, W, u)
        if s == NEG_INFINITY:
            s = 0  # still exercise the zero-width strip
        strip = strip_rewrite(eq, p, s, u)
        assert p in strip.Rminus
        assert all(level > s for level in witness_levels(strip.Rplus, u, p).values())
        pool = FactoredPoly.one(VARS2)
        for i in strip.Rminus:
            pool = factored_mul(pool, eq.terms[p].shift(tuple(a - b for a, b in zip(i, p))))
        assert factored_divides(strip.D_actual, pool)
        if done % 20 == 0:
            # expanded cross-check of the factored divisibility
            prims = FactoredPoly(pool.vars, 1, pool.factors)  # the unit dropped
            assert divide_exact(prims.expand(), strip.D_actual.expand()) is not None
        assert check_strip_identity(strip, p, y)
        done += 1


def test_bound_is_covariant_under_unimodular_changes():
    # the bound reads only levels u . (s - p), spread cosets and lattices, so
    # running it on transform_equation(eq, M) with M p, u M^-1 and M W gives
    # the image of the original run; subst may move a sign into the unit
    rng = random.Random(703)
    done = 0
    seed = 5000
    while done < 100:
        seed += 1
        eq, _, q = random_instance(seed)
        W, cert = _pick_module(eq, q)
        if cert is None:
            continue
        M = random_unimodular(rng, 2)
        A = M.inverse()
        p_m = M.apply(cert.p)
        u_m = tuple(sum(cert.u[i] * A.rows[i][j] for i in range(2)) for j in range(2))
        W_m = IntLattice(2, [M.apply(w) for w in W.basis])
        eq_m = transform_equation(eq, M)
        s = dispersion_bound(eq, W, cert.u)
        assert dispersion_bound(eq_m, W_m, u_m) == s
        if s == NEG_INFINITY:
            s = 0
        strip = strip_rewrite(eq, cert.p, s, cert.u)
        strip_m = strip_rewrite(eq_m, p_m, s, u_m)
        assert strip_m.Rminus == tuple(sorted(M.apply(i) for i in strip.Rminus))
        assert FactoredPoly(VARS2, 1, strip_m.D_actual.subst(M).factors) == strip.D_actual
        done += 1


def test_lcm_of_two_module_bounds_covers_products():
    rng = random.Random(702)
    support = [(0, 0), (0, 1), (1, 0), (1, 1)]
    W1, W2 = L((1, -1)), L((2, -3))
    for case in range(N_CASES):
        w1 = P("k+n+1").shift(random_shift(rng, 2, 2))
        w2 = P("2*k+3*n+1").shift(random_shift(rng, 2, 2))
        q = FactoredPoly(VARS2, 1, [(w1, 1), (w2, 1)])
        top = parse_poly(rng.choice(["1", "n", "n+k"]), VARS2)
        terms = {}
        rhs = Poly.zero(VARS2)
        for s in support:
            c = Poly.const(VARS2, rng.choice([1, -1, 2]))
            terms[s] = factored_mul(FactoredPoly(VARS2, c.constant_value()), q.shift(s))
            rhs = rhs + c * top.shift(s)
        eq = PLDE(VARS2, terms, rhs)
        y = over(top, q)
        assert check_solution(eq, y).ok
        geometry = SupportGeometry(eq.support)
        d1, _ = module_bound(eq, geometry, W1)
        d2, _ = module_bound(eq, geometry, W2)
        joined = d1.lcm(d2)
        assert divide_exact(joined.expand(), w1 * w2) is not None
        assert joined.multiplicity(w1) >= 1 and joined.multiplicity(w2) >= 1


INTERSECTION_PROFILES = (
    InstanceProfile(variables=("n",), support_points=tuple((i,) for i in range(4)),
                    min_terms=2, max_terms=4,
                    denominator_pool=("n+1", "2*n+1", "n+3", "n^2+n+1", "3*n-2"),
                    numerator_pool=("1", "n", "n^2+1"),
                    coefficient_pool=("1", "-1", "2", "n", "n+2")),
    InstanceProfile(support_points=tuple(itertools.product(range(3), repeat=2)),
                    min_terms=3, max_terms=5,
                    denominator_pool=("k+n+1", "2*k+3*n+1", "4*k-2*n+1", "n+1", "n-k+2",
                                      "n^2+n+1", "n*k+1")),
    InstanceProfile(variables=("n", "k", "m"),
                    support_points=tuple(itertools.product(range(2), repeat=3)),
                    min_terms=3, max_terms=6,
                    denominator_pool=("n+k+m+1", "2*n+k+1", "k+m+1", "n-m+2", "n^2+m+1",
                                      "n*k+m+1"),
                    numerator_pool=("1", "n", "k+m"),
                    coefficient_pool=("1", "-1", "2", "n", "k+1", "m+n+2")),
    InstanceProfile(variables=("n", "k", "m", "j"),
                    support_points=tuple(itertools.product(range(2), repeat=4)),
                    min_terms=3, max_terms=5,
                    denominator_pool=("n+k+m+j+1", "n-j+2", "k+m+1", "2*n+k+1", "n*k+m+1"),
                    numerator_pool=("1", "n", "k+j"),
                    coefficient_pool=("1", "-1", "2", "n", "k+1", "j+m+2")),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # UnsupportedInputError, DegenerateFaceError; not InvariantError
        return type(exc)


def test_lazy_intersection_matches_the_eager_gcd(monkeypatch):
    calls = [0]
    bound_for_cert = plde.bounds._bound_for_cert

    def counting(eq, W, cert, orbits):
        calls[0] += 1
        return bound_for_cert(eq, W, cert, orbits)

    monkeypatch.setattr(plde.bounds, "_bound_for_cert", counting)
    equations = lazy_calls = eager_calls = compared = 0
    mismatches = []
    for r, profile in enumerate(INTERSECTION_PROFILES, 1):
        for seed in range(60):
            eq, _, _ = random_instance(100 * r + seed, profile)
            equations += 1
            corners = SupportGeometry(eq.support).corners
            modules = []
            for q in corners:
                for prim, _ in eq.terms[q].factors:
                    W = saturation(invariance_lattice(prim))
                    if not W.is_zero() and W not in modules:
                        modules.append(W)
            cases = [(lambda eq, geometry: _aperiodic_bound(eq, geometry, ShiftOrbits()),
                      reference_aperiodic_bound, ())]
            cases += [(module_bound, reference_module_bound, (W,)) for W in modules
                      if SupportGeometry(eq.support).classify(W).kind == CLASS_USEFUL]
            for lazy_fn, eager_fn, args in cases:
                calls[0] = 0
                lazy = _outcome(lazy_fn, eq, SupportGeometry(eq.support), *args)
                lazy_calls += calls[0]
                calls[0] = 0
                eager = _outcome(eager_fn, eq, SupportGeometry(eq.support), *args)
                eager_calls += calls[0]
                compared += 1
                # a certificate that raises after the gcd reached 1 is never drawn
                rescued = isinstance(eager, type) and not isinstance(lazy, type) and \
                    (lazy[0] if isinstance(lazy, tuple) else lazy).is_one()
                if lazy != eager and not rescued:
                    mismatches.append((r, seed, args, lazy, eager))
    print("%d equations, %d bounds compared: %d certificate bounds, %d skipped of %d"
          % (equations, compared, lazy_calls, eager_calls - lazy_calls, eager_calls))
    assert equations >= 200
    assert not mismatches, mismatches[:3]
    assert lazy_calls < eager_calls
