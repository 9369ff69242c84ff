import random
from fractions import Fraction

from plde.factored import FactoredPoly
from plde.lattice import IntLattice
from plde.polyring import ParseError, Poly, UnsupportedInputError, divide_exact, parse_poly
from plde.spread import ShiftOrbits
from support import (VARS2, factored_divides, factored_mul, is_canonical, random_factor,
                     random_poly_text, reference_parse_poly)

N_CASES = 200


def P(text):
    return parse_poly(text, VARS2)


def F(*texts, unit=1):
    return FactoredPoly(VARS2, unit, [(P(t), 1) for t in texts])


def test_expand_unit_only():
    assert FactoredPoly(VARS2, 1).expand() == Poly.one(VARS2)
    assert FactoredPoly(VARS2, "-3/2").expand() == Poly.const(VARS2, "-3/2")


def test_expand_product():
    fp = F("k+n+1", "2*k+3*n+1", unit=-1)
    assert fp.expand() == -(P("k+n+1") * P("2*k+3*n+1"))


def test_expand_with_multiplicity():
    fp = FactoredPoly(VARS2, 1, [(P("n+1"), 2)])
    assert fp.expand() == P("n^2+2*n+1")


def test_canonicalization_merges_associates():
    fp = FactoredPoly(VARS2, 1, [(P("2*n+2"), 1), (P("-n-1"), 1)])
    assert fp.unit == -2
    assert fp.factors == ((P("n+1"), 2),)


def test_lcm_examples():
    d = F("n+k+1", "3*n+2*k+1")
    one = FactoredPoly.one(VARS2)
    assert d.lcm(one) == FactoredPoly(d.vars, 1, d.factors)
    a = F("n+k+1", "3*n+2*k+1")
    b = F("n^2+n+1", "3*n+2*k+1")
    assert a.lcm(b) == F("n+k+1", "n^2+n+1", "3*n+2*k+1")


def test_gcd_idempotent():
    a = FactoredPoly(("m",), 1, [(parse_poly("m+1", ("m",)), 1),
                                 (parse_poly("m+2", ("m",)), 2),
                                 (parse_poly("m+3", ("m",)), 3)])
    assert a.gcd(a) == FactoredPoly(a.vars, 1, a.factors)


def test_shift_examples():
    assert F("n^2+n+1").shift((0, -1)) == F("n^2+n+1")
    assert F("2*k+3*n+3").shift((0, -1)) == F("2*k+3*n+1")
    fp = F("k+n+1", "2*k+3*n+1", unit=-1)
    assert fp.shift((0, 0)) == fp


def test_w_part_examples():
    orbits = ShiftOrbits()
    W1 = IntLattice(2, [(1, -1)])
    fp = F("k+n+1", "2*k+3*n+1", unit=-1)
    assert fp.w_part(W1, orbits) == F("k+n+1")
    W01 = IntLattice(2, [(0, 1)])
    fp2 = F("n^2+n+1", "2*k+3*n+3")
    assert fp2.w_part(W01, orbits) == F("n^2+n+1")
    # aperiodic factors are kept only for W = 0, the module of the aperiodic pass
    aper = F("n*k+1")
    assert aper.w_part(W1, orbits).is_one()
    zero = IntLattice.zero(2)
    assert aper.w_part(zero, orbits) == F("n*k+1")
    assert fp.w_part(zero, orbits).is_one()


def test_divides():
    a = F("n+1", "k+2")
    b = F("n+1")
    assert factored_divides(b, a)
    assert not factored_divides(a, b)
    assert factored_divides(F("n+1", unit=3), F("n+1", unit=-1))


def test_json_round_trip():
    fp = F("k+n+1", "2*k+3*n+1", unit=-1)
    data = fp.to_json()
    assert data == {"unit": "-1", "factors": [["n+k+1", 1], ["3*n+2*k+1", 1]]}
    assert FactoredPoly.from_json(data, VARS2) == fp


def test_from_json_moves_signs_and_contents_into_the_unit():
    data = {"unit": "3/2", "factors": [["-2*n-4", 1], ["6", 2], ["k^2-2*n*k", 1],
                                       ["(2*n+4)*(-1)", 2]]}
    fp = FactoredPoly.from_json(data, VARS2)
    # -2n-4 = -2 (n+2); k^2-2nk leads with -2nk in graded lex, so = -1 (2nk-k^2)
    assert fp.unit == Fraction(3, 2) * -2 * 6 ** 2 * -1 * (-2) ** 2
    assert fp.factors == ((P("n+2"), 3), (P("2*n*k-k^2"), 1))
    assert all(is_canonical(p) and p.content == 1 for p, _ in fp.factors)


def _reference_from_json(data):
    """FactoredPoly.from_json through the Fraction parser and the validating constructor."""
    unit = Fraction(data.get("unit", "1"))
    factors = [(reference_parse_poly(text, VARS2), int(mult))
               for text, mult in data.get("factors", [])]
    return FactoredPoly(VARS2, unit, factors)


def _outcome(build, data):
    try:
        fp = build(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return fp.unit, fp.factors


def test_from_json_matches_the_fraction_reference():
    rng = random.Random(305)
    pool = ["-2*n-4", "6*k+3*n", "-(k+n+1)*3", "n^2-k", "-k^2+2*n*k", "4", "-7", "0", "n-n",
            "(n+1", "m+1", "(n+k)^101"]
    kinds = set()
    for _ in range(300):
        data = {"factors": [[rng.choice(pool) if rng.random() < 0.6 else random_poly_text(rng, 2),
                             rng.choice([1, 1, 2, 3, 0, -1])] for _ in range(rng.randint(0, 3))]}
        if rng.random() < 0.9:
            data["unit"] = rng.choice(["1", "-1", "2", "-3/4", "0"])
        got = _outcome(lambda d: FactoredPoly.from_json(d, VARS2), data)
        assert got == _outcome(_reference_from_json, data), data
        kinds.add(got[0] if isinstance(got[0], type) else "ok")
    assert kinds == {"ok", ValueError, ParseError, UnsupportedInputError}


# ----------------------------------------------------------------------
# randomized properties


def _random_fp(rng):
    n = rng.randint(0, 3)
    factors = [(random_factor(rng), rng.randint(1, 2)) for _ in range(n)]
    unit = rng.choice([1, -1, 2, "1/2"])
    return FactoredPoly(VARS2, unit, factors)


def test_expand_is_multiplicative():
    rng = random.Random(301)
    for _ in range(N_CASES):
        a = _random_fp(rng)
        b = _random_fp(rng)
        assert factored_mul(a, b).expand() == a.expand() * b.expand()
        l = a.lcm(b)
        assert divide_exact(l.expand(), FactoredPoly(a.vars, 1, a.factors).expand()) is not None
        assert divide_exact(l.expand(), FactoredPoly(b.vars, 1, b.factors).expand()) is not None
        g = a.gcd(b)
        assert divide_exact(FactoredPoly(a.vars, 1, a.factors).expand(), g.expand()) is not None
        assert divide_exact(FactoredPoly(b.vars, 1, b.factors).expand(), g.expand()) is not None


def test_shift_commutes_with_expand():
    rng = random.Random(302)
    for _ in range(N_CASES):
        fp = _random_fp(rng)
        s = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert fp.shift(s).expand() == fp.expand().shift(s)


def test_w_part_is_a_sub_multiset():
    rng = random.Random(303)
    modules = [IntLattice(2, [(1, -1)]), IntLattice.zero(2)]
    for _ in range(N_CASES):
        fp = _random_fp(rng)
        part = fp.w_part(rng.choice(modules), ShiftOrbits())
        assert factored_divides(part, fp)


def test_trusted_results_match_the_validating_constructor():
    rng = random.Random(304)
    modules = [IntLattice(2, [(1, -1)]), IntLattice.zero(2)]
    for _ in range(N_CASES):
        a = _random_fp(rng)
        b = _random_fp(rng)
        c = FactoredPoly(VARS2, rng.choice([1, -1, 2, "1/2"]),
                         [(p, rng.randint(1, 2)) for p, _ in a.factors])   # same prims
        s = (rng.randint(-3, 3), rng.randint(-3, 3))
        g = a.gcd(b)
        # results next to what the validating constructor makes of the same inputs
        pairs = [
            (factored_mul(a, b), FactoredPoly(VARS2, a.unit * b.unit, a.factors + b.factors)),
            (factored_mul(a, c), FactoredPoly(VARS2, a.unit * c.unit, a.factors + c.factors)),
            (a.shift(s), FactoredPoly(VARS2, a.unit, [(p.shift(s), m) for p, m in a.factors])),
        ]
        for fp in (g, a.lcm(b), a.w_part(rng.choice(modules), ShiftOrbits())):
            pairs.append((fp, FactoredPoly(fp.vars, fp.unit, fp.factors)))
        for got, want in pairs:
            assert (got.unit, got.factors) == (want.unit, want.factors)
