import random

import pytest

from plde.factored import DECLARED_IRREDUCIBLE, FactoredPoly, UNVERIFIED, VERIFIED_LINEAR
from plde.lattice import IntLattice
from plde.polyring import Poly, divide_exact, parse_poly
from support import VARS2, random_factor

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


def test_tags():
    fp = FactoredPoly(VARS2, 1, [(P("n+1"), 1), (P("n^2+n+1"), 1)],
                      [None, DECLARED_IRREDUCIBLE])
    tags = dict(zip((p for p, _ in fp.factors), fp.tags))
    assert tags[P("n+1")] == VERIFIED_LINEAR
    assert tags[P("n^2+n+1")] == DECLARED_IRREDUCIBLE
    fp2 = FactoredPoly.from_poly(P("n*k+1"))
    assert fp2.tags == (UNVERIFIED,)


def test_lcm_examples():
    d = F("n+k+1", "3*n+2*k+1")
    one = FactoredPoly.one(VARS2)
    assert d.lcm(one) == d.drop_unit()
    a = F("n+k+1", "3*n+2*k+1")
    b = F("n^2+n+1", "3*n+2*k+1")
    assert a.lcm(b) == F("n+k+1", "n^2+n+1", "3*n+2*k+1")


def test_gcd_idempotent():
    a = FactoredPoly(("m",), 1, [(parse_poly("m+1", ("m",)), 1),
                                 (parse_poly("m+2", ("m",)), 2),
                                 (parse_poly("m+3", ("m",)), 3)])
    assert a.gcd(a) == a.drop_unit()


def test_shift_examples():
    assert F("n^2+n+1").shift((0, -1)) == F("n^2+n+1")
    assert F("2*k+3*n+3").shift((0, -1)) == F("2*k+3*n+1")
    fp = F("k+n+1", "2*k+3*n+1", unit=-1)
    assert fp.shift((0, 0)) == fp


def test_w_part_examples():
    W1 = IntLattice(2, [(1, -1)])
    fp = F("k+n+1", "2*k+3*n+1", unit=-1)
    assert fp.w_part(W1, True) == F("k+n+1")
    W01 = IntLattice(2, [(0, 1)])
    fp2 = F("n^2+n+1", "2*k+3*n+3")
    assert fp2.w_part(W01, True) == F("n^2+n+1")
    aper = F("n*k+1")
    assert aper.w_part(W1, True).is_one()
    # aperiodic factors are inside every module unless dropped
    assert aper.w_part(W1, False) == F("n*k+1")


def test_div_exact_and_divides():
    a = F("n+1", "k+2")
    b = F("n+1")
    assert b.divides(a)
    assert a.div_exact(b) == F("k+2")
    assert not a.divides(b)
    with pytest.raises(ValueError):
        b.div_exact(a)


def test_json_round_trip():
    fp = F("k+n+1", "2*k+3*n+1", unit=-1)
    data = fp.to_json()
    assert data == {"unit": "-1", "factors": [["n+k+1", 1], ["3*n+2*k+1", 1]]}
    assert FactoredPoly.from_json(data, VARS2) == fp


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
        assert a.mul(b).expand() == a.expand() * b.expand()
        l = a.lcm(b)
        assert divide_exact(l.expand(), a.drop_unit().expand()) is not None
        assert divide_exact(l.expand(), b.drop_unit().expand()) is not None
        g = a.gcd(b)
        assert divide_exact(a.drop_unit().expand(), g.expand()) is not None
        assert divide_exact(b.drop_unit().expand(), g.expand()) is not None


def test_shift_commutes_with_expand():
    rng = random.Random(302)
    for _ in range(N_CASES):
        fp = _random_fp(rng)
        s = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert fp.shift(s).expand() == fp.expand().shift(s)


def test_w_part_is_a_sub_multiset():
    rng = random.Random(303)
    W = IntLattice(2, [(1, -1)])
    for _ in range(N_CASES):
        fp = _random_fp(rng)
        part = fp.w_part(W, rng.choice([True, False]))
        assert part.divides(fp)


def _random_tagged_fp(rng, factors=None):
    if factors is None:
        factors = [(random_factor(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
    tags = [rng.choice([None, DECLARED_IRREDUCIBLE, UNVERIFIED]) for _ in factors]
    return FactoredPoly(VARS2, rng.choice([1, -1, 2, "1/2"]), factors, tags)


def test_trusted_results_match_the_validating_constructor():
    rng = random.Random(304)
    W = IntLattice(2, [(1, -1)])
    for _ in range(N_CASES):
        a = _random_tagged_fp(rng)
        b = _random_tagged_fp(rng)
        c = _random_tagged_fp(rng, list(a.factors))   # same prims, other tags
        s = (rng.randint(-3, 3), rng.randint(-3, 3))
        k = rng.randint(0, 2)
        g = a.gcd(b)
        # results next to what the validating constructor makes of the same inputs
        pairs = [
            (a.mul(b), FactoredPoly(VARS2, a.unit * b.unit, a.factors + b.factors,
                                    a.tags + b.tags)),
            (a.mul(c), FactoredPoly(VARS2, a.unit * c.unit, a.factors + c.factors,
                                    a.tags + c.tags)),
            (a.pow(k), FactoredPoly(VARS2, a.unit ** k, [(p, m * k) for p, m in a.factors],
                                    a.tags) if k else FactoredPoly.one(VARS2)),
            (a.shift(s), FactoredPoly(VARS2, a.unit, [(p.shift(s), m) for p, m in a.factors],
                                      a.tags)),
            (a.drop_unit(), FactoredPoly(VARS2, 1, a.factors, a.tags)),
        ]
        for fp in (g, a.lcm(b), a.mul(b).div_exact(b), a.div_exact(g),
                   a.w_part(W, rng.random() < 0.5)):
            pairs.append((fp, FactoredPoly(fp.vars, fp.unit, fp.factors, fp.tags)))
        for got, want in pairs:
            assert (got.unit, got.factors, got.tags) == (want.unit, want.factors, want.tags)
