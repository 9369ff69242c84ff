import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from plde import spread
from plde.bounds import dispersion_bound
from plde.equation import PLDE
from plde.lattice import IntLattice, is_sublattice
from plde.polyring import Poly, normalize_primitive, parse_poly
from plde.spread import NEG_INFINITY, invariance_lattice, shift_equiv, shift_orbit
from support import (VARS2, coset_contains, factored_from_poly, leading_coefficient, random_factor,
                     random_poly, random_shift, reference_invariance_lattice,
                     reference_shift_equiv, spread_box_oracle)

N_CASES = 200


def P(text):
    return parse_poly(text, VARS2)


def L(*rows):
    return IntLattice(2, rows)


# ----------------------------------------------------------------------
# invariance lattices


def test_invariance_examples():
    # the orbit rounds and the kernel of the partials (the reference) agree
    for lattice_of in (invariance_lattice, reference_invariance_lattice):
        assert lattice_of(P("k+n+1")) == L((1, -1))
        assert lattice_of(P("n*k+1")).rank == 0
        assert lattice_of(P("2*n-3*k")) == L((3, 2))


def test_invariance_rejects_constants():
    for lattice_of in (invariance_lattice, reference_invariance_lattice):
        with pytest.raises(ValueError):
            lattice_of(Poly.const(VARS2, 5))


def test_invariance_of_skew_linear_factor():
    # the printed polynomial 4k-2n+1 is fixed by (2,1), not (1,2); the box
    # oracle is the ground truth here
    p = P("4*k-2*n+1")
    lat = invariance_lattice(p)
    assert lat == L((2, 1))
    box = spread_box_oracle(p, p, 3)
    assert box == {(i, j) for (i, j) in box if lat.contains((i, j))}
    assert (2, 1) in box and (1, 2) not in box


def test_invariance_needs_nonlinear_layer():
    # n^2+k: the top form alone would allow (0,1) but the constant layer kills it
    for lattice_of in (invariance_lattice, reference_invariance_lattice):
        assert lattice_of(P("n^2+k")).rank == 0
        assert lattice_of(P("n^2+n+1")) == L((0, 1))


# ----------------------------------------------------------------------
# pair spreads


def test_pair_coset_example():
    c = shift_equiv(P("k+n+1"), P("k+n+3"))
    assert not c.is_empty
    assert coset_contains(c, (-2, 0)) and c.lattice == L((1, -1))


def test_pair_quadratic():
    c = shift_equiv(P("n^2+3*n+3"), P("n^2+n+1"))
    assert coset_contains(c, (1, 0)) and c.lattice == L((0, 1))


def test_pair_empty_cases():
    assert shift_equiv(P("k+n+1"), P("n*k+1")).is_empty
    assert shift_equiv(P("k+n+1"), P("2*k+3*n+1")).is_empty


def test_pair_with_different_top_forms_needs_no_invariance_lattice():
    # the total degree, or the top-degree form after normalization, differs;
    # the orbit keys tell the pair apart and shift_equiv never computes an
    # invariance lattice, since shift_orbit reads G off its last round
    pairs = [("k+n+1", "n*k+1"), ("k+n+1", "2*k+3*n+1"), ("n^2+k+7", "n*k+n+7"),
             ("-n^2-k", "n^2+n*k+k"), ("3*n+3*k+1", "2*n+2*k+5")]
    for p, q in pairs:
        before = invariance_lattice.cache_info()
        assert shift_orbit(P(p))[0] != shift_orbit(P(q))[0], (p, q)
        assert shift_equiv(P(p), P(q)).is_empty, (p, q)
        after = invariance_lattice.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses), (p, q)
    # equal top forms: still no lattice call, and the coset is nonempty
    before = invariance_lattice.cache_info()
    assert not shift_equiv(P("n^2+k+5"), P("n^2+k+2*n")).is_empty
    after = invariance_lattice.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_pair_with_itself():
    p = P("k+n+1")
    c = shift_equiv(p, p)
    assert coset_contains(c, (0, 0)) and c.lattice == invariance_lattice(p)


def test_pair_residual_linear_layer():
    # layer below the top form is needed to pin the shift
    c = shift_equiv(P("n^2+k+5"), P("n^2+k"))
    assert coset_contains(c, (0, 5)) and c.lattice.rank == 0


# ----------------------------------------------------------------------
# dispersion of one factor pair: a(0,0) * y(n,k) + b(1,0) * y(n+1,k) = 0,
# so along u = (1, 0) the pair disperses by sigma with b(n - 1 + sigma) ~ a


def _two_point(a, b):
    return PLDE(VARS2, {(0, 0): factored_from_poly(P(a)),
                        (1, 0): factored_from_poly(P(b))}, Poly.zero(VARS2))


def test_disp_infinite_along_moving_axis():
    # the coset direction (1,-1) of k+n+1 moves along u: its module is not
    # orthogonal to u, which the dispersion bound refuses
    with pytest.raises(ValueError):
        dispersion_bound(_two_point("k+n+1", "k+n+2"), L((1, -1)), (1, 0))


def test_disp_aperiodic_self():
    assert dispersion_bound(_two_point("n*k+1", "n*k+k+1"), IntLattice.zero(2), (1, 0)) == 0


def test_disp_fixed_axis():
    eq = _two_point("n+1", "n+4")
    assert dispersion_bound(eq, L((0, 1)), (1, 0)) == 2
    with pytest.raises(ValueError):
        dispersion_bound(eq, L((0, 1)), (0, 1))  # moves along the spread (0,1)
    assert dispersion_bound(_two_point("n+1", "n^2+1"), L((0, 1)), (1, 0)) == NEG_INFINITY
    with pytest.raises(ValueError):
        dispersion_bound(eq, L((0, 1)), (1, 0, 0))


# ----------------------------------------------------------------------
# box oracle


def test_box_oracle_examples():
    p = P("k+n+1")
    assert spread_box_oracle(p, p, 3) == {(i, -i) for i in range(-3, 4)}
    q = P("n*k+1")
    assert spread_box_oracle(q, q, 2) == {(0, 0)}
    assert spread_box_oracle(p, P("2*k+3*n+1"), 3) == set()


# ----------------------------------------------------------------------
# property suites


def _box_of_coset(coset, radius):
    if coset.is_empty:
        return set()
    out = set()
    gens = coset.lattice.basis
    # small lattices: enumerate coefficient combinations generously
    bound = 4 * radius + 4
    ranges = [range(-bound, bound + 1)] * len(gens)
    for combo in itertools.product(*ranges):
        v = list(coset.base)
        for c, g in zip(combo, gens):
            v = [a + c * b for a, b in zip(v, g)]
        if all(abs(x) <= radius for x in v):
            out.add(tuple(v))
    return out


def test_spread_matches_box_oracle():
    rng = random.Random(401)
    radius = 3
    for _ in range(N_CASES):
        p = random_factor(rng)
        q = random_factor(rng)
        coset = shift_equiv(p, q)
        assert _box_of_coset(coset, radius) == spread_box_oracle(p, q, radius)


def test_coset_differences_lie_in_the_invariance_lattice():
    rng = random.Random(402)
    done = 0
    while done < N_CASES:
        q = random_factor(rng)
        p = q.shift(random_shift(rng))
        coset = shift_equiv(p, q)
        assert not coset.is_empty
        G = invariance_lattice(q)
        assert coset.lattice == G
        s = coset.base
        for g in G.basis:
            assert coset_contains(coset, [a + b for a, b in zip(s, g)])
        done += 1


def test_symmetry_of_pair_spreads():
    rng = random.Random(403)
    for _ in range(N_CASES):
        p = random_factor(rng)
        q = random_factor(rng)
        a = shift_equiv(p, q)
        b = shift_equiv(q, p)
        assert a.is_empty == b.is_empty
        if not a.is_empty:
            assert coset_contains(b, [-x for x in a.base])


def test_unique_leading_projection():
    # factors whose invariance lattice sits inside {0} x Z project to at
    # most one first coordinate in any pair coset
    rng = random.Random(404)
    pool = [P("n^2+n+1"), P("n*k+1"), P("n^2+k^2+1"), P("n+1")]
    vertical = IntLattice(2, [(0, 1)])
    done = 0
    while done < N_CASES:
        u = rng.choice(pool).shift(random_shift(rng))
        v = rng.choice(pool).shift(random_shift(rng))
        if not (is_sublattice(invariance_lattice(u), vertical)
                and is_sublattice(invariance_lattice(v), vertical)):
            continue
        coset = shift_equiv(u, v)
        if not coset.is_empty:
            firsts = {coset.base[0]}
            for g in coset.lattice.basis:
                assert g[0] == 0
            assert len(firsts) == 1
        done += 1


# ----------------------------------------------------------------------
# degenerate top forms: repeated affine rounds


def _count_rounds(monkeypatch):
    """A list that grows by one per affine round: each round makes one reduction."""
    calls = []
    reduce = spread.reduce_by_span
    monkeypatch.setattr(spread, "reduce_by_span",
                        lambda *args: calls.append(args) or reduce(*args))
    return calls


def _linear_form(rng, vars):
    coeffs = [0] * len(vars)
    while not any(coeffs):
        coeffs = [rng.randint(-2, 2) for _ in vars]
    return coeffs


def _orbit_rounds(calls, q):
    """The number of affine rounds that shift_orbit(q) makes."""
    before = len(calls)
    shift_orbit(q)
    return len(calls) - before


def test_degenerate_top_forms_match_box_oracle(monkeypatch):
    # q = f(L) + a*M for independent linear forms L, M is linear in M, hence
    # irreducible, so the oracle's gcd test is shift equivalence; the top
    # form c*L^d fixes only L(s) and leaves a direction for a second round
    calls, rounds = _count_rounds(monkeypatch), Counter()
    rng = random.Random(405)
    for _ in range(40):
        l, m = _linear_form(rng, VARS2), _linear_form(rng, VARS2)
        while l[0] * m[1] == l[1] * m[0]:
            m = _linear_form(rng, VARS2)
        L_, M_ = Poly.linear_forms(VARS2, [l, m])
        d = rng.randint(2, 3)
        coeffs = [rng.randint(-3, 3) for _ in range(d)] + [rng.choice([-2, -1, 1, 2, 3])]
        q = sum((L_ ** i * c for i, c in enumerate(coeffs)), M_ * rng.choice([-2, -1, 1, 2]))
        if rng.random() < 0.5:
            p = q.shift(random_shift(rng, radius=2)) * rng.choice([1, -1, 2])
        else:
            p = q + L_ ** rng.randrange(d - 1) * rng.choice([-1, 1])
        rounds[_orbit_rounds(calls, q)] += 1
        coset = shift_equiv(p, q)
        assert _box_of_coset(coset, 2) == spread_box_oracle(p, q, 2)
    # G = 0, round 1 fixes L(s) and round 2 M(s): every orbit takes both
    assert rounds == {2: 40}


def test_degenerate_top_forms_in_three_variables(monkeypatch):
    # c*L^d plus random lower terms: the rounds must keep every unperturbed
    # shift and return only true shift equivalences
    calls, rounds = _count_rounds(monkeypatch), Counter()
    rng = random.Random(406)
    vars3 = ("n", "k", "m")
    for _ in range(160):
        L_, = Poly.linear_forms(vars3, [_linear_form(rng, vars3)])
        d = rng.randint(2, 3)
        q = L_ ** d * rng.choice([-2, -1, 1, 2, 3]) + random_poly(rng, vars3, max_degree=d - 1,
                                                                  max_terms=4)
        s = random_shift(rng, r=3)
        p = q.shift(s) * rng.choice([1, -1, 2])
        perturbed = rng.random() < 0.5
        if perturbed:
            p = p + random_poly(rng, vars3, max_degree=d - 2, max_terms=2)
        rounds[_orbit_rounds(calls, q)] += 1
        coset = shift_equiv(p, q)
        if not perturbed:
            assert coset_contains(coset, s)
        if not coset.is_empty:
            image = q.shift(coset.base)
            assert image * (leading_coefficient(p) / leading_coefficient(image)) == p
    # round 1 fixes L(s); each later round fixes at least one more direction
    # outside G: rank G = 2 takes 1 round (45 cases), rank 1 takes 2 (83),
    # rank 0 takes 2 (25) or 3 (7)
    assert rounds == {1: 45, 2: 108, 3: 7}


def _differential_pair(rng, vars):
    """A seeded pair (p, q) in len(vars) variables.

    q is random, c*L^d plus lower terms, or (for r = 4) a polynomial in two
    linear forms, fixed by a rank-2 lattice; p is a shifted and scaled copy
    of q, such a copy plus lower terms, or an unrelated polynomial.
    """
    r = len(vars)
    shape = rng.choice(["random", "degenerate", "rank2"] if r == 4 else ["random", "degenerate"])
    if shape == "random":
        q = random_poly(rng, vars, max_degree=3, max_terms=5, nonzero=True)
    elif shape == "degenerate":
        L_, = Poly.linear_forms(vars, [_linear_form(rng, vars)])
        d = rng.randint(2, 3)
        q = L_ ** d * rng.choice([-2, 1, 3]) + random_poly(rng, vars, max_degree=d - 1,
                                                            max_terms=3)
    else:
        # a polynomial in two independent linear forms is fixed by a rank-2 lattice
        A, B = Poly.linear_forms(vars, [(1, -1, 0, 2), (0, 1, 1, -1)])
        q = (A ** 2 * rng.choice([1, 2]) + B * rng.choice([-1, 1])
             + A * B * rng.randint(-1, 1) + Poly.const(vars, rng.randint(-3, 3)))
    if q.is_constant():
        q = q + Poly.variable(vars, vars[0])
    p = q.shift(random_shift(rng, r=r)) * rng.choice([1, -1, 2, -3])
    kind = rng.choice(["shifted", "perturbed", "unrelated"])
    if kind == "perturbed":
        p = p + random_poly(rng, vars, max_degree=max(q.total_degree() - 1, 0), max_terms=2,
                            nonzero=True)
    elif kind == "unrelated":
        p = random_poly(rng, vars, max_degree=q.total_degree(), max_terms=4, nonzero=True)
    return (p, q) if not p.is_constant() else (q, q)


def test_shift_equiv_matches_staged_reference():
    # the staged algorithm of tests/support.py (leading forms, layer d-1,
    # residual rounds on a composed polynomial) is the reference
    rng = random.Random(407)
    mismatches = 0
    for vars in (("n", "k"), ("n", "k", "m"), ("n", "k", "m", "j")):
        for _ in range(N_CASES):
            p, q = _differential_pair(rng, vars)
            mismatches += shift_equiv(p, q) != reference_shift_equiv(p, q)
    assert mismatches == 0


def test_shift_orbits_are_canonical():
    # every shifted, scaled or negated copy of q has the key of q, and its
    # offset differs from q's by the shift, modulo the invariance lattice,
    # which is the kernel of the partials of the reference
    rng = random.Random(408)
    ranks = Counter()
    for vars in (("n",), ("n", "k"), ("n", "k", "m"), ("n", "k", "m", "j")):
        for _ in range(N_CASES // 2):
            q = _differential_pair(rng, vars)[1]
            key, offset, G = shift_orbit(q)
            ranks[len(vars), G.rank] += 1
            assert G == reference_invariance_lattice(q) and G.reduce(offset) == offset
            assert key.content == 1 and normalize_primitive(q.shift(offset))[1] == key
            a = random_shift(rng, r=len(vars))
            scale = rng.choice([1, -1, 3, Fraction(-2, 5)])
            key_a, offset_a, G_a = shift_orbit(q.shift(a) * scale)
            assert (key_a, G_a) == (key, G)
            assert offset_a == G.reduce([x - y for x, y in zip(offset, a)])
    assert ranks[4, 2] > 0 and ranks[1, 0] == N_CASES // 2
