"""Seeded workload generators and hand-written reference answers.

Every generated equation is built from a prescribed rational solution
y = p/q by taking a_s = c_s * N^s q, which turns the left-hand side into
the polynomial sum of the c_s * N^s p (the construction of the library's
own property tests, reimplemented here on plain strings).  The program
under test receives only the equation JSON; the known solution and its
denominator factors stay with the benchmark and feed the soundness gate.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

# Workload names in the order `run.py` runs them.
WORKLOADS = ("dispersion", "geometry", "census", "cli")

V2 = ("n", "k")
V3 = ("n", "k", "m")
V4 = ("n", "k", "m", "l")

# dispersion family: q = (n+k+a)(n+k+a+s)(3n+2k+b) on the unit square.
# A fixed count per s value, so every run holds the same mix of strip
# lengths and the median lands on the middle of the five s=4 equations:
# a, b and the signs move one equation's cost by up to 15 %, and the
# middle of five damps that seed-to-seed spread.  The c_s are +-1 with a
# nonzero sum, since larger constants add another 10 %.
DISPERSION_COUNTS = {2: 2, 4: 5, 6: 2}

# Census and geometry equations come from a corpus of shapes drawn once
# from a fixed corpus seed: the support, the coefficient and denominator
# polynomials up to their constants, and the numerator.  Cost is set by the
# shape (Fourier-Motzkin work by the support and the spread modules of the
# corner factors varies tenfold between supports), so a per-run draw would
# make run medians depend on which shapes came up rather than on the code.
# The run seed fills the {c} and {p} slots, which leave every spread and
# every support unchanged, and orders the requests.

# census: many small equations, r=2 on a 3x3 grid and r=3 on the unit cube
CENSUS_CORPUS_SEED = "plde-census-corpus-v1"
CENSUS_R2 = dict(variables=V2, points=tuple(itertools.product(range(3), repeat=2)),
                 terms=(2, 4), den_factors=(0, 2), max_pairs=2,
                 den_pool=("k+n+{c}", "2*k+3*n+{c}", "n+{c}", "n^2+n+{c}", "n*k+{c}",
                           "4*k-2*n+{c}"),
                 num_pool=("1", "n", "n+k", "k^2+1"),
                 coeff_pool=("{c}", "-{c}", "n", "k+{c}", "n+k+{c}"))
CENSUS_R3 = dict(variables=V3, points=tuple(itertools.product(range(2), repeat=3)),
                 terms=(2, 4), den_factors=(0, 2), max_pairs=2,
                 den_pool=("n+k+m+{c}", "2*n+k+{c}", "k+m+{c}", "n^2+m+{c}", "n*k+m+{c}"),
                 num_pool=("1", "n", "k+m", "m^2+1"),
                 coeff_pool=("{c}", "-{c}", "n", "k+{c}", "m+n+{c}"))
# (stratum, profile, homogeneous, count)
CENSUS_STRATA = (("r2", CENSUS_R2, False, 45), ("r2h", CENSUS_R2, True, 15),
                 ("r3", CENSUS_R3, False, 45), ("r3h", CENSUS_R3, True, 15))

# geometry: r=3 supports with 9-12 points on a 3x3x3 grid and r=4 supports
# with 6-8 points on a 3^4 grid, one denominator factor each
GEOMETRY_CORPUS_SEED = "plde-geometry-corpus-v1"
GEOMETRY_R3 = dict(variables=V3, points=tuple(itertools.product(range(3), repeat=3)),
                   terms=(9, 12), den_factors=(1, 1),
                   den_pool=("n+k+m+{c}", "2*n+k+{c}", "k+m+{c}", "n^2+m+{c}", "n*k+m+{c}"),
                   num_pool=("1", "n", "k+m", "m^2+1"),
                   coeff_pool=("{c}", "-{c}", "n", "k+{c}", "m+n+{c}"))
GEOMETRY_R4 = dict(variables=V4, points=tuple(itertools.product(range(3), repeat=4)),
                   terms=(6, 8), den_factors=(1, 1),
                   den_pool=("n+k+m+l+{c}", "2*n+k+{c}", "k+m+{c}", "n^2+l+{c}"),
                   num_pool=("1", "n", "k+l"),
                   coeff_pool=("{c}", "-{c}", "n", "l+{c}"))
GEOMETRY_STRATA = (("r3", GEOMETRY_R3, False, 3), ("r4", GEOMETRY_R4, False, 3))

# Hand-written answers from the paper's worked examples (not computed by
# the code under test): expected d factors and uncovered modules.
REFERENCE_REPORTS = {
    "sys1": {"d": ("n+k+1", "n+k+2", "n+k+3", "3*n+2*k+1"),
             "uncovered": ((1, 0), (0, 1))},
    "sys2": {"d": ("n^2+n+1", "n^2+3*n+3", "3*n+2*k+1"),
             "uncovered": ((1, 1), (1, -1))},
}

# Known solutions of the bundled equations, as printed in the paper and the
# acceptance suite: numerator, denominator factors.
_SYS_DEN = ("n+k+1", "n+k+2", "n+k+3", "n^2+n+1", "n^2+3*n+3", "3*n+2*k+1")
BUNDLED_SOLUTIONS = {
    "ex1": ("n^2+2*k^2", ("k+n+1",)),
    "ex2": ("n^2+2*k^2", ("k+n+1",)),
    "nrm": ("3*k^2-4*n*k+2*n^2", ("n+1",)),
    "skew": ("1", ("n+k+1",)),
    "sys1": ("1", _SYS_DEN),
    "sys2": ("1", _SYS_DEN),
}


class Instance:
    """One equation with its known solution, as plain strings."""

    __slots__ = ("name", "equation", "numerator", "den_factors", "stratum")

    def __init__(self, name, equation, numerator, den_factors, stratum):
        self.name = name
        self.equation = equation          # JSON-ready dict, the program's input format
        self.numerator = numerator
        self.den_factors = tuple(den_factors)
        self.stratum = stratum

    @property
    def variables(self):
        return tuple(self.equation["variables"])

    def solution_text(self):
        den = "*".join("(%s)" % f for f in self.den_factors) or "1"
        return "(%s)/(%s)" % (self.numerator, den)


def shift_text(text, variables, s):
    """Text of p(n + s): every variable v becomes (v+s_v)."""
    offsets = dict(zip(variables, s))

    def sub(match):
        v = match.group(0)
        c = offsets.get(v, 0)
        return "(%s%+d)" % (v, c) if c else v

    return re.sub(r"[A-Za-z_]\w*", sub, text)


def _equation(variables, coeffs, den_factors, numerator):
    """a_s = c_s * N^s q and f = sum c_s * N^s p, with q the product of den_factors."""
    terms = []
    rhs = []
    for s, c in coeffs:
        factors = [[shift_text(f, variables, s), 1] for f in den_factors]
        unit = c
        if not re.fullmatch(r"-?\d+", c):
            factors.append([c, 1])
            unit = "1"
        terms.append({"shift": list(s), "coefficient": {"unit": unit, "factors": factors}})
        if numerator != "0":
            rhs.append("(%s)*(%s)" % (c, shift_text(numerator, variables, s)))
    return {"variables": list(variables), "terms": terms, "rhs": "+".join(rhs) or "0"}


def _shape(rng, profile, homogeneous):
    """(coefficient texts by point, denominator texts, numerator) with constant slots."""
    points = list(profile["points"])
    if homogeneous:
        # zero right-hand side: numerator 1, pairs of points with balanced constants
        npairs = rng.randint(1, profile["max_pairs"])
        pts = rng.sample(points, 2 * npairs)
        coeffs = []
        for i in range(npairs):
            coeffs += [(pts[2 * i], "{p%d}" % i), (pts[2 * i + 1], "-{p%d}" % i)]
        dens = [rng.choice(profile["den_pool"])
                for _ in range(rng.randint(1, profile["den_factors"][1]))]
        return coeffs, dens, "0"
    lo, hi = profile["terms"]
    support = rng.sample(points, rng.randint(lo, hi))
    dens = [rng.choice(profile["den_pool"]) for _ in range(rng.randint(*profile["den_factors"]))]
    num = rng.choice(profile["num_pool"])
    return [(s, rng.choice(profile["coeff_pool"])) for s in support], dens, num


def _corpus(corpus_seed, strata):
    rng = random.Random(corpus_seed)
    return [(stratum, profile["variables"], _shape(rng, profile, homogeneous))
            for stratum, profile, homogeneous, count in strata for _ in range(count)]


def _from_corpus(workload, seed, corpus):
    rng = random.Random("%s-%d" % (workload, seed))
    out = []
    for i, (stratum, variables, (coeffs, den_shapes, num)) in enumerate(corpus):
        # a repeated denominator shape gets one constant, so it stays a square
        den_const = {shape: rng.randint(1, 4) for shape in den_shapes}
        dens = [shape.format(c=den_const[shape]) for shape in den_shapes]
        pairs = {"p%d" % j: rng.randint(1, 3) for j in range(4)}
        filled = [(s, text.format(c=rng.randint(1, 3), **pairs)) for s, text in coeffs]
        eq = _equation(variables, filled, dens, num)
        out.append(Instance("%s-%s-%d" % (workload, stratum, i), eq,
                            "1" if num == "0" else num, dens, stratum))
    return out


def dispersion(seed):
    rng = random.Random("dispersion-%d" % seed)
    out = []
    for s, count in DISPERSION_COUNTS.items():
        for j in range(count):
            a = rng.randint(1, 4)
            b = rng.randint(1, 4)
            dens = ("n+k+%d" % a, "n+k+%d" % (a + s), "3*n+2*k+%d" % b)
            signs = [rng.choice((-1, 1)) for _ in range(4)]
            while sum(signs) == 0:
                signs = [rng.choice((-1, 1)) for _ in range(4)]
            coeffs = list(zip(((0, 0), (0, 1), (1, 0), (1, 1)), map(str, signs)))
            eq = _equation(V2, coeffs, dens, "1")
            out.append(Instance("dispersion-s%d-%d" % (s, j), eq, "1", dens, "s=%d" % s))
    return out


def geometry(seed):
    return _from_corpus("geometry", seed, _corpus(GEOMETRY_CORPUS_SEED, GEOMETRY_STRATA))


def census(seed):
    return _from_corpus("census", seed, _corpus(CENSUS_CORPUS_SEED, CENSUS_STRATA))


def cli(seed, root: Path):
    """The six bundled equation files; the seed only orders them."""
    out = []
    for name in sorted(BUNDLED_SOLUTIONS):
        with open(root / "equations" / ("%s.json" % name), encoding="utf-8") as fh:
            eq = json.load(fh)
        num, dens = BUNDLED_SOLUTIONS[name]
        out.append(Instance(name, eq, num, dens, "bundled"))
    random.Random("cli-%d" % seed).shuffle(out)
    return out


def generate(workload, seed, root: Path):
    if workload == "cli":
        return cli(seed, root)
    return {"dispersion": dispersion, "geometry": geometry, "census": census}[workload](seed)


def cli_subset(workload, instances):
    """Equations also sent through fresh `plde bound --json` processes.

    A fixed share of every workload, chosen by stratum so that the mix is
    the same for every seed.
    """
    if workload == "dispersion":
        return [i for i in instances if i.stratum == "s=2"]
    if workload == "geometry":
        return [i for i in instances if i.stratum == "r4"][:1]
    if workload == "census":
        return [i for i in instances if int(i.name.rsplit("-", 1)[1]) % 10 == 0]
    return list(instances)         # cli: all six bundled equations


# ----------------------------------------------------------------------
# a tiny independent polynomial reader for the reference comparison


def _tokens(text):
    return re.findall(r"\d+|[A-Za-z_]\w*|[-+*^()]", text.replace(" ", ""))


def poly_terms(text, variables):
    """Dict exponent-tuple -> integer coefficient, for integer polynomials."""
    toks = _tokens(text)
    pos = 0
    r = len(variables)

    def add(a, b, sign=1):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + sign * c
        return {e: c for e, c in out.items() if c}

    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    def atom():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            val = expr()
            pos += 1
            return val
        if tok.isdigit():
            return {(0,) * r: int(tok)} if int(tok) else {}
        e = [0] * r
        e[variables.index(tok)] = 1
        return {tuple(e): 1}

    def factor():
        nonlocal pos
        val = atom()
        while pos < len(toks) and toks[pos] == "^":
            n = int(toks[pos + 1])
            pos += 2
            base, val = val, {(0,) * r: 1}
            for _ in range(n):
                val = mul(val, base)
        return val

    def term():
        nonlocal pos
        val = factor()
        while pos < len(toks) and toks[pos] == "*":
            pos += 1
            val = mul(val, factor())
        return val

    def expr():
        nonlocal pos
        sign = 1
        if toks[pos] in "+-":
            sign = -1 if toks[pos] == "-" else 1
            pos += 1
        val = add({}, term(), sign)
        while pos < len(toks) and toks[pos] in "+-":
            sign = -1 if toks[pos] == "-" else 1
            pos += 1
            val = add(val, term(), sign)
        return val

    return expr()


def canonical_factor(text, variables):
    """Hashable form of a primitive factor, up to sign."""
    terms = poly_terms(text, variables)
    lead = terms[max(terms, key=lambda e: (sum(e), e))]
    sign = 1 if lead > 0 else -1
    return frozenset((e, sign * c) for e, c in terms.items())


def reference_mismatch(name, report_json):
    """Why a report disagrees with the hand-written answer, or None."""
    ref = REFERENCE_REPORTS.get(name)
    if ref is None:
        return None
    variables = tuple(report_json["variables"])
    got_d = {canonical_factor(t, variables): m for t, m in report_json["d"]["factors"]}
    want_d = {canonical_factor(t, variables): 1 for t in ref["d"]}
    if got_d != want_d:
        return "d is %s" % report_json["d"]["factors"]

    def module(text):
        rows = [tuple(int(x) for x in row.split(",")) for row in text.split(";")]
        return frozenset(row if next(x for x in row if x) > 0 else tuple(-x for x in row)
                         for row in rows)

    got_u = {module(t) for t in report_json["uncovered"]}
    want_u = {frozenset([row]) for row in ref["uncovered"]}
    if got_u != want_u:
        return "uncovered is %s" % report_json["uncovered"]
    return None
