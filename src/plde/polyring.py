"""Exact sparse multivariate polynomial arithmetic over the rationals.

The ground field is QQ throughout: coefficients are `fractions.Fraction`
values and every operation is exact; there is no floating point anywhere.
A polynomial is an immutable map from exponent vectors to nonzero
coefficients, together with an ordered tuple of variable names.  Leading
terms and printing use graded lexicographic order on the exponent vectors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd as _int_gcd, lcm as _int_lcm


class ParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnsupportedInputError(ValueError):
    """Well-formed input beyond the supported size, such as a degree above MAX_DEGREE."""


class InvariantError(RuntimeError):
    """An internal invariant failed; raised instead of `assert` so that `python -O` keeps it."""


def _grlex(expvec):
    return (sum(expvec), expvec)


class Poly:
    """Sparse polynomial in QQ[vars].

    ``terms`` maps exponent tuples (one entry per variable, non-negative)
    to nonzero Fraction coefficients.  The zero polynomial has an empty
    term map.  Instances are treated as immutable and are hashable.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self._hash = None
        clean = {}
        if terms:
            r = len(self.vars)
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                if len(e) != r:
                    raise ValueError("exponent vector length %d, expected %d" % (len(e), r))
                if any(x < 0 for x in e):
                    raise ValueError("negative exponent in %r" % (e,))
                c = Fraction(c)
                if c:
                    clean[e] = c
        self.terms = clean

    @classmethod
    def _make(cls, vars: tuple, terms: dict) -> "Poly":
        """Trusted constructor: tuple exponents, Fraction coefficients, none of them zero."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        p._hash = None
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, vars) -> "Poly":
        return cls(vars)

    @classmethod
    def const(cls, vars, c) -> "Poly":
        return cls(vars, {(0,) * len(tuple(vars)): Fraction(c)})

    @classmethod
    def one(cls, vars) -> "Poly":
        return cls.const(vars, 1)

    @classmethod
    def variable(cls, vars, name) -> "Poly":
        vars = tuple(vars)
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    @classmethod
    def linear_forms(cls, vars, rows) -> list:
        """The images sum_j row[j] * vars[j] of the substitution n -> rows . n."""
        units = [tuple(int(i == j) for i in range(len(vars))) for j in range(len(vars))]
        return [cls(vars, {e: c for e, c in zip(units, row) if c}) for row in rows]

    # ------------------------------------------------------------------
    # structure queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def leading_exponent(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_exponent()]

    def homogeneous_component(self, d: int) -> "Poly":
        return Poly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def leading_form(self) -> "Poly":
        """Top-degree homogeneous part (invariant under integer shifts)."""
        return self.homogeneous_component(self.total_degree())

    # ------------------------------------------------------------------
    # ring operations

    def _check_same_ring(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError("mismatched variable lists: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e)
            if v is None:
                terms[e] = c
                continue
            v += c
            if v:
                terms[e] = v
            else:
                del terms[e]
        return Poly._make(self.vars, terms)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return Poly._make(self.vars, {})
            return Poly._make(self.vars, {e: c * f for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = terms.get(e)
                terms[e] = c1 * c2 if v is None else v + c1 * c2
        return Poly._make(self.vars, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative exponent")
        result = Poly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, Poly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.vars, frozenset(self.terms.items())))
        return h

    # ------------------------------------------------------------------
    # shift, evaluation, substitution

    def shift(self, s) -> "Poly":
        """Return p(n + s) for an integer shift vector s (entries may be negative)."""
        s = tuple(int(x) for x in s)
        if len(s) != len(self.vars):
            raise ValueError("shift vector length %d, expected %d" % (len(s), len(self.vars)))
        if not any(s):
            return self
        terms = {}
        for e, c in self.terms.items():
            # expand prod_i (x_i + s_i)^{e_i}
            for f in itertools.product(*(range(d + 1) for d in e)):
                w = c
                for d, fi, si in zip(e, f, s):
                    if d != fi:
                        w *= comb(d, fi) * si ** (d - fi)
                if w:
                    v = terms.get(f)
                    terms[f] = w if v is None else v + w
        return Poly._make(self.vars, {e: c for e, c in terms.items() if c})

    def eval_at(self, point) -> Fraction:
        point = [Fraction(x) for x in point]
        if len(point) != len(self.vars):
            raise ValueError("point length %d, expected %d" % (len(point), len(self.vars)))
        total = Fraction(0)
        for e, c in self.terms.items():
            w = c
            for x, d in zip(point, e):
                if d:
                    w *= x ** d
            total += w
        return total

    def partial(self, i: int) -> "Poly":
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                f = list(e)
                f[i] -= 1
                terms[tuple(f)] = c * e[i]
        return Poly(self.vars, terms)

    def compose(self, exprs, target_vars=None) -> "Poly":
        """Substitute each variable by a polynomial in the target ring."""
        exprs = list(exprs)
        if len(exprs) != len(self.vars):
            raise ValueError("need one substitute per variable")
        tv = tuple(target_vars) if target_vars is not None else exprs[0].vars
        # cache powers of each substitute up to the degree actually used
        powers = []
        for i, q in enumerate(exprs):
            dmax = self.degree_in(i) if self.terms else 0
            cache = [Poly.one(tv)]
            for _ in range(max(dmax, 0)):
                cache.append(cache[-1] * q)
            powers.append(cache)
        result = Poly.zero(tv)
        for e, c in self.terms.items():
            t = Poly.const(tv, c)
            for i, d in enumerate(e):
                if d:
                    t = t * powers[i][d]
            result = result + t
        return result

    # ------------------------------------------------------------------
    # printing

    def sort_key(self):
        """Deterministic comparison key: degree first, then the term list."""
        return (self.total_degree(), tuple(sorted(self.terms.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "Poly(%r)" % format_poly(self)


def divide_exact(p: Poly, q: Poly):
    """Quotient of p by q when the division is exact, else None.

    Repeatedly cancels leading terms under graded lex; the loop fails as
    soon as the leading monomial of q no longer divides the current
    leading monomial, which happens exactly when q does not divide p.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return Poly.zero(p.vars)
    p._check_same_ring(q)
    eq = q.leading_exponent()
    cq = q.terms[eq]
    quotient = {}
    rem = dict(p.terms)
    while rem:
        ep = max(rem, key=_grlex)
        diff = tuple(a - b for a, b in zip(ep, eq))
        if any(d < 0 for d in diff):
            return None
        c = rem[ep] / cq
        quotient[diff] = c
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(diff, e2))
            v = rem.get(e, Fraction(0)) - c * c2
            if v:
                rem[e] = v
            else:
                rem.pop(e, None)
    return Poly._make(p.vars, quotient)


# ----------------------------------------------------------------------
# images modulo a word-size prime

MODULUS = (1 << 61) - 1  # a Mersenne prime


def mod_image(p: Poly, i: int):
    """p modulo MODULUS as a polynomial in x_i alone, coefficients lowest first.

    Every other variable x_j takes the fixed residue 3^(64+j); the image is
    None when MODULUS divides a coefficient denominator, since p has no
    reduction modulo MODULUS then.
    """
    degrees = [max(col) for col in zip(*p.terms)] if p.terms else [0] * len(p.vars)
    powers = []
    for j, d in enumerate(degrees):
        row = [1]
        if j != i:
            c = pow(3, 64 + j, MODULUS)
            for _ in range(d):
                row.append(row[-1] * c % MODULUS)
        powers.append(row)
    image = [0] * (degrees[i] + 1)
    inverses = {}
    for e, c in p.terms.items():
        w = c.numerator
        q = c.denominator
        if q != 1:
            inv = inverses.get(q)
            if inv is None:
                if q % MODULUS == 0:
                    return None
                inv = inverses[q] = pow(q, -1, MODULUS)
            w *= inv
        for j, d in enumerate(e):
            if d and j != i:
                w = w * powers[j][d] % MODULUS
        image[e[i]] += w
    return [x % MODULUS for x in image]


def mod_zero(prim: Poly):
    """A zero (i, z) of prim modulo MODULUS: x_i = z, the other variables as in mod_image.

    Solves for the first variable in which prim has degree 1 and a leading
    coefficient that does not vanish there; None when there is none.
    """
    for i in range(len(prim.vars)):
        if prim.degree_in(i) == 1:
            image = mod_image(prim, i)
            if image is not None and image[1]:
                return i, -image[0] * pow(image[1], -1, MODULUS) % MODULUS
    return None


def normalize_primitive(p: Poly):
    """Split p as unit * prim with prim integer-primitive and positive leading coefficient."""
    if p.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    den_lcm = 1
    for c in p.terms.values():
        den_lcm = _int_lcm(den_lcm, c.denominator)
    num_gcd = 0
    for c in p.terms.values():
        num_gcd = _int_gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    sign = 1 if p.leading_coefficient() > 0 else -1
    unit = Fraction(sign * num_gcd, den_lcm)
    return unit, p if unit == 1 else p * (1 / unit)


def _content_and_primitive(p: Poly, x: int):
    """Content (gcd of coefficients wrt variable x) and primitive part."""
    coeffs = {}
    for e, c in p.terms.items():
        f = list(e)
        d = f[x]
        f[x] = 0
        key = d
        coeffs.setdefault(key, {})[tuple(f)] = c
    polys = [Poly(p.vars, t) for t in coeffs.values()]
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
        shift_term = Poly(a.vars, {tuple(mono): Fraction(1)})
        r = r * lc_b - b * (lc_r * shift_term)
    return r


def _coeff_in(p: Poly, x: int, d: int) -> Poly:
    terms = {}
    for e, c in p.terms.items():
        if e[x] == d:
            f = list(e)
            f[x] = 0
            terms[tuple(f)] = c
    return Poly(p.vars, terms)


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Normalized gcd via primitive-part Euclidean recursion.

    The main variable at each level is the one with the smallest maximal
    degree among variables shared by both inputs; contents are extracted
    recursively.  Adequate for small degrees in a handful of variables.
    """
    if p.is_zero() and q.is_zero():
        return Poly.zero(p.vars)
    if p.is_zero():
        return normalize_primitive(q)[1]
    if q.is_zero():
        return normalize_primitive(p)[1]
    p._check_same_ring(q)
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
        a, b = b, _content_and_primitive(rem, x)[1]
    if not g.is_constant():
        g = _content_and_primitive(g, x)[1]
    return cont * g


# ----------------------------------------------------------------------
# parsing and printing
#
# Grammar (no implicit multiplication):
#   expr   := ['+'|'-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' UINT)*
#   atom   := UINT | VAR | '(' expr ')'
#
# No product or power is expanded past total degree MAX_DEGREE (nor any
# exponent above it), nor when its result may have more than MAX_TERMS
# terms: expansion time grows with both, an exponent such as n^99999999
# would never finish, and (n+k+1)^100 alone takes seconds.  The term count
# is bounded before the expansion by the number of monomials of the
# result's degree in the variables that occur, or by the number of term
# products if that is smaller.

MAX_DEGREE = 100
MAX_TERMS = 1000


def is_name(text: str) -> bool:
    """True when text is one variable name as polynomial text spells it."""
    try:
        return _tokenize(text)[0] == ("name", text, 0)
    except ParseError:
        return False


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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


class _Parser:
    def __init__(self, text, vars):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = tuple(vars)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1] or "end of input"), tok[2])
        return tok

    def parse_expr(self) -> Poly:
        sign = 1
        if self.peek()[0] in "+-":
            if self.advance()[0] == "-":
                sign = -1
        result = self.parse_term() * sign
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            t = self.parse_term()
            result = result + t if op == "+" else result - t
        return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            factor = self.parse_factor()
            degree = result.total_degree() + factor.total_degree()
            _check_degree(degree, pos)
            _check_terms(min(len(result.terms) * len(factor.terms),
                             _monomials(degree, result, factor)), pos)
            result = result * factor
        return result

    def parse_factor(self) -> Poly:
        result = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            e = int(tok[1])
            degree = result.total_degree() * e
            _check_degree(max(e, degree), tok[2])
            n = len(result.terms)
            # a product of e terms is a multiset of e of the n terms
            _check_terms(min(comb(n + e - 1, e) if n else 1, _monomials(degree, result)), tok[2])
            result = result ** e
        return result

    def parse_atom(self) -> Poly:
        tok = self.advance()
        if tok[0] == "int":
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


def _check_degree(degree: int, position: int):
    if degree > MAX_DEGREE:
        raise UnsupportedInputError("unsupported: degree %d at position %d exceeds the limit %d"
                                    % (degree, position, MAX_DEGREE))


def _monomials(degree: int, *polys) -> int:
    """Number of monomials of total degree <= degree in the variables the polys use."""
    used = len({i for p in polys for e in p.terms for i, x in enumerate(e) if x})
    return comb(max(degree, 0) + used, used)


def _check_terms(bound: int, position: int):
    if bound > MAX_TERMS:
        raise UnsupportedInputError("unsupported: up to %d terms at position %d exceed the "
                                    "limit %d" % (bound, position, MAX_TERMS))


def parse_poly(text: str, vars) -> Poly:
    """Parse polynomial text over the given variables.

    >>> str(parse_poly("(n+1)*(n-1)", ("n", "k")))
    'n^2-1'
    """
    if not isinstance(text, str):
        raise ParseError("expected polynomial text, not %r" % (text,), 0)
    parser = _Parser(text, vars)
    try:
        result = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError("unexpected trailing input %r" % tok[1], tok[2])
    return result


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def format_poly(p: Poly) -> str:
    """Canonical text form (graded lex, descending).

    Round-trips through parse_poly whenever the coefficients are integers;
    fractional coefficients are printed with a slash for display only.
    """
    if p.is_zero():
        return "0"
    pieces = []
    for e in sorted(p.terms, key=_grlex, reverse=True):
        c = p.terms[e]
        mono = "*".join(
            v if d == 1 else "%s^%d" % (v, d)
            for v, d in zip(p.vars, e) if d
        )
        if mono:
            if c == 1:
                body = mono
            elif c == -1:
                body = "-" + mono
            else:
                body = "%s*%s" % (_format_coeff(c), mono)
        else:
            body = _format_coeff(c)
        if pieces and not body.startswith("-"):
            pieces.append("+" + body)
        else:
            pieces.append(body)
    return "".join(pieces)


# ----------------------------------------------------------------------


class RationalFunction:
    """Quotient num/den in reduced form.

    The denominator is normalized to be integer-primitive with positive
    leading coefficient; gcd(num, den) = 1 after construction.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        num._check_same_ring(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Poly.one(num.vars)
            return
        g = gcd_poly(num, den)
        if not g.is_constant():
            num = divide_exact(num, g)
            den = divide_exact(den, g)
        unit, prim = normalize_primitive(den)
        self.num = num * (1 / unit)
        self.den = prim

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFunction":
        return cls(p, Poly.one(p.vars))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        r = RationalFunction.__new__(RationalFunction)
        r.num = -self.num
        r.den = self.den
        return r

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = RationalFunction.from_poly(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num * other.den == other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def shift(self, s) -> "RationalFunction":
        return RationalFunction(self.num.shift(s), self.den.shift(s))

    def __str__(self):
        if self.den == Poly.one(self.num.vars):
            return format_poly(self.num)
        return "(%s)/(%s)" % (format_poly(self.num), format_poly(self.den))

    def __repr__(self):
        return "RationalFunction(%r)" % str(self)


def parse_rational(text: str, vars) -> RationalFunction:
    """Parse "num" or "num/den" where both sides follow the polynomial grammar."""
    depth = 0
    split = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split is not None:
                raise ParseError("more than one top-level '/'", i)
            split = i
    if split is None:
        return RationalFunction.from_poly(parse_poly(text, vars))
    num = parse_poly(text[:split], vars)
    den = parse_poly(text[split + 1:], vars)
    return RationalFunction(num, den)
