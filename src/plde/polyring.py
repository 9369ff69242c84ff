"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every operation is exact; there is no floating point anywhere.  A term
map is an immutable map from exponent vectors to nonzero coefficients.
`Poly`, the polynomial over QQ in an ordered tuple of variable names, is
a rational content times a term map over Z: ``p.content`` is a Fraction
and ``p.terms`` an int term map whose coefficients have gcd 1 and whose
leading coefficient in graded lexicographic order is positive.  The pair
is canonical, so equality and hashing read it directly; the zero
polynomial has content 0 and no terms (Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2).  By Gauss's lemma a
product, a power or an integer shift of such term maps is again primitive
with a positive leading coefficient, so `mul_terms`, `pow_terms` and
`shift_terms` run on the ints alone; a sum takes one gcd, and negation or
a scalar factor touch only the content.  The strip rewriting of `bounds`
calls the same kernels on ints and divides by primitive integer
polynomials with `divide_int_terms`, which by Gauss's lemma needs exact
int division only.  The solution check of `verify` runs on the same
kernels, with one product per distinct cancelled denominator.  There is
no polynomial gcd: every cancellation divides by a declared prim, a
primitive integer factor with a positive leading coefficient, and a
`RationalFunction` carries the prims of its denominator for that.
Polynomial text has only unsigned integer literals, so the parser works
on int term maps throughout (`parse_terms`).  Leading terms and printing
use graded lexicographic order on the exponent vectors.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import comb, gcd as _int_gcd, lcm as _int_lcm, prod
from operator import add as _add, sub as _sub


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


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _canonical(content: Fraction, terms: dict):
    """(content * g, terms / g) for the gcd g of the int term map, signed like its leading term."""
    if not terms:
        return _ZERO, terms
    g = _int_gcd(*terms.values())
    if terms[max(terms, key=_grlex)] < 0:
        g = -g
    if g == 1:
        return content, terms
    return content * g, {e: c // g for e, c in terms.items()}


class Poly:
    """Sparse polynomial in QQ[vars]: the Fraction ``content`` times the int map ``terms``.

    ``terms`` maps exponent tuples (one entry per variable, non-negative)
    to nonzero int coefficients with gcd 1, the leading one in graded lex
    order positive.  The zero polynomial has content 0 and an empty term
    map.  Instances are treated as immutable and are hashable.
    """

    __slots__ = ("vars", "content", "terms", "_hash", "_key")

    def __init__(self, vars, terms=None):
        """The polynomial with the given map of exponent vectors to rational coefficients."""
        self.vars = tuple(vars)
        self._hash = self._key = None
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
        den = _int_lcm(*(c.denominator for c in clean.values()))
        self.content, self.terms = _canonical(
            Fraction(1, den), {e: c.numerator * (den // c.denominator) for e, c in clean.items()})

    @classmethod
    def _make(cls, vars: tuple, content: Fraction, terms: dict) -> "Poly":
        """Trusted constructor: the canonical pair (content, terms) of the class docstring."""
        p = object.__new__(cls)
        p.vars = vars
        p.content = content
        p.terms = terms
        p._hash = p._key = None
        return p

    @classmethod
    def from_ints(cls, vars: tuple, terms: dict, content: Fraction = _ONE) -> "Poly":
        """The polynomial content * terms for any int term map without zero coefficients."""
        return cls._make(vars, *_canonical(content, terms))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, vars) -> "Poly":
        return cls._make(tuple(vars), _ZERO, {})

    @classmethod
    def const(cls, vars, c) -> "Poly":
        vars = tuple(vars)
        c = Fraction(c)
        return cls._make(vars, c, {(0,) * len(vars): 1} if c else {})

    @classmethod
    def one(cls, vars) -> "Poly":
        return cls.const(vars, 1)

    @classmethod
    def variable(cls, vars, name) -> "Poly":
        vars = tuple(vars)
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls._make(vars, _ONE, {tuple(e): 1})

    @classmethod
    def linear_forms(cls, vars, rows) -> list:
        """The images sum_j row[j] * vars[j] of the substitution n -> rows . n."""
        vars = tuple(vars)
        units = [tuple(int(i == j) for i in range(len(vars))) for j in range(len(vars))]
        return [cls.from_ints(vars, {e: c for e, c in zip(units, row) if c}) for row in rows]

    # ------------------------------------------------------------------
    # structure queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.content * self.terms.get((0,) * len(self.vars), 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    # ------------------------------------------------------------------
    # ring operations

    def _check_same_ring(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError("mismatched variable lists: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        c1, c2 = self.content, other.content
        if c1 == c2:
            return Poly.from_ints(self.vars, add_terms(self.terms, other.terms), c1)
        # c1 = k1 * g and c2 = k2 * g with integers k1, k2
        g = _int_gcd(c1.numerator, c2.numerator)
        den = _int_lcm(c1.denominator, c2.denominator)
        k1 = c1.numerator // g * (den // c1.denominator)
        k2 = c2.numerator // g * (den // c2.denominator)
        return Poly.from_ints(self.vars, add_terms({e: k1 * c for e, c in self.terms.items()},
                                                   {e: k2 * c for e, c in other.terms.items()}),
                              Fraction(g, den))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly._make(self.vars, -self.content, self.terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return Poly.zero(self.vars)
            return Poly._make(self.vars, self.content * f, self.terms)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.vars)
        return Poly._make(self.vars, self.content * other.content,
                          mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative exponent")
        if not n:
            return Poly.one(self.vars)
        return Poly._make(self.vars, self.content ** n, pow_terms(self.terms, n))

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.vars == other.vars
                and self.content == other.content and self.terms == other.terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.vars, self.content, frozenset(self.terms.items())))
        return h

    # ------------------------------------------------------------------
    # shift, evaluation, substitution

    def shift(self, s) -> "Poly":
        """Return p(n + s) for an integer shift vector s (entries may be negative)."""
        s = tuple(int(x) for x in s)
        if len(s) != len(self.vars):
            raise ValueError("shift vector length %d, expected %d" % (len(s), len(self.vars)))
        return Poly._make(self.vars, self.content, shift_terms(self.terms, s)) if any(s) else self

    def eval_at(self, point) -> Fraction:
        point = [Fraction(x) for x in point]
        if len(point) != len(self.vars):
            raise ValueError("point length %d, expected %d" % (len(point), len(self.vars)))
        total = _ZERO
        for e, c in self.terms.items():
            w = c
            for x, d in zip(point, e):
                if d:
                    w *= x ** d
            total += w
        return self.content * total

    def compose(self, exprs, target_vars=None) -> "Poly":
        """Substitute each variable by a polynomial in the target ring."""
        exprs = list(exprs)
        if len(exprs) != len(self.vars):
            raise ValueError("need one substitute per variable")
        tv = tuple(target_vars) if target_vars is not None else exprs[0].vars
        # a monomial e gives at most prod_i C(e_i + w_i - 1, w_i - 1) terms, w_i the terms of
        # the i-th substitute, and the result no more than the monomials of its degree
        widths = [max(len(q.terms), 1) for q in exprs]
        bound = min(sum(prod(comb(d + w - 1, w - 1) for d, w in zip(e, widths)) for e in self.terms),
                    _monomials(self.total_degree() * max(q.total_degree() for q in exprs),
                               *(q.terms for q in exprs)))
        if bound > MAX_TERMS:
            raise UnsupportedInputError("unsupported: a substitution of %d > %d terms"
                                        % (bound, MAX_TERMS))
        powers = []
        for i, q in enumerate(exprs):
            cache = [Poly.one(tv)]
            for _ in range(self.degree_in(i)):
                cache.append(cache[-1] * q)
            powers.append(cache)
        result = Poly.zero(tv)
        for e, c in self.terms.items():
            t = Poly.const(tv, c)
            for i, d in enumerate(e):
                if d:
                    t = t * powers[i][d]
            result = result + t
        return result * self.content

    # ------------------------------------------------------------------
    # printing

    def sort_key(self):
        """Deterministic comparison key: degree first, then the term list, then the content."""
        k = self._key
        if k is None:
            k = self._key = (self.total_degree(), tuple(sorted(self.terms.items())), self.content)
        return k

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "Poly(%r)" % format_poly(self)


def divide_exact(p: Poly, q: Poly):
    """Quotient of p by q when the division is exact, else None.

    Divides the primitive integer parts with divide_int_terms; by Gauss's
    lemma the quotient is primitive with a positive leading coefficient,
    and its content is the ratio of the contents.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_same_ring(q)
    quotient = divide_int_terms(p.terms, q.terms)
    return None if quotient is None else Poly._make(p.vars, p.content / q.content, quotient)


# ----------------------------------------------------------------------
# kernels on term maps


def add_terms(a: dict, b: dict) -> dict:
    terms = dict(a)
    for e, c in b.items():
        v = terms.get(e)
        if v is None:
            terms[e] = c
            continue
        v += c
        if v:
            terms[e] = v
        else:
            del terms[e]
    return terms


def mul_terms(a: dict, b: dict) -> dict:
    terms = {}
    get = terms.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(_add, e1, e2))
            v = get(e)
            terms[e] = c1 * c2 if v is None else v + c1 * c2
    return {e: c for e, c in terms.items() if c}


def pow_terms(a: dict, e: int) -> dict:
    """a^e for an exponent e >= 1, by repeated squaring."""
    result = None
    while e:
        if e & 1:
            result = a if result is None else mul_terms(result, a)
        e >>= 1
        if e:
            a = mul_terms(a, a)
    return result


def shift_terms(a: dict, s: tuple) -> dict:
    """The term map of p(n + s) for the polynomial p with term map a."""
    terms = {}
    for e, c in a.items():
        # expand prod_i (x_i + s_i)^{e_i}
        for f in itertools.product(*(range(d + 1) for d in e)):
            w = c
            for d, fi, si in zip(e, f, s):
                if d != fi:
                    w *= comb(d, fi) * si ** (d - fi)
            if w:
                v = terms.get(f)
                terms[f] = w if v is None else v + w
    return {e: c for e, c in terms.items() if c}


def divide_int_terms(p: dict, q: dict):
    """Quotient of p by q when q divides p, else None; p and q over Z, q primitive.

    Repeatedly cancels leading terms under graded lex; each step finds one
    coefficient of the quotient.  By Gauss's lemma a quotient of p by the
    primitive q has integer coefficients, so the division fails as soon as
    the leading monomial of q no longer divides the current one or an int
    division leaves a remainder.
    """
    # exponents carry their total degree in front, so that max is grlex
    q = [((sum(e),) + e, c) for e, c in q.items()]
    eq, cq = max(q)
    quotient = {}
    rem = {(sum(e),) + e: c for e, c in p.items()}
    while rem:
        ep = max(rem)
        diff = tuple(map(_sub, ep, eq))
        if min(diff) < 0:
            return None
        c, r = divmod(rem[ep], cq)
        if r:
            return None
        quotient[diff[1:]] = c
        for e2, c2 in q:
            e = tuple(map(_add, diff, e2))
            v = rem.get(e, 0) - c * c2
            if v:
                rem[e] = v
            else:
                del rem[e]
    return quotient


def normalize_primitive(p: Poly):
    """Split p as unit * prim with prim integer-primitive and positive leading coefficient."""
    if p.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    return p.content, p if p.content == 1 else Poly._make(p.vars, _ONE, p.terms)


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
# exponent above it), nor when the results of all products and powers of
# one text may have more than MAX_TERMS terms together: expansion time
# grows with both, an exponent such as n^99999999 would never finish, and
# (n+k+1)^100 alone takes seconds.  Each product's or power's term count is
# bounded before the expansion by the number of monomials of the result's
# degree in the variables that occur, or by the number of term products if
# that is smaller, and charged against the text's budget of MAX_TERMS.
# Nor is a product or power expanded when its coefficients could exceed
# MAX_COEFF_BITS bits: the sum of the absolute values of the coefficients
# (the 1-norm) bounds each of them and is submultiplicative, so a product's
# 1-norm has at most the sum of its operands' bit lengths, and a^e at most
# e times the bit length of a's.  Without that bound ((17^100)^100)^100
# alone is a 4-million-bit constant.  An integer literal of d digits counts
# ceil(10d/3) bits, so none has more than 1,228 digits.

MAX_DEGREE = 100
MAX_TERMS = 1000
MAX_COEFF_BITS = 4096


def is_name(text: str) -> bool:
    """True when text is one variable name as polynomial text spells it."""
    try:
        return _tokenize(text)[0] == ("name", text, 0)
    except ParseError:
        return False


# str.isdigit also accepts digits such as '²' that int() refuses
_DIGITS = "0123456789"


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
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
    """Recursive descent over the tokens; every value is an int term map."""

    def __init__(self, text, vars):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = tuple(vars)
        self.zero = (0,) * len(self.vars)
        self.budget = MAX_TERMS

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

    def parse_expr(self) -> dict:
        negate = False
        if self.peek()[0] in "+-":
            negate = self.advance()[0] == "-"
        result = self.parse_term()
        if negate:
            result = _negated(result)
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            t = self.parse_term()
            result = add_terms(result, t if op == "+" else _negated(t))
        return result

    def parse_term(self) -> dict:
        result = self.parse_factor()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            factor = self.parse_factor()
            degree = _degree(result) + _degree(factor)
            _check_degree(degree, pos)
            _check_bits(_norm_bits(result) + _norm_bits(factor), pos)
            self.charge(min(len(result) * len(factor), _monomials(degree, result, factor)), pos)
            result = mul_terms(result, factor)
        return result

    def parse_factor(self) -> dict:
        result = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            e = _exponent(tok)
            degree = _degree(result) * e
            _check_degree(max(e, degree), tok[2])
            _check_bits(e * _norm_bits(result), tok[2])
            n = len(result)
            # a product of e terms is a multiset of e of the n terms
            self.charge(min(comb(n + e - 1, e) if n else 1, _monomials(degree, result)), tok[2])
            result = pow_terms(result, e) if e else {self.zero: 1}
        return result

    def parse_atom(self) -> dict:
        tok = self.advance()
        if tok[0] == "int":
            # d digits hold less than 10^d < 2^(10d/3); int() itself refuses
            # more than sys.get_int_max_str_digits() digits
            _check_bits(-(-10 * len(tok[1]) // 3), tok[2])
            c = int(tok[1])
            return {self.zero: c} if c else {}
        if tok[0] == "name":
            if tok[1] not in self.vars:
                raise ParseError("unknown variable %r" % tok[1], tok[2])
            i = self.vars.index(tok[1])
            return {self.zero[:i] + (1,) + self.zero[i + 1:]: 1}
        if tok[0] == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError("expected a number, variable or parenthesis, found %r"
                         % (tok[1] or "end of input"), tok[2])

    def parse_factors(self) -> list:
        """The text, ['+'|'-'] term, as a list of (term map, multiplicity).

        A parenthesized product counts as its factors, a power multiplies
        the multiplicities of its base's factors, and a '-' in front is the
        factor -1.  The text must have passed `parse_terms`.
        """
        opens, sums = [], set()  # sums: the '(' whose contents have a '+' or '-' inside
        for i, (kind, _, _) in enumerate(self.tokens):
            if kind == "(":
                opens.append(i)
            elif kind == ")":
                opens.pop()
            elif kind in "+-" and opens and i > opens[-1] + 1:
                sums.add(opens[-1])
        return [(f, mult) for f, mult in self._product(sums) if mult]

    def _product(self, sums) -> list:
        factors = []
        if self.peek()[0] in "+-" and self.advance()[0] == "-":
            factors.append(({self.zero: -1}, 1))
        while True:
            if self.peek()[0] == "(" and self.pos not in sums:
                self.advance()
                base = self._product(sums)
                self.expect(")")
            else:
                base = [(self.parse_atom(), 1)]
            while self.peek()[0] == "^":
                self.advance()
                e = _exponent(self.expect("int"))
                base = [(f, mult * e) for f, mult in base]
            factors += base
            if self.peek()[0] != "*":
                return factors
            self.advance()

    def charge(self, bound: int, position: int):
        """Charge a bound on the terms of one product or power against the text's budget."""
        self.budget -= bound
        if self.budget < 0:
            raise UnsupportedInputError("unsupported: the products and powers up to position %d "
                                        "exceed the budget of %d terms per polynomial text"
                                        % (position, MAX_TERMS))


def _negated(terms: dict) -> dict:
    return {e: -c for e, c in terms.items()}


def _degree(terms: dict) -> int:
    """Total degree of a term map; -1 for the zero polynomial."""
    return max(map(sum, terms), default=-1)


def _exponent(tok) -> int:
    """The value of an exponent token; refused before int() if longer than MAX_DEGREE."""
    digits = tok[1].lstrip("0")
    if len(digits) > len(str(MAX_DEGREE)):
        raise UnsupportedInputError("unsupported: an exponent of %d digits at position %d exceeds "
                                    "the degree limit %d" % (len(digits), tok[2], MAX_DEGREE))
    return int(digits or "0")


def _check_degree(degree: int, position: int):
    if degree > MAX_DEGREE:
        raise UnsupportedInputError("unsupported: degree %d at position %d exceeds the limit %d"
                                    % (degree, position, MAX_DEGREE))


def _norm_bits(terms: dict) -> int:
    """Bit length of the sum of the absolute values of the coefficients."""
    return sum(map(abs, terms.values())).bit_length()


def _check_bits(bits: int, position: int):
    if bits > MAX_COEFF_BITS:
        raise UnsupportedInputError("unsupported: coefficients of up to %d bits at position %d "
                                    "exceed the limit %d" % (bits, position, MAX_COEFF_BITS))


def _monomials(degree: int, *term_maps) -> int:
    """Number of monomials of total degree <= degree in the variables the term maps use."""
    used = sum(map(any, zip(*(e for terms in term_maps for e in terms))))
    return comb(max(degree, 0) + used, used)


def parse_terms(text: str, vars) -> dict:
    """Parse polynomial text over the given variables into an int term map.

    >>> parse_terms("(n+1)*(n-1)", ("n", "k"))
    {(2, 0): 1, (0, 0): -1}
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


def parse_poly(text: str, vars) -> Poly:
    """Parse polynomial text over the given variables.

    >>> str(parse_poly("(n+1)*(n-1)", ("n", "k")))
    'n^2-1'
    """
    return Poly.from_ints(tuple(vars), parse_terms(text, vars))


def _format_coeff(c: Fraction) -> str:
    try:
        if c.denominator == 1:
            return str(c.numerator)
        return "%d/%d" % (c.numerator, c.denominator)
    except ValueError:  # Python's limit on int to decimal text conversion
        raise UnsupportedInputError("unsupported: a coefficient has more than %d decimal digits, "
                                    "too many to print" % sys.get_int_max_str_digits()) from None


def format_poly(p: Poly) -> str:
    """Canonical text form (graded lex, descending).

    Round-trips through parse_poly whenever the coefficients are integers;
    fractional coefficients are printed with a slash for display only.
    """
    if p.is_zero():
        return "0"
    pieces = []
    for e in sorted(p.terms, key=_grlex, reverse=True):
        c = p.content * p.terms[e]
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
    """num / den, with den the product of the declared prims ``factors``.

    ``factors`` has the form of ``FactoredPoly.factors``.  The constructor
    takes any nonzero factors, moves their units into num and merges equal
    prims; then num is divided by each prim as often as it goes, up to its
    multiplicity.  So num / den is in lowest terms when the declared prims
    are irreducible, and den is 1 when num is 0, which every prim divides.
    """

    __slots__ = ("num", "den", "factors")

    def __init__(self, num: Poly, factors=()):
        merged = {}
        for p, mult in factors:
            num._check_same_ring(p)
            if p.is_zero():
                raise ZeroDivisionError("zero denominator")
            unit, prim = normalize_primitive(p)
            num = num * (1 / unit ** mult)
            if not prim.is_constant():
                merged[prim] = merged.get(prim, 0) + mult
        terms = num.terms
        den = {(0,) * len(num.vars): 1}
        kept = []
        for prim in sorted(merged, key=Poly.sort_key):
            mult = merged[prim]
            while mult:
                quotient = divide_int_terms(terms, prim.terms)
                if quotient is None:
                    break
                terms = quotient
                mult -= 1
            if mult:
                kept.append((prim, mult))
                den = mul_terms(den, pow_terms(prim.terms, mult))
        self.num = Poly._make(num.vars, num.content, terms)
        self.den = Poly._make(num.vars, _ONE, den)
        self.factors = tuple(kept)

    def __str__(self):
        if not self.factors:
            return format_poly(self.num)
        return "(%s)/(%s)" % (format_poly(self.num), format_poly(self.den))

    def __repr__(self):
        return "RationalFunction(%r)" % str(self)


def parse_rational(text: str, vars) -> RationalFunction:
    """Parse "num" or "num/den", where both sides follow the polynomial grammar.

    den is read as a product of declared factors (`_Parser.parse_factors`),
    after `parse_terms` has held the expanded den to the limits of any
    polynomial text.
    """
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
        return RationalFunction(parse_poly(text, vars))
    # each side keeps its place in text, so that every position counts from the start of text
    sides = (text[:split], " " * (split + 1) + text[split + 1:])
    # "a/(b)+1" would read as a/(b+1): a sum beside the '/' must be parenthesized
    for side in sides:
        depth = 0
        for i, (kind, _, pos) in enumerate(_tokenize(side)):
            depth += (kind == "(") - (kind == ")")
            if kind in "+-" and depth == 0 and i:
                raise ParseError("a sum next to the top-level '/' is ambiguous; "
                                 "write (num)/(den)", pos)
    num = parse_poly(sides[0], vars)
    parse_terms(sides[1], vars)
    vars = tuple(vars)
    return RationalFunction(num, [(Poly.from_ints(vars, f), mult)
                                  for f, mult in _Parser(sides[1], vars).parse_factors()])
