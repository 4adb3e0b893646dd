"""Exact arithmetic foundation: prime-field scalars, monomials, and sparse
multivariate polynomials with pluggable monomial orders.

Monomials are plain tuples of nonnegative exponents (length = number of ring
variables).  Polynomials store a dict mapping monomial -> nonzero coefficient
in F_p.  All values are immutable after construction and safe to share across
threads; lengths and combinatorial counts use Python's arbitrary-precision
integers, so every downstream equality check is exact.
"""

from __future__ import annotations

import math
import re
from operator import add, mul

__all__ = [
    "DEGREE_LIMIT",
    "POWER_PRODUCT_LIMIT",
    "PRIME_LIMIT",
    "RingContext",
    "Polynomial",
    "ContextMismatchError",
    "HypothesisError",
    "ParseError",
    "binomial",
    "is_prime",
    "parse_polynomial",
    "require_parameter",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least strong pseudoprime to every base in _MR_BASES
PRIME_LIMIT = 3317044064679887385961981

# inputs stay below this degree, so monomial keys are exact (see RingContext)
DEGREE_LIMIT = 1 << 32

# the parser expands a power of a sum, or a product, only when it takes at
# most this many term products; (x+y+z+w)^60 takes 2.4 * 10^6
POWER_PRODUCT_LIMIT = 5 * 10 ** 6


class ContextMismatchError(ValueError):
    """Raised when operands belong to different ring contexts."""


class ParseError(ValueError):
    """Raised on malformed polynomial text."""


class HypothesisError(ValueError):
    """Raised when input breaks a hypothesis that construction enforces: a
    generator that is not homogeneous, or a parameter that is not nonzero
    homogeneous of degree >= 1.  The message opens with the name of the
    hypothesis check, as in ``instance.check_hypotheses``."""


def require_parameter(f: Polynomial) -> None:
    """The theorem's rule for a parameter: raises HypothesisError unless f
    is nonzero homogeneous of degree >= 1."""
    if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
        raise HypothesisError(
            f"parameters_homogeneous: parameter {f} must be nonzero "
            "homogeneous of degree >= 1")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below PRIME_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) with C(a, b) = 0 when b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def _order_rows(order, r):
    """The weight-matrix rows of an order tag on r variables, and its
    grading row (see ``RingContext``)."""
    ones = (1,) * r
    units = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    if order == "grevlex":
        return [ones] + [tuple(-e for e in u) for u in reversed(units)], ones
    if order == "lex":
        return units, ones
    if isinstance(order, tuple) and order[0] == "ydeg":
        k, weights = order[1], (order + (ones,))[3]
        if len(weights) != r or min(weights) < 1:
            raise ValueError(f"ydeg weights must be {r} integers >= 1")
        return ([weights, (-1,) * k + (0,) * (r - k)]
                + _order_rows(order[2], r)[0]), weights
    if isinstance(order, tuple) and len(order) == 3 and order[0] == "elim":
        k = order[1]
        kept = (0,) * k + (1,) * (r - k)
        base = [(0,) * k + row for row in _order_rows(order[2], r - k)[0]]
        return [kept, (1,) * k + (0,) * (r - k)] + base + units[:k], kept
    raise ValueError(f"unknown monomial order {order!r}")


def _linear_form(weights):
    """m -> sum of m_i * weights_i."""
    def form(m):
        return sum(map(mul, m, weights))
    return form


class RingContext:
    """A polynomial ring F_p[variables] together with a monomial order.

    Valid order tags: "grevlex" (default), "lex", and internal ones.
    Each tag is a weight matrix (Robbiano, "Term orderings on the polynomial
    ring", EUROCAL 1985): monomials compare by the values of its rows on
    their exponent vectors, lexicographically.  With 1 the row of ones,
    1_k the row of ones on the first k variables and e_i the i-th unit row,
    on r variables the rows are:

    - "grevlex": 1, then -e_(r-1), ..., -e_0;
    - "lex": e_0, ..., e_(r-1);
    - ("ydeg", k, base): 1, -1_k, then the rows of base;
    - ("ydeg", k, base, w): w, -1_k, then the rows of base, for a weight
      row w of integers >= 1 (the variables' degrees; the graph's u_i and
      the Rees ring's t_i in ``hilbert`` take the degrees of the
      parameters they stand for);
    - ("elim", k, base): 1 - 1_k, 1_k, the rows of base on the kept
      variables (0 on the first k), then e_0, ..., e_(k-1).

    ("elim", k, base) gives the first k variables weight 0: it compares the
    degree in the kept variables first, then the degree in the first k,
    then base on the kept variables alone, then the exponents of the first
    k lexicographically.  base is an order of the ring of the kept
    variables, so a ("ydeg", k', ·) base counts its k' variables from the
    first kept one.  For k = 1 the degree in the first variable fixes its
    exponent, so on a grevlex or lex base the order is the same as that
    base applied to all variables after the two degrees.  It eliminates
    the first k variables only for ideals homogeneous in the kept
    variables: such an ideal has a basis of such polynomials, and one whose
    leading monomial is free of the first k variables is free of them
    altogether.  ``ideals.ideal_intersect`` is its only caller.  ``degree``
    is the degree in the kept variables, which the Buchberger engine queues
    pairs by, so the run is graded.

    ("ydeg", k, base) compares total degree first, then ranks the *lower*
    degree in the first k variables higher, then breaks ties by base.  It is
    a global order that picks initial forms of lowest degree in the first k
    variables inside each total degree, so on homogeneous input its initial
    ideal is that of the tangent cone along those variables.  For it and
    the two public orders ``degree`` is the total degree.  With a weight
    row w the same holds for the degree w, which is then ``degree`` and
    which the input must be homogeneous in; every weight is at least 1, so
    the order stays global.

    The R rows are flattened once into one integer weight per variable,
    w_i = sum over rows j of M[j][i] * 2^(64 (R-1-j)), so each row value is
    one balanced base-2^64 digit of ``sort_key(m) = sum m_i w_i``.  That int
    sorts like the rows while any two values of a row differ by less than
    2^64.  Every row but a ydeg weight row is 0 or 1 on each variable, or 0
    or -1, so they do for monomials of degree below 2^64; ``parse_polynomial``
    caps input degrees at ``DEGREE_LIMIT`` = 2^32, far below.  A weight row
    holds parameter degrees, each below ``DEGREE_LIMIT``, and its value on
    a monomial is the monomial's weighted degree, so it stays below 2^64
    while the weighted degree does.  The key is linear, so the
    key of a product of monomials is the sum of their keys.  ``degree`` is
    the linear form of the grading row.

    Only this module reads inside a tag: ``eliminated`` is the k of an
    ("elim", k, base) order and ``cone_rank`` the k of a ("ydeg", k, ...)
    one, each 0 for other orders.  Every ring with more variables than the
    problem's comes from ``adjoin``: the elimination ring of
    ``ideals.ideal_intersect``, the graph and Rees rings of ``hilbert`` and
    the idealization of ``graded``.  It keeps the characteristic and puts
    the new variables first, or last, and a new name that is already taken
    gets ``_`` appended until it is free.
    """

    __slots__ = ("variables", "characteristic", "order", "sort_key",
                 "degree", "eliminated", "cone_rank", "_var_index")

    def __init__(self, variables, characteristic=32003, order="grevlex"):
        variables = tuple(variables)
        if not variables:
            raise ValueError("at least one variable is required")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        for name in variables:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
        if characteristic >= PRIME_LIMIT or not is_prime(characteristic):
            raise ValueError(f"characteristic {characteristic} is not a prime "
                             f"below {PRIME_LIMIT}")
        self.variables = variables
        self.characteristic = characteristic
        self.order = order
        rows, grading = _order_rows(order, len(variables))
        weights = [0] * len(variables)
        for row in rows:
            weights = [(w << 64) + e for w, e in zip(weights, row)]
        self.sort_key = _linear_form(weights)
        self.degree = _linear_form(grading)
        kind, k = order[:2] if isinstance(order, tuple) else (order, 0)
        self.eliminated = k if kind == "elim" else 0
        self.cone_rank = k if kind == "ydeg" else 0
        self._var_index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def variable_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r}") from None

    def unit_monomial(self):
        return (0,) * len(self.variables)

    def adjoin(self, names, order, last=False):
        """(ring, include): this ring with the variables ``names`` adjoined
        first, or after its own when ``last``, under ``order``, and the
        inclusion of this ring's polynomials into it.  A name already taken
        gets ``_`` appended until it is free."""
        fresh = ()
        for name in names:
            while name in self.variables + fresh:
                name += "_"
            fresh += (name,)
        pad = (0,) * len(fresh)
        ring = RingContext(self.variables + fresh if last
                           else fresh + self.variables,
                           self.characteristic, order)

        def include(f):
            return Polynomial.trusted(ring, {(m + pad if last else pad + m): c
                                             for m, c in f.terms.items()})
        return ring, include

    def __eq__(self, other):
        if not isinstance(other, RingContext):
            return NotImplemented
        return (self.variables == other.variables
                and self.characteristic == other.characteristic
                and self.order == other.order)

    def __hash__(self):
        return hash((self.variables, self.characteristic, self.order))

    def __repr__(self):
        return (f"RingContext({list(self.variables)}, "
                f"p={self.characteristic}, order={self.order!r})")


def _mul_terms(a, b, p):
    """Product of two term dicts over F_p."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            v = (out.get(m, 0) + c1 * c2) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _check_ctx(a: "Polynomial", b: "Polynomial"):
    if a.ctx != b.ctx:
        raise ContextMismatchError("operands come from different ring contexts")


class Polynomial:
    """Sparse multivariate polynomial over F_p.

    Stored coefficients are canonical residues in 1..p-1; zero coefficients
    are never stored, so equal polynomials have equal term dicts.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms=None):
        p = ctx.characteristic
        clean = {}
        if terms:
            r = ctx.nvars
            for mono, coeff in terms.items():
                if len(mono) != r:
                    raise ValueError("monomial length does not match ring")
                c = coeff % p
                if c:
                    clean[mono] = c
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def trusted(cls, ctx: RingContext, terms: dict) -> "Polynomial":
        """The polynomial with ``terms``, taken as they are: the caller
        guarantees monomials of the ring's length and coefficients that are
        canonical residues in 1..p-1.  The dict is kept, not copied."""
        res = cls.__new__(cls)
        res.ctx = ctx
        res.terms = terms
        return res

    @classmethod
    def zero(cls, ctx: RingContext) -> "Polynomial":
        return cls(ctx, {})

    @classmethod
    def constant(cls, ctx: RingContext, value: int) -> "Polynomial":
        return cls(ctx, {ctx.unit_monomial(): value})

    @classmethod
    def variable(cls, ctx: RingContext, name: str) -> "Polynomial":
        i = ctx.variable_index(name)
        mono = tuple(1 if j == i else 0 for j in range(ctx.nvars))
        return cls(ctx, {mono: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=self.ctx.sort_key)

    def leading_coefficient(self) -> int:
        lm = self.leading_monomial()
        return self.terms[lm] if lm is not None else 0

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        inv = pow(self.leading_coefficient(), -1, self.ctx.characteristic)
        return self.scale(inv)

    def scale(self, c: int) -> "Polynomial":
        p = self.ctx.characteristic
        c %= p
        if c == 0:
            return Polynomial.zero(self.ctx)
        if c == 1:
            return self
        return Polynomial(self.ctx, {m: v * c % p for m, v in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_ctx(self, other)
        p = self.ctx.characteristic
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial.trusted(self.ctx, out)

    def __neg__(self):
        p = self.ctx.characteristic
        return Polynomial.trusted(self.ctx,
                                  {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_ctx(self, other)
        return Polynomial.trusted(self.ctx, _mul_terms(
            self.terms, other.terms, self.ctx.characteristic))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n.  A base of at most one term is raised directly; any other
        is multiplied in n times, which on sparse polynomials costs less
        than repeated squaring, whose last products multiply two large
        powers (Fateman, "On the computation of powers of sparse
        polynomials", Stud. Appl. Math. 1974)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        p = self.ctx.characteristic
        if len(self.terms) <= 1 and n:
            return Polynomial(self.ctx, {tuple(e * n for e in m): pow(c, n, p)
                                         for m, c in self.terms.items()})
        result = Polynomial.constant(self.ctx, 1)
        for _ in range(n):
            result = result * self
        return result

    def substitute(self, images) -> "Polynomial":
        """Evaluate at variable images (a list of polynomials, one per variable).

        Every term's image goes into one dict, and each power of an image is
        computed once, from the power below it.
        """
        if len(images) != self.ctx.nvars:
            raise ValueError("need one image per variable")
        for g in images:
            _check_ctx(images[0], g)
        target = images[0].ctx
        p = target.characteristic
        unit = target.unit_monomial()
        powers = [[{unit: 1}] for _ in images]
        out = {}
        for mono, coeff in self.terms.items():
            prod = {unit: coeff}
            for image, cache, e in zip(images, powers, mono):
                if e:
                    while len(cache) <= e:
                        cache.append(_mul_terms(cache[-1], image.terms, p))
                    prod = _mul_terms(prod, cache[e], p)
            for m, c in prod.items():
                v = (out.get(m, 0) + c) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial.trusted(target, out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=self.ctx.sort_key, reverse=True):
            coeff = self.terms[mono]
            factors = []
            for name, e in zip(self.ctx.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace insensitive):
#
#   expr   := ["+" | "-"] term (("+" | "-") term)*
#   term   := factor ("*" factor)*
#   factor := atom ["^" INT]
#   atom   := INT | NAME | "(" expr ")"
#
# Implicit multiplication is rejected: "2x" is a syntax error, "2*x" parses.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} at position {pos}")
        if m.group(1) is not None:
            tokens.append(("int", m.group(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, ctx):
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value = self.advance()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}")

    def parse_expr(self):
        kind, value = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        poly = self.parse_term()
        if negate:
            poly = -poly
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                poly = poly - rhs if value == "-" else poly + rhs
            else:
                return poly

    def parse_term(self):
        poly = self.parse_factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                factor = self.parse_factor()
                s, t = len(poly.terms), len(factor.terms)
                if s * t > POWER_PRODUCT_LIMIT:
                    raise ParseError(f"a product of {s} by {t} terms takes "
                                     "more than the budget of "
                                     f"POWER_PRODUCT_LIMIT = "
                                     f"{POWER_PRODUCT_LIMIT} term products")
                poly = poly * factor
            else:
                return poly

    def parse_factor(self):
        poly = self.parse_atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer")
            value = value.lstrip("0") or "0"
            if len(value) > 10 or int(value) >= DEGREE_LIMIT:
                raise ParseError("exponent is not below the cap 2^32")
            # step j of __pow__ multiplies at most C(j+t-1, t-1) terms by t
            n, t = int(value), len(poly.terms)
            if t > 1 and t * binomial(n + t - 1, t) > POWER_PRODUCT_LIMIT:
                raise ParseError(f"{t} terms to the power {n} take more than "
                                 f"the budget of {POWER_PRODUCT_LIMIT} term "
                                 "products")
            poly = poly ** n
        return poly

    def parse_atom(self):
        kind, value = self.advance()
        if kind == "int":
            # int() refuses literals of more than 4300 digits, so the
            # literal is read mod p in chunks of at most 4000
            p = self.ctx.characteristic
            c = 0
            for i in range(0, len(value), 4000):
                chunk = value[i:i + 4000]
                c = (c * pow(10, len(chunk), p) + int(chunk)) % p
            return Polynomial.constant(self.ctx, c)
        if kind == "name":
            return Polynomial.variable(self.ctx, value)
        if kind == "op" and value == "(":
            poly = self.parse_expr()
            self.expect_op(")")
            return poly
        raise ParseError(f"unexpected token {value!r}")


def parse_polynomial(text: str, ctx: RingContext) -> Polynomial:
    """Parse polynomial text into canonical form, coefficients reduced mod p.

    Exponent literals and the degree of the result must be below
    ``DEGREE_LIMIT``, so that monomial keys stay exact."""
    parser = _Parser(_tokenize(text), ctx)
    poly = parser.parse_expr()
    kind, value = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting at {value!r}")
    if (poly.degree() or 0) >= DEGREE_LIMIT:
        raise ParseError("degree is not below the cap 2^32")
    return poly
