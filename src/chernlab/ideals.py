"""Ideal arithmetic (sum, product, power, intersection), Krull dimension,
Hilbert series of monomial ideals, and zero-dimensional colength.

All ideals are homogeneous, which keeps every finite colength equal to a
graded vector-space dimension: the colength is the value at t = 1 of the
Hilbert series of the quotient, read off the initial ideal of the reduced
basis, so every length takes the same route.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .core import (ContextMismatchError, HypothesisError, Polynomial,
                   RingContext, binomial, parse_polynomial)
from .groebner import GroebnerBasis, buchberger, lead_numerator

__all__ = [
    "Ideal",
    "HilbertSeries",
    "NotFiniteLengthError",
    "ideal_sum",
    "ideal_product",
    "ideal_power",
    "direct_sum",
    "ideal_intersect",
    "krull_dimension",
    "monomial_hilbert_series",
    "quotient_hilbert_series",
    "quotient_length",
]


class NotFiniteLengthError(ValueError):
    """Raised when a colength is requested for a positive-dimensional quotient."""


class Ideal:
    """A homogeneous ideal: generator list plus a cached reduced Groebner
    basis, the cached Hilbert series of its quotient, and ``cone_cache``,
    its tangent cone along the latest parameters asked for, as (parameter
    generators, cone), which ``hilbert.tangent_cone``, where every cone is
    built, reads and fills.

    Each cache is filled on first use, the basis at once by
    ``from_basis``.  Homogeneity is checked in the grading of the ring's
    order tag (``core.Polynomial.is_homogeneous``): the total degree in a
    standard ring, the weighted degree in the graph and Rees rings of
    ``hilbert``.  ``quotient_hilbert_series`` counts in the standard
    grading, and no path asks a weighted ideal for it: those ideals serve
    only their tangent cones.
    """

    __slots__ = ("ctx", "generators", "_gb", "_series", "cone_cache")

    def __init__(self, ctx: RingContext, generators):
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise ContextMismatchError("generator from a different ring context")
            if not g.is_homogeneous():
                raise HypothesisError(f"generators_homogeneous: generator {g} "
                                      "is not homogeneous")
            if not g.is_zero():
                gens.append(g)
        self.ctx = ctx
        self.generators = tuple(gens)
        self._gb = None
        self._series = None
        self.cone_cache = None

    @classmethod
    def from_basis(cls, basis: GroebnerBasis) -> "Ideal":
        """The ideal generated by a reduced basis, which it keeps as its
        own.  The basis of a homogeneous ideal is homogeneous, so its
        elements are not checked again."""
        ideal = cls(basis.ctx, ())
        ideal.generators = basis.elements
        ideal._gb = basis
        return ideal

    @classmethod
    def from_strings(cls, ctx: RingContext, texts) -> "Ideal":
        return cls(ctx, [parse_polynomial(t, ctx) for t in texts])

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = buchberger(self.generators, self.ctx)
        return self._gb

    def lead_monomials(self):
        return self.groebner().lead_monomials()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        return self.groebner() == other.groebner()

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({gens})"


def _check_pair(a: Ideal, b: Ideal):
    if a.ctx != b.ctx:
        raise ContextMismatchError("ideals come from different ring contexts")


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    _check_pair(a, b)
    return Ideal(a.ctx, list(a.generators) + list(b.generators))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    _check_pair(a, b)
    return Ideal(a.ctx, [f * g for f in a.generators for g in b.generators])


def ideal_power(a: Ideal, n: int) -> Ideal:
    """Ideal generated by all n-fold products of the generators, in
    ``combinations_with_replacement`` order.

    Each n-fold product is an (n-1)-fold one times a generator of index at
    least the last one of its factors, so J^n is built from J^(n-1).
    """
    if n < 1:
        raise ValueError("exponent must be at least 1")
    gens = a.generators
    power = a
    for m in range(1, n):
        lasts = (combo[-1] for combo in
                 combinations_with_replacement(range(len(gens)), m))
        power = Ideal(a.ctx, [f * g for last, f in zip(lasts, power.generators)
                              for g in gens[last:]])
    return power


def direct_sum(ideals, diagonal=True):
    """(T, include, gens): ⊕ S/I_i as the quotient of a free module of the
    module ring T over the ring S of the ``ideals``, by the submodule

        N = sum_(i<g) I_i e_i + I_g (v - e_1 - ... - e_(g-1))

    that ``gens`` generate, ``include`` taking S into T.  With
    ``diagonal``, T is ``RingContext.diagonal_ring(g)``, whose positions are
    v and e_1..e_(g-1); F/N is ⊕ S/I_i, with u_i = e_i (i < g) and
    u_g = v - e_1 - ... - e_(g-1) the summands' generators, and
    v = u_1 + ... + u_g the diagonal.  Without, T is S with the positions
    e_1..e_(g-1) adjoined last under S's order and v = 0: F/N is then L,
    the cokernel of R = S/(I_1 ∩ ... ∩ I_g) >--> ⊕ S/I_i, whose image the
    diagonal generates.  The I_i enter by their reduced bases, and
    ContextMismatchError refuses components of two rings.
    """
    ctx, g = ideals[0].ctx, len(ideals)
    T, include = (ctx.diagonal_ring(g) if diagonal else ctx.adjoin(
        (), ctx.order, [f"e{i}" for i in range(1, g)], module=True))
    e = [Polynomial.variable(T, T.variables[i]) for i in T.positions]
    v = e.pop(0) if diagonal else Polynomial.zero(T)
    return T, include, [
        include(f) * u for ideal, u in zip(ideals, e + [v - sum(
            e, Polynomial.zero(T))]) for f in ideal.groebner().elements]


def ideal_intersect(*ideals) -> Ideal:
    """I_1 ∩ ... ∩ I_g, for any g >= 1: a single ideal is its own
    intersection and comes back itself, with its basis and cone.  Raises
    ValueError for no ideals.

    For g >= 2 it is the annihilator of the diagonal v of ⊕ S/I_i, from
    one basis of its presentation N in the diagonal ring T
    (``direct_sum``): f v lies in N exactly when f lies in every I_i.  N is
    homogeneous, so its reduced basis is; an element whose leading term
    sits at v is f v, and these f are the core's reduced basis, in the
    ring's order, which the order of T is on v S.  It is sorted again by
    leading monomial, as T compares the degree first and a lex ring does
    not.

    F/N ≅ (⊕ S/I_i)(-1) as graded vector spaces, so the run stops on
    HS(F/N) = t sum_i HS(S/I_i), read off the components' bases.
    """
    if not ideals:
        raise ValueError("need at least one ideal")
    if len(ideals) == 1:
        return ideals[0]
    ctx = ideals[0].ctx
    T, _, gens = direct_sum(ideals)
    summands = sum(map(quotient_hilbert_series, ideals), HilbertSeries((), 0))
    basis = buchberger(gens, T, HilbertSeries(
        (0,) + summands.numerator, summands.denominator_exponent))
    core = [Polynomial.trusted(ctx, {m[1:ctx.nvars + 1]: c
                                     for m, c in f.terms.items()})
            for lm, f in zip(basis.lead_monomials(), basis) if lm[0]]
    core.sort(key=lambda f: ctx.sort_key(f.leading_monomial()))
    return Ideal.from_basis(GroebnerBasis(ctx, core))


def krull_dimension(a: Ideal) -> int:
    """dim S/a: the pole order at t = 1 of its Hilbert series, or -1 for the
    unit ideal (whose quotient is zero)."""
    return quotient_hilbert_series(a).dimension()


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals
# ---------------------------------------------------------------------------


class HilbertSeries:
    """A series numerator/(1-t)^s, stored in lowest terms: (1-t) is divided
    out of the numerator until s reaches 0 or the numerator stops vanishing
    at t = 1.  When s = 0 the series is the (finite) dimension sequence
    itself and total() gives the full dimension of the quotient."""

    __slots__ = ("numerator", "denominator_exponent")

    def __init__(self, numerator, denominator_exponent):
        num = list(numerator)
        while num and num[-1] == 0:
            num.pop()
        s = denominator_exponent
        while s > 0 and num and sum(num) == 0:
            quotient = []
            acc = 0
            for c in num[:-1]:
                acc += c
                quotient.append(acc)
            num = quotient
            while num and num[-1] == 0:
                num.pop()
            s -= 1
        if not num:
            s = 0
        self.numerator = tuple(num)
        self.denominator_exponent = s

    def is_polynomial(self) -> bool:
        return self.denominator_exponent == 0

    def dimension(self) -> int:
        """Krull dimension of the quotient: the pole order at t = 1, or -1
        when the quotient is zero."""
        return self.denominator_exponent if self.numerator else -1

    def total(self) -> int:
        if not self.is_polynomial():
            raise NotFiniteLengthError("quotient does not have finite length")
        return sum(self.numerator)

    def summed(self, n: int) -> int:
        """The sum of the coefficients of t^0..t^(n-1): with numerator h
        and s = denominator_exponent, sum_(i<n) h_i C(n-1-i+s, s)."""
        s = self.denominator_exponent
        return sum(c * binomial(n - 1 - i + s, s)
                   for i, c in enumerate(self.numerator[:n]))

    def lift(self, s):
        """The numerator of the same series over (1-t)^s, s at least the
        pole order, as a list."""
        if s < self.denominator_exponent:
            raise ValueError(f"cannot write a series of pole order "
                             f"{self.denominator_exponent} over (1-t)^{s}")
        num = list(self.numerator)
        for _ in range(s - self.denominator_exponent):
            num = [a - b for a, b in zip(num + [0], [0] + num)]
        return num

    def __add__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        s = max(self.denominator_exponent, other.denominator_exponent)
        a = self.lift(s)
        b = other.lift(s)
        width = max(len(a), len(b))
        num = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
               for i in range(width)]
        return HilbertSeries(num, s)

    def __sub__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return self + HilbertSeries([-c for c in other.numerator],
                                    other.denominator_exponent)

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator_exponent == other.denominator_exponent)

    def __repr__(self):
        return (f"HilbertSeries(numerator={list(self.numerator)}, "
                f"denominator_exponent={self.denominator_exponent})")


def monomial_hilbert_series(lead_monomials, ctx: RingContext) -> HilbertSeries:
    """Exact Hilbert series of S/(monomial ideal), or in a module ring of
    F/(monomial submodule) (``groebner.lead_numerator``)."""
    return HilbertSeries(lead_numerator(lead_monomials, ctx)[0],
                         ctx.base_nvars)


def quotient_hilbert_series(a: Ideal) -> HilbertSeries:
    """Hilbert series of S/a via the initial ideal of the reduced basis,
    computed once per ideal."""
    if a._series is None:
        a._series = monomial_hilbert_series(a.lead_monomials(), a.ctx)
    return a._series


def quotient_length(a: Ideal) -> int:
    """Colength of a: the total of the Hilbert series of S/a, 0 for the unit
    ideal.  Raises NotFiniteLengthError when dim S/a > 0, the empty ideal
    included."""
    return quotient_hilbert_series(a).total()
