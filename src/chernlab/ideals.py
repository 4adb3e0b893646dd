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
from .groebner import (GroebnerBasis, buchberger, minimalize, normal_form,
                       series_numerator)

__all__ = [
    "Ideal",
    "HilbertSeries",
    "NotFiniteLengthError",
    "ideal_sum",
    "ideal_product",
    "ideal_power",
    "ideal_intersect",
    "intersect_all",
    "krull_dimension",
    "is_mprimary",
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
    generators, cone), which ``hilbert.tangent_cone`` reads and fills.

    Each cache is filled on first use, or at once by ``from_basis``.
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
    def from_basis(cls, basis: GroebnerBasis, series=None) -> "Ideal":
        """The ideal generated by a reduced basis, which it keeps as its
        own, with the Hilbert series of its quotient when the caller knows
        it.  The basis of a homogeneous ideal is homogeneous, so its
        elements are not checked again."""
        ideal = cls(basis.ctx, ())
        ideal.generators = basis.elements
        ideal._gb, ideal._series = basis, series
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

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.groebner()).is_zero()

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


def ideal_intersect(a: Ideal, b: Ideal, total=None) -> Ideal:
    """Intersection via the single auxiliary variable t:

    A ∩ B = (t*A + (1-t)*B) ∩ k[x], computed in the ("elim", 1, base)
    order.  t has weight 0 there, so the generators t*a and (1-t)*b are
    homogeneous in x, the order compares the x-degree first, then the
    t-degree, then base, and the engine runs degree by degree in x.  A
    basis element whose leading monomial is free of t is then free of t, so
    the t-free part of the basis (``GroebnerBasis.eliminate``) is a basis
    of A ∩ B.  On t-free monomials of one degree the order is base, so that
    part is the reduced base basis of A ∩ B, for lex too: A ∩ B is
    homogeneous, and on homogeneous polynomials degree-then-lex and lex
    pick the same leading terms.

    The elimination run has the target series
    HS(S/(A ∩ B)) = HS(S/A) + HS(S/B) - HS(S/(A + B)), from the exact
    sequence 0 -> S/(A ∩ B) -> S/A ⊕ S/B -> S/(A + B) -> 0, and stops once
    its t-free leading monomials reach it.  HS(S/A) and HS(S/B) come from
    the bases of A and B, and HS(S/(A + B)) from the basis of ``total``, the
    ideal A + B, which a caller that holds it already passes so that one
    basis serves both (``ProblemInstance.pair_sums``); without it a fresh
    A + B is built.  The result keeps that series as its own.
    """
    _check_pair(a, b)
    ctx = a.ctx
    ectx, include = ctx.adjoin(("t",), ("elim", 1, ctx.order))
    t = Polynomial.variable(ectx, ectx.variables[0])
    gens = [t * include(f) for f in a.generators]
    gens += [include(g) - t * include(g) for g in b.generators]

    if total is None:
        total = ideal_sum(a, b)
    series = (quotient_hilbert_series(a) + quotient_hilbert_series(b)
              - quotient_hilbert_series(total))
    return Ideal.from_basis(buchberger(gens, ectx, series).eliminate(ctx),
                            series)


def intersect_all(ideals, first_sum=None) -> Ideal:
    """I_1 ∩ ... ∩ I_g, one pairwise intersection at a time.  ``first_sum``
    is I_1 + I_2 when the caller holds it (see ``ideal_intersect``)."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    acc = ideals[0]
    for other in ideals[1:]:
        acc = ideal_intersect(acc, other, first_sum)
        first_sum = None
    return acc


def krull_dimension(a: Ideal) -> int:
    """dim S/a: the pole order at t = 1 of its Hilbert series, or -1 for the
    unit ideal (whose quotient is zero)."""
    return quotient_hilbert_series(a).dimension()


def is_mprimary(a: Ideal) -> bool:
    return krull_dimension(a) == 0


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

    def coefficients_up_to(self, max_degree: int):
        """Dimension sequence dim (S/I)_s for s = 0..max_degree."""
        return [self.summed(m + 1) - self.summed(m)
                for m in range(max_degree + 1)]

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
    """Exact Hilbert series of S/(monomial ideal)."""
    r = ctx.nvars
    gens = minimalize(lead_monomials)
    return HilbertSeries(series_numerator(gens, r)[0], r)


def quotient_hilbert_series(a: Ideal) -> HilbertSeries:
    """Hilbert series of S/a via the initial ideal of the reduced basis,
    computed once per ideal; an intersection comes with the target series
    of its elimination."""
    if a._series is None:
        a._series = monomial_hilbert_series(a.lead_monomials(), a.ctx)
    return a._series


def quotient_length(a: Ideal) -> int:
    """Colength of a: the total of the Hilbert series of S/a, 0 for the unit
    ideal.  Raises NotFiniteLengthError when dim S/a > 0, the empty ideal
    included."""
    return quotient_hilbert_series(a).total()
