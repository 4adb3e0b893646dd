"""Hilbert-Samuel function values read off tangent cones, the exact
Hilbert polynomial of a Hilbert series and the Chern-number sign.

The Hilbert polynomial has the shape

    P(n) = e_0 C(n+d-1, d) - e_1 C(n+d-2, d-1) + ... + (-1)^d e_d

and ``samuel_polynomial`` reads (e_0, ..., e_d) and the index n0 from which
the function is polynomial off the h-polynomial of its series, exactly, in
the integers.  ``fit_coefficients`` fits the same shape to a window of
values by backward differences; it is the tests' reference, not a route of
the command line, as a fit on a short window can accept a wrong polynomial.
"""

from __future__ import annotations

from .core import (ContextMismatchError, Polynomial, RingContext, binomial,
                   require_parameter)
from .groebner import add_shifted, buchberger, minimalize, series_numerator
from .ideals import (HilbertSeries, Ideal, ideal_power, ideal_sum,
                     quotient_hilbert_series, quotient_length)
from .linalg import rref_mod_p

__all__ = [
    "FitInstabilityError",
    "cokernel_presentation",
    "hilbert_samuel",
    "hilbert_samuel_values",
    "multiplicity",
    "parameter_coordinates",
    "rees_series",
    "TangentCone",
    "tangent_cone",
    "fit_coefficients",
    "samuel_polynomial",
    "hilbert_polynomial_value",
    "chern_sign",
]


class FitInstabilityError(ValueError):
    """Raised when no two consecutive fitting windows agree."""


def hilbert_samuel(core: Ideal, parameters: Ideal, n: int) -> int:
    """Length of S/(core + parameters^n), the Hilbert-Samuel value H(n),
    by one basis of that sum: the tests' per-n oracle for
    ``hilbert_samuel_values``.

    Raises NotFiniteLengthError when the quotient is not zero-dimensional,
    which signals that the parameters do not cut the core down to a point.
    """
    if n < 1:
        raise ValueError("power must be at least 1")
    return quotient_length(ideal_sum(core, ideal_power(parameters, n)))


def parameter_coordinates(ctx, parameters):
    """(ring, gens, move): the working ring of a problem over ``ctx`` with
    these parameters, the generators of J in it, and the map ``move`` of
    the polynomials of ``ctx`` into it.

    For linear parameters it is the linear change of coordinates in which
    they span J = (y_1, ..., y_k).  The new variables are
    y_i = (rref row i) . x followed by the x_c of the non-pivot columns c,
    which is invertible with x_c = z_c and x_(pivot i) = y_i - sum_c
    row_i[c] z_c, so k is the rank of the parameters and dependent
    parameters are handled too.  ``ring`` has the variables y1..yk,
    z1..z(r-k) and the order ("ydeg", k, ctx.order), and ``gens`` are
    y1..yk.  Otherwise ``ring`` has the variables of ``ctx`` under grevlex
    and ``gens`` are the parameters moved there.
    """
    r = ctx.nvars
    if any(f.degree() != 1 for f in parameters):
        ring, move = ctx.adjoin((), "grevlex")
        return ring, [move(f) for f in parameters], move
    units = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    rows = [[f.terms.get(unit, 0) for unit in units] for f in parameters]
    reduced, pivots = rref_mod_p(rows, ctx.characteristic)
    k = len(pivots)
    free = [c for c in range(r) if c not in pivots]
    names = ([f"y{i}" for i in range(1, k + 1)]
             + [f"z{i}" for i in range(1, r - k + 1)])
    ring = RingContext(names, ctx.characteristic, ("ydeg", k, ctx.order))
    images = [None] * r
    for t, c in enumerate(free):
        images[c] = Polynomial(ring, {units[k + t]: 1})
    for i, (row, c) in enumerate(zip(reduced, pivots)):
        terms = {units[i]: 1}
        for t, f in enumerate(free):
            terms[units[k + t]] = -row[f]
        images[c] = Polynomial(ring, terms)
    return (ring, [Polynomial.variable(ring, y) for y in ring.variables[:k]],
            lambda f: f.substitute(images))


class TangentCone:
    """The bigraded Hilbert series of an ideal's tangent cone along linear
    parameters.

    The parameters span J = (y_1, ..., y_k), the first k variables of
    ``ctx``, and the other variables are z_1, ..., z_(r-k).  ``leads`` are
    the leading monomials of the ideal's Groebner basis in the
    ("ydeg", k, base) or ("ydeg", k, base, w) order ``ctx`` carries: on
    homogeneous input they generate the initial ideal of the tangent cone.
    Counting monomials by y-degree and z-degree does not depend on the
    weights w.  The cone keeps ``leads``, the minimal generators of that
    initial ideal, ``numerator``, the numerator of HS(S/in(ideal)) over
    (1-t)^k (1-s)^(r-k), with weight t on the y and s on the z variables,
    indexed [t-degree][s-degree], and its ``series`` once built.
    """

    __slots__ = ("ctx", "k", "leads", "numerator", "_gr")

    def __init__(self, ctx, k, leads):
        self.ctx = ctx
        self.k = k
        self.leads = minimalize(leads)
        self.numerator = series_numerator(self.leads, ctx.nvars, k)
        self._gr = None

    def dimension_mod_parameters(self) -> int:
        """dim S/(ideal + J), or -1 when that quotient is zero: the pole
        order of row 0 over (1-s)^(r-k).

        Row 0 is the numerator of the y-degree-0 part of S/in(ideal), which
        is k[z]/in(ideal|_(y=0)) since in_ydeg(ideal) ∩ k[z] =
        in(ideal|_(y=0)), and so has the dimension of S/(ideal + J).
        """
        return HilbertSeries(self.numerator[0],
                             self.ctx.nvars - self.k).dimension()

    def h_vector(self) -> list:
        """The coefficients q_0, q_1, ... of the h-polynomial Q(t) of
        gr_J(S/ideal), whose Hilbert series is Q(t)/(1-t)^k.

        When row 0 is a polynomial over (1-s)^(r-k), every y-degree piece of
        S/in(ideal) is finite and every row c_i(s) is divisible by
        (1-s)^(r-k); q_i is the quotient at s = 1,
        (-1)^(r-k) sum_j c_ij C(j, r-k).

        Raises NotFiniteLengthError when S/(ideal + J) does not have finite
        length: exactly when row 0 is not a polynomial.
        """
        # total() divides out (1-s)^(r-k) and raises NotFiniteLengthError
        # when it does not divide, which row 0, first, decides
        return [HilbertSeries(row, self.ctx.nvars - self.k).total()
                for row in self.numerator]

    def submodule_series(self, m) -> HilbertSeries:
        """The Hilbert series of gr_J(M), M the submodule of S/ideal that
        the last m variables e generate, for an ideal homogeneous in the e.

        S/ideal is then S/(ideal + (e)) ⊕ M as graded vector spaces, its
        parts of e-degree 0 and above, and in(ideal + (e)) = in(ideal) + (e),
        so the first summand's numerator is read off the cone's own leading
        monomials.  It is subtracted from the cone's before the rows are
        reduced as in ``h_vector``: the first summand need not have finite
        length modulo J, but M must.  Raises NotFiniteLengthError when it
        does not.
        """
        r = self.ctx.nvars
        e = [tuple(int(j == i) for j in range(r)) for i in range(r - m, r)]
        rows = add_shifted(self.numerator, series_numerator(
            minimalize(self.leads + e), r, self.k), 0, 0, -1)
        return HilbertSeries([HilbertSeries(row, r - self.k).total()
                              for row in rows], self.k)

    def series(self) -> HilbertSeries:
        """The Hilbert series Q(t)/(1-t)^k of gr_J(S/ideal), in lowest
        terms (see ``h_vector``), built on the first call."""
        if self._gr is None:
            self._gr = HilbertSeries(self.h_vector(), self.k)
        return self._gr


def _parameter_ring(ring, parameters, name, base):
    """(T, include, v): ``ring`` with a variable v_i = name + str(i) of
    weight deg f_i adjoined first for each parameter f_i, under
    ("ydeg", m, base), whose weight row (deg f_1..deg f_m, 1, ..., 1) is
    left out when every weight is 1 (see ``core.RingContext``)."""
    degrees = tuple(f.degree() for f in parameters)
    order = ("ydeg", len(degrees), base)
    if any(e > 1 for e in degrees):
        order += (degrees + (1,) * ring.nvars,)
    T, include = ring.adjoin([f"{name}{i}" for i in
                              range(1, len(degrees) + 1)], order)
    return T, include, [Polynomial.variable(T, v)
                        for v in T.variables[:len(degrees)]]


def _graph_cone(ideal: Ideal, parameters) -> TangentCone:
    """The tangent cone of the graph G = ideal + (u_i - f_i) of the
    parameters f_1..f_m in T = ring[u_1..u_m], along (u).

    u_i ↦ f_i gives T/G ≅ S/ideal, taking (u)^n onto J^n, so
    length(S/(ideal + J^n)) = length(T/(G + (u)^n)): the u are linear
    parameters of T/G.  G is homogeneous for deg u_i = deg f_i, so its one
    basis is in the ("ydeg", m, base, w) order of ``_parameter_ring``.
    When every weight is 1 the tag is ("ydeg", m, base) and the run targets
    HS(S/ideal), the series of T/G; the engine's series stop is
    standard-graded, so other weights take no target.
    """
    for f in parameters:
        require_parameter(f)
    T, include, u = _parameter_ring(ideal.ctx, parameters, "u",
                                    ideal.ctx.order)
    graph = [include(f) for f in ideal.groebner().elements]
    graph += [u_i - include(f) for u_i, f in zip(u, parameters)]
    standard = all(f.degree() == 1 for f in parameters)
    basis = buchberger(graph, T,
                       quotient_hilbert_series(ideal) if standard else None)
    return TangentCone(T, len(u), basis.lead_monomials())


def _first_variables(ctx, gens) -> bool:
    """Whether ``gens`` are the first k variables of a ("ydeg", k, ...)
    ring, as J is in the ring of ``parameter_coordinates``."""
    k = len(gens)
    return (ctx.cone_rank == k
            and gens == tuple(Polynomial.variable(ctx, y)
                              for y in ctx.variables[:k]))


def tangent_cone(ideal: Ideal, parameters: Ideal) -> TangentCone:
    """The TangentCone of the ideal along the parameters, built once and
    cached on the ideal with the parameters' generators.

    When the ideal's ring has a ("ydeg", k, base) order and the parameters
    are its first k variables (as for every ideal of a ``ProblemInstance``
    with linear parameters, which lives in the ring of
    ``parameter_coordinates``), its own basis is the tangent cone's.  Any
    other homogeneous parameters, linear ones in other coordinates
    included, take one basis of their graph (``_graph_cone``).

    Raises core.HypothesisError for a parameter that is not nonzero
    homogeneous of degree >= 1 (``core.require_parameter``).
    """
    gens = parameters.generators
    if ideal.cone_cache is None or ideal.cone_cache[0] != gens:
        if _first_variables(ideal.ctx, gens):
            cone = TangentCone(ideal.ctx, len(gens), ideal.lead_monomials())
        else:
            cone = _graph_cone(ideal, gens)
        ideal.cone_cache = (gens, cone)
    return ideal.cone_cache[1]


def hilbert_samuel_values(ideal: Ideal, parameters: Ideal,
                          max_power: int) -> dict:
    """H(n) = length(S/(ideal + parameters^n)) for n = 1..max_power, read
    off the ideal's tangent cone along the parameters (``tangent_cone``)
    for every n at once.

    For parameters that span J = (y_1, ..., y_k) the initial ideal of one
    Groebner basis in the ("ydeg", k, base) order is the initial ideal of
    the tangent cone, so S/in(ideal) has the Hilbert function of
    gr_J(S/ideal) (Greuel-Pfister, A Singular Introduction to Commutative
    Algebra, ch. 5), and H(n) is the sum of the first n coefficients of
    the cone's ``series``, its bigraded Hilbert series at s = 1.  A
    ``ProblemInstance`` with linear parameters builds every ideal in those
    coordinates and that order, so the basis it already holds serves; any
    other parameters are linear in their graph (Bruns-Herzog,
    Cohen-Macaulay Rings, §4.1).

    Raises NotFiniteLengthError when S/(ideal + parameters) does not have
    finite length.
    """
    if max_power < 1:
        raise ValueError("power must be at least 1")
    series = tangent_cone(ideal, parameters).series()
    return {n: series.summed(n) for n in range(1, max_power + 1)}


def multiplicity(series: HilbertSeries, d: int) -> int:
    """e_0 in dimension d of a series h(t)/(1-t)^s in lowest terms, s <= d:
    h(1) when s = d, else 0."""
    return sum(series.numerator) if series.denominator_exponent == d else 0


def cokernel_presentation(ideals, parameters: Ideal):
    """(T, e, gens, f): the one presentation of L, the cokernel of
    R = S/(I_1 ∩ ... ∩ I_g) >--> ⊕ S/I_i.  T = ring[e_1..e_(g-1)] extends
    the ring of the components ``ideals`` and of J = ``parameters``, ``e``
    are the e_i in T, ``gens`` generate

        B' = sum_(i<g) I_i e_i + I_g (e_1 + ... + e_(g-1)) + (e_i e_j)

    in T, and ``f`` are J's generators moved there.

    L = S^(g-1)/(I_i e_i (i < g), I_g (e_1 + ... + e_(g-1))), as the image
    of R is generated by e_1 + ... + e_g, so T/B' ≅ S ⊕ L(-1) as S-modules,
    with L(-1) the submodule that the e generate.  The e have degree 1 and
    are adjoined last under the ring's order tag: for a ("ydeg", k, base)
    ring the y stay first, and B' is homogeneous in the e, as
    ``TangentCone.submodule_series`` needs.  No intersection is built.
    """
    if any(component.ctx != parameters.ctx for component in ideals):
        raise ContextMismatchError("ideals come from different ring contexts")
    T, lift = parameters.ctx.adjoin((), parameters.ctx.order,
                                    [f"e{i}" for i in range(1, len(ideals))])
    e = [Polynomial.variable(T, v) for v in T.variables[parameters.ctx.nvars:]]
    gens = [a * b for i, a in enumerate(e) for b in e[i:]]
    for component, e_i in zip(ideals, e + [sum(e, Polynomial.zero(T))]):
        gens += [lift(f) * e_i for f in component.groebner().elements]
    return T, e, gens, [lift(f) for f in parameters.generators]


def rees_series(ideals, parameters: Ideal):
    """(HS(gr_J R), λ(L)) for R = S/(I_1 ∩ ... ∩ I_g), from the components
    ``ideals`` and J = ``parameters`` = (f_1..f_d), with no intersection:
    the Rees route, for every g.

    It holds when each S/I_i is Cohen-Macaulay with J a system of
    parameters on it; the caller decides that.  Then
    Tor_1(S/I_i, S/J^n) = 0, and tensoring 0 -> R -> ⊕ S/I_i -> L -> 0
    with S/J^n, where Tor_1(L, S/J^n) = ker(L ⊗ J^n -> L), gives for n >= 1

        λ(R/J^n R) = Σ λ(S/(I_i + J^n)) - λ(L) + λ(L ⊗ J^n),

    and the sum is read off the components' cones, which the hypothesis
    checks built; it is e_0 C(n+d-1, d), e_0 = Σ e_0(J, S/I_i).  J is
    generated by a regular sequence, so ⊕_n J^n = Sym(J) =
    S[t_1..t_d]/I_2(f; t), the 2x2 minors f_i t_j - f_j t_i (Huneke,
    J. Algebra 62, 1980).  With L's presentation B' in T = S[e]
    (``cokernel_presentation``), the ideal B' + I_2(f; t)(e) of T[t] lies
    in (e), so the quotient is S[t] ⊕ (L ⊗ Sym(J))(-1): its e-degree-0
    part is S[t], and its e-degree-1 part is
    S^(g-1)/B'_1 ⊗ S[t]/I_2(f; t) = ⊕_n L ⊗ J^n.  The minors enter times
    each e, so the run never builds a basis of Sym(J) alone: for g = 2 the
    ideal is (I_1 + I_2 + I_2(f; t)) e_1 + (e_1^2).  With deg t_i = deg f_i
    it is homogeneous and, in the t, of degree zero or one per term, so
    one basis in the ("ydeg", d, "grevlex", w) order of
    ``_parameter_ring``, t first, e last, whatever the problem's order,
    gives A(t) = Σ λ(L ⊗ J^n) t^n as its cone's e-generated part
    (``TangentCone.submodule_series``, which subtracts S[t]), and
    HS(gr_J R) = Σ HS(gr_J S/I_i) + ((1-t)A - λ(L))/t.  λ(L) = A(0), the
    t^0 part L ⊗ S, comes with the series at no cost.
    """
    T, e, gens, f = cokernel_presentation(ideals, parameters)
    rees, include, t = _parameter_ring(T, f, "t", "grevlex")
    f, d = [include(g) for g in f], len(t)
    gens = [include(g) for g in gens] + [
        (f[i] * t[j] - f[j] * t[i]) * include(v)
        for v in e for i in range(d) for j in range(i + 1, d)]
    a = TangentCone(rees, d, buchberger(gens, rees).lead_monomials()
                    ).submodule_series(len(e))
    length = a.summed(1)
    rest = HilbertSeries(a.lift(d), d - 1) - HilbertSeries([length], 0)
    rest = HilbertSeries(rest.numerator[1:], rest.denominator_exponent)
    return sum((tangent_cone(c, parameters).series() for c in ideals),
               rest), length


def hilbert_polynomial_value(coefficients, n: int) -> int:
    """Evaluate sum_i (-1)^i e_i C(n+d-1-i, d-i) for coefficients (e_0..e_d)."""
    d = len(coefficients) - 1
    total = 0
    for i, e in enumerate(coefficients):
        term = e * binomial(n + d - 1 - i, d - i)
        total += -term if i % 2 else term
    return total


def samuel_polynomial(series: HilbertSeries, d: int):
    """(coefficients, n0) of the function n -> sum_(m<n) [t^m] series on
    n >= 1, exactly: its Hilbert polynomial's (e_0..e_d) as
    ``hilbert_polynomial_value`` reads them, and the least n0 from which
    the function is that polynomial.  The series' pole order must be at
    most d.

    Over (1-t)^d with numerator h the function is sum_(i<n) h_i
    C(n-1-i+d, d).  By Pascal's rule a shift down by one is 1 - ∇ with
    ∇C(N, d) = C(N-1, d-1), so C(N-i, d) = sum_j (-1)^j C(i, j) C(N-j, d-j)
    and e_j = sum_i C(i, j) h_i (Bruns-Herzog, Cohen-Macaulay Rings, §4.1).
    The function is the polynomial for n > deg h - d, so n0 is 1 plus the
    last n <= deg h - d where they differ, or 1 when there is none.
    """
    if series.denominator_exponent > d:
        raise ValueError("the series has a pole of order above d")
    h = series.lift(d)
    e = tuple(sum(binomial(i, j) * c for i, c in enumerate(h))
              for j in range(d + 1))
    for n in range(len(h) - 1 - d, 0, -1):
        if series.summed(n) != hilbert_polynomial_value(e, n):
            return e, n + 1
    return e, 1


def fit_coefficients(values, d: int):
    """Fit (e_0, ..., e_d) to a contiguous window of (n, H(n)) values: the
    tests' reference for ``samuel_polynomial``, on windows that reach past
    the last n where the function is not yet polynomial.

    The coefficients are read off the top window [n_max - d, n_max] of
    width d+1, which must lie at n >= 1, and the fit is accepted only when
    its polynomial also reproduces the value at n_max - d - 1.  Returns
    (coefficients, n0) where n0 is the smallest n such that all recorded
    values from n0 upward match the polynomial.

    By Pascal's rule, the backward difference of C(n+a, b) is C(n+a-1, b-1),
    so the (d-j)-th backward difference of the window at n_max is the
    polynomial of (e_0, ..., e_j) in dimension j at n_max, whose last term
    is (-1)^j e_j.  Solving for e_0, e_1, ..., e_d in turn takes only
    integer subtractions.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    values = dict(values)
    ns = sorted(values)
    if not ns or ns != list(range(ns[0], ns[-1] + 1)):
        raise ValueError("values must cover a contiguous window of n")
    n_min, n_max = ns[0], ns[-1]
    if n_max - n_min + 1 < d + 2:
        raise FitInstabilityError("window too short - increase max_power")
    if n_max - d < 1:
        raise ValueError("the top window must lie at n >= 1")
    row = [values[n] for n in range(n_max - d, n_max + 1)]
    diffs = []
    for _ in range(d + 1):
        diffs.append(row[-1])
        row = [b - a for a, b in zip(row, row[1:])]
    accepted = []
    for j in range(d + 1):
        rest = diffs[d - j] - hilbert_polynomial_value(accepted + [0], n_max)
        accepted.append(-rest if j % 2 else rest)
    accepted = tuple(accepted)
    below = n_max - d - 1
    if values[below] != hilbert_polynomial_value(accepted, below):
        raise FitInstabilityError("window too short - increase max_power")
    n0 = n_min
    for n in range(n_max, n_min - 1, -1):
        if values[n] != hilbert_polynomial_value(accepted, n):
            n0 = n + 1
            break
    return accepted, n0


def chern_sign(e1: int) -> str:
    """Sign classification of the Chern number e_1."""
    if e1 < 0:
        return "negative"
    if e1 == 0:
        return "zero"
    return "positive"
