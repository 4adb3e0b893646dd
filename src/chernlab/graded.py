"""The cokernel L of the diagonal embedding

    R = S/(I_1 ∩ ... ∩ I_g)  >-->  S/I_1 ⊕ ... ⊕ S/I_g

and the Hilbert series of gr_J(L), which holds every length(L / J^n L).

When the pairwise sums I_i + I_j are m-primary, L has finite length: its
Hilbert series is the difference of the component series and the series of
the intersection, and that difference being a polynomial certifies the
exact top degree.  The series of gr_J(L) comes from Nagata's
idealization, which puts L inside a ring: in T = S[e_1, ..., e_(g-1)],
with every e of degree 1 and e_g := -(e_1 + ... + e_(g-1)), the ideal

    B = core + sum_i I_i e_i + (e_i e_j : i <= j < g)

has T/B ≅ R ⊕ L(-1) as S-modules.  So gr_J(T/B) = gr_J(R) ⊕ gr_J(L), and
the Hilbert series of gr_J(L) is the difference of the h-polynomials of
the tangent cones of B and of the core (``hilbert.TangentCone.h_vector``):
for linear parameters from the bases they already have, for other
parameters from one basis of J's graph each.  Callers read that one series
(``gr_series``): nu = min{n : J^n L = 0} is its length, and
length(L / J^n L) its n-th partial sum.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import ContextMismatchError, Polynomial
from .groebner import buchberger
from .hilbert import tangent_cone
from .ideals import (HilbertSeries, Ideal, NotFiniteLengthError,
                     quotient_hilbert_series)

__all__ = [
    "Cokernel",
    "diagonal_cokernel",
    "gr_series",
    "annihilates",
    "power_colength",
]


class Cokernel(NamedTuple):
    """L = (⊕ S/I_i) / R by its Hilbert series.

    dims[s] is the dimension of L in degree s (s = 0..top_degree);
    top_degree is None exactly when L is zero.  ``ideals`` and ``core``
    are what L was read from, kept for ``gr_series``.
    """

    ideals: tuple
    core: Ideal
    length: int
    top_degree: Optional[int]
    dims: tuple


def diagonal_cokernel(ideals, core: Ideal) -> Cokernel:
    """L = (⊕ S/I_i) / S/(∩ I_i) from sum_i HS(S/I_i) - HS(S/core).

    ``core`` is the intersection of the ideals, computed once by the caller
    (``ProblemInstance.core`` holds it).  No basis is built beyond the ones
    the series read.

    Raises NotFiniteLengthError when the series difference is not a
    polynomial, which signals that some pairwise sum I_i + I_j fails to be
    m-primary and L has infinite length.
    """
    ideals = tuple(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    for ideal in ideals:
        if ideal.ctx != core.ctx:
            raise ValueError("ideals come from different ring contexts")
    series = quotient_hilbert_series(ideals[0])
    for ideal in ideals[1:]:
        series = series + quotient_hilbert_series(ideal)
    series = series - quotient_hilbert_series(core)
    if not series.is_polynomial():
        raise NotFiniteLengthError(
            "cokernel of the diagonal map has infinite length; "
            "some pairwise sum of the ideals is not m-primary")
    dims = series.numerator
    top = len(dims) - 1 if dims else None
    return Cokernel(ideals, core, sum(dims), top, dims)


def _idealization(model: Cokernel):
    """(B, lift) for the cokernel: B = core + sum_i I_i e_i + (e_i e_j) in
    T = ring[e_1..e_(g-1)], with e_g = -(e_1 + ... + e_(g-1)), and
    ``lift`` the inclusion of the ring's polynomials into T.

    T adjoins the e last under the ring's order tag, so for a ("ydeg", k,
    base) ring the y variables stay first and B's basis is its tangent
    cone's.  B's basis is computed once, stopped by the target series
    HS(T/B) = HS(R) + t HS(L).
    """
    ring = model.core.ctx
    T, lift = ring.adjoin([f"e{i}" for i in range(1, len(model.ideals))],
                          ring.order, last=True)
    e = [Polynomial.variable(T, name) for name in T.variables[ring.nvars:]]
    e.append(-sum(e, Polynomial.zero(T)))
    gens = [lift(f) for f in model.core.groebner().elements]
    for ideal, e_i in zip(model.ideals, e):
        gens += [lift(f) * e_i for f in ideal.groebner().elements]
    gens += [a * b for i, a in enumerate(e[:-1]) for b in e[i:-1]]
    series = (quotient_hilbert_series(model.core)
              + HilbertSeries((0,) + model.dims, 0))
    return Ideal.from_basis(buchberger(gens, T, series), series), lift


def gr_series(model: Cokernel, ideal: Ideal) -> HilbertSeries:
    """The Hilbert series of gr_J(L) for J = ``ideal``, from one basis of the
    idealization B.

    T/B ≅ R ⊕ L(-1) as S-modules, so gr_J(T/B) = gr_J(R) ⊕ gr_J(L) and the
    Hilbert series of gr_J(L) is (Q_B(t) - Q_K(t))/(1-t)^k, read off the
    h-vectors of the tangent cones of B and of the core
    (``hilbert.TangentCone.h_vector``).  L has finite length, so the series
    is a polynomial whose coefficients are dim J^n L / J^(n+1) L.  By
    Nakayama they vanish exactly from nu = min{n : J^n L = 0} on, so nu is
    the length of its numerator and length(L / J^n L) is
    ``series.summed(n)``.

    ``ideal`` must be a parameter ideal of R: S/(core + ideal) must have
    finite length, else NotFiniteLengthError is raised.  Raises ValueError
    when the series does not add up to length(L).  Each call builds B's
    basis anew, so read every number wanted off one series.
    """
    if ideal.ctx != model.core.ctx:
        raise ContextMismatchError("ideal and cokernel come from different "
                                   "ring contexts")
    B, lift = _idealization(model)
    J = Ideal(B.ctx, [lift(f) for f in ideal.generators])
    series = (tangent_cone(B, J).series()
              - tangent_cone(model.core, ideal).series())
    if not series.is_polynomial():
        raise NotFiniteLengthError("gr_J(L) does not have finite length")
    if series.total() != model.length:
        raise ValueError(f"gr_J(L) has length {series.total()}, "
                         f"but L has length {model.length}")
    return series


def power_colength(model: Cokernel, ideal: Ideal, n: int) -> int:
    """Colength of the n-th power action: length(L / ideal^n L), for a
    parameter ideal (see ``gr_series``).

    Each call builds the idealization's basis again through ``gr_series``;
    a caller that wants several numbers reads them off one ``gr_series``
    with ``summed``.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    return gr_series(model, ideal).summed(n)


def annihilates(ideal: Ideal, model: Cokernel) -> bool:
    """True when ideal L = 0, that is nu <= 1 (see ``gr_series``).

    Each call builds the idealization's basis again through ``gr_series``;
    a caller that also wants nu or the colengths reads them off one
    ``gr_series``: nu is the length of its numerator.
    """
    return len(gr_series(model, ideal).numerator) <= 1
