"""The cokernel L of the diagonal embedding

    R = S/(I_1 ∩ ... ∩ I_g)  >-->  S/I_1 ⊕ ... ⊕ S/I_g

and the Hilbert series of gr_J(L), which holds every length(L / J^n L).

When the pairwise sums I_i + I_j are m-primary, L has finite length.  Its
Hilbert series is the difference of the component series and the series of
the intersection (``diagonal_cokernel``), and that difference being a
polynomial certifies the exact top degree; ``verify`` keeps it as the
cross-check of length(L), and the core route of
``instance.ProblemInstance.ring_series``, taken only under ``--force``,
reads length(L) off it.  The series of gr_J(L) needs no intersection: L
is presented by the components alone, as a module over S, by the
submodule

    B' = sum_(i<g) I_i e_i - I_g (e_1 + ... + e_(g-1))

of the free module on the positions e_1, ..., e_(g-1), each of degree 1,
with F/B' ≅ L(-1).  ``hilbert.cokernel_presentation`` builds B', and the
Rees route (``hilbert.rees_series``) reads L ⊗ Sym(J) off the same B'.
The Hilbert series of gr_J(L) is the series of B''s tangent cone along J
(``hilbert.TangentCone``): for linear parameters from the one basis of
B', for other parameters from one basis of J's graph over it.
``verify`` reads that one series (``gr_series``): length(L) is its total,
nu = min{n : J^n L = 0} its length, and length(L / J^n L) its n-th partial
sum.  ``coeffs`` needs only length(L), which comes with K's series
(``instance.ProblemInstance.ring_series``), so it runs nothing here on an
instance that passes every hypothesis check.
"""

from __future__ import annotations

from collections import namedtuple

from .core import ContextMismatchError
from .hilbert import cokernel_presentation, tangent_cone
from .ideals import (HilbertSeries, Ideal, NotFiniteLengthError,
                     quotient_hilbert_series)

__all__ = [
    "Cokernel",
    "diagonal_cokernel",
    "gr_series",
    "annihilates",
    "power_colength",
]


# the one refusal of an L of infinite length, whichever route finds it
_INFINITE_LENGTH = ("L has infinite length: some pairwise sum I_i + I_j is "
                   "not m-primary (see pairwise_sums_mprimary)")


class Cokernel(namedtuple("Cokernel", "length top_degree dims")):
    """L = (⊕ S/I_i) / R by its Hilbert series.

    dims[s] is the dimension of L in degree s (s = 0..top_degree);
    top_degree is None exactly when L is zero.
    """

    __slots__ = ()


def diagonal_cokernel(ideals, core: Ideal) -> Cokernel:
    """L = (⊕ S/I_i) / S/(∩ I_i) from sum_i HS(S/I_i) - HS(S/core).

    ``core`` is the intersection of the ideals, computed once by the caller
    (``ProblemInstance.core`` holds it), and its series is read off its own
    basis, so the difference checks that basis.  No basis is built beyond
    the ones the series read.

    Raises NotFiniteLengthError when the series difference is not a
    polynomial, which signals that some pairwise sum I_i + I_j fails to be
    m-primary and L has infinite length, with ``gr_series``' message.
    """
    ideals = tuple(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    for ideal in ideals:
        if ideal.ctx != core.ctx:
            raise ContextMismatchError("ideals come from different ring contexts")
    series = quotient_hilbert_series(ideals[0])
    for ideal in ideals[1:]:
        series = series + quotient_hilbert_series(ideal)
    series = series - quotient_hilbert_series(core)
    if not series.is_polynomial():
        raise NotFiniteLengthError(_INFINITE_LENGTH)
    dims = series.numerator
    top = len(dims) - 1 if dims else None
    return Cokernel(sum(dims), top, dims)


def gr_series(ideals, ideal: Ideal) -> HilbertSeries:
    """The Hilbert series of gr_J(L) for J = ``ideal``, from one basis of
    L's presentation B' in the module ring T = ring[e_1..e_(g-1)], with no
    intersection.

    F/B' ≅ L(-1) (``hilbert.cokernel_presentation``), so gr_J(L)'s series
    is that of the tangent cone of B' along J (``hilbert.TangentCone``),
    and 0 for g = 1, where L = 0.  L has finite length, so
    the series is a polynomial whose coefficients are
    dim J^n L / J^(n+1) L.  By Nakayama they vanish exactly from
    nu = min{n : J^n L = 0} on, so nu is the length of its numerator,
    length(L) its total and length(L / J^n L) ``series.summed(n)``.

    Raises NotFiniteLengthError when L has infinite length, which is when
    some pairwise sum I_i + I_j is not m-primary.  Each call builds the
    basis of B' anew, so read every number wanted off one series.
    """
    T, gens, f = cokernel_presentation(ideals, ideal)
    cone = tangent_cone(Ideal(T, gens), Ideal(T, f))
    try:
        series = cone.series()
        series.total()      # raises unless the series is a polynomial
    except NotFiniteLengthError:
        raise NotFiniteLengthError(_INFINITE_LENGTH) from None
    return series


def power_colength(ideals, ideal: Ideal, n: int) -> int:
    """Colength of the n-th power action: length(L / ideal^n L), for L the
    cokernel of the ``ideals`` (see ``gr_series``).

    Each call builds the basis of B' again through ``gr_series``; a caller
    that wants several numbers reads them off one ``gr_series`` with
    ``summed``.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    return gr_series(ideals, ideal).summed(n)


def annihilates(ideal: Ideal, ideals) -> bool:
    """True when ideal L = 0, for L the cokernel of the ``ideals``, that is
    nu <= 1 (see ``gr_series``).

    Each call builds the basis of B' again through ``gr_series``; a caller
    that also wants nu or the colengths reads them off one ``gr_series``:
    nu is the length of its numerator.
    """
    return len(gr_series(ideals, ideal).numerator) <= 1
