"""HS(L) does not fix e_d: K's Hilbert polynomial depends on L as a module
over k[J], not on its Hilbert series alone.

In k[x1, x2, y1, y2] over F_32003 with J two random dense linear forms, the
monomial (x1^a1, x2^a2) ∩ (y1^b1, y2^b2) and two random dense complete
intersections of the same degrees, in all four variables, have cokernels L
with one Hilbert series and one length, a1·a2·b1·b2, and give the same
e_0 and e_1.  e_2 differs on three of the five degree pairs below.  Each
instance's K series and λ(L) are read off the Rees route
(``ProblemInstance.ring_series``) and checked against the core route: the
core's tangent cone and ``graded.diagonal_cokernel``.
"""

import random

import pytest

from chernlab import (Ideal, Polynomial, ProblemInstance, RingContext,
                      diagonal_cokernel, tangent_cone)
from chernlab.hilbert import samuel_polynomial
from helpers import monomials_of_degree

P = 32003


def dense_form(rng, ctx, degree):
    return Polynomial(ctx, {m: rng.randrange(1, P)
                            for m in monomials_of_degree(4, degree)})


def instance_pair(a, b, seed):
    """The monomial and the generic instance of degrees a and b, with the
    same J."""
    ctx = RingContext(["x1", "x2", "y1", "y2"], P)
    rng = random.Random(seed)
    j = [dense_form(rng, ctx, 1) for _ in range(2)]
    monomial = [Ideal.from_strings(ctx, [f"{v}^{k}" for v, k in zip(names,
                                                                     degrees)])
                for names, degrees in ((ctx.variables[:2], a),
                                       (ctx.variables[2:], b))]
    generic = [Ideal(ctx, [dense_form(rng, ctx, k) for k in degrees])
               for degrees in (a, b)]
    return [ProblemInstance(ctx, ideals, j) for ideals in (monomial, generic)]


def both_routes(inst):
    """(e, λ(L), HS(L)) by the Rees route, checked against the core's."""
    assert inst.hypotheses["all_pass"]
    series, length = inst.ring_series()
    cokernel = diagonal_cokernel(inst.ideals, inst.core)
    assert series == tangent_cone(inst.core, inst.J).series()
    assert length() == cokernel.length
    return samuel_polynomial(series, inst.d)[0], length(), cokernel.dims


@pytest.mark.parametrize("a, b, monomial_e, generic_e", [
    ((3, 3), (3, 3), (18, -19, -27), (18, -19, -31)),
    ((2, 3), (3, 2), (12, -10, -11), (12, -10, -13)),
    ((3, 3), (2, 2), (13, -10, -11), (13, -10, -13)),
    ((2, 2), (2, 2), (8, -6, -5), (8, -6, -5)),
    ((2, 3), (2, 2), (10, -7, -5), (10, -7, -5))],
    ids=["33-33", "23-32", "33-22", "22-22", "23-22"])
@pytest.mark.parametrize("seed", [0, 1])
def test_same_cokernel_series_and_e_below_d(a, b, monomial_e, generic_e,
                                             seed):
    monomial, generic = map(both_routes, instance_pair(a, b, seed))
    assert (monomial[0], generic[0]) == (monomial_e, generic_e)
    assert monomial[1] == generic[1] == a[0] * a[1] * b[0] * b[1]
    assert monomial[2] == generic[2]
