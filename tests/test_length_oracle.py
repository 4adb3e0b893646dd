"""Independent routes to lengths and intersections.

The length oracle (``helpers.brute_force_length``) never touches Groebner
bases: for each degree it spans the ideal's graded piece by brute-force
monomial multiples of the generators and row-reduces the coefficient matrix,
so the quotient dimension is ambient dimension minus rank.  The intersection
oracle uses the pairwise lcm description, valid exactly for monomial ideals.
"""

import random

from chernlab import (Ideal, Polynomial, RingContext, ideal_intersect,
                      ideal_power, ideal_sum, intersect_all, quotient_length)
from helpers import brute_force_length, monomials_of_degree


def test_length_oracle_on_running_example(ctx4):
    core = ideal_intersect(Ideal.from_strings(ctx4, ["x", "y"]),
                           Ideal.from_strings(ctx4, ["z", "w"]))
    j = Ideal.from_strings(ctx4, ["x + z", "y + w"])
    for n in range(1, 4):
        power = ideal_sum(core, ideal_power(j, n))
        assert quotient_length(power) == brute_force_length(power)


def test_length_oracle_on_fat_component(ctx4):
    core = intersect_all([Ideal.from_strings(ctx4, ["x", "y"]),
                          Ideal.from_strings(ctx4, ["z^2", "w"])])
    j = Ideal.from_strings(ctx4, ["x + z", "y + w"])
    for n in range(1, 3):
        power = ideal_sum(core, ideal_power(j, n))
        assert quotient_length(power) == brute_force_length(power)


def test_length_oracle_randomized():
    rng = random.Random(107)
    for _ in range(10):
        r = rng.randrange(2, 4)
        ctx = RingContext([f"v{i}" for i in range(r)], 101)
        gens = []
        for i in range(r):
            e = rng.randrange(1, 4)
            gens.append(Polynomial(ctx, {tuple(e if j == i else 0
                                               for j in range(r)): 1}))
        for _ in range(rng.randrange(2)):
            degree = rng.randrange(1, 3)
            terms = {}
            for mono in monomials_of_degree(r, degree):
                if rng.randrange(2):
                    terms[mono] = rng.randrange(1, 101)
            if terms:
                gens.append(Polynomial(ctx, terms))
        ideal = Ideal(ctx, gens)
        assert quotient_length(ideal) == brute_force_length(ideal)


def _monomial_ideal(ctx, monos):
    return Ideal(ctx, [Polynomial(ctx, {m: 1}) for m in monos])


def test_monomial_intersection_matches_lcm_rule(ctx4):
    rng = random.Random(109)
    r = ctx4.nvars
    for _ in range(8):
        a_monos = [tuple(rng.randrange(3) for _ in range(r)) for _ in range(3)]
        b_monos = [tuple(rng.randrange(3) for _ in range(r)) for _ in range(3)]
        a_monos = [m for m in a_monos if sum(m)] or [(1, 0, 0, 0)]
        b_monos = [m for m in b_monos if sum(m)] or [(0, 1, 0, 0)]
        a = _monomial_ideal(ctx4, a_monos)
        b = _monomial_ideal(ctx4, b_monos)
        lcms = [tuple(max(x, y) for x, y in zip(ma, mb))
                for ma in a_monos for mb in b_monos]
        assert ideal_intersect(a, b) == _monomial_ideal(ctx4, lcms)
