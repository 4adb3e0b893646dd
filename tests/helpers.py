"""Shared machinery for the randomized tests: ideal membership by normal
form, degreewise dimensions off a Hilbert series, random invertible
coordinate changes over F_p applied to the shipped plane configurations,
random homogeneous ideals, a Groebner-free length oracle, and problem files
for the command line."""

import json
import random
from itertools import combinations_with_replacement

from chernlab import (Ideal, Polynomial, RingContext, normal_form,
                      parse_polynomial)
from chernlab.linalg import rref_mod_p

PRIME_POOL = [32003, 31991, 30011, 20011, 10007]


def contains(ideal, f):
    """Whether f lies in the ideal: its normal form under the ideal's
    reduced basis is zero."""
    return normal_form(f, ideal.groebner()).is_zero()


def degree_dimensions(series, max_degree):
    """dim (S/I)_s for s = 0..max_degree, off the Hilbert series of S/I."""
    return [series.summed(s + 1) - series.summed(s)
            for s in range(max_degree + 1)]


def random_invertible_matrix(rng, r, p):
    while True:
        matrix = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        _, pivots = rref_mod_p([row[:] for row in matrix], p)
        if len(pivots) == r:
            return matrix


def variable_images(ctx, matrix):
    """Images of the variables under the linear change x_j -> sum_i m[i][j] x_i."""
    r = ctx.nvars
    images = []
    for j in range(r):
        terms = {}
        for i in range(r):
            if matrix[i][j] % ctx.characteristic:
                mono = tuple(1 if k == i else 0 for k in range(r))
                terms[mono] = matrix[i][j]
        images.append(Polynomial(ctx, terms))
    return images


def transformed_planes(rng, p, names, blocks, parameters, order="grevlex"):
    """Apply a random invertible coordinate change to a plane configuration.

    ``blocks`` lists the generator strings per component; ``parameters`` the
    sop strings.  Returns (ctx, ideals, parameter ideal).
    """
    ctx = RingContext(names, p, order)
    images = variable_images(ctx, random_invertible_matrix(rng, ctx.nvars, p))

    def phi(text):
        return parse_polynomial(text, ctx).substitute(images)

    ideals = [Ideal(ctx, [phi(t) for t in block]) for block in blocks]
    j = Ideal(ctx, [phi(t) for t in parameters])
    return ctx, ideals, j


def three_3_planes_lex(seed, parameters):
    """Three 3-planes in 9 variables under lex, pairwise transversal, in
    seeded dense coordinates, with one of ``THREE_3_PLANE_PARAMETERS``."""
    names = [f"x{i}" for i in range(9)]
    blocks = [names[3:], names[:3] + names[6:], names[:6]]
    return transformed_planes(random.Random(seed), 32003, names, blocks,
                              parameters, "lex")


THREE_3_PLANE_PARAMETERS = (
    [f"x{i} + x{3 + i} + x{6 + i}" for i in range(3)],
    [f"x{i} + x{3 + (i + 1) % 3} + x{6 + (i + 2) % 3}" for i in range(3)])


def e1_family(rng, p):
    return transformed_planes(
        rng, p, ["x", "y", "z", "w"],
        [["x", "y"], ["z", "w"]],
        ["x + z", "y + w"])


def e2_family(rng, p):
    names = ["x1", "x2", "x3", "x4", "x5", "x6"]
    return transformed_planes(
        rng, p, names,
        [names[:3], names[3:]],
        [f"{a} + {b}" for a, b in zip(names[:3], names[3:])])


def e3_family(rng, p):
    return transformed_planes(
        rng, p, ["x", "y", "z", "w"],
        [["x", "y"]],
        ["z", "w"])


def random_homogeneous_ideal(rng, ctx):
    """One to three random homogeneous generators of degree 1 to 3 with up
    to three terms each."""
    r = ctx.nvars
    gens = []
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * r
            for _ in range(degree):
                mono[rng.randrange(r)] += 1
            terms[tuple(mono)] = rng.randrange(1, ctx.characteristic)
        gens.append(Polynomial(ctx, terms))
    return Ideal(ctx, gens)


def monomials_of_degree(r, s):
    """Exponent tuples of the monomials of degree s in r variables."""
    out = []
    for combo in combinations_with_replacement(range(r), s):
        mono = [0] * r
        for v in combo:
            mono[v] += 1
        out.append(tuple(mono))
    return out


def brute_force_length(ideal, max_degree=40):
    """Sum of graded quotient dimensions, by Macaulay-matrix ranks."""
    ctx = ideal.ctx
    r = ctx.nvars
    p = ctx.characteristic
    total = 0
    for s in range(max_degree + 1):
        ambient = monomials_of_degree(r, s)
        index = {m: i for i, m in enumerate(ambient)}
        rows = []
        for g in ideal.generators:
            gdeg = g.degree()
            if gdeg > s:
                continue
            for shift in monomials_of_degree(r, s - gdeg):
                row = [0] * len(ambient)
                for mono, coeff in g.terms.items():
                    prod = tuple(a + b for a, b in zip(mono, shift))
                    row[index[prod]] = coeff
                rows.append(row)
        _, pivots = rref_mod_p(rows, p)
        dim = len(ambient) - len(pivots)
        if dim == 0:
            return total
        total += dim
    raise AssertionError("quotient did not vanish within the degree budget")


def dense_quadric_problem(order):
    """Two 3-planes in F_32003[a..f] and three seeded dense quadric
    parameters, every one of the 21 monomials with a nonzero coefficient."""
    rng = random.Random("dense-quadrics")
    names = "abcdef"
    quadrics = [" + ".join(f"{rng.randrange(1, 32003)}*{u}*{v}"
                           for u, v in combinations_with_replacement(names, 2))
                for _ in range(3)]
    return {"characteristic": 32003, "variables": list(names),
            "monomial_order": order, "ideals": [["a", "b", "c"],
                                                ["d", "e", "f"]],
            "parameters": quadrics}


def write_problem(path, ctx, ideals, j):
    """Write a problem file for the components ``ideals`` and the
    parameter ideal ``j``; returns its path as a string."""
    path.write_text(json.dumps({
        "characteristic": ctx.characteristic,
        "variables": list(ctx.variables),
        "monomial_order": ctx.order,
        "ideals": [[str(g) for g in ideal.generators] for ideal in ideals],
        "parameters": [str(g) for g in j.generators],
    }))
    return str(path)
