import random

import pytest

from chernlab import (Polynomial, buchberger, normal_form,
                      parse_polynomial, s_polynomial, standard_monomials)
from chernlab.core import RingContext


def _polys(ctx, *texts):
    return [parse_polynomial(t, ctx) for t in texts]


def test_already_reduced(ctx4):
    g = buchberger(_polys(ctx4, "x", "y"), ctx4)
    assert [str(p) for p in g] == ["y", "x"]


def test_monomial_ideal_fixed_point(ctx4):
    gens = _polys(ctx4, "x*z", "x*w", "y*z", "y*w")
    g = buchberger(gens, ctx4)
    assert sorted(str(p) for p in g) == sorted(str(p) for p in gens)


def test_single_spair_reduction(ctx4):
    # {x^2 - y, x}: the S-polynomial exposes y, so the basis collapses to {x, y}
    g = buchberger(_polys(ctx4, "x^2 - y", "x"), ctx4)
    assert [str(p) for p in g] == ["y", "x"]


def test_empty_input(ctx4):
    g = buchberger([], ctx4)
    assert len(g) == 0
    f = parse_polynomial("x + y", ctx4)
    assert normal_form(f, g) == f


def test_normal_form_membership(ctx4):
    g = buchberger(_polys(ctx4, "x", "y"), ctx4)
    assert normal_form(parse_polynomial("x", ctx4), g).is_zero()
    assert normal_form(parse_polynomial("z", ctx4), g) == parse_polynomial("z", ctx4)


def test_normal_form_generator_membership(ctx4):
    g = buchberger(_polys(ctx4, "x + z", "y + w", "x*z", "x*w", "y*z", "y*w"), ctx4)
    assert normal_form(parse_polynomial("x*z", ctx4), g).is_zero()


def test_normal_form_idempotent(ctx4):
    g = buchberger(_polys(ctx4, "x^2 - y*z", "x*y - w^2"), ctx4)
    rng = random.Random(3)
    for _ in range(10):
        f = _random_poly(ctx4, rng, 4)
        nf = normal_form(f, g)
        assert normal_form(nf, g) == nf


def test_standard_monomials_linear(ctx4):
    g = buchberger(_polys(ctx4, "x", "y"), ctx4)
    per_degree = standard_monomials(g, 1)
    assert per_degree[0] == [(0, 0, 0, 0)]
    assert sorted(per_degree[1]) == [(0, 0, 0, 1), (0, 0, 1, 0)]


def test_standard_monomials_quadrics(ctx4):
    g = buchberger(_polys(ctx4, "x*z", "x*w", "y*z", "y*w"), ctx4)
    degree2 = standard_monomials(g, 2)[2]
    expected = {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0),
                (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)}
    assert set(degree2) == expected and len(degree2) == 6


def test_standard_monomials_unit_ideal(ctx4):
    g = buchberger(_polys(ctx4, "1"), ctx4)
    per_degree = standard_monomials(g, 3)
    assert all(not monos for monos in per_degree)


TEST_IDEALS = [
    ["x", "y"],
    ["x*z", "x*w", "y*z", "y*w"],
    ["x^2 - y*z", "x*y - w^2", "y^2 - x*w"],
    ["x + z", "y + w", "x*z", "x*w", "y*z", "y*w"],
    ["x^3 - y^2*z", "x*y^2 - z^2*w", "y*w^2 - x^2*z"],
]


@pytest.mark.parametrize("texts", TEST_IDEALS)
def test_buchberger_criterion(ctx4, texts):
    # every S-polynomial of basis elements must reduce to zero
    g = buchberger(_polys(ctx4, *texts), ctx4)
    elements = list(g)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            s = s_polynomial(elements[i], elements[j])
            assert normal_form(s, g).is_zero()


@pytest.mark.parametrize("texts", TEST_IDEALS)
def test_membership_is_linear(ctx4, texts):
    gens = _polys(ctx4, *texts)
    g = buchberger(gens, ctx4)
    rng = random.Random(5)
    for _ in range(10):
        f = _random_combination(ctx4, gens, rng)
        h = _random_combination(ctx4, gens, rng)
        assert normal_form(f, g).is_zero()
        assert normal_form(f + h, g).is_zero()


@pytest.mark.parametrize("texts", TEST_IDEALS)
def test_membership_order_independent(texts):
    grev = RingContext(["x", "y", "z", "w"], order="grevlex")
    lex = RingContext(["x", "y", "z", "w"], order="lex")
    g_grev = buchberger(_polys(grev, *texts), grev)
    g_lex = buchberger(_polys(lex, *texts), lex)
    rng = random.Random(7)
    probes = [_random_combination(grev, _polys(grev, *texts), rng) for _ in range(5)]
    probes += [_random_poly(grev, rng, 3) for _ in range(5)]
    for f in probes:
        f_lex = Polynomial(lex, f.terms)
        assert normal_form(f, g_grev).is_zero() == normal_form(f_lex, g_lex).is_zero()


def test_determinism(ctx4):
    texts = TEST_IDEALS[2]
    a = buchberger(_polys(ctx4, *texts), ctx4)
    b = buchberger(_polys(ctx4, *texts), ctx4)
    assert a == b
    assert [str(p) for p in a] == [str(p) for p in b]


def _random_poly(ctx, rng, max_degree):
    terms = {}
    for _ in range(rng.randrange(5)):
        mono = [0] * ctx.nvars
        for _ in range(rng.randrange(max_degree + 1)):
            mono[rng.randrange(ctx.nvars)] += 1
        terms[tuple(mono)] = rng.randrange(ctx.characteristic)
    return Polynomial(ctx, terms)


def _random_combination(ctx, gens, rng):
    total = Polynomial.zero(ctx)
    for g in gens:
        total = total + _random_poly(ctx, rng, 2) * g
    return total
