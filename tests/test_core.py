import random
import time
from itertools import permutations
from math import factorial

import pytest

import chernlab.core as core_module
from chernlab import (DEGREE_LIMIT, POWER_PRODUCT_LIMIT, PRIME_LIMIT,
                      ContextMismatchError, ParseError, Polynomial,
                      RingContext, binomial, is_prime, parse_polynomial)

P = 32003


def test_parse_zero(ctx4):
    assert parse_polynomial("0", ctx4).is_zero()
    assert parse_polynomial("0", ctx4).degree() is None


def test_parse_two_unit_terms(ctx4):
    f = parse_polynomial("x + z", ctx4)
    assert f.terms == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}


def test_parse_negation_is_mod_p_complement(ctx4):
    f = parse_polynomial("x^2 - 2*x*y", ctx4)
    assert f.terms == {(2, 0, 0, 0): 1, (1, 1, 0, 0): P - 2}
    g = parse_polynomial("-x", ctx4)
    assert g.terms == {(1, 0, 0, 0): P - 1}


def test_parse_parentheses_and_powers(ctx4):
    f = parse_polynomial("(x + z)^2", ctx4)
    assert f == parse_polynomial("x^2 + 2*x*z + z^2", ctx4)


@pytest.mark.parametrize("bad", [
    "2x",            # implicit multiplication
    "x^-2",          # negative exponent
    "q + 1",         # unknown variable
    "x +",           # dangling operator
    "x ** 2",        # empty factor
    "(x",            # unbalanced parenthesis
    "x $ y",         # stray character
])
def test_parse_rejects(ctx4, bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad, ctx4)


@pytest.mark.parametrize("text", [
    "x^4294967296",                 # exponent literal 2^32
    "x^18446744073709551616",       # 2^64
    "x^" + "9" * 5000,              # too long for int() to read at all
    "x^4294967295 * y",             # degree 2^32
    "x^2147483648 * x^2147483648",
    "(x^65536)^65536",
])
def test_parse_rejects_inputs_at_the_degree_cap(ctx4, text):
    # monomial keys are exact well beyond the cap (see RingContext)
    assert DEGREE_LIMIT == 1 << 32
    with pytest.raises(ParseError, match=r"2\^32"):
        parse_polynomial(text, ctx4)


@pytest.mark.parametrize("base, n, exact", [
    ("y + w", 3, True), ("y + w", 7, True), ("x + y + z", 4, True),
    ("x - 2*y + z + w", 3, True), ("(x + y)^2", 3, False)])
def test_power_takes_the_counted_products(ctx4, monkeypatch, base, n,
                                          exact):
    # step j multiplies the at most C(j+t-1, t-1) terms of base^j by the t
    # of the base, so a power takes at most t C(n+t-1, t) term products,
    # the parser's bound; a linear form reaches it, (x + y)^2 does not
    products = []
    original = core_module._mul_terms

    def counting(a, b, p):
        products.append(len(a) * len(b))
        return original(a, b, p)

    f = parse_polynomial(base, ctx4)
    t = len(f.terms)
    monkeypatch.setattr(core_module, "_mul_terms", counting)
    power = f ** n
    monkeypatch.undo()
    bound = t * binomial(n + t - 1, t)
    assert sum(products) == bound if exact else sum(products) < bound
    assert power == parse_polynomial(f"({base})^{n}", ctx4)


def test_power_budget_is_checked_before_expanding(ctx4, monkeypatch):
    # (y + w)^5 takes 2 C(6, 2) = 30 products, (y + w)^6 takes 42
    monkeypatch.setattr(core_module, "POWER_PRODUCT_LIMIT", 30)
    assert len(parse_polynomial("(y + w)^5", ctx4).terms) == 6
    assert len(parse_polynomial("(x + y + z)^3", ctx4).terms) == 10
    for text in ("(y + w)^6", "(x + y + z)^4", "x*(y + w)^6 + z"):
        with pytest.raises(ParseError, match="budget of 30 term products"):
            parse_polynomial(text, ctx4)
    # a single term is raised without products
    assert parse_polynomial("(2*x)^4294967295", ctx4).degree() == \
        DEGREE_LIMIT - 1


@pytest.mark.parametrize("text", ["(y + w)^200000", "(y + w)^5000",
                                  "(x + y + z + w)^4294967295",
                                  "((x + y)^2)^3000000"])
def test_parse_refuses_powers_over_the_budget(ctx4, text):
    # at the default budget these took up to 4 * 10^10 products
    assert POWER_PRODUCT_LIMIT == 5 * 10 ** 6
    with pytest.raises(ParseError, match=f"budget of {POWER_PRODUCT_LIMIT}"):
        parse_polynomial(text, ctx4)


def test_product_budget_is_checked_before_multiplying(ctx4, monkeypatch):
    # (x + y)*(z + w) takes 2 * 2 = 4 products, (x + y + z)*(z + w) 6; a
    # budget of 4 refuses the second, also after a first product within it
    monkeypatch.setattr(core_module, "POWER_PRODUCT_LIMIT", 4)
    assert len(parse_polynomial("(x + y)*(z + w)", ctx4).terms) == 4
    for text in ("(x + y + z)*(z + w)", "x*(x + y)*(z + w + y)"):
        with pytest.raises(ParseError, match="POWER_PRODUCT_LIMIT = 4 "):
            parse_polynomial(text, ctx4)


def test_parse_refuses_a_split_power_over_the_budget(ctx4):
    # each factor has 5456 terms and is within the power budget, but their
    # product takes about 3 * 10^7 term products
    start = time.perf_counter()
    with pytest.raises(ParseError, match="POWER_PRODUCT_LIMIT"):
        parse_polynomial("(x+y+z+w)^30*(x+y+z+w)^30", ctx4)
    assert time.perf_counter() - start < 1
    # 1771^2, about 3.1 * 10^6 products, is within it
    assert len(parse_polynomial("(x+y+z+w)^20*(x+y+z+w)^20", ctx4).terms) \
        == binomial(43, 3)


@pytest.mark.parametrize("digits", [4000, 4001, 8000, 9001])
def test_parse_reads_long_literals_mod_p(ctx4, digits):
    literal = "7" * digits
    want = sum(7 * pow(10, i, 32003) for i in range(digits)) % 32003
    assert parse_polynomial(f"{literal}*y", ctx4) == \
        Polynomial(ctx4, {(0, 1, 0, 0): want})


def test_parse_accepts_inputs_below_the_degree_cap(ctx4):
    assert parse_polynomial("x^4294967295", ctx4).terms == \
        {(DEGREE_LIMIT - 1, 0, 0, 0): 1}
    assert parse_polynomial("x^00000000000003", ctx4) == \
        parse_polynomial("x^3", ctx4)
    assert parse_polynomial("x^4294967295*y - y*x^4294967295",
                            ctx4).is_zero()


def test_power_of_a_sum_has_multinomial_coefficients(ctx4):
    # (x + y + z + w)^7 has one term per exponent vector of degree 7,
    # C(10, 3) of them, each with its multinomial coefficient mod p
    f = parse_polynomial("(x + y + z + w)^7", ctx4)
    assert len(f.terms) == binomial(10, 3)
    for mono, coeff in f.terms.items():
        assert sum(mono) == 7
        want = factorial(7)
        for e in mono:
            want //= factorial(e)
        assert coeff == want % P
    assert f == parse_polynomial("(x + y + z + w)^3", ctx4) * \
        parse_polynomial("(x + y + z + w)^4", ctx4)


def test_mul_examples(ctx4):
    x = parse_polynomial("x", ctx4)
    z = parse_polynomial("z", ctx4)
    assert x * z == parse_polynomial("x*z", ctx4)
    assert (x * Polynomial.zero(ctx4)).is_zero()
    s = parse_polynomial("x + z", ctx4)
    assert s * s == parse_polynomial("x^2 + 2*x*z + z^2", ctx4)


def test_mul_degree_additivity(ctx4):
    rng = random.Random(11)
    for _ in range(25):
        f = _random_poly(ctx4, rng, max_degree=3)
        g = _random_poly(ctx4, rng, max_degree=3)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_mul_bilinear(ctx4):
    rng = random.Random(12)
    for _ in range(20):
        f = _random_poly(ctx4, rng, 2)
        g = _random_poly(ctx4, rng, 2)
        h = _random_poly(ctx4, rng, 2)
        assert f * (g + h) == f * g + f * h


def test_context_mismatch(ctx4):
    other = RingContext(["x", "y", "z", "w"], characteristic=101)
    with pytest.raises(ContextMismatchError):
        parse_polynomial("x", ctx4) * parse_polynomial("x", other)


def test_binomial_conventions():
    assert binomial(4, 2) == 6
    assert binomial(1, 2) == 0
    assert binomial(4, 1) == 4
    assert binomial(-1, 0) == 0
    assert binomial(5, -2) == 0
    for a in range(0, 10):
        assert binomial(a, 0) == 1


def test_pascal_identity_including_boundaries():
    for a in range(1, 16):
        for b in range(-3, 19):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)
    # negative upper index: everything vanishes
    for a in range(-4, 0):
        for b in range(-3, 5):
            assert binomial(a, b) == 0 or (a >= b >= 0)


def test_field_axioms_randomized():
    rng = random.Random(13)
    for _ in range(200):
        a = rng.randrange(1, P)
        assert a * pow(a, -1, P) % P == 1
    for _ in range(50):
        a, b, c = (rng.randrange(P) for _ in range(3))
        assert (a * (b + c)) % P == (a * b + a * c) % P


@pytest.mark.parametrize("order", [
    "grevlex", "lex",
    pytest.param(("ydeg", 2, "grevlex"), id="ydeg-grevlex"),
    pytest.param(("ydeg", 2, "lex"), id="ydeg-lex"),
    pytest.param(("elim", 1, ("ydeg", 2, "grevlex")), id="elim-ydeg"),
    pytest.param(("elim", 2, "lex"), id="elim2-lex"),
    pytest.param(("ydeg", 2, "grevlex", (2, 3, 1, 1)), id="ydeg-weighted")])
def test_monomial_order_axioms(order):
    ctx = RingContext(["x", "y", "z", "w"], order=order)
    key = ctx.sort_key
    rng = random.Random(17)
    monos = [tuple(rng.randrange(5) for _ in range(4)) for _ in range(60)]
    unit = (0, 0, 0, 0)
    for m in monos:
        if m != unit:
            assert key(unit) < key(m)   # 1 is minimal
    for a in monos[:20]:
        for b in monos[:20]:
            # totality / trichotomy
            assert (key(a) < key(b)) + (key(a) > key(b)) + (a == b) == 1
            if key(a) < key(b):
                for c in monos[:5]:
                    shifted_a = tuple(x + y for x, y in zip(a, c))
                    shifted_b = tuple(x + y for x, y in zip(b, c))
                    assert key(shifted_a) < key(shifted_b)  # multiplicative


@pytest.mark.parametrize("base", ["grevlex", "lex"])
def test_elim_order_with_one_eliminated_variable(base):
    # the base sees only the kept variables; with one eliminated variable
    # that is the base on all variables after the two degrees
    names = ["t", "x", "y", "z"]
    full = RingContext(names, order=base).sort_key
    elim = RingContext(names, order=("elim", 1, base))
    rng = random.Random(23)
    monos = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(80)]
    assert sorted(monos, key=elim.sort_key) == \
        sorted(monos, key=lambda m: (sum(m[1:]), m[0], full(m)))


def _tuple_key(order, r):
    """The tuple sort key each order tag had before keys became linear
    forms: the reference for the weight matrices."""
    if order == "grevlex":
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))
    if order == "lex":
        return lambda m: m
    tag, k, base = order[:3]
    if tag == "elim":
        base_key = _tuple_key(base, r - k)
        return lambda m: (sum(m[k:]), sum(m[:k]), base_key(m[k:]), m[:k])
    base_key = _tuple_key(base, r)
    weights = (order + ((1,) * r,))[3]
    return lambda m: (sum(w * e for w, e in zip(weights, m)), -sum(m[:k]),
                      base_key(m))


@pytest.mark.parametrize("order", [
    "grevlex", "lex",
    pytest.param(("ydeg", 2, "grevlex"), id="ydeg-grevlex"),
    pytest.param(("ydeg", 2, "lex"), id="ydeg-lex"),
    pytest.param(("elim", 1, "grevlex"), id="elim-grevlex"),
    pytest.param(("elim", 1, ("ydeg", 2, "lex")), id="elim-ydeg-lex"),
    pytest.param(("elim", 1, ("ydeg", 2, "grevlex")), id="elim-ydeg"),
    pytest.param(("elim", 2, "lex"), id="elim2-lex"),
    pytest.param(("ydeg", 2, "lex", (2, 3, 1, 1, 1)), id="ydeg-weighted")])
def test_linear_key_sorts_like_tuple_key(order):
    # random exponent vectors of degree up to just below the input cap, the
    # permutations of two of them, which tie on the total degree with large
    # values in the later rows, and small ones, which tie on more rows
    r = 5
    ctx = RingContext([f"v{i}" for i in range(r)], order=order)
    reference = _tuple_key(order, r)
    rng = random.Random(f"keys:{order}")
    monos = [tuple(rng.randrange(bound) for _ in range(r))
             for bound in (DEGREE_LIMIT // r, 1 << 20, 4, 2) for _ in range(60)]
    monos += permutations(monos[0])
    monos += permutations(monos[1])
    # products in a run may exceed the cap: vectors of one degree below
    # 2^63 whose rows differ by 1 next to rows that differ by up to 2^58
    big = [rng.randrange(1 << 59, 1 << 60) for _ in range(r)]
    for _ in range(60):
        m = list(big)
        for step in (rng.randrange(1 << 58), 1):
            i, j = rng.sample(range(r), 2)
            m[i] += step
            m[j] -= step
        monos.append(tuple(m))
    monos.append((DEGREE_LIMIT // r - 1,) * r)
    for m in monos:
        assert isinstance(ctx.sort_key(m), int)
    assert sorted(monos, key=ctx.sort_key) == sorted(monos, key=reference)
    for a, b in zip(monos, reversed(monos)):
        assert (ctx.sort_key(a) < ctx.sort_key(b)) == \
            (reference(a) < reference(b))
        # linear: a product's key is the sum of its factors' keys
        assert ctx.sort_key(tuple(x + y for x, y in zip(a, b))) == \
            ctx.sort_key(a) + ctx.sort_key(b)


def test_parser_round_trip(ctx4):
    rng = random.Random(19)
    for _ in range(40):
        f = _random_poly(ctx4, rng, 4)
        assert parse_polynomial(str(f), ctx4) == f


def test_is_prime():
    assert is_prime(2) and is_prime(32003) and is_prime(10007)
    assert not is_prime(1) and not is_prime(32001) and not is_prime(0)
    assert is_prime(2 ** 61 - 1)
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to 2..37
    assert not is_prime(318665857834031151167461)


def test_ring_context_validation():
    with pytest.raises(ValueError):
        RingContext([])
    with pytest.raises(ValueError):
        RingContext(["x", "x"])
    with pytest.raises(ValueError):
        RingContext(["x"], characteristic=32001)
    with pytest.raises(ValueError):
        RingContext(["x"], characteristic=PRIME_LIMIT)
    with pytest.raises(ValueError):
        RingContext(["2bad"])


def _random_poly(ctx, rng, max_degree):
    terms = {}
    for _ in range(rng.randrange(6)):
        mono = [0] * ctx.nvars
        for _ in range(rng.randrange(max_degree + 1)):
            mono[rng.randrange(ctx.nvars)] += 1
        terms[tuple(mono)] = rng.randrange(ctx.characteristic)
    return Polynomial(ctx, terms)


def _random_polynomial(rng, ctx, terms, max_exp):
    return Polynomial(ctx, {tuple(rng.randint(0, max_exp)
                                  for _ in range(ctx.nvars)):
                            rng.randrange(ctx.characteristic)
                            for _ in range(terms)})


def test_substitute_matches_term_by_term_evaluation():
    # reference: each term's image built from ring operations and summed
    rng = random.Random(71)
    for p in (7, P):
        source = RingContext(["a", "b", "c"], p)
        target = RingContext(["x", "y", "z", "w"], p, "lex")
        for trial in range(30):
            f = _random_polynomial(rng, source, rng.randint(0, 6), 4)
            images = [_random_polynomial(rng, target, rng.randint(0, 3), 2)
                      for _ in range(source.nvars)]
            if trial % 5 == 0:
                images[rng.randrange(3)] = Polynomial.zero(target)
            expected = Polynomial.zero(target)
            for mono, coeff in f.terms.items():
                term = Polynomial.constant(target, coeff)
                for image, e in zip(images, mono):
                    term = term * image ** e
                expected = expected + term
            assert f.substitute(images) == expected


@pytest.mark.parametrize("order, eliminated, cone_rank", [
    ("grevlex", 0, 0), ("lex", 0, 0), (("elim", 1, "lex"), 1, 0),
    (("elim", 2, ("ydeg", 1, "grevlex")), 2, 0),
    (("ydeg", 2, "grevlex"), 0, 2),
    (("ydeg", 3, "lex", (2, 3, 1, 1, 1)), 0, 3)])
def test_order_tag_counts(order, eliminated, cone_rank):
    ring = RingContext(["a", "b", "c", "d", "e"], order=order)
    assert (ring.eliminated, ring.cone_rank) == (eliminated, cone_rank)


def test_adjoin_names_order_and_inclusion(ctx4):
    f = parse_polynomial("3*x^2*w - y + 5", ctx4)
    ring, include = ctx4.adjoin(["t", "x", "x_"], ("elim", 3, "grevlex"))
    # a taken name gets "_" until it is free, among the new names too
    assert ring.variables == ("t", "x_", "x__", "x", "y", "z", "w")
    assert (ring.characteristic, ring.order, ring.eliminated) == \
        (P, ("elim", 3, "grevlex"), 3)
    assert include(f) == parse_polynomial("3*x^2*w - y + 5", ring)
    ring, include = ctx4.adjoin(["e1"], "lex", last=True)
    assert ring.variables == ("x", "y", "z", "w", "e1")
    assert include(f) == parse_polynomial("3*x^2*w - y + 5", ring)
    # no new name: the same variables under another order
    ring, include = ctx4.adjoin((), "lex")
    assert ring == RingContext(ctx4.variables, P, "lex")
    assert include(f).terms == f.terms
