"""Cross-validation of the Buchberger engine against a from-scratch oracle.

The oracle below is a deliberately naive textbook implementation: it keeps
every critical pair (no coprime or chain pruning), reduces with plain
repeated top-reduction, and interreduces by fixpoint iteration.  Reduced
Groebner bases are unique, so any pruning or reduction bug in the production
engine shows up as a basis mismatch on these randomized inputs.  Colengths,
read off the engine's initial ideal, are checked against the Groebner-free
Macaulay-rank oracle of ``helpers``.
"""

import random

from chernlab import (Ideal, Polynomial, RingContext, buchberger,
                      quotient_length)
from helpers import brute_force_length


def _lm(f, key):
    return max(f.terms, key=key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_poly(ctx, mono, coeff=1):
    return Polynomial(ctx, {mono: coeff})


def _top_reduce(f, basis, ctx):
    key = ctx.sort_key
    p = ctx.characteristic
    changed = True
    while changed and not f.is_zero():
        changed = False
        m = _lm(f, key)
        c = f.terms[m]
        for g in basis:
            gm = _lm(g, key)
            if _divides(gm, m):
                q = tuple(a - b for a, b in zip(m, gm))
                scale = c * pow(g.terms[gm], -1, p) % p
                f = f - _mono_poly(ctx, q, scale) * g
                changed = True
                break
    return f


def _full_reduce(f, basis, ctx):
    key = ctx.sort_key
    remainder = Polynomial.zero(ctx)
    while not f.is_zero():
        f = _top_reduce(f, basis, ctx)
        if f.is_zero():
            break
        m = _lm(f, key)
        c = f.terms[m]
        remainder = remainder + _mono_poly(ctx, m, c)
        f = f - _mono_poly(ctx, m, c)
    return remainder


def _oracle_spoly(f, g, ctx):
    key = ctx.sort_key
    mf, mg = _lm(f, key), _lm(g, key)
    lcm = tuple(max(a, b) for a, b in zip(mf, mg))
    cf = pow(f.terms[mf], -1, ctx.characteristic)
    cg = pow(g.terms[mg], -1, ctx.characteristic)
    tf = _mono_poly(ctx, tuple(a - b for a, b in zip(lcm, mf)), cf)
    tg = _mono_poly(ctx, tuple(a - b for a, b in zip(lcm, mg)), cg)
    return tf * f - tg * g


def oracle_reduced_basis(gens, ctx):
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        s = _oracle_spoly(basis[i], basis[j], ctx)
        s = _full_reduce(s, basis, ctx)
        if not s.is_zero():
            basis.append(s)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize leading terms
    key = ctx.sort_key
    basis.sort(key=lambda f: key(_lm(f, key)))
    minimal = []
    for f in basis:
        if not any(_divides(_lm(g, key), _lm(f, key)) for g in minimal):
            minimal.append(f)
    # tail-reduce to the unique reduced basis
    reduced = []
    for idx, f in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        r = _full_reduce(f, others, ctx)
        inv = pow(r.terms[_lm(r, key)], -1, ctx.characteristic)
        reduced.append(r * inv)
    reduced.sort(key=lambda f: key(_lm(f, key)))
    return reduced


def _random_poly(ctx, rng, max_degree, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = [0] * ctx.nvars
        for _ in range(rng.randrange(max_degree + 1)):
            mono[rng.randrange(ctx.nvars)] += 1
        terms[tuple(mono)] = rng.randrange(1, ctx.characteristic)
    return Polynomial(ctx, terms)


def test_engine_matches_oracle_randomized():
    rng = random.Random(101)
    places = random.Random(102)
    for trial in range(30):
        order = "grevlex" if trial % 2 == 0 else "lex"
        nvars = rng.randrange(2, 4)
        ctx = RingContext([f"v{i}" for i in range(nvars)], 101, order)
        gens = [_random_poly(ctx, rng, 3) for _ in range(rng.randrange(2, 4))]
        expected = oracle_reduced_basis(gens, ctx)
        actual = list(buchberger(gens, ctx))
        assert actual == expected, (trial, [str(g) for g in gens])
        # a repeated generator, a scalar multiple of another and the zero
        # polynomial, anywhere in the input, leave the reduced basis as is
        noisy = list(gens)
        for extra in (places.choice(gens),
                      places.choice(gens) * places.randrange(2, 101),
                      Polynomial.zero(ctx)):
            noisy.insert(places.randrange(len(noisy) + 1), extra)
        assert list(buchberger(noisy, ctx)) == expected, \
            (trial, [str(g) for g in noisy])


def test_engine_matches_oracle_structured(ctx4):
    from chernlab import parse_polynomial

    for texts in (["x*z", "x*w", "y*z", "y*w", "x + z"],
                  ["x^2 - y*z", "y^2 - x*w", "z^2 - x*y"],
                  ["x^2", "x*y + z^2", "y^3"]):
        gens = [parse_polynomial(t, ctx4) for t in texts]
        assert list(buchberger(gens, ctx4)) == oracle_reduced_basis(gens, ctx4)


def test_length_matches_rank_oracle():
    """quotient_length, read off the Hilbert series of the engine's initial
    ideal, must agree with the Groebner-free Macaulay-rank oracle."""
    rng = random.Random(103)
    hits = 0
    while hits < 12:
        nvars = rng.randrange(2, 4)
        ctx = RingContext([f"v{i}" for i in range(nvars)], 101)
        gens = []
        for i in range(nvars):
            # a power of each variable keeps the quotient finite
            e = rng.randrange(1, 4)
            mono = tuple(e if j == i else 0 for j in range(nvars))
            gens.append(Polynomial(ctx, {mono: 1}))
        for _ in range(rng.randrange(3)):
            f = _random_poly(ctx, rng, 3)
            if f.is_homogeneous():
                gens.append(f)
        ideal = Ideal(ctx, gens)
        assert quotient_length(ideal) == brute_force_length(ideal)
        hits += 1
