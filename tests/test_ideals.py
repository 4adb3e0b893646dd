import random
from itertools import combinations, combinations_with_replacement

import pytest

from chernlab import (HypothesisError, Ideal, NotFiniteLengthError,
                      Polynomial, RingContext, ideal_intersect, ideal_power,
                      ideal_product, ideal_sum, intersect_all, is_mprimary,
                      krull_dimension, monomial_hilbert_series,
                      parse_polynomial, quotient_hilbert_series,
                      quotient_length, standard_monomials)
from chernlab.groebner import series_numerator
from chernlab.ideals import HilbertSeries


def I(ctx, *texts):
    return Ideal.from_strings(ctx, texts)


def test_ideal_rejects_inhomogeneous(ctx4):
    for text in ("x^2 - y", "x + 1"):
        g = parse_polynomial(text, ctx4)
        with pytest.raises(HypothesisError) as info:
            Ideal(ctx4, [g])
        assert isinstance(info.value, ValueError)
        assert str(info.value) == (f"generators_homogeneous: generator {g} "
                                   "is not homogeneous")


def test_sum_examples(ctx4):
    assert ideal_sum(I(ctx4, "x", "y"), I(ctx4, "z", "w")) == I(ctx4, "x", "y", "z", "w")
    a = I(ctx4, "x*z", "y*w")
    assert ideal_sum(a, a) == a
    assert ideal_sum(I(ctx4, "x", "y"), I(ctx4, "x + z", "y + w")) == \
        I(ctx4, "x", "y", "z", "w")


def test_power_examples(ctx4):
    sq = ideal_power(I(ctx4, "x", "y"), 2)
    assert sq == I(ctx4, "x^2", "x*y", "y^2")
    a = I(ctx4, "x", "y")
    assert ideal_power(a, 1) is a
    diag = ideal_power(I(ctx4, "x + z", "y + w"), 2)
    assert len(diag.generators) == 3  # C(n+d-1, d-1) at n=2, d=2
    with pytest.raises(ValueError):
        ideal_power(a, 0)


def test_power_equals_product(ctx4):
    for texts in (["x", "y"], ["x + z", "y + w"], ["x*z", "y*w", "x*w"]):
        a = I(ctx4, *texts)
        assert ideal_power(a, 2) == ideal_product(a, a)


def test_power_generators_are_the_products_in_order(ctx4):
    # each power is built from the one below, in the same order whatever
    # was asked for before
    def products(gens, n):
        out = []
        for combo in combinations_with_replacement(gens, n):
            prod = combo[0]
            for g in combo[1:]:
                prod = prod * g
            out.append(prod)
        return out

    rng = random.Random(43)
    for count in (1, 2, 3):
        a = Ideal(ctx4, [_random_homogeneous(ctx4, rng, degree)
                         for degree in (1, 2, 1)[:count]])
        for n in (2, 3, 4, 5, 5, 4, 3, 2, 1, 5, 3):
            assert list(ideal_power(a, n).generators) == \
                products(a.generators, n)


def test_intersect_transversal_planes(ctx4):
    a = I(ctx4, "x", "y")
    b = I(ctx4, "z", "w")
    both = ideal_intersect(a, b)
    assert both == I(ctx4, "x*z", "x*w", "y*z", "y*w")
    # both inclusions, via normal forms
    for g in both.generators:
        assert a.contains(g) and b.contains(g)
    for text in ("x*z", "x*w", "y*z", "y*w"):
        assert both.contains(parse_polynomial(text, ctx4))


def test_intersect_idempotent(ctx4):
    a = I(ctx4, "x*z", "y^2")
    assert ideal_intersect(a, a) == a


def test_intersect_principal_single_variable():
    ctx = RingContext(["x"])
    a = Ideal.from_strings(ctx, ["x"])
    assert ideal_intersect(a, a) == a


def test_intersect_membership_property(ctx4):
    rng = random.Random(23)
    a = I(ctx4, "x", "y^2")
    b = I(ctx4, "z", "w")
    both = ideal_intersect(a, b)
    for _ in range(20):
        f = _random_homogeneous(ctx4, rng, degree=rng.randrange(1, 5))
        in_both = a.contains(f) and b.contains(f)
        assert both.contains(f) == in_both
    # elements manufactured to lie in the intersection
    for fa in a.generators:
        for fb in b.generators:
            assert both.contains(fa * fb)


def test_krull_dimension(ctx4):
    assert krull_dimension(I(ctx4, "x", "y")) == 2
    assert krull_dimension(I(ctx4, "x*z", "x*w", "y*z", "y*w")) == 2
    assert krull_dimension(I(ctx4, "1")) == -1
    assert krull_dimension(Ideal(ctx4, [])) == 4
    assert krull_dimension(I(ctx4, "x", "y", "z", "w")) == 0


def subset_scan_dimension(leads, r):
    """dim S/(monomial ideal): the size of the largest variable subset that
    contains the support of no generator, or -1 when even the empty subset
    contains one (the unit ideal)."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    for size in range(r, -1, -1):
        for subset in combinations(range(r), size):
            if not any(s <= frozenset(subset) for s in supports):
                return size
    return -1


def test_krull_dimension_against_subset_scan():
    rng = random.Random(97)
    for trial in range(120):
        r = rng.randint(1, 8)
        ctx = RingContext([f"x{i}" for i in range(1, r + 1)])
        monos = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(r))
                 for _ in range(rng.randint(0, 5))]
        if trial % 20 == 0:
            monos.append((0,) * r)                  # the unit ideal
        ideal = Ideal(ctx, [Polynomial(ctx, {m: 1}) for m in monos])
        assert krull_dimension(ideal) == subset_scan_dimension(monos, r)
    ctx8 = RingContext([f"x{i}" for i in range(1, 9)])
    assert krull_dimension(Ideal(ctx8, [])) == 8
    assert krull_dimension(Ideal(ctx8, [Polynomial(ctx8, {(0,) * 8: 1})])) \
        == -1


def test_is_mprimary(ctx4):
    assert is_mprimary(I(ctx4, "x", "y", "z", "w"))
    assert not is_mprimary(I(ctx4, "x", "y"))
    assert is_mprimary(ideal_sum(I(ctx4, "x", "y"), I(ctx4, "z", "w")))


def test_hilbert_series_free_ring(ctx4):
    series = monomial_hilbert_series([], ctx4)
    assert series.numerator == (1,) and series.denominator_exponent == 4


def test_hilbert_series_polynomial_subring(ctx4):
    series = quotient_hilbert_series(I(ctx4, "x", "y"))
    assert series.numerator == (1,) and series.denominator_exponent == 2


def test_hilbert_series_quadrics(ctx4):
    series = quotient_hilbert_series(I(ctx4, "x*z", "x*w", "y*z", "y*w"))
    dims = series.coefficients_up_to(10)
    assert dims[0] == 1
    assert dims[1:] == [2 * s + 2 for s in range(1, 11)]
    # reduced: the numerator no longer vanishes at t = 1
    assert sum(series.numerator) != 0


def test_quotient_series_computed_once(ctx4, monkeypatch):
    import chernlab.ideals as ideals_module

    calls = []
    original = ideals_module.monomial_hilbert_series

    def counting(leads, ctx):
        calls.append(1)
        return original(leads, ctx)

    monkeypatch.setattr(ideals_module, "monomial_hilbert_series", counting)
    ideal = I(ctx4, "x*z", "x*w", "y*z", "y*w")
    series = quotient_hilbert_series(ideal)
    assert quotient_hilbert_series(ideal) is series
    assert krull_dimension(ideal) == 2 and not is_mprimary(ideal)
    assert calls == [1]
    # an equal ideal built anew computes its own
    assert quotient_hilbert_series(I(ctx4, "x*z", "x*w", "y*z",
                                     "y*w")) == series
    assert calls == [1, 1]


def test_series_vs_standard_monomials(ctx4):
    for texts in (["x", "y"], ["x*z", "x*w", "y*z", "y*w"],
                  ["x^2 - y*z", "x*y - w^2", "y^2 - x*w"],
                  ["x + z", "y + w", "x*z", "x*w", "y*z", "y*w"]):
        ideal = I(ctx4, *texts)
        series = quotient_hilbert_series(ideal)
        counts = [len(m) for m in standard_monomials(ideal.groebner(), 10)]
        assert series.coefficients_up_to(10) == counts
        # the bigraded numerator, the first k variables weighted t and the
        # others s, is the same numerator at s = t
        for k in range(5):
            bigraded = series_numerator(ideal.lead_monomials(), 4, k)
            collapsed = [0] * (len(bigraded) + max(map(len, bigraded)))
            for i, row in enumerate(bigraded):
                for j, c in enumerate(row):
                    collapsed[i + j] += c
            assert HilbertSeries(collapsed, 4) == series


def test_length_residue_field(ctx4):
    assert quotient_length(I(ctx4, "x", "y", "z", "w")) == 1


def test_length_running_example(ctx4):
    core = ideal_intersect(I(ctx4, "x", "y"), I(ctx4, "z", "w"))
    k = ideal_sum(core, I(ctx4, "x + z", "y + w"))
    assert quotient_length(k) == 3


def test_length_direct_count(ctx4):
    assert quotient_length(I(ctx4, "x^2", "x*y", "y^2", "z", "w")) == 3


def test_length_matches_series_and_counts(ctx4):
    ideal = I(ctx4, "x^2", "x*y", "y^2", "z", "w")
    total = quotient_length(ideal)
    series = quotient_hilbert_series(ideal)
    counts = [len(m) for m in standard_monomials(ideal.groebner(), 6)]
    assert total == series.total() == sum(counts)


def test_length_infinite_raises(ctx4):
    with pytest.raises(NotFiniteLengthError):
        quotient_length(I(ctx4, "x", "y"))
    with pytest.raises(NotFiniteLengthError):
        quotient_length(Ideal(ctx4, []))


def test_length_unit_ideal(ctx4):
    assert quotient_length(I(ctx4, "1")) == 0


def test_serre_dimension_bound(e1, e2, e4):
    for ctx, ideals, j in (e1, e2, e4):
        core = intersect_all(ideals)
        assert krull_dimension(core) + krull_dimension(j) <= ctx.nvars


def _random_homogeneous(ctx, rng, degree):
    terms = {}
    monos = list(combinations_with_replacement(range(ctx.nvars), degree))
    for _ in range(rng.randrange(1, 4)):
        pick = monos[rng.randrange(len(monos))]
        mono = [0] * ctx.nvars
        for v in pick:
            mono[v] += 1
        terms[tuple(mono)] = rng.randrange(1, ctx.characteristic)
    return Polynomial(ctx, terms)
