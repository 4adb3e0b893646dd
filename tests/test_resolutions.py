from itertools import combinations_with_replacement

import pytest

from chernlab import (Ideal, binomial, en_betti, gr_series,
                      hilbert_samuel_values, ideal_intersect, ideal_power,
                      parse_polynomial, tor1_via_lengths)
from en_complexes import en_matrix, maximal_minors, tor1_closed_form


def _vars(ctx, *names):
    return [parse_polynomial(n, ctx) for n in names]


def test_banded_matrix_layout(ctx4):
    a = _vars(ctx4, "x", "y")
    matrix = en_matrix(a, 2)
    rendered = [[str(e) for e in row] for row in matrix]
    assert rendered == [["x", "y", "0"], ["0", "x", "y"]]


def test_minors_generate_square(ctx4):
    a = _vars(ctx4, "x", "y")
    minors = maximal_minors(en_matrix(a, 2), ctx4)
    assert sorted(str(m) for m in minors) == ["x*y", "x^2", "y^2"]
    assert Ideal(ctx4, minors) == ideal_power(Ideal(ctx4, a), 2)


def test_rejects_principal(ctx4):
    with pytest.raises(ValueError):
        en_matrix(_vars(ctx4, "x"), 3)


def test_koszul_presentation_at_first_power(ctx4):
    a = _vars(ctx4, "x", "y", "z")
    matrix = en_matrix(a, 1)
    assert [[str(e) for e in row] for row in matrix] == [["x", "y", "z"]]
    assert [str(m) for m in maximal_minors(matrix, ctx4)] == ["x", "y", "z"]


def test_betti_formula_values():
    assert en_betti(2, 3, 1) == 6
    assert en_betti(2, 3, 2) == 8
    assert en_betti(2, 3, 3) == 3
    for d in range(1, 6):
        for i in range(1, d + 1):
            assert en_betti(1, d, i) == binomial(d, i)
    with pytest.raises(ValueError):
        en_betti(2, 3, 0)
    with pytest.raises(ValueError):
        en_betti(2, 3, 4)


def test_first_betti_counts_generators():
    # beta_1 = number of degree-n monomials in d symbols = generator count of
    # the n-th power of a regular sequence
    for d in range(2, 6):
        for n in range(1, 6):
            count = sum(1 for _ in combinations_with_replacement(range(d), n))
            assert en_betti(n, d, 1) == count


def test_euler_characteristic_vanishes():
    for d in range(2, 6):
        for n in range(1, 6):
            betti = [1] + [en_betti(n, d, i) for i in range(1, d + 1)]
            assert sum(b if i % 2 == 0 else -b
                       for i, b in enumerate(betti)) == 0


@pytest.mark.parametrize("names,n", [
    (("x", "y"), 1), (("x", "y"), 2), (("x", "y"), 3),
    (("x", "y", "z"), 1), (("x", "y", "z"), 2), (("x", "y", "z"), 3),
])
def test_minor_ideal_equals_power(ctx4, names, n):
    a = _vars(ctx4, *names)
    minors = maximal_minors(en_matrix(a, n), ctx4)
    assert Ideal(ctx4, minors) == ideal_power(Ideal(ctx4, list(a)), n)


def test_tor1_closed_form_values():
    assert tor1_closed_form(3, 2, 1) == 4
    for d in range(1, 6):
        assert tor1_closed_form(1, d, 7) == d * 7
    assert tor1_closed_form(5, 4, 0) == 0


def test_tor1_via_lengths_e1(e1):
    ctx, ideals, j = e1
    core = ideal_intersect(*ideals)
    core_values = hilbert_samuel_values(core, j, 3)
    component_values = [hilbert_samuel_values(i, j, 3) for i in ideals]
    gr = gr_series(ideals, j)
    # n = 1: 3 - 1 - 1 + 1, agreeing with the closed form C(2, 1)
    assert tor1_via_lengths(core_values, component_values, gr.summed(1),
                            1) == 2
    assert tor1_via_lengths(core_values, component_values, gr.summed(3),
                            3) == 4


def test_tor1_vanishes_for_single_component(ctx4):
    ideals = [Ideal.from_strings(ctx4, ["x", "y"])]
    j = Ideal.from_strings(ctx4, ["z", "w"])
    values = hilbert_samuel_values(ideals[0], j, 5)
    gr = gr_series(ideals, j)
    for n in range(1, 6):
        assert tor1_via_lengths(values, [values], gr.summed(n), n) == 0
