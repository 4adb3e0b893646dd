from itertools import combinations_with_replacement

import pytest

from chernlab import (Ideal, RingContext, binomial, diagonal_cokernel,
                      en_betti, hilbert_samuel_values, ideal_intersect,
                      ideal_power, parse_polynomial, power_colengths,
                      tor1_via_lengths)
from en_complexes import (ENResolutionData, en_matrix, koszul_complex,
                          koszul_composes_to_zero, maximal_minors,
                          poly_mat_mul, tor1_closed_form)


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


def test_resolution_data_bundles_betti(ctx4):
    data = ENResolutionData(_vars(ctx4, "x", "y", "z"), 2)
    assert data.betti == (1, 6, 8, 3)
    assert data.euler_characteristic() == 0


def test_koszul_principal(ctx4):
    data = koszul_complex(_vars(ctx4, "x"))
    assert data.ranks == (1, 1)
    assert [[str(e) for e in row] for row in data.differentials[0]] == [["x"]]


def test_koszul_sign_convention(ctx4):
    a = _vars(ctx4, "x", "y")
    data = koszul_complex(a)
    first = [[str(e) for e in row] for row in data.differentials[0]]
    second = [[str(e) for e in row] for row in data.differentials[1]]
    assert first == [["x", "y"]]
    assert second == [[f"{32003 - 1}*y"], ["x"]]   # -y over F_p
    product = poly_mat_mul(data.differentials[0], data.differentials[1], ctx4)
    assert all(e.is_zero() for row in product for e in row)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_koszul_differentials_square_to_zero(d):
    ctx = RingContext([f"x{i}" for i in range(1, d + 1)])
    gens = [parse_polynomial(f"x{i}", ctx) for i in range(1, d + 1)]
    data = koszul_complex(gens)
    assert data.ranks == tuple(binomial(d, k) for k in range(d + 1))
    assert koszul_composes_to_zero(data, ctx)
    if d >= 1:
        assert sum(r if k % 2 == 0 else -r
                   for k, r in enumerate(data.ranks)) == 0


def test_koszul_rank_vector_d3(ctx4):
    data = koszul_complex(_vars(ctx4, "x", "y", "z"))
    assert data.ranks == (1, 3, 3, 1)


def test_tor1_closed_form_values():
    assert tor1_closed_form(3, 2, 1) == 4
    for d in range(1, 6):
        assert tor1_closed_form(1, d, 7) == d * 7
    assert tor1_closed_form(5, 4, 0) == 0


def test_tor1_via_lengths_e1(e1):
    ctx, ideals, j = e1
    core = ideal_intersect(*ideals)
    model = diagonal_cokernel(ideals, core)
    core_values = hilbert_samuel_values(core, j, 3)
    component_values = [hilbert_samuel_values(i, j, 3) for i in ideals]
    colengths = power_colengths(model, j, 3)
    # n = 1: 3 - 1 - 1 + 1, agreeing with the closed form C(2, 1)
    assert tor1_via_lengths(core_values, component_values, colengths, 1) == 2
    assert tor1_via_lengths(core_values, component_values, colengths, 3) == 4


def test_tor1_vanishes_for_single_component(ctx4):
    ideals = [Ideal.from_strings(ctx4, ["x", "y"])]
    j = Ideal.from_strings(ctx4, ["z", "w"])
    model = diagonal_cokernel(ideals, ideals[0])
    values = hilbert_samuel_values(ideals[0], j, 5)
    colengths = power_colengths(model, j, 5)
    for n in range(1, 6):
        assert tor1_via_lengths(values, [values], colengths, n) == 0
