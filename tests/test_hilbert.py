import random
from fractions import Fraction

import pytest

from chernlab import (FitInstabilityError, HilbertDataset, Ideal,
                      InconsistentDataError, binomial, chern_sign, cm_test,
                      fit_coefficients, hilbert_polynomial_value,
                      hilbert_samuel, ideal_intersect)
from chernlab.linalg import SingularSystemError, solve_fraction_free


def I(ctx, *texts):
    return Ideal.from_strings(ctx, texts)


def test_hilbert_samuel_e1(e1):
    ctx, ideals, j = e1
    core = ideal_intersect(*ideals)
    assert hilbert_samuel(core, j, 1) == 3
    # cross-check against the closed form 2*C(n+1, 2) + n at n = 2
    assert hilbert_samuel(core, j, 2) == 8 == 2 * binomial(3, 2) + 2


def test_hilbert_samuel_polynomial_ring(ctx4):
    core = I(ctx4, "x", "y")
    j = I(ctx4, "z", "w")
    assert hilbert_samuel(core, j, 3) == binomial(4, 2)


def test_fit_pure_binomial():
    values = {1: 1, 2: 3, 3: 6, 4: 10}
    coeffs, n0 = fit_coefficients(values, 2)
    assert coeffs == (1, 0, 0)
    assert n0 == 1


def test_fit_two_planes_window():
    values = {1: 3, 2: 8, 3: 15, 4: 24}
    coeffs, n0 = fit_coefficients(values, 2)
    assert coeffs == (2, -1, 0)
    assert n0 == 1


def test_fit_three_dimensional_window():
    # frozen from evaluating 2*C(n+2,3) + C(n+1,2) + n at n = 1..5
    values = {1: 4, 2: 13, 3: 29, 4: 54, 5: 90}
    for n in values:
        assert values[n] == 2 * binomial(n + 2, 3) + binomial(n + 1, 2) + n
    coeffs, n0 = fit_coefficients(values, 3)
    assert coeffs == (2, -1, 1, 0)
    assert n0 == 1


def test_fit_detects_stabilization_index():
    base = (2, -1, 0)
    values = {n: hilbert_polynomial_value(base, n) for n in range(1, 9)}
    values[1] += 7
    values[2] -= 1
    coeffs, n0 = fit_coefficients(values, 2)
    assert coeffs == base
    assert n0 == 3


def test_fit_solves_one_window(monkeypatch):
    import chernlab.hilbert as hilbert_module
    calls = []

    def counting(matrix, rhs):
        calls.append(len(rhs))
        return solve_fraction_free(matrix, rhs)

    monkeypatch.setattr(hilbert_module, "solve_fraction_free", counting)
    values = {n: hilbert_polynomial_value((2, -1, 0), n) for n in range(1, 9)}
    assert fit_coefficients(values, 2) == ((2, -1, 0), 1)
    assert calls == [3]


def test_fit_window_too_short():
    with pytest.raises(FitInstabilityError):
        fit_coefficients({1: 3, 2: 8, 3: 15}, 2)


def test_fit_rejects_nonpolynomial_data():
    values = {n: 2 ** n for n in range(1, 9)}
    with pytest.raises(FitInstabilityError):
        fit_coefficients(values, 2)


def test_fit_requires_contiguous_window():
    with pytest.raises(ValueError):
        fit_coefficients({1: 3, 3: 15, 4: 24, 5: 35}, 2)


def test_polynomial_value_matches_binomial_expansion():
    coeffs = (5, -2, 7, -1)
    for n in range(1, 12):
        expected = (5 * binomial(n + 2, 3) + 2 * binomial(n + 1, 2)
                    + 7 * binomial(n, 1) + 1)
        assert hilbert_polynomial_value(coeffs, n) == expected


def test_finite_differences_vanish(e1):
    ctx, ideals, j = e1
    core = ideal_intersect(*ideals)
    values = [hilbert_samuel(core, j, n) for n in range(1, 9)]
    # third forward difference of a quadratic is identically zero
    diffs = values
    for _ in range(3):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert all(v == 0 for v in diffs)


def test_dataset_invariants():
    values = {1: 3, 2: 8, 3: 15, 4: 24}
    dataset = HilbertDataset.fit(values, 2)
    assert all(hilbert_polynomial_value(dataset.coefficients, n) == values[n]
               for n in values if n >= dataset.n0)
    with pytest.raises(InconsistentDataError):
        HilbertDataset(2, values, (0, 1, 1), 1)


def test_cm_test():
    assert cm_test(1, 1).is_cm
    assert not cm_test(2, 3).is_cm
    assert not cm_test(2, 4).is_cm
    verdict = cm_test(2, 3)
    assert (verdict.e0, verdict.colength) == (2, 3)


def test_chern_sign():
    assert chern_sign(-1) == "negative"
    assert chern_sign(0) == "zero"
    assert chern_sign(5) == "positive"


def test_collapse_binomial_identity():
    # C(n+d-1, d-1) = 1 + sum_{i=1}^{d-1} C(n+d-i-1, d-i)
    for n in range(1, 13):
        for d in range(1, 13):
            rhs = 1 + sum(binomial(n + d - i - 1, d - i) for i in range(1, d))
            assert binomial(n + d - 1, d - 1) == rhs


def test_fraction_free_solver_exact():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randrange(1, 5)
        matrix = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        solution = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                    for _ in range(n)]
        rhs_exact = [sum(a * x for a, x in zip(row, solution)) for row in matrix]
        if any(f.denominator != 1 for f in rhs_exact):
            continue
        rhs = [int(v) for v in rhs_exact]
        try:
            solved = solve_fraction_free(matrix, rhs)
        except SingularSystemError:
            continue
        assert solved == solution


def test_fraction_free_solver_singular():
    with pytest.raises(SingularSystemError):
        solve_fraction_free([[1, 2], [2, 4]], [1, 2])
