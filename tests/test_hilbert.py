import json
import random
from fractions import Fraction

import pytest

from chernlab import (FitInstabilityError, HilbertSeries, Ideal, binomial,
                      chern_sign, fit_coefficients, hilbert_polynomial_value,
                      hilbert_samuel, ideal_intersect, tangent_cone)
from chernlab.cli import main
from chernlab.hilbert import samuel_polynomial
from chernlab.linalg import (NonIntegralSolutionError, SingularSystemError,
                             solve_fraction_free)
from conftest import PROBLEM_DIR


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


def _bareiss_fit(values, d):
    """fit_coefficients by a Bareiss solve of the collocation system
    sum_i (-1)^i e_i C(n+d-1-i, d-i) = H(n) on the top window."""
    n_min, n_max = min(values), max(values)
    if n_max - n_min + 1 < d + 2:
        raise FitInstabilityError("window too short - increase max_power")
    top = range(n_max - d, n_max + 1)
    matrix = [[(-1) ** i * binomial(n + d - 1 - i, d - i)
               for i in range(d + 1)] for n in top]
    e = tuple(solve_fraction_free(matrix, [values[n] for n in top]))
    below = n_max - d - 1
    if values[below] != hilbert_polynomial_value(e, below):
        raise FitInstabilityError("window too short - increase max_power")
    n0 = n_min
    for n in range(n_max, n_min - 1, -1):
        if values[n] != hilbert_polynomial_value(e, n):
            n0 = n + 1
            break
    return e, n0


def _outcome(fit, values, d):
    try:
        return fit(values, d)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("d", range(5))
def test_fit_matches_bareiss_solve(d):
    rng = random.Random(16 + d)
    kinds = ("exact", "below", "top", "random", "short")
    seen = {kind: set() for kind in kinds}
    for trial in range(250):
        kind = kinds[trial % 5]
        e = [rng.randrange(1, 30)] + [rng.randrange(-30, 31)
                                       for _ in range(d)]
        n_min = rng.randrange(1, 4)
        width = (rng.randrange(1, d + 2) if kind == "short"
                 else rng.randrange(d + 2, d + 7))
        ns = range(n_min, n_min + width)
        values = {n: hilbert_polynomial_value(e, n) for n in ns}
        if kind == "random":
            values = {n: rng.randrange(-50, 500) for n in ns}
        elif kind == "below":
            values[rng.choice(ns[:width - d - 1])] += rng.choice((-3, 1, 2))
        elif kind == "top":
            values[rng.choice(ns[width - d - 1:])] += rng.choice((-2, 1))
        expected = _outcome(_bareiss_fit, values, d)
        assert _outcome(fit_coefficients, values, d) == expected, values
        seen[kind].add(expected[0] if isinstance(expected[1], str)
                       else "n0 > n_min" if expected[1] > n_min else "fit")
    assert seen["exact"] == {"fit"}
    assert seen["below"] == {"n0 > n_min", FitInstabilityError}
    assert seen["top"] == seen["short"] == {FitInstabilityError}
    assert FitInstabilityError in seen["random"]


def test_fit_needs_top_window_at_positive_n():
    # at n <= 0 the binomial basis is cut off (C(a, b) = 0 for a < b), so a
    # top window that reaches there fits no polynomial
    with pytest.raises(ValueError,
                       match="^the top window must lie at n >= 1$"):
        fit_coefficients({n: 0 for n in range(-1, 3)}, 2)
    assert fit_coefficients({n: n for n in range(0, 3)}, 1) == ((1, 0), 0)


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


def _prefix_sums(h, times, length):
    """The first ``length`` coefficients of h(t)/(1-t)^times."""
    row = list(h[:length]) + [0] * (length - len(h))
    for _ in range(times):
        for i in range(1, length):
            row[i] += row[i - 1]
    return row


def test_summed_series_by_prefix_sums():
    # sum_(m<n) [t^m] h/(1-t)^s is [t^(n-1)] h/(1-t)^(s+1)
    rng = random.Random(3)
    for _ in range(60):
        h = [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))]
        s = rng.randint(0, 4)
        series = HilbertSeries(h, s)
        sums = _prefix_sums(h, s + 1, 15)
        assert [series.summed(n) for n in range(1, 16)] == sums
        assert series.summed(0) == 0


def test_samuel_polynomial_matches_the_fit():
    # the exact polynomial and n0 equal the fit of a window that reaches
    # past deg h - d + d + 1, where the function is the polynomial
    rng = random.Random(11)
    for _ in range(80):
        h = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        d = rng.randint(0, 4)
        series = HilbertSeries(h, rng.randint(0, d))
        values = {n: series.summed(n) for n in range(1, len(h) + d + 4)}
        assert samuel_polynomial(series, d) == fit_coefficients(values, d)


def test_samuel_polynomial_of_known_series():
    # two transversal planes: (3 - t)/(1-t)^2 sums to n^2 + 2n, so
    # e = (2, -1, 0); over (1-t)^3 the same function is (0, -2, 1, 0)
    assert samuel_polynomial(HilbertSeries([3, -1], 2), 2) == ((2, -1, 0), 1)
    assert samuel_polynomial(HilbertSeries([3, -1], 2), 3) == \
        ((0, -2, 1, 0), 1)
    # 1 + 3t^4 summed: 1 for n <= 4, then 4; its polynomial is the constant
    # 4, reached from n = 5 on
    assert samuel_polynomial(HilbertSeries([1, 0, 0, 0, 3], 0), 0) == \
        ((4,), 5)
    assert samuel_polynomial(HilbertSeries([], 0), 1) == ((0, 0), 1)
    with pytest.raises(ValueError, match="pole"):
        samuel_polynomial(HilbertSeries([3, -1], 2), 1)


def test_finite_differences_vanish(e1):
    ctx, ideals, j = e1
    core = ideal_intersect(*ideals)
    values = [hilbert_samuel(core, j, n) for n in range(1, 9)]
    # third forward difference of a quadratic is identically zero
    diffs = values
    for _ in range(3):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert all(v == 0 for v in diffs)


def test_core_polynomial_invariants(e1):
    # K's polynomial off the core's cone: e_0 = Q_K(1) >= 1, as the pole
    # order is d = 2, and H(K, n) is the polynomial from n0 on
    ctx, ideals, j = e1
    core = ideal_intersect(*ideals)
    series = tangent_cone(core, j).series()
    assert series.denominator_exponent == 2
    e, n0 = samuel_polynomial(series, 2)
    assert (e, n0) == ((2, -1, 0), 1)
    assert e[0] == sum(series.numerator) >= 1
    assert all(hilbert_samuel(core, j, n) == hilbert_polynomial_value(e, n)
               for n in range(n0, 7))


def test_lift_refuses_a_pole_order_below_the_series():
    series = HilbertSeries([3, -1], 2)
    assert series.lift(2) == [3, -1]
    assert series.lift(3) == [3, -4, 1]
    for s in (1, 0):
        with pytest.raises(ValueError, match="pole order"):
            series.lift(s)


def test_cm_test(capsys):
    # coeffs and verify read K's Cohen-Macaulay verdict the same way, as
    # e_0 = length(R/K): e1 has e_0 = 2 < 3, e3 is the CM baseline
    for name, e0, colength in (("e1_two_planes", 2, 3),
                               ("e3_cm_baseline", 1, 1)):
        path = str(PROBLEM_DIR / f"{name}.json")
        reports = []
        for command in ("coeffs", "verify"):
            assert main([command, path, "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        coeffs, verify = reports
        cm = {"is_cm": e0 == colength, "e0": str(e0),
              "colength": str(colength)}
        assert coeffs["cm"] == cm["is_cm"]
        assert verify["cm"] == dict(cm, colength_at_least_e0=True)
        negativity = verify["identities"][-1]["witness"]
        assert negativity["cm_cross_check"] == cm


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
    solved_systems = 0
    for _ in range(40):
        n = rng.randrange(1, 6)
        matrix = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        solution = [rng.randrange(-9, 10) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, solution)) for row in matrix]
        try:
            solved = solve_fraction_free(matrix, rhs)
        except SingularSystemError:
            continue
        assert solved == solution
        assert all(type(x) is int for x in solved)
        solved_systems += 1
    assert solved_systems >= 30


def _rational_solution(matrix, rhs):
    """Gauss-Jordan over the rationals, for a nonsingular system."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    for k in range(n):
        sel = next(i for i in range(k, n) if a[i][k])
        a[k], a[sel] = a[sel], a[k]
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(n):
            if i != k:
                a[i] = [v - a[i][k] * w for v, w in zip(a[i], a[k])]
    return [row[n] for row in a]


def test_fraction_free_solver_rejects_non_integral_solutions():
    with pytest.raises(NonIntegralSolutionError):
        solve_fraction_free([[1, 1], [1, -1]], [1, 0])  # x = y = 1/2
    rng = random.Random(31)
    rejected = 0
    for _ in range(60):
        n = rng.randrange(1, 5)
        matrix = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randrange(-20, 21) for _ in range(n)]
        try:
            solved = solve_fraction_free(matrix, rhs)
        except SingularSystemError:
            continue
        except NonIntegralSolutionError:
            assert any(x.denominator != 1
                       for x in _rational_solution(matrix, rhs))
            rejected += 1
            continue
        assert solved == _rational_solution(matrix, rhs)
    assert rejected >= 20


def test_fraction_free_solver_singular():
    with pytest.raises(SingularSystemError):
        solve_fraction_free([[1, 2], [2, 4]], [1, 2])
