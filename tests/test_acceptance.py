"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them).  All equality
checks are exact integer comparisons."""

import contextlib
import json
import random
import time
from itertools import combinations_with_replacement

import pytest

from chernlab import (Ideal, RingContext, binomial,
                      buchberger, diagonal_cokernel, en_betti,
                      fit_coefficients, gr_series, hilbert_polynomial_value,
                      hilbert_samuel, hilbert_samuel_values, ideal_power,
                      intersect_all, normal_form, parse_polynomial,
                      quotient_hilbert_series, run_verification,
                      s_polynomial, standard_monomials, tor1_via_lengths)
from chernlab.cli import main
from conftest import PROBLEM_DIR
from en_complexes import en_matrix, maximal_minors, tor1_closed_form
from helpers import (PRIME_POOL, degree_dimensions, e1_family, e2_family,
                     e3_family)

E1 = str(PROBLEM_DIR / "e1_two_planes.json")
E2 = str(PROBLEM_DIR / "e2_two_3planes.json")
E3 = str(PROBLEM_DIR / "e3_cm_baseline.json")
E4 = str(PROBLEM_DIR / "e4_three_planes.json")


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def _cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_e1_reproduction(capsys):
    with criterion(1, "E1: e=(2,-1,0), lambda(L)=1, H(K,1..6)=(3,8,15,24,35,48)"):
        start = time.perf_counter()
        payload = _cli_json(capsys, "coeffs", E1, "--json")
        rows = _cli_json(capsys, "hilbert", E1, "--json")
        elapsed = time.perf_counter() - start
        assert payload["e"] == ["2", "-1", "0"]
        assert payload["lambda_L"] == "1"
        assert payload["cm"] is False
        assert payload["chern_sign"] == "negative"
        lengths = [int(r["length"]) for r in rows[:6]]
        assert lengths == [3, 8, 15, 24, 35, 48]
        assert elapsed < 2.0, f"runtime {elapsed:.2f}s exceeds 2s"


def test_criterion_2_e2_reproduction(capsys):
    with criterion(2, "E2: e=(2,-1,1,0), lambda(L)=1, closed form matches H"):
        start = time.perf_counter()
        payload = _cli_json(capsys, "coeffs", E2, "--json")
        rows = _cli_json(capsys, "hilbert", E2, "--json")
        elapsed = time.perf_counter() - start
        assert payload["e"] == ["2", "-1", "1", "0"]
        assert payload["lambda_L"] == "1"
        assert int(rows[0]["length"]) == 4
        for row in rows:
            n = row["n"]
            closed = 2 * binomial(n + 2, 3) + binomial(n + 1, 2) + n
            assert int(row["length"]) == closed
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_3_cm_baseline(capsys):
    with criterion(3, "E3 baseline: e=(1,0,0), cm verdict, chern sign zero"):
        payload = _cli_json(capsys, "coeffs", E3, "--json")
        assert payload["e"] == ["1", "0", "0"]
        assert payload["cm"] is True
        assert payload["chern_sign"] == "zero"


def _load_instance(path):
    from chernlab.cli import build_instance, load_problem

    return build_instance(load_problem(path))


def test_criterion_4_tor1_equivalence():
    with criterion(4, "tor1 routes agree on E1 and E2 for every n"):
        for path in (E1, E2):
            inst = _load_instance(path)
            model = diagonal_cokernel(inst.ideals, inst.core)
            lam = model.length
            window = 2 * inst.d + 4
            core_values = hilbert_samuel_values(inst.core, inst.J, window)
            component_values = [
                hilbert_samuel_values(ideal, inst.J, window)
                for ideal in inst.ideals]
            gr = gr_series(inst.ideals, inst.J)
            for n in range(1, window + 1):
                via = tor1_via_lengths(core_values, component_values,
                                       gr.summed(n), n)
                assert via == tor1_closed_form(n, inst.d, lam) \
                    == binomial(n + inst.d - 1, inst.d - 1) * lam


def test_criterion_5_torsion_polynomial_identity():
    with criterion(5, "torsion Hilbert polynomial identity on E1 and E2"):
        for path in (E1, E2):
            inst = _load_instance(path)
            report = run_verification(inst, 2 * inst.d + 4)
            statuses = {i["name"]: i["status"] for i in report["identities"]}
            assert statuses["torsion_polynomial"] == "pass"
            # the identity's polynomial reproduces the printed torsion
            # lengths from its n0 on
            witness = next(i for i in report["identities"]
                           if i["name"] == "torsion_polynomial")["witness"]
            e = [int(c) for c in report["hilbert"]["e"]]
            expected = [0, *e[1:]]
            expected[inst.d] += (-1) ** inst.d * int(report["lambda_L"])
            for row in report["torsion_hilbert"]["values"]:
                if row["n"] >= witness["torsion_n0"]:
                    assert int(row["length"]) == \
                        hilbert_polynomial_value(expected, row["n"])


def test_criterion_6_eagon_northcott_suite():
    with criterion(6, "Betti formula, Euler sums, minor-generation"):
        for d in range(1, 6):
            for n in range(1, 6):
                betti = [1] + [en_betti(n, d, i) for i in range(1, d + 1)]
                assert betti[1] == binomial(n + d - 1, d - 1)
                assert betti[1] == sum(
                    1 for _ in combinations_with_replacement(range(d), n))
                assert sum(b if k % 2 == 0 else -b
                           for k, b in enumerate(betti)) == 0
                for i in range(1, d + 1):
                    assert betti[i] == binomial(n + d - 1, d - i) * \
                        binomial(n + i - 2, i - 1)
        ctx = RingContext(["x", "y", "z", "w"])
        for names in (("x", "y"), ("x", "y", "z")):
            gens = [parse_polynomial(v, ctx) for v in names]
            for n in range(1, 4):
                minors = maximal_minors(en_matrix(gens, n), ctx)
                assert Ideal(ctx, minors) == ideal_power(Ideal(ctx, gens), n)


def test_criterion_7_e0_additivity():
    with criterion(7, "e0 additivity over components on E1, E2, E4"):
        for path in (E1, E2, E4):
            inst = _load_instance(path)
            values = {n: hilbert_samuel(inst.core, inst.J, n)
                      for n in range(1, inst.d + 3)}
            total_fit, _ = fit_coefficients(values, inst.d)
            component_sum = 0
            for ideal in inst.ideals:
                comp_values = {n: hilbert_samuel(ideal, inst.J, n)
                               for n in range(1, inst.d + 3)}
                comp_fit, _ = fit_coefficients(comp_values, inst.d)
                component_sum += comp_fit[0]
            assert component_sum == total_fit[0]


def test_criterion_8_property_suite():
    with criterion(8, "Pascal/collapse identities, Buchberger, series, "
                      "finite differences"):
        # binomial identities
        for n in range(1, 13):
            for d in range(1, 13):
                assert binomial(n + d - 1, d - 1) == 1 + sum(
                    binomial(n + d - i - 1, d - i) for i in range(1, d))
        for a in range(1, 13):
            for b in range(-2, 15):
                assert binomial(a, b) == binomial(a - 1, b - 1) + \
                    binomial(a - 1, b)
        # Buchberger criterion on the test ideals
        ctx = RingContext(["x", "y", "z", "w"])
        for texts in (["x", "y"],
                      ["x*z", "x*w", "y*z", "y*w"],
                      ["x^2 - y*z", "x*y - w^2", "y^2 - x*w"],
                      ["x + z", "y + w", "x*z", "x*w", "y*z", "y*w"]):
            basis = buchberger([parse_polynomial(t, ctx) for t in texts], ctx)
            elements = list(basis)
            for i in range(len(elements)):
                for j in range(i + 1, len(elements)):
                    s = s_polynomial(elements[i], elements[j])
                    assert normal_form(s, basis).is_zero()
            # Hilbert series agrees with the standard-monomial count
            ideal = Ideal.from_strings(ctx, texts)
            series = quotient_hilbert_series(ideal)
            counts = [len(m) for m in standard_monomials(ideal.groebner(), 10)]
            assert degree_dimensions(series, 10) == counts
        # (d+1)-st finite differences of H(K, n) vanish past stabilization
        for path in (E1, E2):
            inst = _load_instance(path)
            top = 2 * inst.d + 4
            values = {n: hilbert_samuel(inst.core, inst.J, n)
                      for n in range(1, top + 1)}
            _, n0 = fit_coefficients(values, inst.d)
            window = [values[n] for n in range(n0, top + 1)]
            diffs = window
            for _ in range(inst.d + 1):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            assert all(v == 0 for v in diffs)


def test_criterion_9_randomized_negativity():
    with criterion(9, "20 randomized instances have e1 < 0; g=1 controls "
                      "have e1 = 0"):
        rng = random.Random(2026)
        makers = [e1_family] * 12 + [e2_family] * 8
        for maker in makers:
            p = PRIME_POOL[rng.randrange(len(PRIME_POOL))]
            ctx, ideals, j = maker(rng, p)
            core = intersect_all(ideals)
            d = len(j.generators)
            values = {n: hilbert_samuel(core, j, n) for n in range(1, d + 3)}
            coeffs, _ = fit_coefficients(values, d)
            assert coeffs[1] < 0, (maker.__name__, p, coeffs)
        for _ in range(6):
            p = PRIME_POOL[rng.randrange(len(PRIME_POOL))]
            ctx, ideals, j = e3_family(rng, p)
            values = {n: hilbert_samuel(ideals[0], j, n) for n in range(1, 5)}
            coeffs, _ = fit_coefficients(values, 2)
            assert coeffs[1] == 0, (p, coeffs)
