import random

import pytest

from chernlab import (HypothesisError, Ideal, NotFiniteLengthError,
                      Polynomial, ProblemInstance, RingContext,
                      check_hypotheses, diagonal_cokernel, fit_coefficients,
                      hilbert_samuel, ideal_sum, krull_dimension,
                      parse_polynomial, run_verification, tangent_cone)
from chernlab.cli import build_instance, load_problem
from chernlab.hilbert import FitInstabilityError, hilbert_samuel_values
from chernlab.verifier import e0_additivity_check
from conftest import PROBLEM_DIR
from helpers import (PRIME_POOL, e1_family, random_homogeneous_ideal,
                     transformed_planes)


def I(ctx, *texts):
    return Ideal.from_strings(ctx, texts)


def _instance(e, max_power=None):
    ctx, ideals, j = e
    return ProblemInstance(ctx, ideals, list(j.generators), max_power=max_power)


def _check(fragment, name):
    return next(c for c in fragment["checks"] if c["name"] == name)


def test_hypotheses_e1(e1):
    inst = _instance(e1)
    assert inst.d == 2 and inst.heights == [2, 2]
    fragment = check_hypotheses(inst)
    assert fragment["all_pass"]
    assert fragment["theorem_mode"]


def test_hypotheses_cm_baseline(ctx4):
    inst = ProblemInstance(ctx4, [I(ctx4, "x", "y")],
                           list(I(ctx4, "z", "w").generators))
    fragment = check_hypotheses(inst)
    assert fragment["all_pass"]
    assert not fragment["theorem_mode"]       # single component flag


def test_hypotheses_pairwise_failure(ctx4):
    inst = ProblemInstance(ctx4, [I(ctx4, "x", "y"), I(ctx4, "x", "z")],
                           list(I(ctx4, "y + z", "w").generators))
    fragment = check_hypotheses(inst)
    check = _check(fragment, "pairwise_sums_mprimary")
    assert not check["passed"]
    assert check["witness"]["failing_pairs"][0][:2] == [1, 2]


def test_hypotheses_sop_failure(e1):
    ctx, ideals, _ = e1
    inst = ProblemInstance(ctx, ideals, list(I(ctx, "x", "y").generators))
    fragment = check_hypotheses(inst)
    check = _check(fragment, "parameters_cut_to_finite_length")
    assert not check["passed"]
    assert check["witness"]["dimension_of_quotient"] == 2


def test_hypotheses_parameter_count(e1):
    ctx, ideals, _ = e1
    inst = ProblemInstance(ctx, ideals, [next(iter(I(ctx, "x + z").generators))])
    fragment = check_hypotheses(inst)
    assert not _check(fragment, "parameter_count_matches_dimension")["passed"]


def test_hypotheses_regular_sequence(e1):
    ctx, ideals, _ = e1
    params = list(I(ctx, "x + z", "x + z").generators)
    inst = ProblemInstance(ctx, ideals, params)
    fragment = check_hypotheses(inst)
    assert not _check(fragment, "parameters_form_regular_sequence")["passed"]


def test_instance_rejects_inhomogeneous_parameters(e1):
    # zero, non-homogeneous and degree-0 parameters
    ctx, ideals, _ = e1
    for text in ("1", "0", "x^2 + y", "3"):
        f = parse_polynomial(text, ctx)
        with pytest.raises(HypothesisError) as info:
            ProblemInstance(ctx, ideals, [f, parse_polynomial("y + w", ctx)])
        assert isinstance(info.value, ValueError)
        assert str(info.value) == (f"parameters_homogeneous: parameter {f} "
                                   "must be nonzero homogeneous of degree "
                                   ">= 1")


def test_full_report_e1(e1):
    report = run_verification(_instance(e1))
    assert report["overall"] == "pass"
    assert report["hilbert"]["e"] == ["2", "-1", "0"]
    assert report["lambda_L"] == "1"
    assert report["annihilates"] is True
    assert report["cm"] == {"is_cm": False, "e0": "2", "colength": "3",
                            "colength_at_least_e0": True}
    assert report["chern_sign"] == "negative"
    statuses = {i["name"]: i["status"] for i in report["identities"]}
    assert statuses == {
        "e0_additivity": "pass",
        "torsion_polynomial": "pass",
        "coefficient_collapse": "pass",
        "tor1_two_routes": "pass",
        "negativity": "pass",
    }


def test_torsion_polynomial_hand_values(e1):
    # both sides evaluate to n + 1 for the two-plane configuration
    inst = _instance(e1)
    report = run_verification(inst)
    values = {row["n"]: int(row["length"])
              for row in report["torsion_hilbert"]["values"]}
    assert values == {n: n + 1 for n in range(1, inst.max_power + 1)}


def test_full_report_e2(e2):
    report = run_verification(_instance(e2, max_power=5))
    assert report["overall"] == "pass"
    assert report["hilbert"]["e"] == ["2", "-1", "1", "0"]
    statuses = {i["name"]: i["status"] for i in report["identities"]}
    assert statuses["coefficient_collapse"] == "pass"


def test_full_report_cm_baseline(ctx4):
    inst = ProblemInstance(ctx4, [I(ctx4, "x", "y")],
                           list(I(ctx4, "z", "w").generators))
    report = run_verification(inst)
    assert report["overall"] == "pass"
    assert report["hilbert"]["e"] == ["1", "0", "0"]
    assert report["cm"]["is_cm"] is True
    assert report["chern_sign"] == "zero"
    statuses = {i["name"]: i["status"] for i in report["identities"]}
    assert statuses["coefficient_collapse"] == "not_applicable"
    assert statuses["negativity"] == "pass"


def test_full_report_e4(e4):
    report = run_verification(_instance(e4))
    assert report["overall"] == "pass"
    assert report["lambda_L"] == "4"
    assert report["annihilates"] is False
    statuses = {i["name"]: i["status"] for i in report["identities"]}
    assert statuses["torsion_polynomial"] == "pass"
    assert statuses["coefficient_collapse"] == "not_applicable"
    assert statuses["negativity"] == "pass"
    assert int(report["hilbert"]["e"][1]) < 0


def test_forced_run_propagates_length_error(e1):
    # the verifier records the hypotheses but does not gate on them: (x, y)
    # does not cut e1 to finite length, and the pipeline says so by raising
    ctx, ideals, _ = e1
    inst = ProblemInstance(ctx, ideals, list(I(ctx, "x", "y").generators))
    with pytest.raises(NotFiniteLengthError):
        run_verification(inst)


def test_coefficients_invariant_under_symmetry(e1):
    """Permuting variables or rescaling the parameters leaves the parameter
    ideal (hence the coefficients) unchanged."""
    ctx, ideals, j = e1
    rng = random.Random(41)
    base = run_verification(_instance(e1))["hilbert"]["e"]
    p = ctx.characteristic
    for _ in range(3):
        scalars = [rng.randrange(1, p) for _ in j.generators]
        rescaled = Ideal(ctx, [g * c for g, c in zip(j.generators, scalars)])
        assert rescaled == j                       # ideal equality first
        inst = ProblemInstance(ctx, ideals, list(rescaled.generators))
        assert run_verification(inst)["hilbert"]["e"] == base


def test_pipeline_order_independent(ctx4):
    from chernlab import RingContext

    lex = RingContext(["x", "y", "z", "w"], order="lex")
    for ctx in (ctx4, lex):
        i1 = I(ctx, "x", "y")
        i2 = I(ctx, "z", "w")
        j = I(ctx, "x + z", "y + w")
        inst = ProblemInstance(ctx, [i1, i2], list(j.generators))
        report = run_verification(inst)
        assert report["overall"] == "pass"
        assert report["hilbert"]["e"] == ["2", "-1", "0"]


def test_random_plane_pair_collapse():
    """Random coordinate images of the two-plane family keep the collapsed
    coefficient pattern (-lambda, 0-tail)."""
    rng = random.Random(43)
    for _ in range(3):
        p = PRIME_POOL[rng.randrange(len(PRIME_POOL))]
        ctx, ideals, j = e1_family(rng, p)
        inst = ProblemInstance(ctx, ideals, list(j.generators), max_power=4)
        model = diagonal_cokernel(inst.ideals, inst.core)
        values = {n: hilbert_samuel(inst.core, inst.J, n)
                  for n in range(1, inst.max_power + 1)}
        coeffs, _ = fit_coefficients(values, inst.d)
        lam = model.length
        assert coeffs[1:] == (-lam, 0)


def _random_linear_forms(rng, ctx, count, rank):
    """``count`` random linear forms spanning a space of dimension at most
    ``rank``: the forms past the first ``rank`` are combinations of them."""
    r = ctx.nvars
    p = ctx.characteristic
    rows = [[rng.randrange(p) for _ in range(r)] for _ in range(rank)]
    while len(rows) < count:
        mix = [rng.randrange(1, p) for _ in range(rank)]
        rows.append([sum(c * row[i] for c, row in zip(mix, rows)) % p
                     for i in range(r)])
    forms = []
    for row in rows:
        terms = {tuple(int(j == i) for j in range(r)): c
                 for i, c in enumerate(row) if c}
        forms.append(Polynomial(ctx, terms))
    return forms


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_hypothesis_dimensions_from_tangent_cone(order):
    # for linear parameters both witnesses come from the core's tangent
    # cone and the parameters' rank; they must equal the Krull dimensions
    # of core + J and J from their own bases
    rng = random.Random(f"cone-witness:{order}")
    ctx = RingContext(["x", "y", "z", "w"], 10007, order)
    seen = set()
    for trial in range(40):
        ideals = [random_homogeneous_ideal(rng, ctx)
                  for _ in range(rng.randint(1, 3))]
        if trial == 0:
            ideals = [Ideal.from_strings(ctx, ["1"])]
        count = rng.randint(1, 5)
        rank = rng.randint(1, min(count, ctx.nvars))
        params = _random_linear_forms(rng, ctx, count, rank)
        inst = ProblemInstance(ctx, ideals, params)
        assert tangent_cone(inst.core, inst.J) is not None
        checks = check_hypotheses(inst)
        sop_dim = _check(checks, "parameters_cut_to_finite_length")[
            "witness"]["dimension_of_quotient"]
        j_dim = _check(checks, "parameters_form_regular_sequence")[
            "witness"]["dim_S_mod_J"]
        assert sop_dim == krull_dimension(ideal_sum(inst.core, inst.J))
        assert j_dim == krull_dimension(inst.J)
        seen.add("dependent" if rank < count else "independent")
        seen.add("k = r" if j_dim == 0 else "k < r")
        seen.add("finite" if sop_dim <= 0 else "not m-primary")
    assert seen == {"dependent", "independent", "k = r", "k < r", "finite",
                    "not m-primary"}


def test_hypothesis_dimensions_nonlinear_parameters(ctx4):
    # quadratic parameters take the tangent cone of J's graph: its
    # dimension is that of core + J and its values are the per-n lengths
    inst = ProblemInstance(ctx4, [I(ctx4, "x", "y")],
                           list(I(ctx4, "z^2", "w").generators))
    cone = tangent_cone(inst.core, inst.J)
    assert cone.ctx.variables == ("u1", "u2", "x", "y", "z", "w")
    assert cone.values(5) == {n: hilbert_samuel(inst.core, inst.J, n)
                              for n in range(1, 6)}
    checks = check_hypotheses(inst)
    assert checks["all_pass"]
    assert _check(checks, "parameters_cut_to_finite_length")["witness"] == \
        {"dimension_of_quotient":
         krull_dimension(ideal_sum(inst.core, inst.J))}
    assert _check(checks, "parameters_form_regular_sequence")["witness"] == \
        {"dim_S_mod_J": 2, "expected": 2}
    # (x^2, y^2) vanishes on the z-w plane
    inst = ProblemInstance(ctx4, [I(ctx4, "x", "y"), I(ctx4, "z", "w")],
                           list(I(ctx4, "x^2", "y^2").generators))
    checks = check_hypotheses(inst)
    assert not checks["all_pass"]
    assert _check(checks, "parameters_cut_to_finite_length")["witness"] == \
        {"dimension_of_quotient":
         krull_dimension(ideal_sum(inst.core, inst.J))} == \
        {"dimension_of_quotient": 2}


# two planes and a staircase, each with one quadric parameter
QUADRIC_J = {
    "planes_quadric_J": ((["x", "y"], ["z", "w"]), ["x^2 + z^2", "y + w"]),
    "staircase_quadric_J": ((["x", "y^3"], ["z^2", "w"]),
                            ["x^2 + w^2", "y + z"]),
}


@pytest.mark.parametrize("name", ["e1_two_planes", "e2_two_3planes",
                                  "e3_cm_baseline", "e4_three_planes",
                                  *QUADRIC_J])
def test_component_e0_off_the_cone_matches_a_window_fit(ctx4, name):
    # e_0 additivity reads each component's e_0 off its tangent cone; the
    # fit of the window 1..d+6 is a second route
    if name in QUADRIC_J:
        blocks, params = QUADRIC_J[name]
        inst = ProblemInstance(ctx4, [I(ctx4, *b) for b in blocks],
                               list(I(ctx4, *params).generators))
    else:
        inst = build_instance(load_problem(str(PROBLEM_DIR / f"{name}.json")))
    window = inst.d + 6
    fitted = [fit_coefficients(hilbert_samuel_values(ideal, inst.J, window),
                               inst.d)[0][0] for ideal in inst.ideals]
    check = e0_additivity_check(inst, sum(fitted))
    assert check["status"] == "pass"
    assert check["witness"]["component_e0"] == [str(e) for e in fitted]


def test_component_e0_where_a_short_window_cannot_fit(ctx4):
    # one component (x^6, y^6) ∩ (z^6, w^6), whose Hilbert-Samuel function
    # is polynomial from n = 10 on only: no window 1..d+2 fits it, and the
    # cone gives the e_0 of a window that reaches the polynomial range
    inst = ProblemInstance(
        ctx4, [I(ctx4, "x^6*z^6", "x^6*w^6", "y^6*z^6", "y^6*w^6")],
        list(I(ctx4, "x + z", "y + w").generators))
    values = hilbert_samuel_values(inst.core, inst.J, 14)
    with pytest.raises(FitInstabilityError):
        fit_coefficients({n: values[n] for n in range(1, inst.d + 3)}, inst.d)
    e0 = fit_coefficients(values, inst.d)[0][0]
    assert e0 == 72
    check = e0_additivity_check(inst, e0)
    assert (check["status"], check["witness"]["component_e0"]) == \
        ("pass", ["72"])


@pytest.mark.parametrize("seed", range(6))
def test_staircases_in_random_coordinates(seed):
    # (x, y^a) ∩ (z^b, w) under a random change of coordinates and a random
    # prime: L = k[y, z]/(y^a, z^b), on which J acts as y + z, so
    # length(L) = ab and J^n L = 0 exactly from nu = a + b - 1 on, and
    # e_0 = (a + b) deg f by additivity, deg f = 1 for J = (x + w, y + z)
    # and 2 for the quadric J = (x^2 + w^2, y + z) of the last seed
    rng = random.Random(f"staircase:{seed}")
    a, b = rng.randint(1, 9), rng.randint(1, 5)
    degree = 2 if seed == 5 else 1
    parameters = ["x + w" if degree == 1 else "x^2 + w^2", "y + z"]
    ctx, ideals, J = transformed_planes(
        rng, rng.choice(PRIME_POOL), ["x", "y", "z", "w"],
        [["x", f"y^{a}"], [f"z^{b}", "w"]], parameters)
    report = run_verification(ProblemInstance(ctx, ideals,
                                              list(J.generators)))
    assert report["overall"] == "pass", (a, b, ctx.characteristic)
    nu = report["top_degree"] + 1
    torsion = next(i for i in report["identities"]
                   if i["name"] == "torsion_polynomial")
    assert report["lambda_L"] == str(a * b)
    assert nu == a + b - 1 == torsion["witness"]["nu"]
    assert report["hilbert"]["e"][0] == str((a + b) * degree)
