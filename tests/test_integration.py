"""Whole-pipeline runs on configurations beyond the shipped problem files:
non-reduced components, a non-annihilating two-component instance, unequal
heights, tiny characteristics, and shifted fitting windows."""

import pytest

from chernlab import (Ideal, ProblemInstance, RingContext, check_hypotheses,
                      fit_coefficients, hilbert_polynomial_value,
                      run_verification)


def _report(ctx, blocks, params):
    ideals = [Ideal.from_strings(ctx, block) for block in blocks]
    parameters = list(Ideal.from_strings(ctx, params).generators)
    inst = ProblemInstance(ctx, ideals, parameters)
    return run_verification(inst, 2 * inst.d + 4)


def test_fat_component(ctx4):
    """A plane against the non-reduced complete intersection (z^2, w):
    heights match, the cokernel has length 2, and the parameters do not
    annihilate it, so only the unconditional identities apply."""
    report = _report(ctx4, [["x", "y"], ["z^2", "w"]], ["x + z", "y + w"])
    assert report["overall"] == "pass"
    assert report["hilbert"]["e"] == ["3", "-1", "0"]
    assert report["lambda_L"] == "2"
    assert report["annihilates"] is False
    statuses = {i["name"]: i["status"] for i in report["identities"]}
    assert statuses["e0_additivity"] == "pass"
    assert statuses["torsion_polynomial"] == "pass"
    assert statuses["coefficient_collapse"] == "not_applicable"
    assert statuses["negativity"] == "pass"


def test_nonannihilating_two_components(ctx4):
    report = _report(ctx4, [["x", "y^2"], ["z", "w"]], ["x + z", "y + w"])
    assert report["overall"] == "pass"
    assert report["hilbert"]["e"] == ["3", "-1", "0"]
    assert report["lambda_L"] == "2"
    assert report["annihilates"] is False
    assert int(report["hilbert"]["e"][1]) < 0


def test_unequal_heights_flagged(ctx4):
    ideals = [Ideal.from_strings(ctx4, ["x", "y"]),
              Ideal.from_strings(ctx4, ["z"])]
    params = list(Ideal.from_strings(ctx4, ["x + z", "y + w"]).generators)
    inst = ProblemInstance(ctx4, ideals, params)
    fragment = check_hypotheses(inst)
    check = next(c for c in fragment["checks"]
                 if c["name"] == "equal_component_dimensions")
    assert not check["passed"]
    assert sorted(check["witness"]["dimensions"]) == [2, 3]


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_tiny_characteristics(p):
    ctx = RingContext(["x", "y", "z", "w"], p)
    report = _report(ctx, [["x", "y"], ["z", "w"]], ["x + z", "y + w"])
    assert report["overall"] == "pass"
    assert report["hilbert"]["e"] == ["2", "-1", "0"]
    assert report["lambda_L"] == "1"


def test_fit_accepts_shifted_window():
    coeffs = (4, -3, 2)
    values = {n: hilbert_polynomial_value(coeffs, n) for n in range(5, 14)}
    fitted, n0 = fit_coefficients(values, 2)
    assert fitted == coeffs
    assert n0 == 5


def test_report_is_json_serializable(ctx4):
    import json

    report = _report(ctx4, [["x", "y"], ["z^2", "w"]], ["x + z", "y + w"])
    encoded = json.dumps(report, sort_keys=True)
    assert json.loads(encoded) == report
