"""K's Hilbert polynomial, its (e_0..e_d) and n0, is read off the core's
tangent cone, so ``coeffs`` and ``verify`` do not depend on the window
--max-power.  ``fit_coefficients`` is its reference: on every window that
reaches n0 + d + 1 the fit gives the same polynomial, and on shorter ones it
can accept a wrong one."""

import json

import pytest

from chernlab import Ideal, ProblemInstance
from chernlab.cli import main
from chernlab.hilbert import (fit_coefficients, hilbert_samuel_values,
                              samuel_polynomial, tangent_cone)
from conftest import PROBLEM_DIR
from test_graded import ORACLE_CASES, _oracle_instance

SHIPPED = ["e1_two_planes", "e2_two_3planes", "e3_cm_baseline",
           "e4_three_planes", "e5_staircase", "e6_short_window"]
# (x^4, y^4) ∩ (z^4, w^4) with J = (x + z, y + w): H(K, n) is the
# polynomial of (32, -44, -66) from n = 6 on only
X4 = (["x^4", "y^4"], ["z^4", "w^4"], ["x + z", "y + w"])


def _problem_path(tmp_path, name):
    if name != "x4":
        return str(PROBLEM_DIR / f"{name}.json")
    *blocks, parameters = X4
    path = tmp_path / "x4.json"
    path.write_text(json.dumps({"variables": ["x", "y", "z", "w"],
                                "ideals": blocks,
                                "parameters": parameters}))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _instance(ctx4, name):
    if name != "x4":
        return _oracle_instance(ctx4, name)
    *blocks, parameters = X4
    return ProblemInstance(ctx4, [Ideal.from_strings(ctx4, b) for b in blocks],
                           list(Ideal.from_strings(ctx4, parameters)
                                .generators))


@pytest.mark.parametrize("name", [*SHIPPED, "x4"])
def test_coeffs_does_not_depend_on_the_window(tmp_path, capsys, name):
    path = _problem_path(tmp_path, name)
    default = _run(capsys, "coeffs", path, "--json")
    assert (default[0], default[2]) == (0, "")
    payload = json.loads(default[1])
    n0, d = payload["n0"], len(payload["e"]) - 1
    for window in range(1, n0 + d + 4):
        assert _run(capsys, "coeffs", path, "--json", "--max-power",
                    str(window)) == default, window


@pytest.mark.parametrize("name", [*SHIPPED, "x4", *ORACLE_CASES])
def test_fit_equals_the_exact_polynomial_on_long_windows(ctx4, name):
    inst = _instance(ctx4, name)
    exact = samuel_polynomial(tangent_cone(inst.core, inst.J).series(),
                              inst.d)
    shortest = exact[1] + inst.d + 1
    values = hilbert_samuel_values(inst.core, inst.J, shortest + 4)
    for max_power in range(shortest, shortest + 5):
        window = {n: values[n] for n in range(1, max_power + 1)}
        assert fit_coefficients(window, inst.d) == exact, max_power


def test_short_window_x4_reports_the_exact_polynomial(tmp_path, ctx4,
                                                      capsys):
    # the fit of the window 1..7 accepts (33, -37, -45) from n = 4 on: its
    # one check, the value at n = 4, agrees with that wrong polynomial
    inst = _instance(ctx4, "x4")
    values = hilbert_samuel_values(inst.core, inst.J, 7)
    assert fit_coefficients(values, 2) == ((33, -37, -45), 4)
    path = _problem_path(tmp_path, "x4")
    code, out, err = _run(capsys, "coeffs", path, "--json", "--max-power", "7")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["e"], payload["n0"]) == (["32", "-44", "-66"], 6)
    code, out, err = _run(capsys, "verify", path, "--json", "--max-power", "7")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["hilbert"]["e"], report["hilbert"]["n0"]) == \
        (["32", "-44", "-66"], 6)
    assert report["overall"] == "pass"
    assert all(i["status"] in ("pass", "not_applicable")
               for i in report["identities"])
