"""``verify`` decides every identity on one exact torsion series
(``verifier.torsion_series``) or on K's coefficients alone, so no verdict
and no witness depends on the window --max-power, which shapes only the
printed tables.  The printed torsion lengths are the series' partial
sums, and the four-term sum of per-n lengths
(``resolutions.tor1_via_lengths`` over ``hilbert.hilbert_samuel``) is the
oracle for both."""

import json
import random

import pytest

from chernlab import (ProblemInstance, diagonal_cokernel, gr_series,
                      hilbert_samuel, run_verification, tangent_cone,
                      tor1_consistency_check, tor1_via_lengths,
                      torsion_series, verify_coefficient_collapse,
                      verify_torsion_polynomial)
from chernlab.cli import build_instance, load_problem, main
from chernlab.hilbert import samuel_polynomial
from conftest import PROBLEM_DIR
from helpers import PRIME_POOL, e1_family

SHIPPED = ["e1_two_planes", "e2_two_3planes", "e3_cm_baseline",
           "e4_three_planes", "e5_staircase", "e6_short_window"]
# the tables, and the window that sets their length, may differ
WINDOWED = ("max_power", "hilbert", "torsion_hilbert")


def _verify_json(capsys, name, *extra):
    code = main(["verify", str(PROBLEM_DIR / f"{name}.json"), "--json",
                 *extra])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", SHIPPED)
def test_identities_do_not_depend_on_the_window(capsys, name):
    code, out = _verify_json(capsys, name)
    default = json.loads(out)
    for window in ("1", "2", "12"):
        other_code, other_out = _verify_json(capsys, name, "--max-power",
                                             window)
        other = json.loads(other_out)
        assert other_code == code
        assert json.dumps(other["identities"], indent=2, sort_keys=True) == \
            json.dumps(default["identities"], indent=2, sort_keys=True)
        assert {k: v for k, v in other.items() if k not in WINDOWED} == \
            {k: v for k, v in default.items() if k not in WINDOWED}
        assert (other["hilbert"]["e"], other["hilbert"]["n0"]) == \
            (default["hilbert"]["e"], default["hilbert"]["n0"])


def _torsion(inst):
    """(e, length(L), nu, annihilated, torsion polynomial) of an instance,
    as ``run_verification`` computes them."""
    model = diagonal_cokernel(inst.ideals, inst.core)
    gr = gr_series(inst.ideals, inst.J)
    e, _ = samuel_polynomial(tangent_cone(inst.core, inst.J).series(),
                             inst.d)
    torsion = samuel_polynomial(torsion_series(inst, gr), inst.d)
    return (e, model.length, len(gr.numerator), len(gr.numerator) <= 1,
            torsion)


def _shipped(name):
    return build_instance(load_problem(str(PROBLEM_DIR / f"{name}.json")))


def test_a_wrong_module_length_fails_both_torsion_identities():
    inst = _shipped("e1_two_planes")
    e, lam, nu, annihilated, torsion = _torsion(inst)
    assert (lam, nu, annihilated) == (1, 1, True)
    assert verify_torsion_polynomial(inst, e, lam, torsion,
                                     nu)["status"] == "pass"
    assert tor1_consistency_check(inst, lam, torsion,
                                  annihilated)["status"] == "pass"
    assert verify_torsion_polynomial(inst, e, lam + 1, torsion,
                                     nu)["status"] == "fail"
    assert tor1_consistency_check(inst, lam + 1, torsion,
                                  annihilated)["status"] == "fail"


def test_a_late_torsion_polynomial_fails_the_closed_form():
    # e5: J does not kill L, and the torsion lengths are polynomial only
    # from nu = 30 on; claimed annihilation cannot hide that n0 != 1
    inst = _shipped("e5_staircase")
    e, lam, nu, annihilated, torsion = _torsion(inst)
    assert (lam, nu, annihilated, torsion[1]) == (30, 30, False, 30)
    check = tor1_consistency_check(inst, lam, torsion, True)
    assert check["status"] == "fail"
    assert check["witness"]["torsion_n0"] == 30


@pytest.mark.parametrize("name", ["e4_three_planes", "e5_staircase"])
def test_without_annihilation_the_closed_forms_do_not_apply(name):
    inst = _shipped(name)
    e, lam, _, annihilated, torsion = _torsion(inst)
    assert not annihilated
    assert tor1_consistency_check(inst, lam, torsion,
                                  annihilated)["status"] == "not_applicable"
    assert verify_coefficient_collapse(inst, e, lam, annihilated)[
        "status"] == "not_applicable"


def _random_two_planes():
    rng = random.Random("torsion-series")
    ctx, ideals, j = e1_family(rng, rng.choice(PRIME_POOL))
    return ProblemInstance(ctx, ideals, list(j.generators))


@pytest.mark.parametrize("name", [*SHIPPED, "random_two_planes"])
def test_torsion_lengths_match_the_per_n_four_term_sum(name):
    inst = (_random_two_planes() if name == "random_two_planes"
            else _shipped(name))
    report = run_verification(inst, 12)
    assert report["overall"] == "pass"
    values = {row["n"]: int(row["length"])
              for row in report["torsion_hilbert"]["values"]}
    powers = range(1, 13)
    core_values = {n: hilbert_samuel(inst.core, inst.J, n) for n in powers}
    component_values = [{n: hilbert_samuel(ideal, inst.J, n) for n in powers}
                        for ideal in inst.ideals]
    gr = gr_series(inst.ideals, inst.J)
    assert values == {n: tor1_via_lengths(core_values, component_values,
                                          gr.summed(n), n) for n in powers}
    series = torsion_series(inst, gr)
    assert values == {n: series.summed(n) for n in powers}
