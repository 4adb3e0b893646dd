import json

from chernlab.cli import main
from conftest import PROBLEM_DIR

E1 = str(PROBLEM_DIR / "e1_two_planes.json")
E2 = str(PROBLEM_DIR / "e2_two_3planes.json")
E3 = str(PROBLEM_DIR / "e3_cm_baseline.json")
E4 = str(PROBLEM_DIR / "e4_three_planes.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_e1_json(capsys):
    code, out, _ = run(capsys, "hilbert", E1, "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[:4] == [{"n": 1, "length": "3"}, {"n": 2, "length": "8"},
                        {"n": 3, "length": "15"}, {"n": 4, "length": "24"}]


def test_hilbert_table(capsys):
    code, out, _ = run(capsys, "hilbert", E3, "--max-power", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert "H(K,n)" in lines[0]
    assert len(lines) == 4


def test_hilbert_e3_rows_are_binomials(capsys):
    from chernlab import binomial

    code, out, _ = run(capsys, "hilbert", E3, "--json")
    assert code == 0
    for row in json.loads(out):
        assert int(row["length"]) == binomial(row["n"] + 1, 2)


def test_hilbert_max_power_override(capsys):
    code, out, _ = run(capsys, "hilbert", E1, "--json", "--max-power", "2")
    assert code == 0
    assert len(json.loads(out)) == 2


def test_coeffs_e1(capsys):
    code, out, _ = run(capsys, "coeffs", E1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == ["2", "-1", "0"]
    assert payload["cm"] is False
    assert payload["chern_sign"] == "negative"
    assert payload["lambda_L"] == "1"


def test_coeffs_e3(capsys):
    code, out, _ = run(capsys, "coeffs", E3, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == ["1", "0", "0"]
    assert payload["cm"] is True
    assert payload["chern_sign"] == "zero"


def test_verify_e1(capsys):
    code, out, _ = run(capsys, "verify", E1, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "pass"
    names = {i["name"] for i in report["identities"]}
    assert names == {"e0_additivity", "torsion_polynomial",
                     "coefficient_collapse", "tor1_two_routes", "negativity"}


def test_coeffs_e1_table(capsys):
    code, out, _ = run(capsys, "coeffs", E1)
    assert code == 0
    lines = out.splitlines()
    assert "e:          2, -1, 0" in lines
    assert "lambda_L:   1" in lines


def test_verify_e1_report(capsys):
    code, out, _ = run(capsys, "verify", E1)
    assert code == 0
    lines = out.splitlines()
    identities = [line.split() for line in lines if line.startswith("  ")]
    assert identities == [[name, "pass"] for name in (
        "e0_additivity", "torsion_polynomial", "coefficient_collapse",
        "tor1_two_routes", "negativity")]
    assert lines[-1] == "overall: pass"


def test_verify_e4_part2_not_applicable(capsys):
    code, out, _ = run(capsys, "verify", E4, "--json")
    assert code == 0
    report = json.loads(out)
    statuses = {i["name"]: i["status"] for i in report["identities"]}
    assert statuses["coefficient_collapse"] == "not_applicable"
    assert report["annihilates"] is False


def test_betti_examples(capsys):
    code, out, _ = run(capsys, "betti", "--d", "3", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == ["1", "6", "8", "3"]
    assert payload["euler"] == "0"

    code, out, _ = run(capsys, "betti", "--d", "2", "--n", "1", "--json")
    assert json.loads(out)["betti"] == ["1", "2", "1"]

    code, out, _ = run(capsys, "betti", "--d", "4", "--n", "1", "--json")
    assert json.loads(out)["betti"] == ["1", "4", "6", "4", "1"]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "characteristic": 32003,
    "variables": ["x", "y", "z", "w"],
    "ideals": [["x", "y"], ["z", "w"]],
    "parameters": ["x + z", "y + w"],
}


def test_schema_error_nonprime(tmp_path, capsys):
    # 32001 = 3 * 10667; psi_12 is composite but a strong pseudoprime to the
    # bases 2..37; psi_13 is the first input the primality test is not exact on
    for p in (32001, 318665857834031151167461, 3317044064679887385961981):
        path = _write(tmp_path, "p.json", dict(BASE, characteristic=p))
        for command in ("hilbert", "coeffs", "verify"):
            code, out, err = run(capsys, command, path)
            assert code == 2
            assert "prime" in err
            assert out == ""


def test_schema_error_unknown_key(tmp_path, capsys):
    bad = dict(BASE, seed=7)
    code, _, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad))
    assert code == 2
    assert "unknown keys" in err


def test_schema_error_implicit_multiplication(tmp_path, capsys):
    bad = dict(BASE, parameters=["2x", "y + w"])
    code, _, err = run(capsys, "coeffs", _write(tmp_path, "p.json", bad))
    assert code == 2
    assert "syntax" in err


def test_schema_error_missing_key(tmp_path, capsys):
    bad = {k: v for k, v in BASE.items() if k != "parameters"}
    code, _, err = run(capsys, "verify", _write(tmp_path, "p.json", bad))
    assert code == 2


def test_schema_error_bad_max_power(tmp_path, capsys):
    # a JSON boolean is not an integer, although Python's bool is an int
    for value in (0, True):
        bad = dict(BASE, max_power=value)
        code, _, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad))
        assert code == 2
        assert "max_power" in err


def test_schema_error_deep_nesting(tmp_path, capsys):
    deep = "(" * 5000 + "x" + ")" * 5000
    bad = dict(BASE, parameters=[deep + " + z", "y + w"])
    code, _, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad))
    assert code == 2
    assert "nested too deeply" in err


def test_hypothesis_failure_exit_code(tmp_path, capsys):
    bad = dict(BASE, parameters=["x", "y"])   # vanishes on the z-w plane
    code, _, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad))
    assert code == 3
    assert "parameters_cut_to_finite_length" in err


def test_inhomogeneous_generator_is_hypothesis_failure(tmp_path, capsys):
    bad = dict(BASE, ideals=[["x + 1", "y"], ["z", "w"]])
    code, _, err = run(capsys, "verify", _write(tmp_path, "p.json", bad))
    assert code == 3
    assert "homogeneous" in err


def test_force_proceeds_then_fails_internally(tmp_path, capsys):
    bad = dict(BASE, parameters=["x", "y"])
    code, _, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad),
                       "--force")
    assert code == 1
    assert "warning" in err


def test_fit_instability_exit_code(capsys):
    # three values cannot support two windows of width d + 1 = 3
    code, _, err = run(capsys, "coeffs", E1, "--max-power", "3")
    assert code == 4
    assert "max_power" in err


def test_json_byte_determinism(capsys):
    _, first, _ = run(capsys, "coeffs", E1, "--json")
    _, second, _ = run(capsys, "coeffs", E1, "--json")
    assert first == second


def test_one_intersection_per_command(monkeypatch, capsys):
    # g = 3: intersect_all makes two pairwise intersections, and every
    # consumer takes the instance's core instead of intersecting again
    import chernlab.ideals as ideals_module

    calls = []
    original = ideals_module.ideal_intersect

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(ideals_module, "ideal_intersect", counting)
    for command in ("coeffs", "verify"):
        calls.clear()
        code, _, _ = run(capsys, command, E4, "--json")
        assert code == 0
        assert len(calls) == 2, command


def test_hilbert_quadratic_parameter(tmp_path, capsys):
    # a quadratic parameter takes the per-n route
    path = _write(tmp_path, "q.json", dict(BASE, ideals=[["x", "y"]],
                                           parameters=["z^2", "w"]))
    code, out, _ = run(capsys, "hilbert", path, "--json", "--max-power", "3")
    assert code == 0
    assert [row["length"] for row in json.loads(out)] == ["2", "6", "12"]
