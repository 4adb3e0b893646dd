import json

import pytest

import chernlab.instance as instance_module
from chernlab import (binomial, check_hypotheses, rees_series,
                      tangent_cone)
from chernlab.cli import (BETTI_D_LIMIT, BETTI_N_LIMIT, MAX_POWER_LIMIT,
                          build_instance, load_problem, main)
from conftest import PROBLEM_DIR

E1 = str(PROBLEM_DIR / "e1_two_planes.json")
E2 = str(PROBLEM_DIR / "e2_two_3planes.json")
E3 = str(PROBLEM_DIR / "e3_cm_baseline.json")
E4 = str(PROBLEM_DIR / "e4_three_planes.json")
E7 = str(PROBLEM_DIR / "e7_quadric_parameters.json")


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
    code, out, _ = run(capsys, "hilbert", E3, "--json")
    assert code == 0
    for row in json.loads(out):
        assert int(row["length"]) == binomial(row["n"] + 1, 2)


def test_hilbert_max_power_override(capsys):
    code, out, _ = run(capsys, "hilbert", E1, "--json", "--max-power", "2")
    assert code == 0
    assert len(json.loads(out)) == 2


@pytest.mark.parametrize("path, closed_form", [
    # e = (2, -1, 0)
    (E1, lambda n: 2 * binomial(n + 1, 2) + n),
    # e = (2, -1, 1, 0)
    (E2, lambda n: 2 * binomial(n + 2, 3) + binomial(n + 1, 2) + n),
])
def test_hilbert_large_window_closed_form(capsys, path, closed_form):
    # every H(K, n) of a large window is read off one series, in no time
    code, out, _ = run(capsys, "hilbert", path, "--max-power", "400",
                       "--json")
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == list(range(1, 401))
    for row in rows:
        assert int(row["length"]) == closed_form(row["n"])


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


def test_betti_at_both_caps(capsys):
    # the largest Betti number in reach has 3729 digits, so every one
    # prints under int-to-str's default limit of 4300
    code, out, err = run(capsys, "betti", "--d", str(BETTI_D_LIMIT), "--n",
                         str(BETTI_N_LIMIT), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert len(payload["betti"]) == BETTI_D_LIMIT + 1
    assert max(len(b) for b in payload["betti"]) == 3729
    assert payload["euler"] == "0"


@pytest.mark.parametrize("d, n", [(BETTI_D_LIMIT + 1, 3),
                                  (64, BETTI_N_LIMIT + 1)])
def test_betti_above_a_cap_is_a_usage_error(capsys, d, n):
    assert run(capsys, "betti", "--d", str(d), "--n", str(n), "--json") == (
        2, "", f"betti: need --d <= BETTI_D_LIMIT = {BETTI_D_LIMIT} and "
        f"--n <= BETTI_N_LIMIT = {BETTI_N_LIMIT}\n")


def test_window_cap_on_flag_and_key(tmp_path, capsys):
    at_cap = dict(BASE, max_power=MAX_POWER_LIMIT)
    above = dict(BASE, max_power=MAX_POWER_LIMIT + 1)
    refused = (2, "", f"schema error: max_power must be in "
               f"1..MAX_POWER_LIMIT = {MAX_POWER_LIMIT}, not "
               f"{MAX_POWER_LIMIT + 1}\n")
    for argv in ([_write(tmp_path, "cap.json", at_cap)],
                 [E1, "--max-power", str(MAX_POWER_LIMIT)]):
        code, out, err = run(capsys, "verify", *argv, "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["hilbert"]["values"]) == MAX_POWER_LIMIT
    assert run(capsys, "verify", _write(tmp_path, "above.json", above),
               "--json") == refused
    assert run(capsys, "verify", E1, "--max-power",
               str(MAX_POWER_LIMIT + 1), "--json") == refused
    # the flag overrides the key before the cap is read, either way round
    assert run(capsys, "hilbert", _write(tmp_path, "above.json", above),
               "--max-power", "3", "--json")[0] == 0
    assert run(capsys, "hilbert", _write(tmp_path, "cap.json", BASE),
               "--max-power", str(MAX_POWER_LIMIT + 1)) == refused
    # the lower bound is the same check, with the same message
    zero = dict(BASE, max_power=0)
    below = (2, "", f"schema error: max_power must be in "
             f"1..MAX_POWER_LIMIT = {MAX_POWER_LIMIT}, not 0\n")
    assert run(capsys, "hilbert", _write(tmp_path, "zero.json", zero)) == below
    assert run(capsys, "hilbert", E1, "--max-power", "0") == below
    assert run(capsys, "hilbert", _write(tmp_path, "zero.json", zero),
               "--max-power", "3", "--json")[0] == 0


@pytest.mark.parametrize("command", ["hilbert", "verify"])
def test_window_from_flag_key_or_default(tmp_path, capsys, command):
    # e2 has d = 3: 2d + 4 = 10 rows by default, the file's key sets the
    # window, and the flag beats the key
    with open(E2, encoding="utf-8") as handle:
        keyed = _write(tmp_path, "keyed.json",
                       dict(json.load(handle), max_power=5))
    for argv, rows in (([E2], 10), ([keyed], 5),
                       ([keyed, "--max-power", "3"], 3)):
        code, out, err = run(capsys, command, *argv, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        if command == "verify":
            assert payload["max_power"] == rows
            payload = payload["hilbert"]["values"]
        assert [row["n"] for row in payload] == list(range(1, rows + 1))


FILE_HELP = ["problem file (JSON)", "override the sampling window 1..N",
             "emit machine-readable JSON",
             "proceed despite hypothesis failures"]
COMMAND_HELP = ["table of Hilbert-Samuel values H(K, n)",
                "Hilbert coefficients and verdicts",
                "full identity verification report",
                "Betti numbers of S/J^n for a complete intersection of "
                "height d"]


# (argv, exit code, stream written to, texts it must contain)
ARGV_CASES = [
    # help: stdout, exit 0
    (["-h"], 0, "out", ["usage: chernlab"] + COMMAND_HELP),
    (["--help"], 0, "out", COMMAND_HELP),
    (["hilbert", "-h"], 0, "out", ["usage: chernlab hilbert"] + FILE_HELP),
    (["coeffs", "--help"], 0, "out", ["usage: chernlab coeffs"] + FILE_HELP),
    (["verify", E1, "--json", "-h"], 0, "out",
     ["usage: chernlab verify"] + FILE_HELP),
    (["betti", "--help"], 0, "out",
     ["usage: chernlab betti [-h] --d D --n N [--json]", "--d D", "--n N"]),
    # the grammar: options in any order, --max-power=N
    (["hilbert", E1, "--max-power", "2", "--json"], 0, "out", ['"n": 2']),
    (["hilbert", "--json", "--max-power=2", E1], 0, "out", ['"n": 2']),
    (["coeffs", "--force", E1, "--json"], 0, "out", ['"lambda_L": "1"']),
    (["betti", "--n=2", "--json", "--d=3"], 0, "out", ['"euler": "0"']),
    # usage errors: usage and one reason on stderr, exit 2
    ([], 2, "err", ["usage: chernlab", "missing command"]),
    (["bogus", E1], 2, "err", ["invalid command 'bogus'"]),
    (["--json", "hilbert", E1], 2, "err", ["invalid command '--json'"]),
    (["hilbert"], 2, "err", ["usage: chernlab hilbert", "missing FILE"]),
    (["hilbert", "--json"], 2, "err", ["missing FILE"]),
    (["hilbert", E1, E1], 2, "err", ["unrecognized argument"]),
    (["hilbert", E1, "--bogus"], 2, "err",
     ["unrecognized argument '--bogus'"]),
    (["hilbert", E1, "--max", "3"], 2, "err",
     ["unrecognized argument '--max'"]),
    (["hilbert", E1, "--js"], 2, "err", ["unrecognized argument '--js'"]),
    (["hilbert", E1, "--max-power"], 2, "err", ["--max-power needs a value"]),
    (["hilbert", E1, "--max-power", "x"], 2, "err", ["not an integer: 'x'"]),
    (["hilbert", E1, "--max-power="], 2, "err", ["not an integer: ''"]),
    (["hilbert", E1, "--json=yes"], 2, "err", ["--json takes no value"]),
    (["betti", "--d", "2"], 2, "err",
     ["usage: chernlab betti", "missing --n"]),
    (["betti", "--json"], 2, "err", ["missing --d, --n"]),
    (["betti", "--d", "2", "--n", "2", "--force"], 2, "err",
     ["unrecognized argument '--force'"]),
    (["betti", "--d", "2", "--n", "2", E1], 2, "err",
     ["unrecognized argument"]),
    # a value starting with '-' is still read as the value
    (["hilbert", E1, "--max-power", "-1"], 2, "err",
     ["schema error: max_power must be in 1..MAX_POWER_LIMIT = 1000, "
      "not -1"]),
    (["verify", E1, "--max-power=0"], 2, "err",
     ["schema error: max_power must be in 1..MAX_POWER_LIMIT = 1000, "
      "not 0"]),
    (["betti", "--d", "-1", "--n", "2"], 2, "err",
     ["need --d >= 1 and --n >= 1"]),
]


@pytest.mark.parametrize("argv, code, stream, texts", ARGV_CASES,
                         ids=[" ".join(case[0]).replace(E1, "FILE") or "empty"
                              for case in ARGV_CASES])
def test_argv_grammar(capsys, argv, code, stream, texts):
    got, out, err = run(capsys, *argv)
    assert got == code
    written, silent = (out, err) if stream == "out" else (err, out)
    assert silent == ""
    for text in texts:
        assert text in written
    if code == 2 and "usage:" in written:
        # the usage line and one line with the reason
        assert len(written.splitlines()) == 2


def test_console_script_reads_sys_argv(monkeypatch, capsys):
    # run(), the entry of the installed ``chernlab`` script, calls main()
    # with no argument
    monkeypatch.setattr("sys.argv",
                        ["chernlab", "hilbert", E1, "--json", "--max-power",
                         "3"])
    assert main() == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["length"] for row in rows] == ["3", "8", "15"]
    monkeypatch.setattr("sys.argv", ["chernlab"])
    assert main() == 2
    assert "missing command" in capsys.readouterr().err


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


def test_schema_error_bad_monomial_order(tmp_path, capsys):
    # a JSON list or object is not an order name, and is not hashable
    for value in ("deglex", ["grevlex"], {"grevlex": 1}):
        bad = dict(BASE, monomial_order=value)
        code, out, err = run(capsys, "hilbert",
                             _write(tmp_path, "p.json", bad))
        assert code == 2
        assert "schema error" in err and "monomial_order" in err
        assert out == ""


def test_schema_error_deep_nesting(tmp_path, capsys):
    deep = "(" * 5000 + "x" + ")" * 5000
    bad = dict(BASE, parameters=[deep + " + z", "y + w"])
    code, _, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad))
    assert code == 2
    assert "nested too deeply" in err


def test_schema_error_degree_cap(tmp_path, capsys):
    for parameter in ("x^18446744073709551616 + z", "x^4294967295*y + z^2"):
        bad = dict(BASE, parameters=[parameter, "y + w"])
        code, out, err = run(capsys, "hilbert",
                             _write(tmp_path, "p.json", bad))
        assert code == 2
        assert "schema error" in err and "2^32" in err
        assert out == ""


def test_schema_error_power_budget(tmp_path, capsys):
    # a homogeneous parameter passes every other check first
    bad = dict(BASE, parameters=["(y + w)^200000", "x + z"])
    code, out, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad))
    assert (code, out) == (2, "")
    assert "schema error" in err and "budget of 5000000 term products" in err


def test_schema_error_product_budget(tmp_path, capsys):
    bad = dict(BASE, parameters=["(x+y+z+w)^30*(x+y+z+w)^30", "x + z"])
    code, out, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad))
    assert (code, out) == (2, "")
    assert "schema error" in err and "POWER_PRODUCT_LIMIT" in err


def test_schema_error_coordinate_change_budget(tmp_path, capsys,
                                              monkeypatch):
    # the move of (x+y+z+w)^6, 84 terms, into the parameters' coordinates
    # takes more than 600 term products, though its parse takes at most
    # 4 C(9, 4) = 504: refused with exit 2 and one line naming the stage and
    # the budget.  At the default budget (x+y+z+w)^60 here parses within
    # it and ran 21 s in the coordinate change before exiting 3.
    import chernlab.core as core_module

    monkeypatch.setattr(core_module, "POWER_PRODUCT_LIMIT", 600)
    bad = dict(BASE, ideals=[["(x+y+z+w)^6", "y"], ["z", "w"]])
    for command in ("hilbert", "coeffs", "verify"):
        code, out, err = run(capsys, command,
                             _write(tmp_path, "p.json", bad), "--json")
        assert (code, out) == (2, "")
        assert err == ("schema error: coordinate change: over the budget "
                       "of 600 term products\n")


def test_long_coefficient_literal_is_read_mod_p(tmp_path, capsys):
    # a literal of 5000 digits is past int()'s 4300; N = 10^4999 + k with
    # N = 1 mod p, so N*x + z is x + z over F_p
    k = (1 - pow(10, 4999, 32003)) % 32003
    literal = "1" + str(k).zfill(4999)
    outs = []
    for parameter in (f"{literal}*x + z", "x + z"):
        good = dict(BASE, parameters=[parameter, "y + w"])
        outs.append(run(capsys, "hilbert", _write(tmp_path, "p.json", good),
                        "--json"))
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_hypothesis_failure_exit_code(tmp_path, capsys):
    bad = dict(BASE, parameters=["x", "y"])   # vanishes on the z-w plane
    code, _, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad))
    assert code == 3
    assert "parameters_cut_to_finite_length" in err


def test_inhomogeneous_generator_is_hypothesis_failure(tmp_path, capsys):
    bad = dict(BASE, ideals=[["x + 1", "y"], ["z", "w"]])
    code, out, err = run(capsys, "verify", _write(tmp_path, "p.json", bad))
    assert (code, out) == (3, "")
    assert err == ("hypothesis failure: generators_homogeneous: generator "
                   "x + 1 is not homogeneous\n")


@pytest.mark.parametrize("parameter", ["0", "x^2 + y", "3"])
def test_bad_parameter_is_hypothesis_failure(tmp_path, capsys, parameter):
    # raised by ProblemInstance, mapped to exit 3 by main, even with --force
    path = _write(tmp_path, "p.json", dict(BASE, parameters=[parameter,
                                                             "y + w"]))
    expected = (3, "", f"hypothesis failure: parameters_homogeneous: "
                f"parameter {parameter} must be nonzero homogeneous of "
                "degree >= 1\n")
    assert run(capsys, "verify", path, "--json") == expected
    assert run(capsys, "verify", path, "--force") == expected


def test_verify_json_hypothesis_failure_report(tmp_path, capsys):
    # the CLI is the one gate on the hypotheses: its report holds the
    # checks and the overall status only
    path = _write(tmp_path, "p.json", dict(BASE, parameters=["x", "y"]))
    code, out, err = run(capsys, "verify", path, "--json")
    fragment = check_hypotheses(build_instance(load_problem(path)))
    report = {"hypotheses": fragment, "overall": "hypothesis_failure"}
    assert code == 3
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert err == "hypothesis failure: parameters_cut_to_finite_length\n"


def test_force_proceeds_then_fails_internally(tmp_path, capsys):
    bad = dict(BASE, parameters=["x", "y"])
    code, _, err = run(capsys, "hilbert", _write(tmp_path, "p.json", bad),
                       "--force")
    assert code == 1
    assert "warning" in err


def test_fit_instability_exit_code(capsys):
    # three values cannot support two fitting windows of width d + 1 = 3,
    # but the coefficients are read off the core's exact series, so a short
    # window gives the default window's payload, and no exit 4
    code, short, err = run(capsys, "coeffs", E1, "--max-power", "3", "--json")
    assert (code, err) == (0, "")
    assert run(capsys, "coeffs", E1, "--json") == (0, short, "")
    assert json.loads(short)["e"] == ["2", "-1", "0"]


def test_json_byte_determinism(capsys):
    _, first, _ = run(capsys, "coeffs", E1, "--json")
    _, second, _ = run(capsys, "coeffs", E1, "--json")
    assert first == second


def test_one_intersection_per_command(monkeypatch, capsys):
    # verify on g = 3: ideal_intersect builds the core by one run,
    # and every consumer takes the instance's core instead of intersecting
    # again; coeffs, on any g and with linear or quadric parameters, reads
    # K off the Rees route and L off its presentation, and makes none
    import chernlab.ideals as ideals_module

    calls = []
    original = ideals_module.ideal_intersect

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ideals_module, "ideal_intersect", counting)
    for command, path, intersections in [
            ("coeffs", E4, 0), ("verify", E4, 1), ("coeffs", E1, 0),
            ("coeffs", E2, 0), ("coeffs", E7, 0)]:
        calls.clear()
        code, _, _ = run(capsys, command, path, "--json")
        assert code == 0
        assert len(calls) == intersections, (command, path)


@pytest.mark.parametrize("command, path, cones", [
    ("hilbert", E2, 3), ("hilbert", E4, 4), ("verify", E4, 5)])
def test_each_tangent_cone_built_once(monkeypatch, capsys, command, path,
                                      cones):
    # the hypothesis checks read one cone per component, cached on it;
    # hilbert adds the Rees cone of L ⊗ Sym(J) on e2 (g = 2) and on e4
    # (g = 3), and verify on e4 adds the core's and that of L's
    # presentation B'
    import chernlab.hilbert as hilbert_module

    built = []

    class Counting(hilbert_module.TangentCone):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(hilbert_module, "TangentCone", Counting)
    code, _, _ = run(capsys, command, path, "--json")
    assert code == 0
    assert len(built) == cones


@pytest.mark.parametrize("command, h_vectors", [("hilbert", 4),
                                                ("verify", 5)])
def test_each_cone_series_built_once(monkeypatch, capsys, command, h_vectors):
    # verify on e4 reads the core's series three times (its H(K, n) table,
    # its e and the torsion series) and each component's four times (the
    # Cohen-Macaulay check, its table, its e_0 and the torsion series):
    # each of the 5 cones builds its series once, by its h-vector, the
    # module cone of L's presentation B' as the ideals' do; hilbert reads
    # the 3 components' and the Rees module's cone
    import chernlab.hilbert as hilbert_module

    built = []
    cone = hilbert_module.TangentCone
    original = cone.h_vector

    def counting(self):
        built.append(1)
        return original(self)

    monkeypatch.setattr(cone, "h_vector", counting)
    code, _, _ = run(capsys, command, E4, "--json")
    assert code == 0
    assert len(built) == h_vectors


@pytest.mark.parametrize("command, series", [("hilbert", 7), ("verify", 8)],
                         ids=["hilbert", "verify"])
def test_intersection_keeps_its_target_series(monkeypatch, capsys, command,
                                              series):
    # e4: one series for each of the 3 components, the 3 pairwise sums and
    # J's for dim S/J; verify also reads the core's once off its own basis,
    # which hilbert, on the Rees route, does not build.  The core's run
    # stops on a series summed from the components' own, so no sum of
    # components is formed for it
    import chernlab.ideals as ideals_module

    calls = []
    original = ideals_module.monomial_hilbert_series

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ideals_module, "monomial_hilbert_series", counting)
    code, _, _ = run(capsys, command, E4, "--json")
    assert code == 0
    assert len(calls) == series


def test_hilbert_quadratic_parameter(tmp_path, capsys):
    # a quadratic parameter takes the tangent cone of J's graph
    path = _write(tmp_path, "q.json", dict(BASE, ideals=[["x", "y"]],
                                           parameters=["z^2", "w"]))
    code, out, _ = run(capsys, "hilbert", path, "--json", "--max-power", "3")
    assert code == 0
    assert [row["length"] for row in json.loads(out)] == ["2", "6", "12"]


def test_verify_quadratic_parameter_long_window(tmp_path, capsys):
    # two planes with J = (x^2 + z^2, y + w): one graph basis serves all 80
    # powers, H(K, n) = 4 C(n+1, 2) + n (two transversal planes, A = 2)
    path = _write(tmp_path, "q.json",
                  dict(BASE, parameters=["x^2 + z^2", "y + w"]))
    code, out, err = run(capsys, "verify", path, "--json", "--max-power",
                         "80")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["overall"] == "pass"
    assert report["hilbert"]["e"] == ["4", "-1", "0"]
    assert [int(row["length"]) for row in report["hilbert"]["values"]] == \
        [4 * binomial(n + 1, 2) + n for n in range(1, 81)]


def _staircase_pair(tmp_path, a, b):
    """(x, y^a) ∩ (z^b, w) with J = (x + w, y + z).  L is k[y, z]/(y^a, z^b)
    with J acting as y + z, so length(L) = ab and J^n L = 0 exactly from
    nu = a + b - 1 on."""
    return _write(tmp_path, f"staircase_{a}_{b}.json",
                  dict(BASE, ideals=[["x", f"y^{a}"], [f"z^{b}", "w"]],
                       parameters=["x + w", "y + z"]))


def _identity(report, name):
    return next(i for i in report["identities"] if i["name"] == name)


def _inconclusive_case(tmp_path, case):
    """(problem path, length(L), nu, window, torsion_fit, torsion_n0) for a
    staircase "a-b" at the default window 2d + 4 = 8, or for "pow6":
    (x^6, y^6) ∩ (z^6, w^6) with J = (x + z, y + w), where
    L = k[x, y, z, w]/(x^6, y^6, z^6, w^6) has length 1296 and top degree
    20, and J^21 L = 0 first.  H(K, n) of pow6 is polynomial from n = 10 on
    only; its case runs at the window 14, which reaches past that."""
    if case == "pow6":
        return _write(tmp_path, "pow6.json",
                      dict(BASE, ideals=[["x^6", "y^6"], ["z^6", "w^6"]])), \
            1296, 21, 14, ["146", "-931"], 21
    a, b = map(int, case.split("-"))
    return (_staircase_pair(tmp_path, a, b), a * b, a + b - 1, 8,
            [str(b), str(-a * b)], a + b - 1)


@pytest.mark.parametrize("case", ["30-1", "6-5", "60-1", "pow6"])
def test_verify_inconclusive_below_nu(tmp_path, capsys, case):
    # the window ends before nu, so every sampled torsion value is
    # pre-stable and no fit of them could decide the identity; the exact
    # series decides it for every n
    path, lam, nu, window, fit, n0 = _inconclusive_case(tmp_path, case)
    extra = [] if window == 8 else ["--max-power", str(window)]
    code, out, err = run(capsys, "verify", path, "--json", *extra)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["lambda_L"] == str(lam)
    assert report["top_degree"] == nu - 1
    assert report["overall"] == "pass"
    torsion = _identity(report, "torsion_polynomial")
    assert torsion["status"] == "pass"
    assert (torsion["witness"]["torsion_fit"],
            torsion["witness"]["torsion_n0"]) == (fit, n0)
    assert torsion["witness"]["nu"] == nu


@pytest.mark.parametrize("window", ["4", "20", "64"])
def test_verify_torsion_witness_does_not_depend_on_window(tmp_path, capsys,
                                                          window):
    # (x, y^60) ∩ (z, w): the exact torsion polynomial is (1, -60) from
    # nu = 60 on, whether the window stops short of nu or passes it
    path = _staircase_pair(tmp_path, 60, 1)
    code, out, _ = run(capsys, "verify", path, "--json", "--max-power",
                       window)
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "pass"
    witness = _identity(report, "torsion_polynomial")["witness"]
    assert (witness["torsion_fit"], witness["torsion_n0"],
            witness["nu"]) == (["1", "-60"], 60, 60)


def test_verify_non_cm_component_fails_the_torsion_identity(tmp_path,
                                                            capsys):
    # (x, y) ∩ (z, w) given as one component: L = 0, so the torsion lengths
    # vanish, but e_1 = -1, and (0, 0, 0) is not (0, e_1, e_2) + 0
    path = _write(tmp_path, "noncm.json",
                  dict(BASE, ideals=[["x*z", "x*w", "y*z", "y*w"]]))
    code, out, err = run(capsys, "verify", path, "--json", "--force")
    assert code == 1
    assert err == ("warning: hypothesis checks skipped by --force "
                   "(failing: components_cohen_macaulay)\n")
    report = json.loads(out)
    assert report["overall"] == "fail"
    assert report["hilbert"]["e"] == ["2", "-1", "0"]
    torsion = _identity(report, "torsion_polynomial")
    assert torsion["status"] == "fail"
    assert torsion["witness"]["torsion_fit"] == ["0", "0"]


NON_CM = ["x*z", "x*w", "y*z", "y*w"]
# (x, y)m ∩ (z, w) = (x, y) ∩ (z, w): e1's ring, with a non-CM component
MAXIMAL_TIMES_PLANE = dict(BASE, ideals=[
    ["x^2", "x*y", "y^2", "x*z", "x*w", "y*z", "y*w"], ["z", "w"]])


@pytest.mark.parametrize("command", ["hilbert", "coeffs", "verify"])
def test_non_cm_component_is_hypothesis_failure(tmp_path, capsys, command):
    # (x, y) ∩ (z, w) as one component: λ(S/(I + J)) = 3 > e_0 = 2
    path = _write(tmp_path, "noncm.json", dict(BASE, ideals=[NON_CM]))
    code, out, err = run(capsys, command, path, "--json")
    assert (code, err) == (3, "hypothesis failure: components_cohen_macaulay\n")
    fragment = check_hypotheses(build_instance(load_problem(path)))
    assert [c for c in fragment["checks"] if not c["passed"]] == [{
        "name": "components_cohen_macaulay", "passed": False,
        "witness": {"colengths": ["3"], "e0": ["2"]}}]
    assert json.loads(out or "{}").get("overall") == (
        "hypothesis_failure" if command == "verify" else None)


def test_forced_non_cm_component_takes_the_core_route(tmp_path, capsys):
    # (x, y)m ∩ (z, w) = (x, y) ∩ (z, w): the ring and J are e1's, so under
    # --force hilbert and coeffs print e1's numbers, read off the core;
    # L = S/((x, y)m + (z, w)) has length 3.  The Rees formula, which needs
    # Tor_1(S/I_1, S/J^n) = 0, would give H(K, n) = 6, 12, 20 where e1 has
    # 3, 8, 15
    path = _write(tmp_path, "noncm.json", MAXIMAL_TIMES_PLANE)
    warning = ("warning: hypothesis checks skipped by --force "
               "(failing: components_cohen_macaulay)\n")
    golden = PROBLEM_DIR.parent / "tests" / "golden"
    code, out, err = run(capsys, "hilbert", path, "--json", "--force")
    assert (code, err) == (0, warning)
    assert out == (golden / "e1_two_planes.hilbert.json").read_text()
    code, out, err = run(capsys, "coeffs", path, "--json", "--force")
    assert (code, err) == (0, warning)
    expected = json.loads((golden / "e1_two_planes.coeffs.json").read_text())
    assert json.loads(out) == dict(expected, lambda_L="3")
    inst = build_instance(load_problem(path))
    rees, _ = rees_series(inst.ideals, inst.J)
    assert [rees.summed(n) for n in (1, 2, 3)] == [6, 12, 20]


def test_forced_non_cm_component_of_three_takes_the_core_route(tmp_path,
                                                               capsys):
    # (x, y)m ∩ (z, w) ∩ (x + z, y + w) is e4's core, as (x, y) ∩ (z, w)
    # lies in m^2, so under --force hilbert prints e4's table and coeffs
    # e4's e, read off the core; L has length 6, against e4's 4.  The
    # Rees formula, which needs Tor_1(S/I_i, S/J^n) = 0 for every i, would
    # give H(K, n) = 9, 19, 32 where e4 has 5, 13, 24
    e4 = json.loads((PROBLEM_DIR / "e4_three_planes.json").read_text())
    path = _write(tmp_path, "noncm3.json", dict(e4, ideals=[
        MAXIMAL_TIMES_PLANE["ideals"][0]] + e4["ideals"][1:]))
    warning = ("warning: hypothesis checks skipped by --force "
               "(failing: components_cohen_macaulay)\n")
    golden = PROBLEM_DIR.parent / "tests" / "golden"
    code, out, err = run(capsys, "hilbert", path, "--json", "--force")
    assert (code, err) == (0, warning)
    assert out == (golden / "e4_three_planes.hilbert.json").read_text()
    code, out, err = run(capsys, "coeffs", path, "--json", "--force")
    assert (code, err) == (0, warning)
    expected = json.loads((golden / "e4_three_planes.coeffs.json").read_text())
    assert json.loads(out) == dict(expected, lambda_L="6")
    inst = build_instance(load_problem(path))
    assert inst.g == 3
    rees, _ = rees_series(inst.ideals, inst.J)
    assert [rees.summed(n) for n in (1, 2, 3)] == [9, 19, 32]


def test_forced_infinite_cokernel_has_one_message(tmp_path, capsys):
    # (a, b) ∩ (c, d): the pairwise sum is not m-primary, so L = F[e] has
    # infinite length.  Under --force hilbert prints K's table, read off
    # the core; coeffs and verify both stop at gr_J(L) with one line
    path = _write(tmp_path, "infinite.json", {
        "variables": ["a", "b", "c", "d", "e"],
        "ideals": [["a", "b"], ["c", "d"]],
        "parameters": ["a + c", "b + d", "e"]})
    warning = ("warning: hypothesis checks skipped by --force "
               "(failing: pairwise_sums_mprimary)\n")
    code, out, err = run(capsys, "hilbert", path, "--json", "--force",
                         "--max-power", "5")
    assert (code, err) == (0, warning)
    assert [row["length"] for row in json.loads(out)] == \
        ["3", "11", "26", "50", "85"]
    refusal = ("internal inconsistency: L has infinite length: some "
               "pairwise sum I_i + I_j is not m-primary (see "
               "pairwise_sums_mprimary)\n")
    for command in ("coeffs", "verify"):
        assert run(capsys, command, path, "--json", "--force") == \
            (1, "", warning + refusal)


def test_route_choice_reads_the_instance_verdict(tmp_path):
    # the instance of the test above: nothing a caller passes can send it
    # down the Rees route, as the route reads the instance's own verdict
    path = _write(tmp_path, "noncm.json", MAXIMAL_TIMES_PLANE)
    inst = build_instance(load_problem(path))
    assert not inst.hypotheses["all_pass"]
    series, _ = inst.ring_series()
    assert series == tangent_cone(inst.core, inst.J).series()


@pytest.mark.parametrize("command", ["hilbert", "coeffs", "verify"])
@pytest.mark.parametrize("force", [False, True])
def test_hypotheses_checked_once(monkeypatch, tmp_path, capsys, command,
                                 force):
    # the gate, the route choice and verify's report read one verdict
    calls = []
    original = instance_module.check_hypotheses

    def counting(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(instance_module, "check_hypotheses", counting)
    path = E1
    if force:
        path = _write(tmp_path, "noncm.json", MAXIMAL_TIMES_PLANE)
    code, _, _ = run(capsys, command, path, "--json",
                     *(["--force"] if force else []))
    assert code == (1 if force and command == "verify" else 0)
    assert len(calls) == 1


def test_verify_forced_extra_parameter_keeps_the_torsion_identity(tmp_path,
                                                                  capsys):
    # e1 with a third parameter x + y: the hypotheses fail, and under
    # --force the torsion polynomial is still (0, -1) and its identity holds
    path = _write(tmp_path, "extra.json",
                  dict(BASE, parameters=["x + z", "y + w", "x + y"]))
    code, out, err = run(capsys, "verify", path, "--json", "--force")
    assert code == 1 and "--force" in err
    report = json.loads(out)
    torsion = _identity(report, "torsion_polynomial")
    assert (torsion["status"], torsion["witness"]["torsion_fit"]) == \
        ("pass", ["0", "-1"])


def test_verify_ring_named_like_the_idealization(tmp_path, capsys):
    # the ring of L's presentation adds variables e1, e2, ... and the graph
    # rings u1, u2; a ring that has those names already gets fresh ones,
    # and the report is unchanged
    reports = []
    for names in (["x", "y", "z", "w"], ["e1", "e2", "e3", "e4"],
                  ["u1", "e1", "u2", "w"]):
        x, y, z, w = names
        path = _write(tmp_path, f"{x}.json",
                      dict(BASE, variables=names,
                           ideals=[[x, y], [z, w]],
                           parameters=[f"{x}^2 + {z}^2", f"{y} + {w}"]))
        code, out, _ = run(capsys, "verify", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report.pop("variables") == names
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("command", ["hilbert", "coeffs"])
def test_ring_named_like_the_rees_ring(tmp_path, capsys, command):
    # quadric parameters adjoin u1, u2 for the components' graphs, e1 for
    # L's presentation and t1, t2 for the Rees ring; a ring that has those
    # names already gets fresh ones, and the output is unchanged
    outputs = []
    for names in (["x", "y", "z", "w"], ["t1", "u1", "t2", "u2"],
                  ["t1", "e1", "t2", "u1"]):
        x, y, z, w = names
        path = _write(tmp_path, f"{x}.json",
                      dict(BASE, variables=names, ideals=[[x, f"{y}^6"],
                                                          [f"{z}^5", w]],
                           parameters=[f"{x}^2 + {w}^2", f"{y} + {z}"]))
        code, out, _ = run(capsys, command, path, "--json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_passes_once_window_reaches_nu(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", _staircase_pair(tmp_path, 30, 1),
                       "--json", "--max-power", "34")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] == "pass"
    torsion = _identity(report, "torsion_polynomial")
    assert torsion["status"] == "pass"
    assert torsion["witness"]["nu"] == 30


def test_verify_computes_core_table_once(tmp_path, monkeypatch):
    # a quadratic J takes one basis of its graph per ideal, whatever the
    # window: one for the core, whose cone serves the hypotheses, the
    # report, e and n0 alike, one for L's presentation B', and one for
    # each of the two components (e_0 additivity)
    import chernlab.hilbert as hilbert_module
    from chernlab.cli import build_instance, load_problem
    from chernlab.verifier import run_verification

    path = _write(tmp_path, "quadratic.json",
                  dict(BASE, ideals=[["x", "y^6"], ["z^5", "w"]],
                       parameters=["x^2 + w^2", "y + z"]))
    rings = []
    original = hilbert_module.buchberger

    def counting(gens, ctx, series=None):
        rings.append(ctx.variables)
        return original(gens, ctx, series)

    monkeypatch.setattr(hilbert_module, "buchberger", counting)
    monkeypatch.setattr(hilbert_module, "hilbert_samuel", None)
    graph = ("u1", "u2", "x", "y", "z", "w")
    over_b = graph + ("e1",)
    # 8 = 2d + 4 is the command line's default window
    for max_power in (40, 4, 8):
        inst = build_instance(load_problem(path))
        rings.clear()
        report = run_verification(inst, max_power)
        assert sorted(rings) == [graph] * 3 + [over_b]
        assert inst.core.cone_cache[1].ctx.variables == graph
    # the report of the default window, as on the per-n route before
    assert (report["lambda_L"], report["top_degree"],
            report["annihilates"]) == ("30", 9, False)
    assert report["hilbert"]["e"] == ["22", "-5", "0"]
    assert [int(row["length"]) for row in report["hilbert"]["values"]] == \
        [27, 76, 147, 240, 355, 492, 651, 832]
    assert [int(row["length"]) for row in
            report["torsion_hilbert"]["values"]] == \
        [10, 20, 29, 38, 46, 54, 61, 68]
    assert [i["status"] for i in report["identities"]] == \
        ["pass", "pass", "not_applicable", "not_applicable", "pass"]
    assert report["overall"] == "pass"
    witness = _identity(report, "torsion_polynomial")["witness"]
    assert (witness["torsion_fit"], witness["torsion_n0"]) == \
        (["5", "-30"], 10)


@pytest.mark.parametrize("name", ["e1_two_planes", "e2_two_3planes",
                                  "e3_cm_baseline", "e4_three_planes",
                                  "e5_staircase"])
def test_verify_computes_each_basis_once(monkeypatch, capsys, name):
    # one basis per distinct (ring, generator set): the core's run reads
    # the components' series, and one component's core shares its
    # tangent cone
    import chernlab.groebner as groebner_module
    import chernlab.hilbert as hilbert_module
    import chernlab.ideals as ideals_module

    inputs = []
    original = groebner_module.buchberger

    def recording(gens, ctx, series=None):
        gens = list(gens)
        inputs.append((ctx, frozenset(frozenset(g.terms.items())
                                      for g in gens)))
        return original(gens, ctx, series)

    for module in (ideals_module, hilbert_module):
        monkeypatch.setattr(module, "buchberger", recording)
    code, _, _ = run(capsys, "verify", str(PROBLEM_DIR / f"{name}.json"),
                     "--json")
    assert code == 0
    assert inputs
    assert len(inputs) == len(set(inputs))
