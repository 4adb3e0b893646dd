"""Golden outputs: ``--json`` stdout and exit code of hilbert, coeffs and
verify on the shipped problems, compared byte for byte.

The files under ``tests/golden/`` were recorded with
``python -m chernlab.cli <command> problems/<name>.json --json``; a change
that alters any of them changes a reported result.
"""

import json
import pathlib

import pytest

from chernlab import binomial
from chernlab.cli import main
from conftest import PROBLEM_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_golden_json_output(case, capsys):
    name, command = case.rsplit(".", 1)
    code = main([command, str(PROBLEM_DIR / f"{name}.json"), "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_CODES[case]
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{case}.json").read_bytes()


def test_e5_golden_matches_closed_forms():
    # (x, y^30) ∩ (z, w) with J = (x + w, y + z): L = k[y]/(y^30) with J
    # acting as y, so length(L) = 30 and nu = 30; H(K, n) = 31 C(n+1, 2) + n,
    # and the torsion polynomial is n - 30 from nu on
    def read(command):
        return json.loads((GOLDEN_DIR / f"e5_staircase.{command}.json")
                          .read_text(encoding="utf-8"))

    assert [int(row["length"]) for row in read("hilbert")] == \
        [31 * binomial(n + 1, 2) + n for n in range(1, 9)]
    assert read("coeffs") == {"e": ["31", "-1", "0"], "n0": 1, "cm": False,
                              "chern_sign": "negative", "lambda_L": "30"}
    report = read("verify")
    assert (report["lambda_L"], report["top_degree"] + 1) == ("30", 30)
    assert report["overall"] == "pass"
    torsion = next(i for i in report["identities"]
                   if i["name"] == "torsion_polynomial")
    assert (torsion["status"], torsion["witness"]["torsion_fit"],
            torsion["witness"]["torsion_n0"],
            torsion["witness"]["nu"]) == \
        ("pass", ["1", "-30"], 30, 30)


def test_e6_golden_matches_closed_forms():
    # (x^9, y^8) ∩ (z, w) with J = (x + w, y + z): e_0 = 72 + 1 by
    # additivity and length(L) = 72; H(K, n) = 74 C(n+1, 2) up to n = 7,
    # and 73 C(n+1, 2) + 8n - 28 from n = 7 on, so a window that ends
    # before n = 8 sees only a multiple of C(n+1, 2)
    def read(command):
        return json.loads((GOLDEN_DIR / f"e6_short_window.{command}.json")
                          .read_text(encoding="utf-8"))

    assert [int(row["length"]) for row in read("hilbert")] == \
        [74 * binomial(n + 1, 2) for n in range(1, 8)] + [2664]
    assert 73 * binomial(9, 2) + 8 * 8 - 28 == 2664
    assert read("coeffs") == {"e": ["73", "-8", "-28"], "n0": 7, "cm": False,
                              "chern_sign": "negative", "lambda_L": "72"}
    report = read("verify")
    assert report["overall"] == "pass"
    assert (report["hilbert"]["e"], report["hilbert"]["n0"]) == \
        (["73", "-8", "-28"], 7)
    assert {i["name"]: i["status"] for i in report["identities"]} == {
        "e0_additivity": "pass", "torsion_polynomial": "pass",
        "coefficient_collapse": "not_applicable",
        "tor1_two_routes": "not_applicable", "negativity": "pass"}
