"""Golden outputs: ``--json`` stdout and exit code of hilbert, coeffs and
verify on the shipped problems, compared byte for byte.

The files under ``tests/golden/`` were recorded with
``python -m chernlab.cli <command> problems/<name>.json --json``; a change
that alters any of them changes a reported result.
"""

import json
import pathlib

import pytest

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
