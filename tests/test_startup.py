"""Each subcommand runs only the modules it uses.  ``graded``, ``resolutions``
and ``verifier`` sit in ``sys.modules`` from the start but run on first
attribute access, and no subcommand imports the argument-parsing or
rational-arithmetic modules of the standard library.  Checked in a fresh
interpreter, since this process has imported everything."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import chernlab
from conftest import PROBLEM_DIR

E2 = str(PROBLEM_DIR / "e2_two_3planes.json")
TRACED_CLI = (pathlib.Path(__file__).resolve().parent.parent
              / "perfbench" / "traced_cli.py")
# the child imports the same chernlab as this process
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(pathlib.Path(chernlab.__file__).resolve().parent.parent),
    os.environ.get("PYTHONPATH")])))

# Stdlib modules that the CLI does without: argparse with the gettext and
# locale it loads, fractions with the decimal it loads, and typing.
UNUSED_STDLIB = {"argparse", "gettext", "locale", "fractions", "decimal",
                 "typing"}

# A lazy module's type is a ModuleType subclass until it has run.
PROBE = """
import sys
bare = set(sys.modules)
import contextlib, io, json, types
from chernlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
ran = {name: type(module) is types.ModuleType
       for name, module in sys.modules.items() if name.startswith("chernlab")}
print(json.dumps({"code": code, "ran": ran,
                  "imported": sorted(set(sys.modules) - bare)}))
"""


def _child(*argv):
    child = subprocess.run([sys.executable, *argv], env=ENV,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


def _probe(*argv):
    result = json.loads(_child("-c", PROBE, *argv))
    assert result["code"] == 0
    return result


@pytest.mark.parametrize("command, idle", [
    ("hilbert", {"chernlab.graded", "chernlab.resolutions",
                 "chernlab.verifier"}),
    ("coeffs", {"chernlab.graded", "chernlab.resolutions",
                "chernlab.verifier"}),
    ("verify", set()),
])
def test_subcommand_runs_only_its_modules(command, idle):
    # coeffs reads length(L) off the Rees run that gives K's series, so
    # only verify reads the series of gr_J(L)
    ran = _probe(command, E2, "--json")["ran"]
    assert {"chernlab.graded", "chernlab.resolutions",
            "chernlab.verifier", "chernlab.instance"} <= set(ran)
    assert {name for name, done in ran.items() if not done} == idle


@pytest.mark.parametrize("argv", [
    ("hilbert", E2, "--json"),
    ("coeffs", E2, "--json"),
    ("verify", E2, "--json"),
    ("betti", "--d", "3", "--n", "2", "--json"),
    ("verify", "--help"),
])
def test_subcommand_skips_argparse_and_fractions(argv):
    imported = set(_probe(*argv)["imported"])
    assert "chernlab.cli" in imported
    assert not imported & UNUSED_STDLIB


def test_traced_hilbert_keeps_output_and_spans(tmp_path):
    spans_file = tmp_path / "spans.json"
    plain = _child("-m", "chernlab.cli", "hilbert", E2, "--json")
    traced = _child(str(TRACED_CLI), str(spans_file), "hilbert", E2, "--json")
    assert traced == plain
    names = {span[0] for span in json.loads(spans_file.read_text())}
    assert {"cli.build_instance", "verifier.check_hypotheses",
            "groebner.buchberger"} <= names
