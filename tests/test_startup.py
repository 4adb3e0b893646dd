"""Each subcommand runs only the modules it uses.  ``graded``, ``resolutions``
and ``verifier`` sit in ``sys.modules`` from the start but run on first
attribute access, and ``fractions`` is imported by the fit alone.  Checked
in a fresh interpreter, since this process has imported everything."""

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

# A lazy module's type is a ModuleType subclass until it has run.
PROBE = """
import contextlib, io, json, sys, types
from chernlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
ran = {name: type(module) is types.ModuleType
       for name, module in sys.modules.items() if name.startswith("chernlab")}
print(json.dumps({"code": code, "ran": ran,
                  "fractions": "fractions" in sys.modules}))
"""


def _child(*argv):
    child = subprocess.run([sys.executable, *argv], env=ENV,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


def _probe(command):
    result = json.loads(_child("-c", PROBE, command, E2, "--json"))
    assert result["code"] == 0
    return result


@pytest.mark.parametrize("command, idle", [
    ("hilbert", {"chernlab.graded", "chernlab.resolutions",
                 "chernlab.verifier"}),
    ("coeffs", {"chernlab.resolutions", "chernlab.verifier"}),
    ("verify", set()),
])
def test_subcommand_runs_only_its_modules(command, idle):
    result = _probe(command)
    ran = result["ran"]
    assert {"chernlab.graded", "chernlab.resolutions",
            "chernlab.verifier", "chernlab.instance"} <= set(ran)
    assert {name for name, done in ran.items() if not done} == idle
    assert result["fractions"] == (command != "hilbert")


def test_traced_hilbert_keeps_output_and_spans(tmp_path):
    spans_file = tmp_path / "spans.json"
    plain = _child("-m", "chernlab.cli", "hilbert", E2, "--json")
    traced = _child(str(TRACED_CLI), str(spans_file), "hilbert", E2, "--json")
    assert traced == plain
    names = {span[0] for span in json.loads(spans_file.read_text())}
    assert {"cli.build_instance", "verifier.check_hypotheses",
            "groebner.buchberger"} <= names
