"""The process entry: ``python -m chernlab.cli`` and the ``chernlab`` script
run ``cli.run``, which exits with ``main``'s code after freezing the heap.
Each command runs in a fresh interpreter, the way users and the benchmark
run it, and must print what the goldens and an in-process ``main`` print,
with the same exit code."""

import json
import os
import pathlib
import random
import re
import subprocess
import sys
from itertools import combinations_with_replacement

import pytest

import chernlab
from chernlab import cli
from conftest import PROBLEM_DIR

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
E1 = str(PROBLEM_DIR / "e1_two_planes.json")
# the child imports the same chernlab as this process
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(pathlib.Path(chernlab.__file__).resolve().parent.parent),
    os.environ.get("PYTHONPATH")])))


def _child(*argv, timeout=120):
    return subprocess.run([sys.executable, *argv], env=ENV,
                          capture_output=True, text=True, timeout=timeout)


def _in_process(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_module_entry_matches_goldens(case, capsys):
    name, command = case.rsplit(".", 1)
    argv = [command, str(PROBLEM_DIR / f"{name}.json"), "--json"]
    child = _child("-m", "chernlab.cli", *argv)
    assert (child.returncode, child.stderr) == (EXIT_CODES[case], "")
    assert child.stdout == (GOLDEN_DIR / f"{case}.json").read_text(
        encoding="utf-8")
    assert _in_process(capsys, argv) == (child.returncode, child.stdout, "")


def test_module_entry_exit_codes_on_failures(tmp_path, capsys):
    bad = json.loads(pathlib.Path(E1).read_text(encoding="utf-8"))
    bad["parameters"] = ["x^2 + y", "y + w"]
    path = tmp_path / "bad_parameter.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    for argv, code in ((["hilbert", E1, "--max-power", "0"], 2),
                       (["verify", str(path), "--json"], 3)):
        child = _child("-m", "chernlab.cli", *argv)
        assert child.returncode == code
        assert _in_process(capsys, argv) == (code, child.stdout, child.stderr)


def dense_quadric_problem(order):
    """Two 3-planes in F_32003[a..f] and three seeded dense quadric
    parameters, every one of the 21 monomials with a nonzero coefficient."""
    rng = random.Random("dense-quadrics")
    names = "abcdef"
    quadrics = [" + ".join(f"{rng.randrange(1, 32003)}*{u}*{v}"
                           for u, v in combinations_with_replacement(names, 2))
                for _ in range(3)]
    return {"characteristic": 32003, "variables": list(names),
            "monomial_order": order, "ideals": [["a", "b", "c"],
                                                ["d", "e", "f"]],
            "parameters": quadrics}


@pytest.mark.parametrize("command", ["hilbert", "coeffs", "verify"])
def test_lex_dense_quadrics_finish_as_their_grevlex_twin(tmp_path, capsys,
                                                         command):
    # a lex basis of the three quadrics does not finish in minutes, and
    # dim S/J, which the hypotheses read, does not need one
    paths = {}
    for order in ("lex", "grevlex"):
        paths[order] = tmp_path / f"{order}.json"
        paths[order].write_text(json.dumps(dense_quadric_problem(order)),
                                encoding="utf-8")
    child = _child("-m", "chernlab.cli", command, str(paths["lex"]),
                   "--json", timeout=30)
    twin = _in_process(capsys, [command, str(paths["grevlex"]), "--json"])
    assert twin[0] == 0
    if command == "verify":
        assert json.loads(twin[1])["monomial_order"] == "grevlex"
        twin = (0, twin[1].replace('"monomial_order": "grevlex"',
                                   '"monomial_order": "lex"'), "")
    assert (child.returncode, child.stdout, child.stderr) == twin
    if command == "coeffs":
        assert json.loads(child.stdout)["e"] == ["16", "-1", "1", "0"]


# Reads the freeze count after the entry has exited, from an atexit hook
# registered before it.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count()}"))
sys.argv = ["chernlab"] + sys.argv[1:]
runpy.run_module("chernlab.cli", run_name="__main__")
"""


def test_entry_freezes_before_exit():
    child = _child("-c", FREEZE_PROBE, "hilbert", E1, "--json")
    assert child.returncode == 0
    assert child.stdout == (GOLDEN_DIR / "e1_two_planes.hilbert.json") \
        .read_text(encoding="utf-8")
    frozen = re.fullmatch(r"frozen (\d+)", child.stderr)
    assert frozen and int(frozen.group(1)) > 0


def test_main_leaves_the_collector_alone():
    child = _child("-c", "import gc, sys\n"
                   "from chernlab import cli\n"
                   "code = cli.main(sys.argv[1:])\n"
                   "print(code, gc.get_freeze_count(), file=sys.stderr)",
                   "hilbert", E1, "--json")
    assert (child.returncode, child.stderr) == (0, "0 0\n")


def test_console_script_names_the_entry():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\s*^chernlab\s*=\s*'
                       r'"chernlab\.cli:(\w+)"', text, re.M)
    assert target, "no chernlab script in [project.scripts]"
    assert target.group(1) == "run"
    assert callable(getattr(cli, target.group(1)))
