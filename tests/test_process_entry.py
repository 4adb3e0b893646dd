"""The process entry: ``python -m chernlab.cli`` and the ``chernlab`` script
run ``cli.run``, which exits with ``main``'s code after freezing the heap.
Each command runs in a fresh interpreter, the way users and the benchmark
run it, and must print what the goldens and an in-process ``main`` print,
with the same exit code."""

import json
import os
import pathlib
import re
import subprocess
import sys

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


def _child(*argv):
    return subprocess.run([sys.executable, *argv], env=ENV,
                          capture_output=True, text=True, timeout=120)


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
