"""tools/startup_split.py times start-up, compiling, importing and the
command in fresh interpreters, and writes nothing in the repository."""

import importlib.util
from pathlib import Path

from conftest import PROBLEM_DIR

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "startup_split.py"
_spec = importlib.util.spec_from_file_location("startup_split", TOOL)
startup_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(startup_split)


def _tree():
    """Every file of the package and the tools, bytecode included, with
    its modification time."""
    return {path: path.stat().st_mtime_ns
            for top in ("src", "tools") for path in (ROOT / top).rglob("*")}


def test_one_run_of_each(capsys):
    before = _tree()
    code = startup_split.main(
        ["1", "hilbert", str(PROBLEM_DIR / "e1_two_planes.json"), "--json"])
    assert code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    times = {name: float(ms) for name, ms, unit in rows}
    assert list(times) == ["bare", "import_cold", "import_warm", "command",
                           "compiling", "import", "main"]
    assert all(times[name] > 0 for name in
               ("bare", "import_cold", "import_warm", "command"))
    assert _tree() == before


def test_usage_error():
    assert startup_split.main([]) == 2
    assert startup_split.main(["0", "hilbert", "FILE"]) == 2
