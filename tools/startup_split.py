"""Split the wall time of one chernlab command into interpreter start-up,
compiling, importing and computing.

Usage: python tools/startup_split.py N COMMAND FILE [ARGS...]
       e.g. python tools/startup_split.py 5 verify problems/e1_two_planes.json --json

Each of five runs is made N times, each time in a fresh interpreter, in N
rounds of all five, and its median wall time is printed in milliseconds:

- ``plain``: ``python -c pass``;
- ``bare``: ``python -c "import gc; gc.freeze()"``;
- ``import_cold``: ``python -c "import chernlab.cli; ..."`` with no
  bytecode, as the benchmark's children run (``PYTHONDONTWRITEBYTECODE=1``),
  so that chernlab's source is compiled every time;
- ``import_warm``: the same import reading bytecode written beforehand to a
  temporary ``PYTHONPYCACHEPREFIX``;
- ``command``: ``python -m chernlab.cli COMMAND FILE ARGS...`` with no
  bytecode, the benchmark's command.

Every run but ``plain`` ends the way the command does (``cli.run``): it
freezes the heap before exit, so no run pays CPython's shutdown
collections.  Then the differences: ``compiling`` (import_cold -
import_warm), ``import`` (import_warm - bare), ``main`` (command -
import_cold, the command's own work) and ``shutdown_gc`` (plain - bare,
the shutdown collections that the freeze saves).  The package is imported
from a temporary copy of ``src/chernlab``, so no bytecode that an earlier
run left there is read, and nothing is written in the repository.  Stdlib
only.
"""

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chernlab"
# how cli.run ends a command
FREEZE = "import gc; gc.freeze()"


def _wall_ms(argv, env):
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    return (time.perf_counter() - start) * 1000


def split(runs, command_args):
    """{name: milliseconds} for the five runs and their differences."""
    with tempfile.TemporaryDirectory(prefix="startup-split-") as tmp:
        shutil.copytree(SRC, Path(tmp, "lib", "chernlab"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {key: value for key, value in os.environ.items()
                if key not in ("PYTHONDONTWRITEBYTECODE",
                               "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(tmp, "lib")), base.get("PYTHONPATH")]))
        cold = dict(base, PYTHONDONTWRITEBYTECODE="1")
        warm = dict(base, PYTHONPYCACHEPREFIX=str(Path(tmp, "pycache")))
        python = [sys.executable]
        import_cli = python + ["-c", "import chernlab.cli\n" + FREEZE]
        subprocess.run(import_cli, env=warm, check=True)
        runs_of = {
            "plain": (python + ["-c", "pass"], cold),
            "bare": (python + ["-c", FREEZE], cold),
            "import_cold": (import_cli, cold),
            "import_warm": (import_cli, warm),
            "command": (python + ["-m", "chernlab.cli"] + command_args,
                        cold),
        }
        # round-robin, so that a change in the machine's load reaches
        # every run alike
        samples = {name: [] for name in runs_of}
        for _ in range(runs):
            for name, (argv, env) in runs_of.items():
                samples[name].append(_wall_ms(argv, env))
    times = {name: statistics.median(ms) for name, ms in samples.items()}
    times["compiling"] = times["import_cold"] - times["import_warm"]
    times["import"] = times["import_warm"] - times["bare"]
    times["main"] = times["command"] - times["import_cold"]
    times["shutdown_gc"] = times["plain"] - times["bare"]
    return times


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 3 or not argv[0].isdigit() or int(argv[0]) < 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for name, ms in split(int(argv[0]), argv[1:]).items():
        print(f"{name:<12} {ms:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
