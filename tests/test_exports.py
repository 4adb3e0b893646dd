"""Names that other code looks up by string must exist: each module's
``__all__``, the package's included, and the functions that
``perfbench/traced_cli.py`` wraps with ``getattr``, also where the tracer
finds them, in ``sys.modules`` right after importing ``chernlab.cli``.  A
deletion or rename that leaves either stale fails here, not in a benchmark
run."""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import chernlab

TRACED_CLI = (pathlib.Path(__file__).resolve().parent.parent
              / "perfbench" / "traced_cli.py")


def _chernlab_modules():
    return [chernlab] + [importlib.import_module(f"chernlab.{info.name}")
                         for info in pkgutil.iter_modules(chernlab.__path__)]


def _traced_names():
    tree = ast.parse(TRACED_CLI.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in traced_cli.py")


def test_every_export_resolves():
    modules = _chernlab_modules()
    assert modules
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    namespace = {}
    exec("from chernlab import *", namespace)
    assert set(chernlab.__all__) <= set(namespace)


# What the tracer does first: import chernlab.cli, then look every traced
# module up in sys.modules, in an interpreter that has imported nothing else.
TRACER_LOOKUP = """
import json, sys
import chernlab.cli
missing = []
for qualified in json.loads(sys.argv[1]):
    module_name, attr = qualified.split(".")
    module = sys.modules.get("chernlab." + module_name)
    if not callable(getattr(module, attr, None)):
        missing.append(qualified)
print(json.dumps(missing))
"""


def test_every_traced_function_resolves():
    traced = _traced_names()
    assert traced
    src = pathlib.Path(chernlab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", TRACER_LOOKUP, json.dumps(list(traced))],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []
