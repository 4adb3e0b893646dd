"""Names that other code looks up by string must exist: each module's
``__all__``, the package's included, and the functions that
``perfbench/traced_cli.py`` wraps with ``getattr``.  A deletion that leaves
either stale fails here, not in a benchmark run."""

import ast
import importlib
import pathlib
import pkgutil

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


def test_every_traced_function_resolves():
    traced = _traced_names()
    assert traced
    for qualified in traced:
        module_name, attr = qualified.split(".")
        module = importlib.import_module(f"chernlab.{module_name}")
        assert callable(getattr(module, attr, None)), qualified
