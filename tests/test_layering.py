"""Each data format has one owner module.  Read from the package's source
files: no module imports inside a function body, none imports a private
name of another module, and none reads a private attribute that another
module defines, such as the basis format of ``GroebnerBasis`` (``_lead``,
``_tails``, ``_from_parts``) or the caches of ``Ideal`` (``_gb``,
``_series``).  ``Ideal.cone_cache``, which ``hilbert.tangent_cone`` fills,
is public for that reason.

Rings have one owner too.  ``core`` builds every ring with more variables
than the problem's (``RingContext.adjoin``), and only it reads inside an
order tag: elsewhere a ring's ``order`` is only passed on whole."""

import ast
import pathlib

import pytest

import chernlab

PACKAGE = pathlib.Path(chernlab.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined_attributes(tree):
    """The private attribute names a module's classes define: methods,
    ``__slots__`` entries and attributes assigned in their bodies."""
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store):
                names.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__slots__"
                          for t in node.targets)):
                names.update(ast.literal_eval(node.value))
    return {name for name in names if _private(name)}


OWNED = {module: _defined_attributes(tree)
         for module, tree in MODULES.items()}


def test_the_scan_sees_the_owners():
    assert {"_lead", "_tails", "_from_parts"} <= OWNED["groebner"]
    assert {"_gb", "_series"} <= OWNED["ideals"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_import_inside_a_function(module):
    found = [(node.lineno, ast.unparse(inner))
             for node in ast.walk(MODULES[module])
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_private_name_imported(module):
    found = [(node.lineno, alias.name)
             for node in ast.walk(MODULES[module])
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if _private(alias.name)]
    assert found == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_private_attributes_read_only_by_their_owner(module):
    found = [(node.lineno, node.attr)
             for node in ast.walk(MODULES[module])
             if isinstance(node, ast.Attribute) and _private(node.attr)
             and node.attr not in OWNED[module]]
    assert found == []


def test_the_groebner_engine_does_not_import_ideals():
    imported = {node.module for node in ast.walk(MODULES["groebner"])
                if isinstance(node, ast.ImportFrom) and node.level}
    assert "ideals" not in imported


# the problem's ring, and the ring of the parameters' coordinates
RING_BUILDERS = {("cli", "build_instance"),
                 ("hilbert", "parameter_coordinates")}


def _calls_of(tree, name):
    """(innermost enclosing function or None, line) of every call of
    ``name``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"core"}))
def test_rings_are_built_by_core(module):
    found = [(function, line)
             for function, line in _calls_of(MODULES[module], "RingContext")
             if (module, function) not in RING_BUILDERS]
    assert found == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"core"}))
def test_only_core_reads_inside_an_order_tag(module):
    tree = MODULES[module]
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    passed_on = (ast.Tuple, ast.List, ast.Dict, ast.keyword)
    found = [(node.lineno, ast.unparse(parent[node]))
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "order"
             and not (isinstance(parent[node], passed_on)
                      or (isinstance(parent[node], ast.Call)
                          and node in parent[node].args))]
    assert found == []
