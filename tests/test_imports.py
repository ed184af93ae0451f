"""Every submodule imports on its own, with nothing of the package loaded.

Importing ``primflat.<name>`` runs the package ``__init__`` first, which
fixes one import order.  Each check here instead registers a bare package
object and imports one submodule first, in a fresh interpreter, so an import
cycle that ``__init__`` happens to hide still fails.

Each submodule, and each test module here, also binds no module-level import
name that it never reads.  And every module-level function and class of a
submodule, and every private method of its classes, is named somewhere in
the package, the tests or the benchmark outside its own definition.

``Poly`` is a boundary value: outside ``scalars`` and the package
``__init__`` only the public ``Form`` constructor, ``Form.terms``,
``parse_poly`` and ``print_poly`` name it, so no internal path builds one.
The entry views of a fiber form are boundary views too: outside ``forms``
no package code reads ``.entries`` or ``.flat``, and only ``cli._form_json``
reads ``.nested``, so every other reader goes through the numerators.
"""

import ast
import re
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

# located without running the package, so a broken import fails one check each
PACKAGE_DIR = Path(find_spec("primflat").submodule_search_locations[0])
SUBMODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
# every submodule by name, and every module of this test directory
SOURCES = {**{name: PACKAGE_DIR / f"{name}.py" for name in SUBMODULES},
           **{f"tests/{p.stem}": p for p in sorted(Path(__file__).parent.glob("*.py"))}}
# where a definition may be named: the package, the tests and the benchmark
CORPUS = [p for top in (PACKAGE_DIR.parent, Path(__file__).parent,
                        Path(__file__).parent.parent / "perfbench")
          for p in sorted(top.rglob("*.py"))]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first(name):
    code = ("import importlib, sys, types\n"
            "package = types.ModuleType('primflat')\n"
            f"package.__path__ = [{str(PACKAGE_DIR)!r}]\n"
            "sys.modules['primflat'] = package\n"
            f"importlib.import_module('primflat.{name}')\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _unused_imports(path):
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("name", SOURCES)
def test_no_unused_module_imports(name):
    assert _unused_imports(SOURCES[name]) == []


def _definitions(tree):
    """Module-level functions and classes, and private non-dunder methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, functions)
                        and item.name.startswith("_") and not item.name.endswith("__"))


@pytest.mark.parametrize("name", SUBMODULES)
def test_no_dead_definitions(name):
    path = SOURCES[name]
    text = path.read_text(encoding="utf-8")
    others = [p.read_text(encoding="utf-8") for p in CORPUS if p.resolve() != path.resolve()]
    lines = text.splitlines()
    unnamed = []
    for node in _definitions(ast.parse(text)):
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        outside = "\n".join(lines[:start - 1] + lines[node.end_lineno:])
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        if not any(word.search(source) for source in others + [outside]):
            unnamed.append((node.lineno, node.name))
    assert unnamed == []


# where a submodule may name Poly in code: "" is its module level (the import)
POLY_PLACES = {"scalars": None, "forms": {"", "Form.__init__", "Form.terms"},
               "dsl": {"", "parse_poly", "print_poly"}}


def _places_naming(tree, name, where="", attribute=False):
    """Qualified names of the definitions whose code (not docstrings) names
    ``name``, or only reads it as an attribute when ``attribute`` is set."""
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{node.name}" if where else node.name
        if (isinstance(node, ast.Attribute) and node.attr == name
                or not attribute and (isinstance(node, ast.Name) and node.id == name
                                      or isinstance(node, ast.alias)
                                      and name in (node.name, node.asname))):
            yield where
        yield from _places_naming(node, name, inner, attribute)


@pytest.mark.parametrize("name", SUBMODULES)
def test_poly_stays_at_the_boundary(name):
    allowed = POLY_PLACES.get(name, set())
    places = set(_places_naming(ast.parse(SOURCES[name].read_text(encoding="utf-8")), "Poly"))
    assert allowed is None or places <= allowed, sorted(places - allowed)


# where a submodule other than forms may read a fiber form's entry views
VIEW_PLACES = {"entries": set(), "flat": set(), "nested": {"cli._form_json"}}


@pytest.mark.parametrize("name", [name for name in SUBMODULES if name != "forms"])
def test_entry_views_stay_at_the_boundary(name):
    tree = ast.parse(SOURCES[name].read_text(encoding="utf-8"))
    for view, allowed in VIEW_PLACES.items():
        places = {f"{name}.{place}" for place in _places_naming(tree, view, attribute=True)}
        assert places <= allowed, (view, sorted(places - allowed))
