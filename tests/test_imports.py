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
``__init__`` only the public ``Form`` constructor and ``Form.terms`` name
it, so no internal path builds one.  The library keeps only what it runs:
no module defines the retired test fixtures and ``Poly`` text helpers
(``RETIRED``), ``sampling`` draws no connection, and ``exactness_witness``
takes the complex from its element.
The entry views of a fiber form are boundary views too: outside ``forms``
no package code reads ``.entries`` or ``.flat``, and only ``cli._form_json``
reads ``.nested``, so every other reader goes through the numerators.
Every element has a position, zero included: no package code names a
positionless zero (``ZERO``, ``_ZeroElement``) or stands ``None`` in for a
zero cone element (``Optional[ConeElement]``).  Every element is built at
its grading: no package code names the retired ``_trusted`` or
``_make_minus``, and a position is spelled ``f"P{s}{side}"`` only in
``PrimElement.label`` and ``cohomology.position_label``.
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
POLY_PLACES = {"scalars": None, "forms": {"", "Form.__init__", "Form.terms"}}
# test fixtures that live in tests/oracle.py, and the Poly text helpers that
# parse_form and print_form replace on degree-0 forms
RETIRED = {"rand_connection", "rand_flat_connection", "rand_unipotent", "rand_constant_matrix",
           "parse_poly", "print_poly"}


def _places_where(tree, match, where=""):
    """Qualified names of the definitions whose code holds a node ``match`` accepts."""
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{node.name}" if where else node.name
        if match(node):
            yield where
        yield from _places_where(node, match, inner)


def _places_naming(tree, name, attribute=False):
    """Qualified names of the definitions whose code (not docstrings) names
    ``name``, or only reads it as an attribute when ``attribute`` is set."""
    return _places_where(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == name
        or not attribute and (isinstance(node, ast.Name) and node.id == name
                              or isinstance(node, ast.alias)
                              and name in (node.name, node.asname))))


@pytest.mark.parametrize("name", SUBMODULES)
def test_poly_stays_at_the_boundary(name):
    allowed = POLY_PLACES.get(name, set())
    places = set(_places_naming(ast.parse(SOURCES[name].read_text(encoding="utf-8")), "Poly"))
    assert allowed is None or places <= allowed, sorted(places - allowed)


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_retired_names_are_not_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    defined |= {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert defined & RETIRED == set()


def test_sampling_draws_no_connection():
    tree = ast.parse(SOURCES["sampling"].read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert not {"connection", "primflat.connection"} & modules


def test_exactness_witness_takes_its_complex_from_the_element():
    tree = ast.parse(SOURCES["cohomology"].read_text(encoding="utf-8"))
    [args] = [node.args for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "exactness_witness"]
    assert [arg.arg for arg in args.args] == ["conn", "element", "D_search"]
    assert [ast.literal_eval(default) for default in args.defaults] == [None]
    assert not (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg)


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_every_zero_element_has_a_position(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    for zero in ("ZERO", "_ZeroElement"):
        assert sorted(set(_places_naming(tree, zero))) == [], zero
    assert not re.search(r"Optional\[\s*ConeElement\s*\]", text)


# where a submodule other than forms may read a fiber form's entry views
VIEW_PLACES = {"entries": set(), "flat": set(), "nested": {"cli._form_json"}}


@pytest.mark.parametrize("name", [name for name in SUBMODULES if name != "forms"])
def test_entry_views_stay_at_the_boundary(name):
    tree = ast.parse(SOURCES[name].read_text(encoding="utf-8"))
    for view, allowed in VIEW_PLACES.items():
        places = {f"{name}.{place}" for place in _places_naming(tree, view, attribute=True)}
        assert places <= allowed, (view, sorted(places - allowed))


def _spells_position(node):
    """An f-string with a literal P just before two replacement fields, as in f"P{s}{side}"."""
    parts = node.values if isinstance(node, ast.JoinedStr) else []
    return any(isinstance(a, ast.Constant) and a.value.endswith("P")
               and isinstance(b, ast.FormattedValue) and isinstance(c, ast.FormattedValue)
               for a, b, c in zip(parts, parts[1:], parts[2:]))


@pytest.mark.parametrize("name", SUBMODULES)
def test_elements_are_built_at_their_grading(name):
    tree = ast.parse(SOURCES[name].read_text(encoding="utf-8"))
    named = {getattr(node, field, None) for node in ast.walk(tree)
             for field in ("id", "attr", "name")}
    assert not named & {"_trusted", "_make_minus"}
    places = {f"{name}.{place}" for place in _places_where(tree, _spells_position)}
    assert places <= {"ainfinity.PrimElement.label", "cohomology.position_label"}, places

