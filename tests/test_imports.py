"""Every submodule imports on its own, with nothing of the package loaded.

Importing ``primflat.<name>`` runs the package ``__init__`` first, which
fixes one import order.  Each check here instead registers a bare package
object and imports one submodule first, in a fresh interpreter, so an import
cycle that ``__init__`` happens to hide still fails.

Each submodule, and each test module here, also binds no module-level import
name that it never reads.
"""

import ast
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
