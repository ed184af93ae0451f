"""Every submodule imports on its own, with nothing of the package loaded.

Importing ``primflat.<name>`` runs the package ``__init__`` first, which
fixes one import order.  Each check here instead registers a bare package
object and imports one submodule first, in a fresh interpreter, so an import
cycle that ``__init__`` happens to hide still fails.
"""

import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

# located without running the package, so a broken import fails one check each
PACKAGE_DIR = Path(find_spec("primflat").submodule_search_locations[0])
SUBMODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first(name):
    code = ("import importlib, sys, types\n"
            "package = types.ModuleType('primflat')\n"
            f"package.__path__ = [{str(PACKAGE_DIR)!r}]\n"
            "sys.modules['primflat'] = package\n"
            f"importlib.import_module('primflat.{name}')\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
