"""Every name a module lists in ``__all__`` must exist in that module, and
every name the package imports from a module must be in that module's
``__all__``."""

import ast
import importlib
from pathlib import Path

import pytest

import stablemix

MODULES = ("characteristics", "cli", "criteria", "directing", "empirics", "measures", "mixtures", "stable")


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(f"stablemix.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"stablemix.{module_name}.__all__ lists missing names {missing}"


def _package_imports():
    """(module, names) for each relative import in ``stablemix/__init__.py``."""
    tree = ast.parse(Path(stablemix.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, [alias.name for alias in node.names])
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def test_package_imports_are_listed():
    imports = _package_imports()
    assert {module for module, _ in imports} <= set(MODULES) and len(imports) >= 7
    for module_name, names in imports:
        listed = importlib.import_module(f"stablemix.{module_name}").__all__
        unlisted = [name for name in names if name not in listed]
        assert not unlisted, f"stablemix imports {unlisted} from {module_name}, whose __all__ omits them"
