"""Every name a module lists in ``__all__`` must exist in that module."""

import importlib

import pytest

MODULES = ("characteristics", "cli", "criteria", "directing", "empirics", "measures", "mixtures", "stable")


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(f"stablemix.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"stablemix.{module_name}.__all__ lists missing names {missing}"
