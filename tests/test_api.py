"""Public API: every exported name resolves."""

import importlib
import pkgutil

import pytest

import flowcast

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(flowcast.__path__))


@pytest.mark.parametrize("module_name", ["flowcast"] + [f"flowcast.{m}" for m in SUBMODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{module_name} has no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
