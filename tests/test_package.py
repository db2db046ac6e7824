"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import viscowave

MODULES = ["viscowave"] + [f"viscowave.{m.name}" for m in pkgutil.iter_modules(viscowave.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its deletion breaks ``from module import *``.
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
