"""Every name a module of the package exports exists."""

import importlib
import pkgutil

import pytest

import splitflow

MODULES = ["splitflow"] + [f"splitflow.{info.name}"
                           for info in pkgutil.iter_modules(splitflow.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
