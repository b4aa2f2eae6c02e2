"""Every name a locarray module exports in __all__ exists on that module (cli has no __all__)."""

import importlib
import pkgutil

import pytest

import locarray

MODULES = ["locarray"] + [f"locarray.{m.name}" for m in pkgutil.iter_modules(locarray.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
