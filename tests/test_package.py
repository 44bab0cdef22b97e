"""Package-level checks."""

import importlib
import pkgutil

import pytest

import stabdb

MODULES = ["stabdb"] + [
    f"stabdb.{m.name}" for m in pkgutil.iter_modules(stabdb.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
