"""Every public name of the package and of its modules resolves.

Tools that wrap the public functions (``perfbench/tracer.py``) read each
module's ``__all__``, so a stale entry would break them at install time.
"""

import importlib
import pkgutil

import pytest

import adiaframe

MODULES = ["adiaframe"] + [f"adiaframe.{info.name}" for info in pkgutil.iter_modules(adiaframe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [public for public in getattr(module, "__all__", []) if not hasattr(module, public)]
    assert missing == []
