"""Every name in the ``__all__`` of the package, and of each of its modules
that has one, is bound there: removing a function or class cannot leave a
dangling export behind."""

import importlib
import pkgutil

import pytest

import orbicount

MODULES = [orbicount] + [
    importlib.import_module(f"orbicount.{info.name}")
    for info in pkgutil.iter_modules(orbicount.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_is_bound(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
