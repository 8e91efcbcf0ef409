"""Every export list names only what its module defines, once."""

import importlib
import pkgutil

import pytest

import feddl

MODULES = [feddl] + [
    importlib.import_module(f"feddl.{info.name}") for info in pkgutil.iter_modules(feddl.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_export_list_resolves_without_duplicates(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []
