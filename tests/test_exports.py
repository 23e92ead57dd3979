"""Every name a tppb module exports in `__all__` exists."""

import importlib
import pkgutil

import pytest

import tppb

MODULES = sorted(info.name for info in pkgutil.iter_modules(tppb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"tppb.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_exporting_modules_found():
    exporting = [name for name in MODULES if hasattr(importlib.import_module(f"tppb.{name}"), "__all__")]
    assert exporting == ["chars", "errors", "groups", "lattice", "tpp"]
