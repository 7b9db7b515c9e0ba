"""The package's export lists name only what exists."""

import importlib
import pkgutil

import pytest

import trimac

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(trimac.__path__))


@pytest.mark.parametrize("name", ["trimac", *(f"trimac.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from trimac import *", namespace)
    assert set(trimac.__all__) <= namespace.keys()
