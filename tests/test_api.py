"""API hygiene: each mimolink module exports only names that it has."""

import importlib
import pkgutil

import pytest

import mimolink

_MODULES = sorted(info.name for info in pkgutil.iter_modules(mimolink.__path__))


def test_the_modules_are_found():
    assert {"cli", "detect", "sim"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_is_an_attribute(name):
    """Every name in a module's __all__ is an attribute of that module, so
    that an export left behind by a deleted name fails here."""
    module = importlib.import_module(f"mimolink.{name}")
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
