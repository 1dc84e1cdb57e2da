"""API hygiene: each mimolink module exports only names that it has, and
imports only names that it uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unused_imports(name: str) -> list[str]:
    """The names that module name binds by an import and neither uses nor
    exports in __all__, leaving out __future__ imports and the imports
    marked `# noqa: F401`, which are kept for the benchmark's trace to wrap
    (tests/test_perfbench_targets.py holds each to a traced name)."""
    lines = (Path(mimolink.__path__[0]) / f"{name}.py").read_text().splitlines()
    tree = ast.parse("\n".join(lines))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(f"mimolink.{name}"), "__all__", ()))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        unused += [b for b in bound if b not in used]
    return unused


@pytest.mark.parametrize("name", _MODULES)
def test_every_import_is_used(name):
    """Every name that a module imports is used there or exported, so that
    an import left behind by a moved call fails here; no linter runs on
    this tree."""
    assert _unused_imports(name) == []
