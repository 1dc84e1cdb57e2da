"""The benchmark's per-layer trace (perfbench/run.py --trace 1) wraps names
that mimolink's modules look up when they call into another layer. A name
that a change deletes or renames would break the trace, so every one of
them must stay an attribute of its module."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_module_attributes():
    targets = [(mod, attr) for mod, attr, _, _ in _load_tracing()._TARGETS]
    targets += [("sim", "run_frame"), ("sim", "_simulate_range"), ("sim", "ProcessPoolExecutor")]
    missing = [
        f"mimolink.{mod}.{attr}"
        for mod, attr in targets
        if not hasattr(importlib.import_module(f"mimolink.{mod}"), attr)
    ]
    assert missing == []
