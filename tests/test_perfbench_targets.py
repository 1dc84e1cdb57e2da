"""The benchmark's per-layer trace (perfbench/run.py --trace 1) wraps names
that mimolink's modules look up when they call into another layer. A name
that a change deletes or renames would break the trace, so every one of
them must stay an attribute of its module, and a traced run must still
write the bytes of an untraced one."""

import ast
import importlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def _unused_imports() -> set[tuple[str, str]]:
    """(module, name) of every name that an import marked `# noqa: F401`
    binds in src/mimolink/*.py."""
    found = set()
    for path in sorted((ROOT / "src" / "mimolink").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                found |= {(path.stem, alias.asname or alias.name) for alias in node.names}
    return found


def test_unused_imports_are_traced_names():
    """An import kept unused (# noqa: F401) exists only for the trace to
    wrap, so it must name an attribute that _TARGETS wraps in that module;
    once the trace stops wrapping it, the import is dead and this fails."""
    wrapped = {(mod, attr) for mod, attr, _, _ in _load_tracing()._TARGETS}
    assert _unused_imports() - wrapped == set()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--workers 2 needs two CPUs")
def test_traced_pool_run_writes_the_untraced_csv(tmp_path, monkeypatch):
    """A traced run through the process pool writes the CSV of an untraced
    run byte for byte, and the spans that the workers record reach the
    tracer with their tasks' results."""
    import mimolink
    import mimolink.cli

    tracing = _load_tracing()
    # The workers pickle their results' _Shipped class by module name.
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)
    argv = [
        "fer-vs-doppler", "--code", "2x1", "--nr", "2", "--fading", "rician", "--los-doppler-hz", "100",
        "--dopplers", "25,100", "--gain-db", "-8", "--frame-bits", "24", "--max-frames", "40",
        "--target-errors", "1000", "--workers", "2",
    ]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert mimolink.cli.main([*argv, "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed(mimolink):
        assert mimolink.cli.main([*argv, "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    worker_spans = {span[1] for span in tracer.spans if tracing.span_pid(span) != os.getpid()}
    assert {"fading.fading_next", "channel.apply_channel"} <= worker_spans


def test_traced_gain_run_writes_the_untraced_csv(tmp_path):
    """A traced serial fer-vs-gain run writes the bytes of an untraced one,
    and its gain prefix reaches the channel through apply_channel, whose
    spans give channel.apply_s and channel.mix_s."""
    import mimolink
    import mimolink.cli

    tracing = _load_tracing()
    argv = [
        "fer-vs-gain", "--code", "2x1", "--nr", "2", "--gain-db=-8,-4", "--frame-bits", "24",
        "--max-frames", "40", "--target-errors", "1000",
    ]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert mimolink.cli.main([*argv, "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed(mimolink):
        assert mimolink.cli.main([*argv, "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    spans = ("channel.apply_channel", "channel.channel_matrix_at")
    assert set(spans) <= {rec[1] for rec in tracer.spans}
    assert [tracing.LAYER_OF_SPAN[span] for span in spans] == ["channel.apply_s", "channel.mix_s"]


def test_traced_validate_run_writes_the_untraced_csv(tmp_path):
    """A traced validate-fading run writes the bytes of an untraced one,
    and the samples that its fading.fading_next spans record, the second
    argument of each call, sum to the run's sample count."""
    import mimolink
    import mimolink.cli

    tracing = _load_tracing()
    argv = ["validate-fading", "--samples", "100000"]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert mimolink.cli.main([*argv, "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed(mimolink):
        assert mimolink.cli.main([*argv, "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    samples = [rec[6] for rec in tracer.spans if rec[1] == "fading.fading_next"]
    assert len(samples) > 1 and sum(samples) == 100_000
    assert tracing.layer_table(tracer.spans)["fading.samples"] == 100_000


@pytest.mark.parametrize("detector", ["zf", "mmse", "ml"])
def test_traced_detector_run_writes_the_untraced_csv(tmp_path, detector):
    """A traced ber-vs-snr run writes the bytes of an untraced one, and the
    trace records the detector's spans, which give detect.*_s."""
    import mimolink
    import mimolink.cli

    tracing = _load_tracing()
    argv = [
        "ber-vs-snr", "--detector", detector, "--nt", "2", "--nr", "2", "--snr-db", "0,10",
        "--frame-bits", "16", "--max-frames", "12", "--target-errors", "1000",
    ]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert mimolink.cli.main([*argv, "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed(mimolink):
        assert mimolink.cli.main([*argv, "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    span = f"detect.{detector}_detect_batch"
    assert tracing.LAYER_OF_SPAN[span] == f"detect.{detector}_s"
    assert span in {rec[1] for rec in tracer.spans}
