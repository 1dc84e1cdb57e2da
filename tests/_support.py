"""Helpers that only the tests need: a reader of the engine's CSV text and
complex normals drawn from one RngStream. pytest collects no test from
this module (its name does not start with test_)."""

import numpy as np

from mimolink.numerics import RngStream, complex_normal_from


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, float]]]:
    """Parse sim.emit_csv output back into (config echo, data rows).

    Count columns come back as ints, rates as floats; the echo stays as raw
    strings. Inverse of emit_csv up to float formatting.
    """
    meta: dict[str, str] = {}
    rows: list[dict[str, float]] = []
    header: list[str] | None = None
    int_cols = {"frames", "frame_errors", "bits", "bit_errors"}
    for line in filter(None, text.splitlines()):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            values = zip(header, line.split(","))
            rows.append({name: int(raw) if name in int_cols else float(raw) for name, raw in values})
    return meta, rows


def complex_normal(stream: RngStream, shape, var: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex normals with E|z|^2 = var, shaped shape,
    from the stream's next 2 * size uniforms."""
    size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
    return complex_normal_from(stream.uniform(2 * size), var).reshape(shape)
