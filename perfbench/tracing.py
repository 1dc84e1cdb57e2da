"""Outside-in spans around calls into mimolink's modules.

A traced operation replaces module-level names in the *calling* module's
namespace (for example ``mimolink.channel.fading_next``, the name that
``channel_matrix_at`` looks up) with wrappers that record a span per call.
The names are restored when the operation ends, and no file of the program
is changed.

A span is ``(id, name, start, end, parent_id, frame_id, arg, error)``:
times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans
from pool workers share the parent's time base); every span recorded while
``run_frame`` runs carries that frame's span id; ``arg`` is a per-call size
(samples asked of ``fading_next``, the ``(n, rho)`` of a correlation
matrix); ``error`` names the exception that left the call, if any.

Spans stay in memory. Pool workers are forked while the names are wrapped,
so they record spans too, and ship them back with each task's result.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import defaultdict
from time import perf_counter

# Span name -> per-layer metric that receives its self time.
LAYER_OF_SPAN = {
    "cli.main": "cli.s",
    "sim.run_experiment": "sim.engine_s",
    "sim.emit_csv": "sim.emit_csv_s",
    "sim.run_frame": "sim.frame_self_s",
    "modem.bernoulli_bits": "modem.s",
    "modem.qpsk_modulate": "modem.s",
    "modem.qpsk_demodulate": "modem.s",
    "stbc.encode_array": "stbc.encode_s",
    "stbc.combine_array": "stbc.combine_s",
    "channel.channel_init": "channel.init_s",
    "channel.correlation_matrix": "channel.init_s",
    "channel.apply_channel": "channel.apply_s",
    "channel.channel_matrix_at": "channel.mix_s",
    "fading.fading_init": "fading.init_s",
    "fading.fading_next": "fading.next_s",
    "fading.validate_process": "fading.validate_s",
    "numerics.RngStream": "numerics.rng_stream_s",
    "detect.zf_detect_batch": "detect.zf_s",
    "detect.mmse_detect_batch": "detect.mmse_s",
    "detect.ml_detect_batch": "detect.ml_s",
}


def _second(*args, **kwargs):
    return args[1]


def _first_two(*args, **kwargs):
    return args[0], args[1]


# (module, attribute, span name, arg extractor). Each entry is a name the
# module looks up when it calls into another layer.
_TARGETS = [
    ("cli", "run_experiment", "sim.run_experiment", None),
    ("cli", "emit_csv", "sim.emit_csv", None),
    ("cli", "fading_init", "fading.fading_init", None),
    ("cli", "validate_process", "fading.validate_process", None),
    ("cli", "RngStream", "numerics.RngStream", None),
    ("sim", "bernoulli_bits", "modem.bernoulli_bits", None),
    ("sim", "qpsk_modulate", "modem.qpsk_modulate", None),
    ("sim", "qpsk_demodulate", "modem.qpsk_demodulate", None),
    ("sim", "encode_array", "stbc.encode_array", None),
    ("sim", "combine_array", "stbc.combine_array", None),
    ("sim", "channel_init", "channel.channel_init", None),
    ("sim", "apply_channel", "channel.apply_channel", None),
    ("sim", "zf_detect_batch", "detect.zf_detect_batch", None),
    ("sim", "mmse_detect_batch", "detect.mmse_detect_batch", None),
    ("sim", "ml_detect_batch", "detect.ml_detect_batch", None),
    ("sim", "RngStream", "numerics.RngStream", None),
    ("channel", "fading_init", "fading.fading_init", None),
    ("channel", "fading_next", "fading.fading_next", _second),
    ("channel", "correlation_matrix", "channel.correlation_matrix", _first_two),
    ("channel", "channel_matrix_at", "channel.channel_matrix_at", None),
    ("fading", "fading_next", "fading.fading_next", _second),
    ("numerics", "RngStream", "numerics.RngStream", None),
]


class _Shipped(list):
    """A worker's task result, carrying the spans the task recorded."""

    spans: list


class Tracer:
    """Records spans for one traced operation."""

    def __init__(self):
        self.owner = os.getpid()
        self.stack: list[int] = []
        self.frame: int | None = None
        self._start_process(self.owner)

    def _start_process(self, pid: int) -> None:
        # Span ids carry the pid in their high bits (see span_pid), so ids
        # from the parent and from every worker never collide.
        self.pid = pid
        self.next_id = pid << 32
        self.spans: list[tuple] = []

    def wrap(self, name, fn, arg=None, frame=False):
        """Return fn wrapped so that every call records one span."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            if frame:
                tracer.frame = sid
            err = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((
                    sid, name, t0, t1, parent, tracer.frame,
                    arg(*args, **kwargs) if arg else None, err,
                ))
                if frame:
                    tracer.frame = None

        return functools.update_wrapper(traced, fn, updated=())

    def _task(self, fn):
        # Wraps sim._simulate_range. In a pool worker it ships the task's
        # spans back inside the result; in the owning process it is a
        # plain call. functools.update_wrapper keeps the name and module,
        # so the pool pickles the wrapper by reference to sim._simulate_range.
        tracer = self

        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid == tracer.owner:
                return fn(*args, **kwargs)
            if tracer.pid != pid:
                tracer._start_process(pid)  # drop what the fork copied
            shipped = _Shipped(fn(*args, **kwargs))
            shipped.spans, tracer.spans = tracer.spans, []
            return shipped

        return functools.update_wrapper(traced, fn, updated=())

    def _pool(self, cls):
        tracer = self

        class TracedPool(cls):
            def map(self, fn, *iterables, **kwargs):
                for part in super().map(fn, *iterables, **kwargs):
                    tracer.spans.extend(getattr(part, "spans", ()))
                    yield part

        return TracedPool

    @contextlib.contextmanager
    def installed(self, mimolink):
        """Wrap the layer-boundary names of the given mimolink package for
        the duration of the with block, then put the originals back."""
        modules = {name: getattr(mimolink, name)
                   for name in ("cli", "sim", "channel", "fading", "numerics")}
        sim = modules["sim"]
        wrappers = [
            (modules[mod], attr, self.wrap(span, getattr(modules[mod], attr), arg))
            for mod, attr, span, arg in _TARGETS
        ]
        wrappers += [
            (sim, "run_frame", self.wrap("sim.run_frame", sim.run_frame, frame=True)),
            (sim, "_simulate_range", self._task(sim._simulate_range)),
            (sim, "ProcessPoolExecutor", self._pool(sim.ProcessPoolExecutor)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in wrappers]
        try:
            for module, attr, wrapper in wrappers:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_pid(span) -> int:
    """The process that recorded a span."""
    return span[0] >> 32


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover. Children from pool workers may overlap each other,
    so the covered part is the length of their union."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = []
    for sid, _, t0, t1, *_ in spans:
        kids = children.get(sid)
        out.append((t1 - t0) - (_covered(kids, t0, t1) if kids else 0.0))
    return out


def layer_table(spans) -> dict[str, float]:
    """Per-layer self times and counts of one traced operation."""
    table = defaultdict(float)
    for metric in LAYER_OF_SPAN.values():
        table[metric] = 0.0
    counts = defaultdict(int)
    samples = 0
    corr_pairs = set()
    failures = 0
    for span, self_s in zip(spans, self_times(spans)):
        name, arg, err = span[1], span[6], span[7]
        table[LAYER_OF_SPAN[name]] += self_s
        counts[name] += 1
        if name == "fading.fading_next":
            samples += arg
        elif name == "channel.correlation_matrix":
            corr_pairs.add(arg)
        elif name.startswith("detect.") and err == "DetectionFailure":
            failures += 1
    corr_calls = counts["channel.correlation_matrix"]
    table.update({
        "fading.next_calls": counts["fading.fading_next"],
        "fading.samples": samples,
        "fading.samples_per_s": samples / table["fading.next_s"] if samples else 0.0,
        "fading.init_calls": counts["fading.fading_init"],
        "channel.corr_matrices": corr_calls,
        "channel.corr_useful_ratio": len(corr_pairs) / corr_calls if corr_calls else 0.0,
        "numerics.rng_streams": counts["numerics.RngStream"],
        "detect.failures": failures,
        "sim.frames_simulated": counts["sim.run_frame"],
        "trace.spans": len(spans),
    })
    return dict(table)
