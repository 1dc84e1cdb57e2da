"""Benchmark of the mimolink command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports mimolink from
``src/`` there and exits non-zero, printing no result, if there is none.

One operation runs a workload's mimolink commands in this process through
``mimolink.cli.main(argv)``, with ``--seed N`` appended, exactly as a user
runs them. After one untimed warm-up, operations repeat, closed loop, until
S seconds have passed. Single-process workloads pin each operation to the
next CPU in turn and average each round over the CPUs, because the host's
CPUs drift in speed independently; each metric is the median over the
rounds of the run. Times are rescaled to a reference host speed by the
calibration kernel run on the same CPU just before and after each
operation (for the pool workload, on every CPU in turn; see
calibrate.py); the times as measured are printed, kept in result.json as
"unadjusted" and reported as calib.* metrics by ``--trace 1``.

Every operation's CSVs are checked byte for byte. At the default seed the
reference is the pinned sha256 of each CSV (for ``fer-doppler-rician-w2``
taken from a ``--workers 1`` run, so every run also checks that the worker
count changes nothing). At any other seed the reference is the first
operation, or for that workload a ``--workers 1`` run made before timing.
An operation whose CSVs differ, or break the stopping rule or the fading
statistics, is counted in ``failed`` (the csv_mismatch count).

``--trace 0`` reports the end-to-end metrics:
    wall_s            time from the call into cli.main until its CSV is written
    throughput_per_s  frames reported in the CSVs per wall second; fading
                      samples per second for validate-fading-1m
    cpu_s             CPU time of this process plus its reaped children
    peak_rss_mib      peak RSS of this process plus that of its largest child,
                      up to the end of the warm-up operation
    setup_s           fresh interpreter to first frame (import, argv parse,
                      config validation), median of SETUP_PROBES rounds,
                      rescaled by a fresh interpreter importing numpy

``--trace 1`` alternates untraced and traced operations and reports the
per-layer table of ``tracing.layer_table``, the tracing overhead (traced
minus untraced median wall time) and the unattributed remainders: traced
wall time minus the sum of this process's span self times
(trace.unattributed_s; cli.main is itself a span, so this is only the
time outside it), and for the pool workload workers x wall time minus
the sum of the workers' span self times (sim.pool_unattributed_s: idle
workers, task dispatch and pickling). Traced CSVs must equal the
reference bytes too.

Results, the manifest and the spans of the first traced operation are
written under ``.perfbench-out/`` in the checkout.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Pinned before numpy loads, so that 4x4 solve/eigh calls start no BLAS or
# OpenMP threads beyond the benchmark's own processes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from calibrate import REFERENCE_S, REFERENCE_START_S, START_KERNEL, kernel_s  # noqa: E402
from tracing import Tracer, layer_table, self_times, span_pid  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PROBE = HERE / "probe.py"

DEFAULT_SEED = 1
SETUP_PROBES = 6  # per CPU


@dataclass(frozen=True)
class Workload:
    """mimolink commands run as one operation.

    legs are argv lists for cli.main without --seed and --out; pinned holds
    the sha256 of each leg's CSV at DEFAULT_SEED. reference_legs, if set,
    produce the reference bytes at other seeds.
    """

    name: str
    legs: tuple
    pinned: tuple
    workers: int = 1
    reference_legs: tuple | None = None


_DOPPLER = (
    "fer-vs-doppler", "--code", "2x1", "--nr", "2", "--fading", "rician", "--k", "4",
    "--los-doppler-hz", "100", "--correlation", "high", "--dopplers", "25,50,100",
    "--gain-db", "-5", "--target-errors", "1000000000", "--max-frames", "1024",
)
_BER = (
    "ber-vs-snr", "--nt", "4", "--nr", "4", "--snr-db", "0:10:20",
    "--target-errors", "1000000000", "--max-frames", "512", "--detector",
)

# Why these four: fer-gain-rayleigh is the paper's main experiment and the
# only one where the error target stops sweep points (frames simulated past
# the cut show in throughput); fer-doppler-rician-w2 runs the same layers
# with fewer links, the Rician LOS term and the process pool, at a fixed
# frame count; ber-4x4-detectors bypasses fading, channel and stbc and
# loads the detectors; validate-fading-1m is one long fading stream.
WORKLOADS = {w.name: w for w in [
    Workload(
        "fer-gain-rayleigh",
        legs=((
            "fer-vs-gain", "--code", "4x3/4", "--nr", "4", "--correlation", "low",
            "--gain-db", "-12:4:0", "--snr-db", "10", "--target-errors", "48",
            "--max-frames", "192", "--workers", "1",
        ),),
        pinned=(
            "bf5e29fe87c7de3819e97471d7359746ded1c983c9397531e54c2ecf46fb4810",
        ),
    ),
    Workload(
        "fer-doppler-rician-w2",
        legs=((*_DOPPLER, "--workers", "2"),),
        pinned=(
            "0b930efec0061041b55113c1e60aed9a344be6405f9e990a2f544354c5dec547",
        ),
        workers=2,
        reference_legs=((*_DOPPLER, "--workers", "1"),),
    ),
    Workload(
        "ber-4x4-detectors",
        legs=tuple((*_BER, d) for d in ("zf", "mmse", "ml")),
        pinned=(
            "a0bbafef411fa2cb2dc3ff1b4e250b40318537a1172524dec5e81038e40adbd9",
            "e8b67fcc08f44f2afb10bf7648f94eff4afd290d3560242723294108f39e7f8d",
            "57ddc6c556a1ba399640bd3eff1271f2885daef62a480bdbcdd525e609828dd0",
        ),
    ),
    Workload(
        "validate-fading-1m",
        legs=((
            "validate-fading", "--doppler-hz", "100", "--sample-rate-hz", "256",
            "--samples", "1000000",
        ),),
        pinned=(
            "b5908f5a350e7467795461a7f8a0242962af3664fe36b9c14d3fcba818599f15",
        ),
    ),
]}


@dataclass
class Op:
    """One operation: every leg of a workload, run once."""

    traced: bool
    wall_s: float = 0.0
    parent_cpu_s: float = 0.0
    child_cpu_s: float = 0.0
    texts: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    spans: list | None = None
    kernel_s: float = REFERENCE_S  # calibration kernel time around the op

    @property
    def cpu_s(self) -> float:
        return self.parent_cpu_s + self.child_cpu_s

    @property
    def speed(self) -> float:
        """Factor that rescales this op's times to the reference host speed."""
        return REFERENCE_S / self.kernel_s

    @property
    def digests(self) -> tuple:
        return tuple(hashlib.sha256(t.encode()).hexdigest() for t in self.texts)


def load_mimolink():
    """Import mimolink from the checkout's src/ and nowhere else."""
    if not (SRC / "mimolink" / "cli.py").is_file():
        sys.exit(f"perfbench: no mimolink source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import mimolink
    import mimolink.cli  # noqa: F401

    if not Path(mimolink.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: mimolink was imported from {mimolink.__file__}, not {SRC}")
    return mimolink


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_op(mimolink, legs, seed: int, outdir: Path, tracer: Tracer | None = None) -> Op:
    """Run every leg once through cli.main; time and collect its CSVs."""
    op = Op(traced=tracer is not None)
    gc.collect()
    installed = tracer.installed(mimolink) if tracer else contextlib.nullcontext()
    with installed, contextlib.redirect_stdout(io.StringIO()):
        for i, leg in enumerate(legs):
            out = outdir / f"leg{i}.csv"
            out.unlink(missing_ok=True)
            argv = [*leg, "--seed", str(seed), "--out", str(out)]
            main = tracer.wrap("cli.main", mimolink.cli.main) if tracer else mimolink.cli.main
            self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            t0 = perf_counter()
            rc = main(argv)
            op.wall_s += perf_counter() - t0
            op.parent_cpu_s += _cpu(resource.RUSAGE_SELF) - self0
            op.child_cpu_s += _cpu(resource.RUSAGE_CHILDREN) - kids0
            if rc != 0:
                op.problems.append(f"{leg[0]} exited with {rc}")
            op.texts.append(out.read_text() if out.is_file() else "")
    if tracer:
        op.spans = tracer.spans
    return op


def _parse_csv(text: str) -> tuple[dict, list]:
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, map(float, line.split(",")))))
    return meta, rows


def reported(text: str) -> tuple[int, int]:
    """(frames, fading samples) that a CSV reports; zeros if it is malformed."""
    try:
        meta, rows = _parse_csv(text)
        if meta.get("experiment") == "validate_fading":
            return 0, int(meta["samples"])
        return int(sum(r["frames"] for r in rows)), 0
    except (ValueError, KeyError):
        return 0, 0


def sanity(text: str, seed: int) -> list[str]:
    """Checks that hold for a correct CSV at any seed."""
    if not text:
        return ["no CSV written"]
    try:
        return _sanity(*_parse_csv(text), seed)
    except (ValueError, KeyError) as exc:
        return [f"malformed CSV: {exc!r}"]


def _sanity(meta: dict, rows: list, seed: int) -> list[str]:
    problems = []
    if meta.get("master_seed") != str(seed):
        problems.append(f"CSV echoes seed {meta.get('master_seed')}, not {seed}")
    if meta.get("experiment") == "validate_fading":
        ks = float(meta["ks_statistic"])
        power = float(meta["empirical_mean_power"])
        if not (ks < 0.05 and abs(power - 1.0) < 0.05 and rows and rows[0]["autocorr_empirical"] == 1.0):
            problems.append(f"fading statistics off: ks={ks} mean power={power}")
        return problems
    target, cap = int(meta["target_frame_errors"]), int(meta["max_frames"])
    frame_bits = int(meta["frame_bits"])
    for r in rows:
        frames, errors = int(r["frames"]), int(r["frame_errors"])
        stopped = errors == target or frames == cap
        if not (1 <= frames <= cap and errors <= min(frames, target) and stopped
                and r["bits"] == frames * frame_bits and r["bit_errors"] <= r["bits"]):
            problems.append(f"row x={r['x']} breaks the stopping rule or its counts")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _openblas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(workload: Workload, seed: int) -> dict:
    import numpy

    tree = hashlib.sha256()
    for path in sorted((SRC / "mimolink").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _started_s(argv: list, env: dict) -> float:
    """Time from starting a fresh interpreter until it prints its
    perf_counter (the clock is CLOCK_MONOTONIC, shared by processes)."""
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def setup_times(workload: Workload, seed: int, outdir: Path, cpus: list) -> tuple[list, list]:
    """Fresh interpreter to first frame, SETUP_PROBES times on each CPU,
    each probe just after a start of the calibration interpreter on the
    same CPU. Returns the mean over the CPUs of each round of probes, as
    measured and rescaled to the reference host speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [*workload.legs[0], "--seed", str(seed), "--out", str(outdir / "probe.csv")]
    times, adjusted = [], []
    for i in range(SETUP_PROBES * len(cpus)):
        with _on_cpu(cpus[i % len(cpus)]):
            start_s = _started_s([sys.executable, "-c", START_KERNEL], env)
            times.append(_started_s([sys.executable, str(PROBE), *argv], env))
        adjusted.append(times[-1] * REFERENCE_START_S / start_s)
    return _group_means(times, len(cpus)), _group_means(adjusted, len(cpus))


@contextlib.contextmanager
def _on_cpu(cpu: int | None):
    """Pin this process (and what it starts) to one CPU for the block."""
    if cpu is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _group_means(values: list[float], n: int) -> list[float]:
    """Means of consecutive groups of n values, one value per CPU."""
    return [statistics.fmean(values[i:i + n]) for i in range(0, len(values) - n + 1, n)]


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one.
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + kids_kib) / 1024.0


def _layers(op: Op, workload: Workload) -> dict:
    table = layer_table(op.spans)
    frames = sum(reported(t)[0] for t in op.texts)
    simulated = table["sim.frames_simulated"]
    # The remainders are taken per side: this process's spans against its
    # wall time, and the pool workers' spans, which run in parallel,
    # against the time the workers had (workers x wall time).
    own = [s for s in op.spans if span_pid(s) == os.getpid()]
    pooled = [s for s in op.spans if span_pid(s) != os.getpid()]
    table.update({
        "sim.frames_reported": frames,
        "sim.useful_frame_ratio": frames / simulated if simulated else 1.0,
        "sim.parent_cpu_s": op.parent_cpu_s,
        "sim.pool_busy_ratio": op.child_cpu_s / (workload.workers * op.wall_s),
        "sim.pool_unattributed_s": (workload.workers * op.wall_s - sum(self_times(pooled))
                                    if workload.workers > 1 else 0.0),
        "trace.unattributed_s": op.wall_s - sum(self_times(own)),
    })
    return table


def _kernel_s(cpus: list) -> float:
    """Calibration kernel time, the mean over the given CPUs, each pinned
    in turn."""
    times = []
    for cpu in cpus:
        with _on_cpu(cpu):
            times.append(kernel_s())
    return statistics.fmean(times)


def measure(mimolink, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run operations for `seconds` and summarize them."""
    deadline = perf_counter() + seconds
    outdir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    outdir.mkdir(parents=True, exist_ok=True)
    reference = workload.pinned if seed == DEFAULT_SEED else None
    if reference is None and workload.reference_legs:
        reference = run_op(mimolink, workload.reference_legs, seed, outdir).digests

    def check(op: Op) -> Op:
        if op.digests != reference:
            op.problems.append("CSV bytes differ from the reference")
        for text in op.texts:
            op.problems += sanity(text, seed)
        return op

    # One untimed operation first, so that lazy imports and allocator growth
    # are not charged to the first timed one; it is checked like the rest.
    warmup = run_op(mimolink, workload.legs, seed, outdir)
    # Taken before the calibration kernel first runs, whose arrays would
    # otherwise set the high-water mark of the smaller workloads.
    peak_rss = _peak_rss_mib()
    if reference is None:
        reference = warmup.digests
    ops: list[Op] = [check(warmup)]
    layers: list[dict] = []
    first_spans = None
    # The host's CPUs run at different, drifting speeds (other machines'
    # work shares them), and the scheduler may keep a process on either one
    # for a whole run. So single-process operations visit every CPU in turn
    # -- as untraced/traced pairs when tracing -- and the loop ends on a
    # whole round. Pool workloads use every CPU at once and stay unpinned;
    # their calibration kernel runs on every CPU in turn.
    cpus = sorted(os.sched_getaffinity(0))
    rotation = cpus if workload.workers == 1 else [None]
    per_cpu = 2 if trace else 1
    round_ops = per_cpu * len(rotation)
    k = 0
    while k < round_ops or k % round_ops or perf_counter() < deadline:
        traced = trace and k % 2 == 1
        cpu = rotation[(k // per_cpu) % len(rotation)]
        calibrated = cpus if cpu is None else [cpu]
        with _on_cpu(cpu):
            before = _kernel_s(calibrated)
            op = check(run_op(mimolink, workload.legs, seed, outdir, Tracer() if traced else None))
            op.kernel_s = (before + _kernel_s(calibrated)) / 2
        k += 1
        if traced:
            layers.append(_layers(op, workload))
            if first_spans is None:
                first_spans = op.spans
            op.spans = None
        ops.append(op)

    timed = ops[1:]
    plain = [op for op in timed if not op.traced]

    def rounds(values):
        return quartiles(_group_means(values, len(rotation)))

    unadjusted = {"kernel_s": rounds([op.kernel_s for op in plain])}
    if trace:
        summary = {name: quartiles([t[name] for t in layers]) for name in layers[0]}
        overhead = (statistics.median(op.wall_s for op in timed if op.traced)
                    - statistics.median(op.wall_s for op in plain))
        summary["trace.overhead_s"] = (overhead,) * 3
        # The untraced operations' times as measured, and the calibration
        # kernel time that rescales them in the end-to-end metrics.
        summary["calib.kernel_s"] = unadjusted["kernel_s"]
        summary["calib.wall_unadjusted_s"] = rounds([op.wall_s for op in plain])
        summary["calib.cpu_unadjusted_s"] = rounds([op.cpu_s for op in plain])
    else:
        def items(op):
            return sum(sum(reported(t)) for t in op.texts)

        setup, setup_adjusted = setup_times(workload, seed, outdir, cpus)
        summary = {
            "wall_s": rounds([op.wall_s * op.speed for op in plain]),
            "throughput_per_s": rounds([items(op) / (op.wall_s * op.speed) for op in plain]),
            "cpu_s": rounds([op.cpu_s * op.speed for op in plain]),
            "peak_rss_mib": (peak_rss,) * 3,
            "setup_s": quartiles(setup_adjusted),
        }
        unadjusted.update({
            "wall_s": rounds([op.wall_s for op in plain]),
            "throughput_per_s": rounds([items(op) / op.wall_s for op in plain]),
            "cpu_s": rounds([op.cpu_s for op in plain]),
            "setup_s": quartiles(setup),
        })

    failed = sum(1 for op in ops if op.problems)
    result = {
        "manifest": manifest(workload, seed),
        "operations": [
            {"traced": op.traced, "wall_s": op.wall_s, "cpu_s": op.cpu_s,
             "kernel_s": op.kernel_s, "digests": list(op.digests), "problems": op.problems}
            for op in ops
        ],
        "summary": {k: dict(zip(("q1", "median", "q3"), v)) for k, v in summary.items()},
        "unadjusted": {k: dict(zip(("q1", "median", "q3"), v)) for k, v in unadjusted.items()},
        "attempted": len(ops),
        "failed": failed,
    }
    (outdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    if first_spans is not None:
        (outdir / "spans.json").write_text(json.dumps(first_spans))
    return result


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in benchmark[key]}


def report(result: dict, unit_of: dict) -> dict:
    """The result line: medians with their units, and the failure count."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": q["median"], "unit": unit_of[name]}
                    for name, q in result["summary"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    unit_of = units()
    mimolink = load_mimolink()
    workload = WORKLOADS[args.workload]
    result = measure(mimolink, workload, args.seed, args.seconds, bool(args.trace))

    print("manifest " + json.dumps(result["manifest"]))
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} operations, {result['failed']} csv_mismatch")
    for op in result["operations"]:
        if op["problems"]:
            print("  failed: " + "; ".join(op["problems"]))
    rows = [(name, q, unit_of[name]) for name, q in result["summary"].items()]
    rows += [(f"unadjusted {name}", q, unit_of.get(name, "s"))
             for name, q in result["unadjusted"].items()]
    for name, q, unit in rows:
        print(f"  {name:26s} median {q['median']:<14.6g} q1 {q['q1']:<12.6g} "
              f"q3 {q['q3']:<12.6g} {unit}")
    print(json.dumps(report(result, unit_of)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
