"""Self-test of the benchmark at a tiny size (under a minute).

    python3 perfbench/selftest.py

Checks that:
  * every workload, shrunk to a few frames, emits every end-to-end metric
    (trace 0) and every per-layer metric (trace 1) of BENCHMARK.json with
    its unit, and passes its own byte check;
  * the byte check fires when a CSV is corrupted, against a pinned digest
    and against the first operation at an unpinned seed;
  * run.py exits non-zero and prints no result in a directory that holds
    only BENCHMARK.json and the benchmark, with no source tree.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

_TINY = {"--max-frames": "8", "--samples": "100000"}


def _shrink(legs):
    out = []
    for leg in legs:
        leg = list(leg)
        for flag, value in _TINY.items():
            if flag in leg:
                leg[leg.index(flag) + 1] = value
        out.append(tuple(leg))
    return tuple(out)


def tiny(workload: run.Workload) -> run.Workload:
    return replace(
        workload,
        legs=_shrink(workload.legs),
        pinned=(),
        reference_legs=_shrink(workload.reference_legs) if workload.reference_legs else None,
    )


class _Corrupting:
    """Stands in for cli.main; changes the last digit of the CSV written by
    chosen calls, so the file still parses and only the bytes differ."""

    def __init__(self, main, calls):
        self.main, self.calls, self.count = main, calls, 0

    def __call__(self, argv):
        rc = self.main(argv)
        self.count += 1
        if self.calls is None or self.count in self.calls:
            path = argv[argv.index("--out") + 1]
            with open(path) as fh:
                text = fh.read()
            digit = "1" if text[-2] == "0" else "0"
            with open(path, "w") as fh:
                fh.write(text[:-2] + digit + "\n")
        return rc


def main() -> int:
    unit_of = run.units()
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    mimolink = run.load_mimolink()
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in run.WORKLOADS.values():
        for trace in (0, 1):
            line = run.report(run.measure(mimolink, tiny(workload), 2, 0, bool(trace)), unit_of)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(got == wanted[trace],
                   f"{workload.name} trace {trace} emits every metric with its unit")
            expect(line["correct"] and line["failed"] == 0,
                   f"{workload.name} trace {trace} passes its byte check")

    workload = tiny(run.WORKLOADS["fer-gain-rayleigh"])
    real_main = mimolink.cli.main
    try:
        # Unpinned seed: the warm-up operation is the reference, the next
        # one is corrupted.
        mimolink.cli.main = _Corrupting(real_main, calls={2})
        line = run.report(run.measure(mimolink, workload, 2, 0, False), unit_of)
        expect(line["failed"] == 1 and not line["correct"],
               "a corrupted CSV fails against the first operation")
        # Pinned seed: every CSV is corrupted, so every operation fails.
        mimolink.cli.main = real_main
        clean = run.run_op(mimolink, workload.legs, run.DEFAULT_SEED, run.OUT)
        pinned = replace(workload, pinned=clean.digests)
        mimolink.cli.main = _Corrupting(real_main, calls=None)
        line = run.report(run.measure(mimolink, pinned, run.DEFAULT_SEED, 0, False), unit_of)
        expect(line["failed"] == line["attempted"] and not line["correct"],
               "a corrupted CSV fails against the pinned digest")
    finally:
        mimolink.cli.main = real_main

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "validate-fading-1m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "run.py refuses a directory without a source tree")

    print(f"\n{len(failures)} check(s) failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
