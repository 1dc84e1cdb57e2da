"""Repeat the benchmark over seeds and workloads and summarize the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1]
                               [--baseline perfbench/baseline.json]

Each (seed, workload) pair is one ``run.py`` process, run for the
run_seconds of BENCHMARK.json, over every workload there. Workloads are
interleaved, and their order rotates from seed to seed, so that a slow or
fast spell of the host falls on every workload instead of on one. For each
workload and metric it prints the median of the runs' values, their first
and third quartiles, and the spread (q3 - q1) / median next to a third of
the metric's bound in BENCHMARK.json. With --baseline it records those
figures (trace 0) or the per-layer table (trace 1) in that file, next to
the manifest of the first run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    manifest = next(json.loads(line[len("manifest "):]) for line in lines
                    if line.startswith("manifest "))
    return json.loads(lines[-1]), manifest


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    values: dict = {w: {} for w in workloads}
    runs = []
    manifest = None
    for i, seed in enumerate(_seeds(args.seeds)):
        for workload in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
            out, man = _run(workload, seed, seconds, args.trace)
            manifest = manifest or man
            runs.append({"workload": workload, "seed": seed, "correct": out["correct"],
                         "attempted": out["attempted"], "failed": out["failed"]})
            print(f"{workload} seed={seed}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}", flush=True)
            for name, metric in out["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])

    table: dict = {}
    steady = True
    for workload in workloads:
        table[workload] = {}
        print(f"\n{workload}")
        for name, vals in values[workload].items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            table[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = spread < bound / 3
                steady = steady and ok
                verdict = f"bound {bound}  {'ok' if ok else 'WIDE'}"
            print(f"  {name:26s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%}  {verdict}")

    if args.baseline:
        baseline = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        baseline[key] = {"manifest": manifest, "seeds": args.seeds, "seconds": seconds,
                         "runs": runs, "metrics": table}
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    print("\nall spreads under a third of their bound" if steady else "\nsome spreads are too wide")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
