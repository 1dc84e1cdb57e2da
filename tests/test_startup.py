"""Start-up guard: a serial run loads no process-pool machinery.

concurrent.futures and the multiprocessing modules it pulls in cost a
fresh interpreter about 20 ms, which only a sweep of --workers > 1 needs,
so mimolink.sim imports the pool at its first use. Each run here starts a
fresh interpreter, since the test process has loaded the pool already."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
POOL_MODULES = ("concurrent.futures", "multiprocessing")
SWEEP = ["fer-vs-gain", "--gain-db", "-8,-4", "--seed", "5",
         "--max-frames", "400", "--target-errors", "1000", "--frame-bits", "12"]

# Runs the sweep at each worker count given in argv[1:], writing
# <out>.<workers>.csv, and prints, per run, the pool modules loaded after it.
_SCRIPT = """
import json, sys
import mimolink.cli as cli
out, sweep, counts = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
loaded = {}
for workers in counts:
    assert cli.main([*sweep, "--workers", workers, "--out", f"{out}.{workers}.csv"]) == 0
    loaded[workers] = [name for name in %r if name in sys.modules]
print(json.dumps(loaded))
""" % (POOL_MODULES,)


def _fresh_runs(tmp_path, *workers: str) -> dict[str, list[str]]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "sweep"), json.dumps(SWEEP), *workers],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_serial_run_loads_no_pool(tmp_path):
    assert _fresh_runs(tmp_path, "1") == {"1": []}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--workers 2 needs two CPUs")
def test_pool_run_imports_the_pool_and_writes_the_serial_bytes(tmp_path):
    """The serial run leaves the pool unloaded; the --workers 2 run that
    follows in the same interpreter imports it, and writes the same CSV."""
    assert _fresh_runs(tmp_path, "1", "2") == {"1": [], "2": list(POOL_MODULES)}
    serial, pooled = (tmp_path / f"sweep.{w}.csv" for w in ("1", "2"))
    assert pooled.read_bytes() == serial.read_bytes()


def test_pool_class_is_a_sim_attribute():
    """The name stays readable (and so patchable) on the module: reading it
    imports the pool class."""
    from concurrent.futures import ProcessPoolExecutor

    import mimolink.sim

    assert hasattr(mimolink.sim, "ProcessPoolExecutor")
    assert mimolink.sim.ProcessPoolExecutor is ProcessPoolExecutor
    with pytest.raises(AttributeError, match="no_such_name"):
        mimolink.sim.no_such_name
