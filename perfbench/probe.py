"""Set-up probe: run a mimolink command in a fresh interpreter and stop it
at its first frame.

    python3 perfbench/probe.py <mimolink argv...>

The caller puts the source tree on PYTHONPATH. The probe times import,
argument parsing and configuration checks: it replaces the names through
which ``mimolink.cli.main`` starts the simulation (``run_experiment``) or
the fading synthesis (``validate_process``) with a stop, and prints
``time.perf_counter()`` at that point. The caller subtracts its own
``perf_counter`` taken just before it started the interpreter.
"""

import sys
import time


class _FirstFrame(BaseException):
    pass


def _stop(*args, **kwargs):
    raise _FirstFrame


def main(argv: list[str]) -> int:
    from mimolink import cli

    cli.run_experiment = _stop
    cli.validate_process = _stop
    try:
        rc = cli.main(argv)
    except _FirstFrame:
        print(repr(time.perf_counter()))
        return 0
    print(f"probe: mimolink exited with {rc} before its first frame", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
