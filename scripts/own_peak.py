#!/usr/bin/env python3
"""Run one ganc command in this process and report its wall time and own peak RSS.

The command runs through ``runpy`` as ``python -m ganc.cli`` would run it,
so the peak read afterwards (``VmHWM`` from ``/proc/self/status``, Linux
only) is that of the command alone: the interpreter, ganc's imports and its
work, and nothing of a parent process. The ``ru_maxrss`` a parent reads
from ``wait4`` for a spawned child counts the parent's RSS at spawn as
well. A command that forks workers (``sweep``, and ``train-rsvd`` with its
schedule producer) also gets the peak of its largest worker, which counts
what the worker shares with this process.
The report goes to standard error, after the command's own output::

    PYTHONPATH=src python3 scripts/own_peak.py recommend --split runs/split \\
        --prefs runs/prefs --arec pop --n 5 --s 500 --out runs/rec

prints ``own_peak: exit 0, wall 0.412 s, VmHWM 57.5 MB``. The wall time
runs from just before ganc is imported to the command's return, so it
leaves out the interpreter's start-up.
"""

import resource
import runpy
import sys
import time


def vmhwm_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the field is in kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 1
    sys.argv = ["ganc", *sys.argv[1:]]
    # children reaped before the command (a launcher's, say) set a floor
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # kB on Linux
    t0 = time.perf_counter()
    try:
        runpy.run_module("ganc.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:  # ganc.cli ends in sys.exit(main())
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - t0
    report = f"own_peak: exit {code}, wall {wall:.3f} s, VmHWM {vmhwm_mb():.1f} MB"
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if worker_kb > children_kb:
        report += f", largest worker {worker_kb / 1024.0:.1f} MB"
    print(report, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
