"""Independent tasks across forked worker processes, results in task order.

``fork_map(fn, tasks, processes)`` returns ``[fn(t) for t in tasks]``. Task
k goes to process ``k % processes``: the calling process makes share 0 and
forks one child per other share. A child inherits everything computed
before the fork (copy-on-write), pickles its results, or the exception that
stopped its share, into a pipe, and ends with ``os._exit``, so it never
returns into its caller. The parent reads every pipe to EOF and reaps every
child, also when its own share raised; it then raises the first error in
task order, as a run in one process would. A share whose child ended
without a readable result (or could not be forked) is made in the parent.
With one process the tasks run in the calling process, in order.
"""

from __future__ import annotations

import os
import pickle
import sys


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where it can be read,
    else the machine's count; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _make(fn, tasks: list, share: range, results: dict) -> dict:
    """Fill ``results[k] = fn(tasks[k])`` over ``share`` in order; stop at the
    first exception and return ``{k: exception}``, or ``{}``."""
    for k in share:
        try:
            results[k] = fn(tasks[k])
        except Exception as exc:
            return {k: exc}
    return {}


def _fork(fn, tasks: list, share: range):
    """(pid, read end of its pipe) of a child that makes ``share``."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        results: dict = {}
        errors = _make(fn, tasks, share, results)
        payload = pickle.dumps((results, errors))  # may fail: then nothing is sent
        with os.fdopen(w, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn, tasks, processes: int) -> list:
    """``[fn(t) for t in tasks]``, made across ``processes`` processes."""
    tasks = list(tasks)
    processes = max(1, min(processes, len(tasks))) if hasattr(os, "fork") else 1
    shares = [range(p, len(tasks), processes) for p in range(processes)]
    results: dict = {}
    errors: dict = {}
    children = []
    if processes > 1:  # buffered output must not be written again by a child
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    try:
        for share in shares[1:]:
            try:
                children.append(_fork(fn, tasks, share))
            except OSError:  # the shares left are made in this process
                break
        errors.update(_make(fn, tasks, shares[0], results))
    finally:
        for pid, r in children:
            with os.fdopen(r, "rb") as fh:
                payload = fh.read()
            os.waitpid(pid, 0)
            try:
                done, failed = pickle.loads(payload)
            except Exception:  # the child ended without a result
                continue
            results.update(done)
            errors.update(failed)
    out = []
    for k, task in enumerate(tasks):
        if k in errors:
            raise errors[k]
        out.append(results[k] if k in results else fn(task))
    return out
