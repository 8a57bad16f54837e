"""Work in forked processes: independent tasks, and buffers filled ahead.

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

``fill_ahead(fill, count, nbytes, fork)`` yields ``count`` buffers in order,
each filled by ``fill(k, buffer)``; with ``fork`` and a spare CPU a child
forked once makes the fills while the caller uses the buffers before them.

Both start their children through one launcher, and pin each child to a CPU
from :func:`spare_cpus`, round-robin. Where the kernel does not balance
load across CPUs (a cpuset with ``sched_load_balance = 0``), a child left
unpinned stays on its parent's CPU and the two take turns on it.
"""

from __future__ import annotations

import contextlib
import mmap
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


def spare_cpus() -> list:
    """The usable CPUs other than the one this process last ran on (field 39
    of ``/proc/self/stat``), in order from the next one above it round to
    the one below it; empty where that field or the affinity mask cannot be
    read, where no other CPU is usable, or where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return []
    try:
        with open("/proc/self/stat", "rb") as f:
            # the command name may hold spaces, so fields count from its ")"
            current = int(f.read().rsplit(b")", 1)[1].split()[36])
        usable = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError, ValueError, IndexError):
        return []
    if current not in usable:
        return []
    return [c for c in usable if c > current] + [c for c in usable if c < current]


def _child(body, cpu) -> tuple:
    """(pid, read end of the pipe from it, write end of the pipe to it) of a
    child pinned to ``cpu`` (where given) that runs ``body(read end of the
    pipe to it, write end of the pipe from it)`` and ends with ``os._exit``,
    so it never returns into its caller. Each process closes the other's
    ends, so each side reads EOF once the other has closed or ended.

    Buffered output is written out first, so that no child writes it again.
    """
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    up_r, up_w = os.pipe()
    down_r, down_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_r, up_w, down_r, down_w):
            os.close(fd)
        raise
    if pid:
        os.close(up_w)
        os.close(down_r)
        return pid, up_r, down_w
    status = 1
    try:
        os.close(up_r)
        os.close(down_w)
        if cpu is not None:  # placement is never an error
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {cpu})
        body(down_r, up_w)
        status = 0
    finally:
        os._exit(status)


def _make(fn, tasks: list, share: range, results: dict) -> dict:
    """Fill ``results[k] = fn(tasks[k])`` over ``share`` in order; stop at the
    first exception and return ``{k: exception}``, or ``{}``."""
    for k in share:
        try:
            results[k] = fn(tasks[k])
        except Exception as exc:
            return {k: exc}
    return {}


def _send(fn, tasks: list, share: range, w: int) -> None:
    """Make ``share`` and write its results and error, pickled, to ``w``."""
    results: dict = {}
    errors = _make(fn, tasks, share, results)
    payload = pickle.dumps((results, errors))  # may fail: then nothing is sent
    with os.fdopen(w, "wb") as fh:
        fh.write(payload)


def fork_map(fn, tasks, processes: int) -> list:
    """``[fn(t) for t in tasks]``, made across ``processes`` processes."""
    tasks = list(tasks)
    processes = max(1, min(processes, len(tasks))) if hasattr(os, "fork") else 1
    shares = [range(p, len(tasks), processes) for p in range(processes)]
    results: dict = {}
    errors: dict = {}
    children = []
    cpus = spare_cpus() if processes > 1 else []
    try:
        for p, share in enumerate(shares[1:]):
            try:
                pid, r, w = _child(lambda _, w: _send(fn, tasks, share, w),
                                   cpus[p % len(cpus)] if cpus else None)
            except OSError:  # the shares left are made in this process
                break
            os.close(w)  # so no later child holds it
            children.append((pid, r))
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


def fill_ahead(fill, count: int, nbytes: int, fork: bool):
    """Yield ``count`` writable buffers of ``nbytes`` in order, buffer k
    holding what ``fill(k, buffer)`` wrote into it. A buffer stays valid
    until the next one is asked for.

    With ``fork``, a spare CPU and ``count`` of 2 or more, one child forked
    and pinned there makes the fills, into a ring of 2 slots in a shared
    anonymous ``mmap``, at most 2 buffers ahead of the caller. The child
    writes one byte to its pipe per buffer filled; before it fills a slot
    again it reads one byte from the pipe to it, which the caller writes
    once it is done with the slot's last buffer, and at EOF there (the
    caller stopped) it ends. Otherwise, or where the fork fails, the fills
    run in this process. When the child ends before it has filled every
    buffer, this process makes the rest, from the first buffer it did not
    get: so ``fill`` is called for k in increasing order in each process,
    but not always from 0, and must bring whatever state it draws from up
    to k itself. Closing the generator (at its end, or
    ``contextlib.closing`` on an error) reaps the child.
    """
    k = 0
    cpus = spare_cpus() if fork and count > 1 else []
    ring = memoryview(mmap.mmap(-1, (2 if cpus else 1) * nbytes))  # touched as filled
    slots = [ring[s:s + nbytes] for s in range(0, len(ring), nbytes)]

    def produce(free, ready):
        for j in range(count):
            if j >= len(slots) and not os.read(free, 1):
                break
            fill(j, slots[j % len(slots)])
            os.write(ready, b"\0")

    if cpus:
        try:
            pid, ready, free = _child(produce, cpus[0])
        except OSError:  # every buffer is made in this process
            pid = None
        if pid:
            try:
                while k < count and os.read(ready, 1):
                    yield slots[k % 2]
                    if k + 2 < count:
                        with contextlib.suppress(BrokenPipeError):  # then ready reads EOF
                            os.write(free, b"\0")
                    k += 1
            finally:
                os.close(free)  # a child waiting for a free slot reads EOF and ends
                os.close(ready)
                os.waitpid(pid, 0)
    for k in range(k, count):  # the child, if any, is reaped: slot 0 is free
        fill(k, slots[0])
        yield slots[0]
