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

``fill_ahead(fill, count, nbytes, cpu)`` yields ``count`` buffers in order,
each filled by ``fill(k, buffer)``; with a ``cpu`` a child forked once makes
the fills while the caller uses the buffers before them.

Every child is pinned to a CPU from :func:`spare_cpus`, round-robin. Where
the kernel does not balance load across CPUs (a cpuset with
``sched_load_balance = 0``), a child left unpinned stays on its parent's
CPU and the two take turns on it.
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


def _pin(cpu) -> None:
    """Keep this process on ``cpu`` where it can; placement is never an error."""
    if cpu is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpu})


def _flush() -> None:
    """Write out buffered output, so that no child writes it again."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _make(fn, tasks: list, share: range, results: dict) -> dict:
    """Fill ``results[k] = fn(tasks[k])`` over ``share`` in order; stop at the
    first exception and return ``{k: exception}``, or ``{}``."""
    for k in share:
        try:
            results[k] = fn(tasks[k])
        except Exception as exc:
            return {k: exc}
    return {}


def _fork(fn, tasks: list, share: range, cpu):
    """(pid, read end of its pipe) of a child on ``cpu`` that makes ``share``."""
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
        _pin(cpu)
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
    cpus = spare_cpus() if processes > 1 else []
    if processes > 1:
        _flush()
    try:
        for p, share in enumerate(shares[1:]):
            try:
                children.append(_fork(fn, tasks, share, cpus[p % len(cpus)] if cpus else None))
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


def _fork_producer(fill, count: int, slots: list, cpu):
    """(pid, ready pipe's read end, free pipe's write end) of a child on
    ``cpu`` that fills buffer k into ``slots[k % len(slots)]`` for every k
    in order.

    The child writes one byte to the ready pipe per buffer filled. Before it
    fills a slot again it reads one byte from the free pipe, which the
    caller writes once it is done with the slot's last buffer; at EOF there
    (the caller stopped) or at any error it ends, with ``os._exit``.
    """
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (ready_r, ready_w, free_r, free_w):
            os.close(fd)
        raise
    if pid:
        os.close(ready_w)
        os.close(free_r)
        return pid, ready_r, free_w
    try:
        os.close(ready_r)
        os.close(free_w)
        _pin(cpu)
        for k in range(count):
            if k >= len(slots) and not os.read(free_r, 1):
                break
            fill(k, slots[k % len(slots)])
            os.write(ready_w, b"\0")
    finally:
        os._exit(0)


def fill_ahead(fill, count: int, nbytes: int, cpu=None):
    """Yield ``count`` writable buffers of ``nbytes`` in order, buffer k
    holding what ``fill(k, buffer)`` wrote into it. A buffer stays valid
    until the next one is asked for.

    With a ``cpu`` (and ``count`` of 2 or more), one child forked and pinned
    there makes the fills, into a ring of 2 slots in a shared anonymous
    ``mmap``, at most 2 buffers ahead of the caller. Without one, or where
    the fork fails, the fills run in this process. When the child ends
    before it has filled every buffer, this process makes the rest, from
    the first buffer it did not get: so ``fill`` is called for k in
    increasing order in each process, but not always from 0, and must bring
    whatever state it draws from up to k itself. Closing the generator (at
    its end, or ``contextlib.closing`` on an error) reaps the child.
    """
    k = 0
    forks = cpu is not None and count > 1 and hasattr(os, "fork")
    ring = memoryview(mmap.mmap(-1, (2 if forks else 1) * nbytes))  # touched as filled
    slots = [ring[s:s + nbytes] for s in range(0, len(ring), nbytes)]
    if forks:
        _flush()
        try:
            pid, ready, free = _fork_producer(fill, count, slots, cpu)
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
