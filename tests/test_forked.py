"""fork_map and fill_ahead: order, errors, placement and clean-up across
forked workers."""

import os
import time

import pytest

from ganc import forked
from ganc.errors import InfeasibleError

from conftest import a_usable_cpu, assert_no_child_left, deadline


def square(k):
    return k * k


class Odd(Exception):
    """Pickles, but cannot be unpickled: its constructor needs two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


@pytest.mark.parametrize("processes", [1, 2, 3, 7])
def test_results_in_task_order(processes):
    with deadline(60):
        assert forked.fork_map(square, range(11), processes) == [k * k for k in range(11)]
    assert_no_child_left()


def test_tasks_run_in_children():
    parent = os.getpid()
    with deadline(60):
        pids = forked.fork_map(lambda k: os.getpid(), range(6), 3)
    assert pids[0::3] == [parent] * 2
    assert parent not in pids[1::3] + pids[2::3]
    assert_no_child_left()


def test_first_error_in_task_order_wins():
    # task 1 (a child's) fails before task 2 (the parent's), and the child's
    # task 5 would fail too, after its share stopped at task 1
    def fn(k):
        if k in (1, 2, 5):
            raise InfeasibleError(f"task {k}")
        return k

    with deadline(60), pytest.raises(InfeasibleError, match="^task 1$"):
        forked.fork_map(fn, range(8), 2)
    assert_no_child_left()


def test_large_result_while_the_parent_share_raises():
    # each child result is far above a pipe buffer; the parent must drain
    # the pipes before it reaps the children, or both wait forever
    def fn(k):
        if k == 0:
            raise InfeasibleError("the parent's share")
        return bytes(4 << 20)

    with deadline(60), pytest.raises(InfeasibleError, match="^the parent's share$"):
        forked.fork_map(fn, range(6), 3)
    assert_no_child_left()


def test_share_of_a_child_that_dies_is_made_in_the_parent():
    parent = os.getpid()

    def fn(k):
        if os.getpid() != parent:
            os._exit(9)
        return k

    with deadline(60):
        assert forked.fork_map(fn, range(7), 3) == list(range(7))
    assert_no_child_left()


def test_results_that_do_not_pickle_are_made_in_the_parent():
    with deadline(60):
        got = forked.fork_map(lambda k: (k, lambda: k), range(5), 2)
    assert [k for k, _ in got] == list(range(5))
    assert [f() for _, f in got] == list(range(5))
    assert_no_child_left()


def test_error_that_does_not_unpickle_is_raised_again_in_the_parent():
    def fn(k):
        if k == 3:
            raise Odd("task", k)
        return k

    with deadline(60), pytest.raises(Odd, match="^task-3$"):
        forked.fork_map(fn, range(6), 2)
    assert_no_child_left()


def test_usable_cpus_without_affinity_or_fork(monkeypatch):
    assert forked.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert forked.usable_cpus() == os.cpu_count()
    monkeypatch.delattr(os, "fork")
    assert forked.usable_cpus() == 1
    # a count above one is made in this process where it cannot fork
    assert forked.fork_map(lambda k: os.getpid(), range(4), 3) == [os.getpid()] * 4


def test_spare_cpus_are_usable_and_not_the_current_one():
    usable = os.sched_getaffinity(0)
    spare = forked.spare_cpus()
    assert set(spare) <= usable and len(spare) == len(set(spare)) == len(usable) - 1


def forked_cpu():
    """The CPU this process last ran on, as ``spare_cpus`` reads it."""
    with open("/proc/self/stat", "rb") as f:
        return int(f.read().rsplit(b")", 1)[1].split()[36])


def test_spare_cpus_where_none_can_be_named(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {forked_cpu()})
    assert forked.spare_cpus() == []  # only the current CPU is usable
    monkeypatch.setattr(forked, "open", lambda *a: open(os.devnull, "rb"), raising=False)
    assert forked.spare_cpus() == []  # the field cannot be read
    monkeypatch.delattr(os, "fork")
    assert forked.spare_cpus() == []


def test_children_are_pinned_round_robin(monkeypatch):
    cpu = a_usable_cpu()
    monkeypatch.setattr(forked, "spare_cpus", lambda: [cpu])
    with deadline(60):
        masks = forked.fork_map(lambda k: os.sched_getaffinity(0), range(6), 3)
    assert masks[0::3] == [os.sched_getaffinity(0)] * 2
    assert masks[1::3] + masks[2::3] == [{cpu}] * 4
    assert_no_child_left()


def _filled(k, buffer):
    """Write k, the pid that filled it and that process's affinity mask
    (its size and lowest CPU) into ``buffer``."""
    mask = os.sched_getaffinity(0)
    buffer[:32] = b"".join(v.to_bytes(8, "little") for v in (k, os.getpid(), len(mask), min(mask)))


def _read(buffer):
    """(k, pid) of a buffer :func:`_filled` wrote."""
    return int.from_bytes(buffer[:8], "little"), int.from_bytes(buffer[8:16], "little")


@pytest.fixture
def spare(monkeypatch):
    """One spare CPU on any machine, so ``fill_ahead(..., fork=True)`` forks."""
    cpu = a_usable_cpu()
    monkeypatch.setattr(forked, "spare_cpus", lambda: [cpu])
    return cpu


@pytest.mark.parametrize("count", [1, 2, 3, 7])
def test_fill_ahead_in_order_from_a_child(spare, count):
    with deadline(60):
        got = [_read(b) for b in forked.fill_ahead(_filled, count, 32, True)]
    assert [k for k, _ in got] == list(range(count))
    pids = {pid for _, pid in got}
    if count == 1:  # one buffer is filled in this process
        assert pids == {os.getpid()}
    else:  # more come from one child
        assert len(pids) == 1 and os.getpid() not in pids
    assert_no_child_left()


def test_the_child_is_pinned_to_the_spare_cpu(spare):
    with deadline(60):
        masks = [bytes(b[16:32]) for b in forked.fill_ahead(_filled, 3, 32, True)]
    assert masks == [(1).to_bytes(8, "little") + spare.to_bytes(8, "little")] * 3
    assert_no_child_left()


def test_fill_ahead_without_a_cpu_or_a_fork(spare, monkeypatch):
    here = [(k, os.getpid()) for k in range(4)]
    assert [_read(b) for b in forked.fill_ahead(_filled, 4, 32, False)] == here
    monkeypatch.setattr(forked, "spare_cpus", lambda: [])  # no CPU to fork onto
    assert [_read(b) for b in forked.fill_ahead(_filled, 4, 32, True)] == here

    def refuse():
        raise OSError("no fork")

    monkeypatch.setattr(forked, "spare_cpus", lambda: [spare])
    monkeypatch.setattr(os, "fork", refuse)
    with deadline(60):
        assert [_read(b) for b in forked.fill_ahead(_filled, 4, 32, True)] == here


@pytest.mark.parametrize("stop", [0, 1, 4])
def test_buffers_a_child_did_not_fill_are_filled_here(spare, stop):
    parent = os.getpid()
    asked = []  # the k this process was asked to fill, in order

    def fill(k, buffer):
        if os.getpid() != parent and k == stop:
            raise RuntimeError("the child stops")
        if os.getpid() == parent:
            asked.append(k)
        _filled(k, buffer)

    with deadline(60):
        got = [_read(b) for b in forked.fill_ahead(fill, 6, 32, True)]
    assert [k for k, _ in got] == list(range(6))
    assert asked == list(range(stop, 6))
    assert all((pid == parent) == (k >= stop) for k, pid in got)
    assert_no_child_left()


def test_the_child_is_reaped_when_the_caller_stops_early(spare):
    ahead = forked.fill_ahead(_filled, 50, 32, True)
    with deadline(60), pytest.raises(InfeasibleError):
        for k, buffer in enumerate(ahead):
            assert _read(buffer)[0] == k
            if k == 3:
                ahead.close()  # as closing() does when the caller raises
                raise InfeasibleError("stop")
    assert_no_child_left()


def test_a_hung_child_is_killed_at_the_deadline(spare):
    parent = os.getpid()

    def fill(k, buffer):
        if os.getpid() != parent:
            time.sleep(3600)  # the producer hangs before its first buffer
        _filled(k, buffer)

    # the caller waits on the child's first buffer; at the deadline the child
    # is killed, so fill_ahead's clean-up reaps it instead of waiting forever
    with pytest.raises(TimeoutError), deadline(1):
        for _ in forked.fill_ahead(fill, 3, 32, True):
            pass
    assert_no_child_left()
