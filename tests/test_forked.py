"""fork_map: task order, error order and clean-up across forked workers."""

import contextlib
import os
import signal

import pytest

from ganc import forked
from ganc.errors import InfeasibleError

from conftest import assert_no_child_left


@contextlib.contextmanager
def deadline(seconds):
    """Fail instead of hanging when the block does not end in time."""
    def expire(signum, frame):
        raise TimeoutError(f"did not end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
