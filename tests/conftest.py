"""Shared fixtures: hand-built splits, synthetic data, and plain test scorers."""

import contextlib
import os
import signal

import numpy as np
import pytest

from ganc.dataset import Rating, SplitDataset, compute_item_stats, split_per_user
from ganc.preference import PreferenceVector
from ganc.synthetic import generate_ratings


def build_split(train_pairs, test_pairs=()):
    """Split from (user, item, rating) triples, bypassing the random splitter."""
    train = [Rating(u, i, float(r)) for u, i, r in train_pairs]
    test = [Rating(u, i, float(r)) for u, i, r in test_pairs]
    return SplitDataset.from_ratings(train, test)


def assert_same_split(got, want):
    """Equal id tables (types included), code arrays, values bit for bit,
    int64 timestamps and their missing masks, and set views."""
    for name in ("users", "items"):
        a, b = getattr(got, name), getattr(want, name)
        assert a == b and list(map(type, a)) == list(map(type, b))
    for part in ("train_columns", "test_columns"):
        a, b = getattr(got, part), getattr(want, part)
        assert (a.users, a.items) == (got.users, got.items)
        for name in ("user_codes", "item_codes"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
        assert a.values.dtype == b.values.dtype == np.float64
        assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
        assert a.timestamps.dtype == b.timestamps.dtype == np.int64
        assert np.array_equal(a.timestamps, b.timestamps)
        assert a.missing.dtype == b.missing.dtype == bool
        assert np.array_equal(a.missing, b.missing)
    assert got.train == want.train and got.test == want.test
    for name in ("per_user_train_index", "per_user_test_index", "per_item_train_index"):
        assert getattr(got, name) == getattr(want, name)


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def a_usable_cpu():
    """A CPU this process may run on, to force a pinned child where no
    other CPU is spare."""
    return min(os.sched_getaffinity(0))


class DictAccuracy:
    """Accuracy scorer backed by a raw (user, item) -> score dict."""

    def __init__(self, scores, split):
        self.scores = scores
        self.split = split

    def score(self, user, item):
        return float(self.scores.get((user, item), 0.0))

    def score_vector(self, user):
        return np.array([self.scores.get((user, i), 0.0) for i in self.split.items])


class DictCoverage:
    """Static coverage scorer backed by an item -> score dict."""

    def __init__(self, scores, split):
        self.scores = scores
        self.split = split

    def score(self, item):
        return float(self.scores.get(item, 0.0))

    def score_vector(self):
        return np.array([self.scores.get(i, 0.0) for i in self.split.items])


def random_instance(rng, n_users=3, n_items=6, train_per_user=(0, 2), test_per_user=(0, 0)):
    """Small random instance: split with random train sets, theta and accuracy.

    Anchor ratings keep every item in the train universe. Each user gets a
    number of test ratings drawn from ``test_per_user`` on items it did not
    rate in train; the default draws none and leaves ``rng`` as it was.
    """
    users = list(range(1, n_users + 1))
    items = list(range(101, 101 + n_items))
    train = []
    for u in users:
        k = int(rng.integers(train_per_user[0], train_per_user[1] + 1))
        seen = rng.choice(items, size=k, replace=False) if k else []
        for i in seen:
            train.append((u, int(i), float(rng.integers(1, 6))))
    # anchor ratings keep every user and item in the train universe
    for k, i in enumerate(items):
        train.append((users[k % n_users], i, float(rng.integers(1, 6))))
    dedup = {}
    for u, i, r in train:
        dedup[(u, i)] = (u, i, r)
    test = []
    if test_per_user[1]:
        for u in users:
            unseen = [i for i in items if (u, i) not in dedup]
            k = min(int(rng.integers(test_per_user[0], test_per_user[1] + 1)), len(unseen))
            for i in rng.choice(unseen, size=k, replace=False):
                test.append((u, int(i), float(rng.integers(1, 6))))
    split = build_split(list(dedup.values()), test)
    theta = PreferenceVector(
        "random", {u: float(rng.random()) for u in split.users})
    arec = DictAccuracy(
        {(u, i): float(rng.random()) for u in split.users for i in split.items},
        split)
    return split, theta, arec


@pytest.fixture(scope="session")
def synth_ratings():
    return generate_ratings(n_users=150, n_items=300, seed=11)


@pytest.fixture(scope="session")
def synth_split(synth_ratings):
    return split_per_user(synth_ratings, kappa=0.5, tau=20, seed=5)


@pytest.fixture(scope="session")
def synth_stats(synth_split):
    return compute_item_stats(synth_split)
