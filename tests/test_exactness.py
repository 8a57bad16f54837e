"""Fast paths against plain references.

The greedy assignments are checked against the paper's rules, written with
the public API only: ``oracles.greedy_picks`` rebuilds the blended gains
(and the coverage vector) at each of the n steps, ``_RecFrequency`` and
``_DynCoverage`` keep the recommendation counts and read coverage
1/sqrt(f + 1) from them at call time, ``_SnapshotStoreReference`` keeps a
full copy of the counts after each sampled user, and ``_oslg_reference``,
``_locally_greedy_reference`` and ``_independent_greedy_reference`` assign
lists with them. A scorer's ``add_accuracy`` hook is checked against the
same scorer read one dense ``score_vector`` at a time. The other references
are the implementations the fast paths replaced: ``_evaluate_reference``
recomputes relevant items per call, popularity weights per relevant pair
and the long tail from ``Rating`` rows, ``_strat_recall_dict_reference``
looks each relevant item's weight up in a dict built per call,
``_load_ratings_reference`` and ``_split_per_user_reference`` parse and
split one ``Rating`` per row into dict-of-set indices, and
``_PopScorerReference`` scans the popularity ranking that
``conftest.item_stats_reference`` sorts from ``Rating`` rows, per user. A
split read from the split.npz sidecar must equal the one
``dataset._parse_split`` parses from the CSVs. Outputs must be equal,
not close.
"""

import csv
import io
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ganc import cli, core, dataset

from ganc.core import (
    BLOCK,
    PROTOCOLS,
    SnapshotStore,
    TopNCollection,
    independent_greedy,
    kde_sample,
    locally_greedy_full,
    oslg,
)
from ganc.dataset import (
    Rating,
    RatingColumns,
    SplitDataset,
    compute_item_stats,
    load_columns,
    load_ratings,
    load_split,
    save_split,
    split_per_user,
)
from ganc.errors import (EmptyDatasetError, InfeasibleError, ParseError,
                         UndefinedMetricError, UnknownIdError)
from ganc.io_utils import canonical_ids, id_int, read_table
from ganc.metrics import EvalReport, evaluate, gini
from ganc.preference import PreferenceVector, load_prefs, theta_generalized
from ganc.recommenders import (MatrixScorer, SparseScorer, load_external_scores, pop_scorer,
                                rand_coverage, stat_coverage)

from conftest import (DictAccuracy, DictCoverage, assert_same_split, build_split,
                      item_stats_reference)
from oracles import greedy_picks


# ---------------------------------------------------------------- references

class _RecFrequency:
    """Mutable per-item counts of recommendations assigned so far."""

    def __init__(self, split, counts=None):
        self.split = split
        self.counts = np.zeros(len(split.items), dtype=np.int64) if counts is None else counts

    def increment(self, item_ids):
        idx = self.split.item_index
        for i in item_ids:
            self.counts[idx[i]] += 1


class _DynCoverage:
    """Coverage scores 1/sqrt(f + 1) over the live counts of a _RecFrequency."""

    def __init__(self, freq):
        self.freq = freq

    def score_vector(self):
        return 1.0 / np.sqrt(self.freq.counts + 1.0)


class _SnapshotStoreReference:
    def __init__(self):
        self._thetas = []
        self._freqs = []

    def add(self, theta, freq):
        self._thetas.append(theta)
        self._freqs.append(freq)

    def nearest(self, theta):
        """Position of the snapshot whose theta is closest, the first added
        among equal gaps."""
        return int(np.argmin(np.abs(np.asarray(self._thetas) - theta)))

    def freq(self, k):
        return self._freqs[k]


def _eligible_reference(split, n, protocol):
    if protocol == "all_unrated":
        return list(split.users), {
            u: np.array([k for k, i in enumerate(split.items)
                         if i not in split.per_user_train_index[u]], dtype=np.int64)
            for u in split.users}
    users, cands = [], {}
    for u in split.users:
        test_items = split.per_user_test_index[u]
        if len(test_items) >= n:
            users.append(u)
            cands[u] = np.array(sorted(split.item_index[i] for i in test_items), dtype=np.int64)
    return users, cands


def _ids(split, picked):
    return tuple(split.items[k] for k in picked)


def _oslg_reference(split, theta, arec, n, s, seed, protocol, phase4_order=None):
    """(sampled users, lists, snapshots used) of OSLG by the paper's rules.

    Phase one gives the KDE sample, in rising theta, greedy lists against
    the live coverage and keeps a snapshot of the counts after each. Phase
    two gives every other user, in id order or in ``phase4_order``, a greedy
    list against the snapshot of its nearest sampled theta.
    """
    users, cands = _eligible_reference(split, n, protocol)
    sample = kde_sample(theta, s, seed, users=users)
    freq = _RecFrequency(split)
    dyn = _DynCoverage(freq)
    store = _SnapshotStoreReference()
    lists = {}
    for u in sample:
        picked = _ids(split, greedy_picks(u, theta.theta[u], arec, dyn, n, cands[u]))
        freq.increment(picked)
        store.add(theta.theta[u], _RecFrequency(split, freq.counts.copy()))
        lists[u] = picked
    rest = [u for u in users if u not in lists] if phase4_order is None else phase4_order
    used = set()
    for u in rest:
        k = store.nearest(theta.theta[u])
        used.add(k)
        lists[u] = _ids(split, greedy_picks(
            u, theta.theta[u], arec, _DynCoverage(store.freq(k)), n, cands[u]))
    return tuple(sample), lists, len(used)


def _locally_greedy_reference(split, theta, arec, n, user_order, protocol):
    users, cands = _eligible_reference(split, n, protocol)
    if user_order == "increasing_theta":
        users = sorted(users, key=lambda u: (theta.theta[u], u))
    freq = _RecFrequency(split)
    dyn = _DynCoverage(freq)
    lists = {}
    for u in users:
        picked = _ids(split, greedy_picks(u, theta.theta[u], arec, dyn, n, cands[u]))
        freq.increment(picked)
        lists[u] = picked
    return lists


def _independent_greedy_reference(split, theta, arec, crec, n, protocol):
    users, cands = _eligible_reference(split, n, protocol)
    return {u: _ids(split, greedy_picks(u, theta.theta[u], arec, crec, n, cands[u]))
            for u in users}


def _relevant_reference(split, user, threshold):
    return frozenset(r.item_id for r in split.test
                     if r.user_id == user and r.value >= threshold)


def _strat_recall_reference(coll, split, beta, threshold):
    pops = Counter(r.item_id for r in split.train)

    def weight(item):
        return (pops[item] or 1) ** (-beta)

    num = []
    den = []
    for u in coll.lists:
        relevant = _relevant_reference(split, u, threshold)
        retrieved = relevant & set(coll.lists[u])
        num += [weight(i) for i in retrieved]
        den += [weight(i) for i in relevant]
    num, den = math.fsum(num), math.fsum(den)
    if den == 0:
        raise UndefinedMetricError("no relevant test items anywhere")
    return num / den


def _lt_accuracy_reference(coll, split):
    tail = item_stats_reference(split)[1]
    return sum(i in tail for items in coll.lists.values() for i in items) / \
        (coll.n * len(coll.lists))


def _strat_recall_dict_reference(sets, split, beta):
    counts = split.item_train_counts.tolist()
    weight = dict(zip(split.items, [(c or 1) ** (-beta) for c in counts])).__getitem__
    num = math.fsum(weight(i) for _, retrieved in sets for i in retrieved)
    den = math.fsum(weight(i) for rel, _ in sets for i in rel)
    if den == 0:
        raise UndefinedMetricError("no relevant test items anywhere")
    return num / den


def _evaluate_reference(coll, split, _stats, protocol, n, beta, threshold):
    """``evaluate``'s report and per-user breakdown, with the long tail taken
    from :func:`item_stats_reference` in place of the stats passed."""
    work = coll.truncated(n)
    if protocol == "rated_test_items":
        work = TopNCollection(n, {u: items for u, items in work.lists.items()
                                  if len(split.per_user_test_index[u]) >= n})
    hit_share = 0.0
    recall_sum = 0.0
    breakdown = {}
    for u in work.lists:
        relevant = _relevant_reference(split, u, threshold)
        hits = len(relevant & set(work.lists[u]))
        hit_share += hits
        if relevant:
            recall_sum += hits / len(relevant)
        breakdown[u] = (hits / n, hits / len(relevant) if relevant else 0.0)
    precision = hit_share / (n * len(work.lists))
    recall = recall_sum / len(work.lists)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    freq = np.zeros(len(split.items), dtype=np.int64)
    for items in work.lists.values():
        for i in items:
            freq[split.item_index[i]] += 1
    report = EvalReport(
        n=n, protocol=protocol, precision=precision, recall=recall, f_measure=f,
        lt_accuracy=_lt_accuracy_reference(work, split),
        strat_recall=_strat_recall_reference(work, split, beta, threshold),
        coverage=len({i for items in work.lists.values() for i in items}) / len(split.items),
        gini=gini(freq),
    )
    return report, breakdown


def _kde_sample_oracle(theta, s, seed, users):
    """The sampler's documented rule in plain Python: each draw takes the
    untaken user with the smallest |theta_u - draw|, ties going to the user
    first in (theta, id) order."""
    pool = sorted(users, key=lambda u: (theta.theta[u], u))
    th = [theta.theta[u] for u in pool]
    n = len(pool)
    sd = float(np.std(np.array(th), ddof=1)) if n > 1 else 0.0
    h = max(1.06 * sd * n ** (-0.2), 1e-3)
    rng = np.random.default_rng(seed)
    taken = set()
    for _ in range(s):
        draw = th[int(rng.integers(n))] + h * float(rng.standard_normal())
        taken.add(min((k for k in range(n) if k not in taken),
                      key=lambda k: (abs(th[k] - draw), k)))
    return [pool[k] for k in sorted(taken)]


# ---------------------------------------------------------------- instances

THETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _random_split(rng, n_users, n_items):
    """Users 1.. and items 101.., each user with up to two train ratings past
    the anchors and a random share of its unseen items in test.

    Every item gets one anchor rating (round robin over users) so it stays in
    the train universe. Test ratings land on unseen items.
    """
    users = list(range(1, n_users + 1))
    items = list(range(101, 101 + n_items))
    train = {(users[k % n_users], i) for k, i in enumerate(items)}
    for u in users:
        for i in rng.choice(items, size=int(rng.integers(0, 3)), replace=False):
            train.add((u, int(i)))
    test = []
    for u in users:
        unseen = [i for i in items if (u, i) not in train]
        for i in rng.choice(unseen, size=int(rng.integers(0, len(unseen) + 1)), replace=False):
            test.append((u, int(i), int(rng.integers(1, 6))))
    return build_split([(u, i, int(rng.integers(1, 6))) for u, i in sorted(train)], test)


def _sparse_scorer(rng, split):
    """A SparseScorer over a random CSR: about a quarter of the users score
    no item, the others a random subset of the items, in random order, with
    values tied on a grid of halves about half the time."""
    n_users, m = len(split.users), len(split.items)
    counts = np.where(rng.random(n_users) < 0.25, 0, rng.integers(1, m + 1, n_users))
    items = np.concatenate([rng.choice(m, c, replace=False) for c in counts.tolist()])
    values = np.where(rng.random(len(items)) < 0.5, rng.integers(0, 3, len(items)) / 2,
                      rng.random(len(items)))
    return SparseScorer(split, np.append(0, np.cumsum(counts)), items, values)


@st.composite
def instances(draw):
    """Small split, n, theta, an accuracy scorer and a static coverage scorer.

    The split is :func:`_random_split`'s; with at least two users and twelve
    items each user keeps at least three unseen items, so every instance is
    feasible under all_unrated for n <= 3.
    """
    n_users = draw(st.integers(2, 7))
    n_items = draw(st.integers(12, 16))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    split = _random_split(rng, n_users, n_items)

    if draw(st.booleans()):  # many users share a theta: ties in sampling and lookup
        theta = {u: THETA_GRID[int(rng.integers(len(THETA_GRID)))] for u in split.users}
    else:
        theta = {u: float(rng.random()) for u in split.users}
    kind = draw(st.sampled_from(["pop", "binary", "continuous", "csr"]))
    if kind == "pop":  # binary scores from the real Pop scorer
        arec = pop_scorer(split, compute_item_stats(split), int(rng.integers(1, n_items + 1)))
    elif kind == "csr":
        arec = _sparse_scorer(rng, split)
    elif kind == "binary":
        arec = DictAccuracy({(u, i): float(rng.integers(0, 2))
                             for u in split.users for i in split.items}, split)
    else:
        arec = DictAccuracy({(u, i): float(rng.random())
                             for u in split.users for i in split.items}, split)
    crec = DictCoverage({i: float(rng.integers(0, 3)) / 2 for i in split.items}, split)
    return split, n, PreferenceVector("random", theta), arec, crec


def _eligible_count(split, n, protocol):
    if protocol == "all_unrated":
        return len(split.users)
    return sum(len(split.per_user_test_index[u]) >= n for u in split.users)


EXACT = settings(max_examples=80, deadline=None,
                 suppress_health_check=[HealthCheck.filter_too_much])


# ---------------------------------------------------------------- properties

class TestAssignmentMatchesReference:
    @EXACT
    @given(inst=instances(), protocol=st.sampled_from(PROTOCOLS),
           s_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_oslg_and_evaluate(self, inst, protocol, s_share, seed):
        split, n, theta, arec, _ = inst
        eligible = _eligible_count(split, n, protocol)
        assume(eligible > 0)
        s = 1 + int(s_share * (eligible - 1))  # 1 .. |eligible users|
        run = oslg(split, theta, arec, n, s, seed, protocol=protocol)
        sample, lists, used = _oslg_reference(split, theta, arec, n, s, seed, protocol)
        assert run.sampled_users == sample
        assert list(run.collection.lists.items()) == list(lists.items())
        assert run.snapshots_used == used

        stats = compute_item_stats(split)
        try:
            expected, breakdown = _evaluate_reference(
                TopNCollection(n, lists), split, stats, protocol, n, 0.5, 4.0)
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                evaluate(run.collection, split, stats, protocol=protocol)
            return
        got = evaluate(run.collection, split, stats, protocol=protocol, per_user=True)
        assert got == expected
        assert got.per_user == breakdown

    @EXACT
    @given(inst=instances(), protocol=st.sampled_from(PROTOCOLS),
           order=st.sampled_from(["arbitrary", "increasing_theta"]))
    def test_locally_greedy_full(self, inst, protocol, order):
        split, n, theta, arec, _ = inst
        assume(_eligible_count(split, n, protocol) > 0)
        got = locally_greedy_full(split, theta, arec, n, user_order=order, protocol=protocol)
        expected = _locally_greedy_reference(split, theta, arec, n, order, protocol)
        assert list(got.lists.items()) == list(expected.items())

    @EXACT
    @given(inst=instances(), protocol=st.sampled_from(PROTOCOLS),
           static=st.sampled_from(["dict", "stat"]))
    def test_independent_greedy(self, inst, protocol, static):
        split, n, theta, arec, crec = inst
        assume(_eligible_count(split, n, protocol) > 0)
        if static == "stat":
            crec = stat_coverage(compute_item_stats(split), split)
        got = independent_greedy(split, theta, arec, crec, n, protocol=protocol)
        expected = _independent_greedy_reference(split, theta, arec, crec, n, protocol)
        assert list(got.lists.items()) == list(expected.items())

    def test_synthetic_split_both_protocols(self, synth_split, synth_stats):
        theta = theta_generalized(synth_split)
        arec = pop_scorer(synth_split, synth_stats, 5)
        for protocol in PROTOCOLS:
            for s in (1, 30, _eligible_count(synth_split, 5, protocol)):
                run = oslg(synth_split, theta, arec, 5, s, 4, protocol=protocol)
                sample, lists, _ = _oslg_reference(synth_split, theta, arec, 5, s, 4, protocol)
                assert run.sampled_users == sample
                assert list(run.collection.lists.items()) == list(lists.items())
                expected, _ = _evaluate_reference(TopNCollection(5, lists), synth_split,
                                                  synth_stats, protocol, 5, 0.5, 4.0)
                assert evaluate(run.collection, synth_split, synth_stats,
                                protocol=protocol) == expected


class TestBlockedScoringMatchesReference:
    """Phase two and independent_greedy score users BLOCK at a time; the
    150-user synthetic split gives several full blocks and a partial last
    one, which the hypothesis instances (at most 7 users) never reach."""

    @pytest.fixture(scope="class")
    def scorers(self, synth_split, synth_stats):
        rng = np.random.default_rng(12)
        dense = DictAccuracy({(u, i): float(rng.random())
                              for u in synth_split.users for i in synth_split.items},
                             synth_split)
        return {"pop": pop_scorer(synth_split, synth_stats, 5), "dense": dense,
                "csr": _sparse_scorer(rng, synth_split)}

    @pytest.fixture(scope="class")
    def thetas(self, synth_split):
        rng = np.random.default_rng(13)
        grid = {u: THETA_GRID[int(rng.integers(len(THETA_GRID)))] for u in synth_split.users}
        return {"generalized": theta_generalized(synth_split),
                "grid": PreferenceVector("random", grid)}  # ties in the snapshot lookup

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("kind", ["pop", "dense", "csr"])
    @pytest.mark.parametrize("theta_kind", ["generalized", "grid"])
    def test_oslg(self, synth_split, scorers, thetas, protocol, kind, theta_kind):
        assert len(synth_split.users) > 2 * BLOCK
        theta, arec = thetas[theta_kind], scorers[kind]
        for s in (1, 10, 149):
            run = oslg(synth_split, theta, arec, 5, s, 7, protocol=protocol)
            sample, lists, used = _oslg_reference(synth_split, theta, arec, 5, s, 7, protocol)
            assert run.phase2_users == len(synth_split.users) - s
            assert run.sampled_users == sample
            assert list(run.collection.lists.items()) == list(lists.items())
            assert run.snapshots_used == used

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("kind", ["pop", "dense", "csr"])
    def test_independent_greedy(self, synth_split, synth_stats, scorers, thetas, protocol,
                                kind):
        for crec in (stat_coverage(synth_stats, synth_split), rand_coverage(4, synth_split)):
            for theta in thetas.values():
                got = independent_greedy(synth_split, theta, scorers[kind], crec, 5,
                                         protocol=protocol)
                expected = _independent_greedy_reference(synth_split, theta, scorers[kind],
                                                         crec, 5, protocol)
                assert list(got.lists.items()) == list(expected.items())

    def test_first_infeasible_phase2_user_raises_the_same_error(self):
        # users 66 and 69, both in the second block of phase two, rated 11
        # of the 12 items; everyone else rated one
        items = list(range(1, 13))
        train = [(u, items[u % 12], 3) for u in range(1, 71) if u not in (66, 69)]
        train += [(u, i, 3) for u in (66, 69) for i in items[:11]]
        split = build_split(train)
        theta = PreferenceVector("constant", {u: 0.5 for u in split.users})
        arec = DictAccuracy({}, split)
        with pytest.raises(InfeasibleError) as expected:
            _oslg_reference(split, theta, arec, 2, 1, 0, "all_unrated")
        assert str(expected.value) == "user 66: 1 candidates for top-2"
        with pytest.raises(InfeasibleError) as got:
            oslg(split, theta, arec, 2, 1, 0)
        assert str(got.value) == str(expected.value)
        crec = DictCoverage({}, split)
        with pytest.raises(InfeasibleError) as got:
            independent_greedy(split, theta, arec, crec, 2)
        assert str(got.value) == str(expected.value)


# ------------------------------------------------ accuracy through the scorer
#
# The greedy loops add (1-theta)*a to theta*c through the scorer's
# add_accuracy hook (Pop: only at each user's top items; SparseScorer: only
# at its CSR entries) or, for a scorer with only score_vector, one user's
# dense vector at a time. Picks through
# the hook must equal the picks of the same scorer read as dense vectors.

ZERO_ONE = (0.0, -0.0, 1.0)


class _VectorOnly:
    """A scorer seen only through ``score_vector``, so the greedy loops add
    its dense vector for each user."""

    def __init__(self, arec):
        self.score_vector = arec.score_vector


@st.composite
def accuracy_scorers(draw, split, n):
    """Pop at a pop_n up to n, above n (above some users' unseen count, so
    the top matrix is ragged) or at |I| (ragged for every user), a
    MatrixScorer with tied values, a SparseScorer over a random CSR with
    empty rows and tied values, or a scorer with only score_vector."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = len(split.items)
    kind = draw(st.sampled_from(["pop-upto-n", "pop-above-n", "pop-all", "matrix", "csr",
                                 "duck"]))
    if kind == "pop-upto-n":
        return pop_scorer(split, compute_item_stats(split), draw(st.integers(1, n)))
    if kind == "pop-above-n":
        return pop_scorer(split, compute_item_stats(split), draw(st.integers(n + 1, m)))
    if kind == "pop-all":
        return pop_scorer(split, compute_item_stats(split), m)
    if kind == "csr":
        return _sparse_scorer(rng, split)
    shape = (len(split.users), m)
    scores = np.where(rng.random(shape) < 0.5, rng.integers(0, 3, shape) / 2, rng.random(shape))
    if kind == "matrix":
        return MatrixScorer(split, scores)
    return DictAccuracy({(u, i): float(scores[a, b]) for a, u in enumerate(split.users)
                         for b, i in enumerate(split.items)}, split)


@st.composite
def sparse_cases(draw):
    """An :func:`instances` split and n with thetas drawn from {0, -0.0, 1}
    or [0, 1], and a scorer of :func:`accuracy_scorers`."""
    split, n, _, _, crec = draw(instances())
    theta = {u: draw(st.sampled_from(ZERO_ONE) | st.floats(0.0, 1.0)) for u in split.users}
    return split, n, PreferenceVector("random", theta), draw(accuracy_scorers(split, n)), crec


class TestSparseAccuracyMatchesDense:
    @EXACT
    @given(case=sparse_cases(), protocol=st.sampled_from(PROTOCOLS),
           s_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_oslg(self, case, protocol, s_share, seed):
        split, n, theta, arec, _ = case
        eligible = _eligible_count(split, n, protocol)
        assume(eligible > 0)
        s = 1 + int(s_share * (eligible - 1))
        got = oslg(split, theta, arec, n, s, seed, protocol=protocol)
        want = oslg(split, theta, _VectorOnly(arec), n, s, seed, protocol=protocol)
        assert got.sampled_users == want.sampled_users
        assert list(got.collection.lists.items()) == list(want.collection.lists.items())

    @EXACT
    @given(case=sparse_cases(), protocol=st.sampled_from(PROTOCOLS),
           static=st.sampled_from(["dict", "stat"]))
    def test_independent_greedy(self, case, protocol, static):
        split, n, theta, arec, crec = case
        assume(_eligible_count(split, n, protocol) > 0)
        if static == "stat":
            crec = stat_coverage(compute_item_stats(split), split)
        got = independent_greedy(split, theta, arec, crec, n, protocol=protocol)
        want = independent_greedy(split, theta, _VectorOnly(arec), crec, n, protocol=protocol)
        assert list(got.lists.items()) == list(want.lists.items())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("pop_n", [1, 5, 40, "all"])
    def test_synthetic_split(self, synth_split, synth_stats, protocol, pop_n):
        # several full blocks; pop_n |I| leaves every row of the top matrix ragged
        pop_n = len(synth_split.items) if pop_n == "all" else pop_n
        rng = np.random.default_rng(pop_n)
        theta = PreferenceVector("random", {u: ZERO_ONE[int(rng.integers(3))] if rng.random() < 0.5
                                            else float(rng.random()) for u in synth_split.users})
        arec = pop_scorer(synth_split, synth_stats, pop_n)
        for s in (1, 40):
            got = oslg(synth_split, theta, arec, 5, s, 3, protocol=protocol)
            want = oslg(synth_split, theta, _VectorOnly(arec), 5, s, 3, protocol=protocol)
            assert list(got.collection.lists.items()) == list(want.collection.lists.items())
        crec = stat_coverage(synth_stats, synth_split)
        got = independent_greedy(synth_split, theta, arec, crec, 5, protocol=protocol)
        want = independent_greedy(synth_split, theta, _VectorOnly(arec), crec, 5,
                                  protocol=protocol)
        assert list(got.lists.items()) == list(want.lists.items())

    @EXACT
    @given(case=sparse_cases(), rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_hook_adds_what_the_dense_vectors_add(self, case, rows, seed):
        split, _, _, arec, _ = case
        assume(hasattr(arec, "add_accuracy"))
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, len(split.users), rows)
        weights = np.where(rng.random(rows) < 0.5, np.array(ZERO_ONE)[rng.integers(0, 3, rows)],
                           rng.random(rows))
        gains = rng.random((rows, len(split.items)))
        want = gains + weights[:, None] * np.array([arec.score_vector(split.users[k])
                                                     for k in codes])
        arec.add_accuracy(gains, codes, weights)
        if isinstance(arec, (MatrixScorer, SparseScorer)):  # the same operations: the same bits
            assert np.array_equal(gains.view(np.int64), want.view(np.int64))
        else:  # Pop adds nothing where the dense vector adds w * 0.0
            assert np.array_equal(gains, want)

    def test_pop_user_without_unseen_items(self):
        # user 1 rated every item in train and three again in test, so under
        # rated_test_items its candidates are seen items and its Pop row is
        # empty; read as an index, its -1 padding would score the last item
        items = list(range(101, 106))
        train = [(1, i, 3) for i in items] + [(u, items[u % 5], 4) for u in range(2, 9)]
        test = [(1, i, 5) for i in items[2:]] + [(u, i, 5) for u in range(2, 9)
                                                 for i in items if i != items[u % 5]]
        split = build_split(train, test)
        arec = pop_scorer(split, compute_item_stats(split), 3)
        assert (arec.top_matrix[0] == -1).all()
        theta = PreferenceVector("random", {u: ZERO_ONE[u % 3] for u in split.users})
        for s in (1, 4, 8):
            got = oslg(split, theta, arec, 2, s, 0, protocol="rated_test_items")
            want = oslg(split, theta, _VectorOnly(arec), 2, s, 0, protocol="rated_test_items")
            assert list(got.collection.lists.items()) == list(want.collection.lists.items())


class TestStratRecallTables:
    """evaluate's strat_recall reads the split's weight table for beta and its
    relevant items in CSR order, or the split's cached denominator when every
    user is evaluated; it must equal the dict lookup it replaced, with two
    betas and two thresholds cached on one split, over every user and over
    the user subsets that rated_test_items and partial collections evaluate."""

    @EXACT
    @given(inst=instances(), betas=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0),
                                            min_size=2, max_size=2),
           thresholds=st.lists(st.sampled_from([1.0, 4.0, 5.0]) | st.floats(-1.0, 7.0),
                               min_size=2, max_size=2),
           keep=st.just(1.0) | st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_dict_lookup(self, inst, betas, thresholds, keep, seed):
        split, n = inst[:2]
        rng = np.random.default_rng(seed)
        lists = {u: _ids(split, rng.choice(np.flatnonzero(split.candidate_mask(u)), n,
                                           replace=False))
                 for u in split.users if rng.random() < keep}
        assume(lists)
        coll, stats = TopNCollection(n, lists), compute_item_stats(split)
        rated = {u: items for u, items in lists.items()
                 if len(split.per_user_test_index[u]) >= n}

        def sets(users, threshold):
            relevant = [_relevant_reference(split, u, threshold) for u in users]
            return [(rel, rel & set(lists[u])) for u, rel in zip(users, relevant)]

        for beta, threshold in [(b, t) for b in betas for t in thresholds] * 2:
            got = _outcome(evaluate, coll, split, stats, "all_unrated", None, beta, threshold)
            want = _outcome(_strat_recall_dict_reference, sets(lists, threshold), split, beta)
            assert (got.strat_recall if isinstance(got, EvalReport) else got) == want
            got = _outcome(evaluate, coll, split, stats, "rated_test_items", None, beta,
                           threshold)
            if isinstance(got, EvalReport):
                assert got.strat_recall == _strat_recall_dict_reference(
                    sets(rated, threshold), split, beta)
            else:
                assert got[0] is UndefinedMetricError


class TestCodedEvaluateMatchesReference:
    """evaluate reads a collection as item codes and counts hits against the
    split's sorted relevant keys; a coded collection and the same lists as a
    dict of ids must both give the set-based reference's report, bit for
    bit."""

    @EXACT
    @given(inst=instances(), protocol=st.sampled_from(PROTOCOLS), keep=st.floats(0.0, 1.0),
           cut=st.integers(0, 2), beta=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0),
           threshold=st.sampled_from([1.0, 4.0, 5.0]) | st.floats(-1.0, 7.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, inst, protocol, keep, cut, beta, threshold, seed):
        split, n = inst[:2]
        rng = np.random.default_rng(seed)
        users = [u for u in split.users if rng.random() < keep]
        assume(users)
        rng.shuffle(users)  # list order is not code order
        picks = np.array([rng.choice(np.flatnonzero(split.candidate_mask(u)), n, replace=False)
                          for u in users])
        lists = {u: _ids(split, row) for u, row in zip(users, picks.tolist())}
        coded = TopNCollection.from_codes(
            n, split, np.array([split.user_index[u] for u in users]), picks)
        assert list(coded.lists.items()) == list(lists.items())
        n_eval, stats = max(1, n - cut), compute_item_stats(split)  # n below coll.n too
        kept = [u for u in users if len(split.per_user_test_index[u]) >= n_eval]
        for coll in (coded, TopNCollection(n, lists)):
            # every test rating relevant and unit weights: strat recall is
            # defined wherever the listed users have a test rating
            full = _outcome(evaluate, coll, split, stats, "all_unrated", None, 0.0,
                            -sys.float_info.max)
            if any(split.per_user_test_index[u] for u in users):
                assert full.lt_accuracy == _lt_accuracy_reference(coll, split)
            else:
                assert full == (UndefinedMetricError, "no relevant test items anywhere")
            args = (coll, split, stats, protocol, n_eval, beta, threshold)
            if protocol == "rated_test_items" and not kept:
                with pytest.raises(UndefinedMetricError, match="^no users to evaluate$"):
                    evaluate(*args)
                continue
            want = _outcome(_evaluate_reference, *args)
            got = _outcome(evaluate, *args, None, True)
            if isinstance(want[0], type):  # no relevant item among the evaluated users
                assert got == want
                continue
            report, breakdown = want
            assert repr(got.to_dict()) == repr(report.to_dict())
            assert repr(got.per_user) == repr(breakdown)

        stranger = TopNCollection(n, {**lists, 999: lists[users[0]]})
        with pytest.raises(UnknownIdError, match="^unknown user 999$"):
            evaluate(stranger, split, stats, protocol, n_eval, beta, threshold)


class TestSweepMatchesReference:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_rows_equal_a_reference_loop(self, synth_split, tmp_path, protocol):
        save_split(synth_split, tmp_path / "split")
        assert cli.main(["prefs", "--split", str(tmp_path / "split"),
                         "--out", str(tmp_path / "prefs")]) == 0
        split = load_split(tmp_path / "split")[0]
        theta = load_prefs(tmp_path / "prefs", split)[0]
        stats = compute_item_stats(split)
        arec = pop_scorer(split, stats, 5)
        eligible = _eligible_count(split, 5, protocol)
        s_values, reps, run_seed = (1, 30, eligible + 5), 2, 3
        metrics = ("f_measure", "coverage", "gini", "lt_accuracy")
        want = [["s", *metrics]]
        for s in s_values:
            reports = []
            for rep in range(reps):
                _, lists, _ = _oslg_reference(split, theta, arec, 5, min(s, eligible),
                                           run_seed + rep, protocol)
                reports.append(_evaluate_reference(TopNCollection(5, lists), split, stats,
                                                   protocol, 5, 0.5, 4.0)[0])
            want.append([str(s), *(repr(float(np.mean([getattr(r, k) for r in reports])))
                                   for k in metrics)])
        assert cli.main(["sweep", "--split", str(tmp_path / "split"),
                         "--prefs", str(tmp_path / "prefs"), "--arec", "pop", "--n", "5",
                         "--s-values", ",".join(map(str, s_values)), "--reps", str(reps),
                         "--run-seed", str(run_seed), "--protocol", protocol,
                         "--out", str(tmp_path / "sweep")]) == 0
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            assert list(csv.reader(fh)) == want


class TestSweepIgnoresProcessCount:
    """sweep.csv and sweep.json (its wall-clock phase_seconds aside) have the
    same bytes whatever number of processes makes the runs."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_one_two_and_three_processes(self, synth_split, tmp_path, capsys, protocol):
        save_split(synth_split, tmp_path / "split")
        assert cli.main(["prefs", "--split", str(tmp_path / "split"),
                         "--out", str(tmp_path / "prefs")]) == 0
        eligible = _eligible_count(load_split(tmp_path / "split")[0], 5, protocol)
        # more reps than processes; the last two s-values reuse one full-sample run
        s_values, reps = f"1,30,{eligible},{eligible + 5}", 5
        outputs = []
        for processes in (1, 2, 3):
            out = tmp_path / f"sweep{processes}"
            capsys.readouterr()
            with mock.patch("ganc.forked.usable_cpus", return_value=processes):
                assert cli.main(["sweep", "--split", str(tmp_path / "split"),
                                 "--prefs", str(tmp_path / "prefs"), "--arec", "pop",
                                 "--n", "5", "--s-values", s_values, "--reps", str(reps),
                                 "--run-seed", "3", "--protocol", protocol,
                                 "--out", str(out)]) == 0
            assert capsys.readouterr().out.endswith(
                f"(eligible users: {eligible}) in {processes} "
                f"process{'es' if processes > 1 else ''}\n")
            manifest = json.loads((out / "sweep.json").read_text())
            assert manifest.pop("phase_seconds")
            assert manifest["runs"] == {"made": 2 * reps + 1, "reused": 2 * reps - 1}
            outputs.append(((out / "sweep.csv").read_bytes(), json.dumps(manifest)))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# ----------------------------------------------- phase two reads phase one live
#
# Phase two scores its users in order of their snapshot, a block at a time,
# while phase one's pass moves the live coverage from snapshot to snapshot.
# It must assign what the paper's rules assign: each user's greedy list
# against the coverage after its nearest sampled theta.

@st.composite
def replay_cases(draw):
    """A :func:`_random_split` of BLOCK + 1 to 3 * BLOCK users, n, a scorer of
    :func:`accuracy_scorers`, and thetas from a pool of one to four values
    that may hold 0, -0.0 and repeats, so that many users share one snapshot:
    a snapshot's users straddle blocks and a block holds several snapshots.
    Some instances give half the users thetas off the pool."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    split = _random_split(rng, draw(st.integers(BLOCK + 1, 3 * BLOCK)),
                          draw(st.integers(12, 16)))
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.sampled_from(ZERO_ONE) | st.floats(0.0, 1.0), min_size=1,
                         max_size=4))
    spread = draw(st.booleans())
    theta = {u: float(rng.random()) if spread and rng.random() < 0.5
             else pool[int(rng.integers(len(pool)))] for u in split.users}
    return split, n, PreferenceVector("random", theta), draw(accuracy_scorers(split, n))


class TestReplayMatchesSnapshotMatrix:
    """OSLG on instances where phase two's snapshot runs straddle blocks,
    against :func:`_oslg_reference`: samples, lists in order and the number
    of snapshots read."""

    @EXACT
    @given(case=replay_cases(), protocol=st.sampled_from(PROTOCOLS),
           s_share=st.floats(0.0, 0.3) | st.floats(0.0, 1.0),  # small s: several blocks
           seed=st.integers(0, 2**32 - 1),
           shuffle=st.booleans())
    def test_oslg(self, case, protocol, s_share, seed, shuffle):
        split, n, theta, arec = case
        assume(_eligible_count(split, n, protocol) >= 2)
        eligible = core.eligible_users(split, n, protocol)
        s = 1 + int(s_share * (len(eligible) - 2))  # 1 .. eligible - 1: phase two runs
        order = None
        if shuffle:  # any visiting order of phase two assigns the same
            sampled = set(kde_sample(theta, s, seed, users=eligible))
            order = [u for u in eligible if u not in sampled]
            np.random.default_rng(seed).shuffle(order)
        run = oslg(split, theta, arec, n, s, seed, protocol=protocol, phase4_order=order)
        sample, lists, used = _oslg_reference(split, theta, arec, n, s, seed, protocol, order)
        assert run.sampled_users == sample
        assert list(run.collection.lists.items()) == list(lists.items())
        assert run.snapshots_used == used

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_synthetic_split(self, synth_split, synth_stats, protocol):
        theta = theta_generalized(synth_split)
        arec = pop_scorer(synth_split, synth_stats, 5)
        eligible = _eligible_count(synth_split, 5, protocol)
        for s in (1, 10, 40, eligible - 1):
            run = oslg(synth_split, theta, arec, 5, s, 11, protocol=protocol)
            sample, lists, used = _oslg_reference(synth_split, theta, arec, 5, s, 11, protocol)
            assert run.sampled_users == sample
            assert list(run.collection.lists.items()) == list(lists.items())
            assert run.snapshots_used == used


# ---------------------------------------------------------------- tie rules

class TestSnapshotTieRules:
    """``nearest`` returns the position of the snapshot it found."""

    @settings(max_examples=200, deadline=None)
    @given(thetas=st.lists(st.sampled_from(THETA_GRID) | st.floats(0.0, 1.0),
                           min_size=1, max_size=12),
           queries=st.lists(st.floats(-2.0, 3.0) | st.sampled_from(THETA_GRID + (0.125, 0.375)),
                            min_size=1, max_size=8))
    def test_nearest_is_first_added_among_smallest_gap(self, thetas, queries):
        thetas = sorted(thetas)
        store = SnapshotStore(thetas)
        for x in queries:
            assert store.nearest(x) == min(range(len(thetas)),
                                           key=lambda k: (abs(thetas[k] - x), k))

    def test_duplicate_thetas_resolve_to_the_first_added(self):
        store = SnapshotStore([0.5, 0.5, 0.9, 0.9])
        assert store.nearest(0.5) == 0
        assert store.nearest(0.6) == 0
        assert store.nearest(0.9) == 2

    def test_equal_gaps_pick_the_lower_theta(self):
        store = SnapshotStore([0.25, 0.75])
        assert store.nearest(0.5) == 0  # both gaps are exactly 0.25

    def test_queries_outside_the_range_map_to_the_ends(self):
        store = SnapshotStore([0.1, 0.1, 0.4, 0.9, 0.9])
        assert store.nearest(-5.0) == 0
        assert store.nearest(7.0) == 3


class TestSnapshotRowLookup:
    """``nearest_rows`` answers many queries, a block at a time, by the rule
    ``nearest`` follows."""

    @settings(max_examples=200, deadline=None)
    @given(thetas=st.lists(st.sampled_from(THETA_GRID) | st.floats(0.0, 1.0),
                           min_size=1, max_size=12),
           queries=st.lists(st.floats(-2.0, 3.0) | st.sampled_from(THETA_GRID + (0.125, 0.375)),
                            min_size=1, max_size=8))
    def test_agrees_with_nearest(self, thetas, queries):
        thetas = sorted(thetas)
        store = SnapshotStore(thetas)
        assert store.nearest_rows(queries).tolist() == [store.nearest(x) for x in queries]

    def test_more_queries_than_a_block(self):
        rng = np.random.default_rng(6)
        thetas = np.sort(np.concatenate([rng.random(40), np.repeat(THETA_GRID, 3)]))
        store = SnapshotStore(thetas)
        queries = np.concatenate([rng.random(2 * BLOCK + 9), THETA_GRID, [-1.0, 2.0]])
        assert store.nearest_rows(queries).tolist() == [
            min(range(len(thetas)), key=lambda k: (abs(thetas[k] - x), k))
            for x in queries.tolist()]
        assert store.nearest_rows([]).tolist() == []


class TestKdeSampleTieRules:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.sampled_from(THETA_GRID) | st.floats(0.0, 1.0),
                           min_size=1, max_size=25),
           s_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_plain_oracle(self, values, s_share, seed):
        theta = PreferenceVector("random", dict(enumerate(values)))
        s = 1 + int(s_share * (len(values) - 1))
        assert kde_sample(theta, s, seed) == _kde_sample_oracle(theta, s, seed, theta.theta)

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_all_equal_thetas_take_the_lowest_ids(self, seed):
        # every gap ties, so each draw takes the first untaken user by id
        theta = PreferenceVector("constant", {u: 0.5 for u in (7, 3, 9, 1, 5)})
        assert kde_sample(theta, 3, seed) == [1, 3, 5]

    def test_duplicates_within_a_cluster_go_by_id(self):
        # two far-apart clusters of equal thetas; whichever cluster a draw
        # lands nearest, it takes that cluster's lowest untaken id
        theta = PreferenceVector("random", {
            **{u: 0.0 for u in (4, 2, 6)}, **{u: 1.0 for u in (5, 1, 3)}})
        for seed in range(20):
            sample = kde_sample(theta, 2, seed)
            low = [u for u in sample if theta.theta[u] == 0.0]
            high = [u for u in sample if theta.theta[u] == 1.0]
            assert low == [2, 4, 6][:len(low)]
            assert high == [1, 3, 5][:len(high)]

    def test_restricted_pool_matches_oracle(self):
        rng = np.random.default_rng(3)
        theta = PreferenceVector("random", {u: THETA_GRID[int(rng.integers(5))]
                                            for u in range(30)})
        pool = [u for u in range(30) if u % 3]
        for seed in range(5):
            assert kde_sample(theta, 7, seed, users=pool) == _kde_sample_oracle(
                theta, 7, seed, pool)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), values=st.lists(st.sampled_from((0.0, -0.0, 0.5)) | st.floats(0.0, 1.0),
                                           min_size=1, max_size=25),
           s_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_signed_zeros_and_string_ids_tie_by_id(self, data, values, s_share, seed):
        # OSLG samples over a theta array of the pool in id order; 0.0 and
        # -0.0 compare equal, so they tie and go by id, as in the oracle.
        # Each user's one test item is also its train item, so under
        # rated_test_items every user is eligible, however few there are
        ids = data.draw(st.permutations([f"u{k}" for k in range(len(values))]))
        theta = PreferenceVector("random", dict(zip(ids, values)))
        s = 1 + int(s_share * (len(values) - 1))
        want = _kde_sample_oracle(theta, s, seed, ids)
        split = build_split([(u, "i", 3) for u in ids], [(u, "i", 5) for u in ids])
        run = oslg(split, theta, DictAccuracy({}, split), 1, s, seed, protocol="rated_test_items")
        assert run.sampled_users == tuple(want)
        assert kde_sample(theta, s, seed) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_oslg_sample_ties_by_id(self, seed):
        # string user ids on a split; thetas 0.0 and -0.0 only
        users = [f"u{k}" for k in range(12)]
        train = [(u, f"i{k % 5}", 3) for k, u in enumerate(users)] + [("u0", "i5", 3)]
        split = build_split(train)
        theta = PreferenceVector("random", {u: (0.0, -0.0)[k % 2] for k, u in enumerate(users)})
        arec = DictAccuracy({}, split)
        for s in (1, 5, 12):
            run = oslg(split, theta, arec, 2, s, seed)
            assert run.sampled_users == tuple(_kde_sample_oracle(theta, s, seed, users))

    def test_whole_pool_matches_oracle(self):
        # s == len(pool) skips the draws; the oracle still makes them
        rng = np.random.default_rng(8)
        theta = PreferenceVector("random", {
            u: THETA_GRID[int(rng.integers(5))] if u % 2 else float(rng.random())
            for u in range(30)})
        for pool in (None, [u for u in range(30) if u % 3], [29, 4, 17], [11]):
            users = theta.theta if pool is None else pool
            for seed in range(6):
                assert kde_sample(theta, len(users), seed, users=pool) == \
                    _kde_sample_oracle(theta, len(users), seed, users)


def test_no_eligible_user_is_infeasible():
    split = build_split([(1, "a", 3), (2, "b", 3), (1, "c", 3)], [(2, "a", 5)])
    theta = PreferenceVector("constant", {1: 0.5, 2: 0.5})
    arec = DictAccuracy({}, split)
    with pytest.raises(InfeasibleError, match="n=2.*rated_test_items"):
        oslg(split, theta, arec, 2, 1, 0, protocol="rated_test_items")


# ------------------------------------------- columnar parser, split and Pop
#
# The row-by-row loader, splitter and split builder that the columnar ones
# replaced: one Rating per row, dict-of-set indices. ``canonical_ids`` is the
# current one, so both sides apply the same id rule.

def _parse_fields_reference(fields, line_no, path):
    if len(fields) not in (3, 4):
        raise ParseError(f"{path}:{line_no}: expected 3 or 4 fields, got {len(fields)}")
    user, item = fields[0].strip(), fields[1].strip()
    if not user or not item:
        raise ParseError(f"{path}:{line_no}: empty user or item id")
    try:
        value = float(fields[2])
    except ValueError:
        raise ParseError(f"{path}:{line_no}: bad rating {fields[2]!r}") from None
    if not math.isfinite(value) or value < 0:
        raise ParseError(f"{path}:{line_no}: rating must be finite and >= 0")
    ts = None
    if len(fields) == 4 and fields[3].strip():
        ts = _timestamp_reference(fields[3])
        if ts is None or not -2**63 <= ts < 2**63:
            raise ParseError(f"{path}:{line_no}: bad timestamp {fields[3]!r}")
    return user, item, value, ts


def _timestamp_reference(s):
    """int(s) for an integer literal, int(float(s)) for any other number,
    None when neither reads it."""
    for read in (int, lambda s: int(float(s))):
        try:
            return read(s)
        except (ValueError, OverflowError):
            pass
    return None


def _load_ratings_reference(path, format):
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        if format == "csv":
            reader = csv.reader(fh)
            try:  # csv.reader's own errors name the line it stopped at
                header = next(reader, None)
                if header is None:
                    raise EmptyDatasetError(f"{path}: empty file")
                header = [h.strip().lower() for h in header]
                if header[:3] != ["user", "item", "rating"]:
                    raise ParseError(f"{path}:1: expected header user,item,rating[,timestamp]")
                for line_no, fields in enumerate(reader, start=2):
                    if not fields or (len(fields) == 1 and not fields[0].strip()):
                        continue
                    rows.append(_parse_fields_reference(fields, line_no, path))
            except csv.Error as exc:
                raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
        else:
            delim = "\t" if format == "tab_separated" else "::"
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line.strip():
                    continue
                rows.append(_parse_fields_reference(line.split(delim), line_no, path))
    if not rows:
        raise EmptyDatasetError(f"{path}: no ratings parsed")
    users = canonical_ids([r[0] for r in rows])
    items = canonical_ids([r[1] for r in rows])
    dedup = {}
    for (u, i), (_, _, value, ts) in zip(zip(users, items), rows):
        dedup[(u, i)] = Rating(u, i, value, ts)
    return list(dedup.values())


def _from_ratings_reference(train, test):
    user_train, item_train = {}, {}
    for r in train:
        user_train.setdefault(r.user_id, set()).add(r.item_id)
        item_train.setdefault(r.item_id, set()).add(r.user_id)
    kept_test = [r for r in test if r.user_id in user_train and r.item_id in item_train]
    user_test = {u: set() for u in user_train}
    for r in kept_test:
        user_test[r.user_id].add(r.item_id)
    return SimpleNamespace(
        train=tuple(train), test=tuple(kept_test),
        users=tuple(sorted(user_train)), items=tuple(sorted(item_train)),
        per_user_train_index={u: frozenset(s) for u, s in user_train.items()},
        per_user_test_index={u: frozenset(s) for u, s in user_test.items()},
        raters={i: frozenset(s) for i, s in item_train.items()},
    )


def _split_per_user_reference(ratings, kappa, tau, seed):
    by_user = {}
    for r in ratings:
        by_user.setdefault(r.user_id, {})[r.item_id] = r
    train, test = [], []
    for user, by_item in by_user.items():
        rows = list(by_item.values())
        n = len(rows)
        if n < tau:
            continue
        rng = np.random.default_rng((seed ^ id_int(user)) & 0xFFFFFFFFFFFFFFFF)
        perm = rng.permutation(n)
        chosen = np.zeros(n, dtype=bool)
        chosen[perm[:math.ceil(kappa * n)]] = True
        for k, row in enumerate(rows):
            (train if chosen[k] else test).append(row)
    if not train:
        raise EmptyDatasetError(f"no users with at least tau={tau} ratings")
    return _from_ratings_reference(train, test)


def _write_ratings_csv_reference(path, ratings):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "item", "rating", "timestamp"])
        for r in ratings:
            w.writerow([r.user_id, r.item_id, repr(float(r.value)),
                        "" if r.timestamp is None else r.timestamp])


class _PopScorerReference:
    def __init__(self, split, n):
        self.split, self.n, self._ranking = split, n, item_stats_reference(split)[0]

    def top_items(self, user):
        seen = self.split.per_user_train_index[user]
        picked = []
        for item in self._ranking:
            if item not in seen:
                picked.append(item)
                if len(picked) == self.n:
                    break
        return frozenset(picked)

    def score_vector(self, user):
        out = np.zeros(len(self.split.items))
        for item in self.top_items(user):
            out[self.split.item_index[item]] = 1.0
        return out


def _outcome(load, *args):
    """A loader's (or metric's) result, or the type and message of what it raised."""
    try:
        return load(*args)
    except (ParseError, EmptyDatasetError, UndefinedMetricError) as exc:
        return type(exc), str(exc)


# Id pools: ints that read back unchanged, strings, and int-like strings that
# do not (``007``, ``+7``, padded); drawing from small pools makes duplicates.
INT_IDS = ["1", "2", "7", "10", "-3", "0", "123456789012"]
STR_IDS = ["u1", "a", "item x", "é", "7a", "A"]
ODD_IDS = ["007", "+7", " 7", "7 ", "1_0", "٧"]
GOOD_RATINGS = ["1", "2", "3", "4", "5", "4.5", "0", "-0", "3.0", "2.25", " 3 ", "1e0"]
BAD_RATINGS = ["", "x", "nan", "inf", "-inf", "-1", "-0.5", "1e999", "4..0"]
GOOD_STAMPS = ["", " ", "881250949", "0", "-12", "1.5e9", "12.7", "978300760.0",
               "9007199254740993", "9223372036854775807", "-9223372036854775807"]
BAD_STAMPS = ["x", "nan", "1.2.3", "9223372036854775808", "1e30"]
# ids that a CSV file must quote: a quote, a comma, a line end inside
QUOTED_IDS = ['a"b', "x,y", "l\nm", "r\rs", '"', "q\r\nr"]
BLANK_LINES = ["", "  ", "\t", " \t\x0c "]


@st.composite
def rating_files(draw):
    """(format, file text) with whitespace-only lines, LF, CRLF or lone CR
    endings, duplicate pairs, optional timestamps (so 3- and 4-field rows
    mix), int/str/mixed id columns and, now and then, a malformed row, an
    id that CSV quotes (a quote first met anywhere in the file, a quoted
    line end) or, in CSV, a field past ``csv.field_size_limit()``."""
    fmt = draw(st.sampled_from(["tab_separated", "double_colon", "csv"]))
    pools = {"int": INT_IDS, "str": STR_IDS, "mixed": INT_IDS + STR_IDS, "odd": INT_IDS + ODD_IDS}
    user_pool = pools[draw(st.sampled_from(sorted(pools)))]
    item_pool = pools[draw(st.sampled_from(sorted(pools)))]
    stamped = draw(st.sampled_from(["none", "some", "all"]))
    corrupt = draw(st.integers(0, 3)) == 0  # about one file in four has bad rows
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 24)) if corrupt else 99
        if kind == 0:
            rows.append(None)  # blank line
            continue
        fields = [draw(st.sampled_from(user_pool)), draw(st.sampled_from(item_pool)),
                  draw(st.sampled_from(BAD_RATINGS if kind == 1 else GOOD_RATINGS))]
        if stamped == "all" or (stamped == "some" and draw(st.booleans())):
            fields.append(draw(st.sampled_from(BAD_STAMPS if kind == 2 else GOOD_STAMPS)))
        if kind == 3:
            fields = fields[:2]
        elif kind == 4:
            fields = fields + ["extra", "more"]
        elif kind == 5:
            fields[draw(st.integers(0, 1))] = " "
        rows.append(fields)
    filled = [k for k, fields in enumerate(rows) if fields is not None]
    if filled and draw(st.integers(0, 3)) == 0:  # a quoted id, from this row on
        k = draw(st.sampled_from(filled))
        rows[k][draw(st.integers(0, 1))] = draw(st.sampled_from(QUOTED_IDS))
    if filled and fmt == "csv" and draw(st.integers(0, 7)) == 0:
        k = draw(st.sampled_from(filled))  # a field csv.reader refuses
        rows[k][draw(st.integers(0, len(rows[k]) - 1))] = "9" * (csv.field_size_limit() + 1)
    blank = draw(st.sampled_from(BLANK_LINES))
    for _ in range(draw(st.integers(0, 3))):  # blank lines anywhere
        rows.insert(draw(st.integers(0, len(rows))), None)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if fmt == "csv":
        out = io.StringIO()
        w = csv.writer(out, lineterminator=end)
        header = ["user", "item", "rating"] + (["timestamp"] if stamped != "none" else [])
        w.writerow(draw(st.sampled_from([header] * 4 + [[h.upper() for h in header],
                                                       ["uid", "iid", "r"]])))
        for fields in rows:
            if fields is None:
                out.write(blank + end)
            else:
                w.writerow(fields)
        text = out.getvalue()
    else:
        delim = "\t" if fmt == "tab_separated" else "::"
        text = "".join((blank if f is None else delim.join(f)) + end for f in rows)
    if text and draw(st.booleans()):
        text = text[:-len(end)]  # no line ending after the last line
    return fmt, text


class TestColumnarParserMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(case=rating_files(), chunk=st.sampled_from([2, 3, dataset.CHUNK_ROWS]),
           kappa=st.sampled_from([0.3, 0.5, 0.8]), tau=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_same_ratings_errors_and_split(self, tmp_path_factory, case, chunk, kappa,
                                           tau, seed):
        fmt, text = case
        path = tmp_path_factory.mktemp("parse") / "ratings.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_load_ratings_reference, path, fmt)
        with mock.patch.object(dataset, "CHUNK_ROWS", chunk):
            got = _outcome(load_ratings, path, fmt)
            columns = _outcome(load_columns, path, fmt)
        assert got == expected
        if not isinstance(expected, list):
            assert columns == expected
            return
        assert columns.ratings() == expected

        ref = _outcome(_split_per_user_reference, expected, kappa, tau, seed)
        new = _outcome(split_per_user, columns, kappa, tau, seed)
        if isinstance(ref, tuple):
            assert new == ref
            return
        assert new.train == ref.train and new.test == ref.test
        assert (new.users, new.items) == (ref.users, ref.items)
        for name in ("per_user_train_index", "per_user_test_index"):
            assert dict(getattr(new, name)) == getattr(ref, name)
        t = new.train_columns  # the arrays agree with the reference rows
        assert [(new.users[u], new.items[i], v) for u, i, v in
                zip(t.user_codes, t.item_codes, t.values)] == \
            [(r.user_id, r.item_id, r.value) for r in ref.train]
        assert np.array_equal(new.item_train_counts,
                              [len(ref.raters[i]) for i in ref.items])
        assert np.array_equal(new.user_test_counts,
                              [len(ref.per_user_test_index[u]) for u in ref.users])

        out = tmp_path_factory.mktemp("split")
        save_split(new, out)
        for name, rows in (("train", ref.train), ("test", ref.test)):
            _write_ratings_csv_reference(out / "reference.csv", rows)
            assert (out / f"{name}.csv").read_bytes() == (out / "reference.csv").read_bytes()
        again = tmp_path_factory.mktemp("again")
        save_split(load_split(out)[0], again)  # a reloaded split writes the same files
        for name in ("train.csv", "test.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes()


# Files that reach each branch of the block parser: its fast path (lone CR
# ends, whitespace-only lines, 3- and 4-field rows in one block) and the
# csv.reader fallback, entered at the first block or mid-file.
_LONG = "9" * (csv.field_size_limit() + 1)
PARSER_EDGE_CASES = {
    "lone-cr": ("csv", "user,item,rating\r1,2,3\r1,3,4\r2,2,5\r"),
    "lone-cr-tab": ("tab_separated", "1\t2\t3\r\r1\t3\t4\r2\t2\t5"),
    "whitespace-lines": ("csv", "user,item,rating\n  \n1,2,3\n\t\n\x0c \n1,3,4\n\n2,2,5\n"),
    "whitespace-with-comma": ("csv", "user,item,rating\n1,2,3\n \t, \n1,3,4\n"),
    "whitespace-lines-tab": ("tab_separated", "1\t2\t3\n \t \n\t\t\n1\t3\t4\n"),
    "whitespace-lines-colon": ("double_colon", " \n1::2::3\n\t\n1::3::4::5\n\x0c\n"),
    "mixed-widths": ("csv", "user,item,rating,timestamp\n1,2,3\n1,3,4,17\n2,2,5\n2,3,1,\n"),
    "mixed-widths-tab": ("tab_separated", "1\t2\t3\n1\t3\t4\t17\n2\t2\t5\n"),
    "quoted-newline-mid-file": (
        "csv", "user,item,rating\n1,2,3\n1,3,4\n2,2,5\n2,3,4\n3,\"a\nb\",2\n3,2,1\n"),
    "quote-mid-file-then-bad-row": (
        "csv", "user,item,rating\n1,2,3\n1,3,4\n2,2,5\n\"2\",3,4\n3,\"a\nb\",2\n3,2\n"),
    "quoted-newline-in-header": ("csv", '"user",item,rating,"time\nstamp"\n1,2,3\n1,3,x\n'),
    "long-field-first-block": ("csv", f"user,item,rating\n1,2,3\n1,{_LONG},4\n2,2,5\n"),
    "long-field-mid-file": (
        "csv", f"user,item,rating\n1,2,3\n1,3,4\n2,2,5\n2,3,4\n3,2,1\n3,{_LONG},2\n"),
    "long-field-after-quoted-newline": (
        "csv", f"user,item,rating\n\"1\n\",2,3\n1,3,4\n\n2,2,5\n2,{_LONG},4\n"),
    "long-field-after-bad-rating": ("csv", f"user,item,rating\n1,2,x\n1,3,4\n2,{_LONG},4\n"),
    "bad-row-then-long-field": ("csv", f'user,item,rating\n"1",2\n1,{_LONG},3\n'),
    "long-field-in-header": ("csv", f"user,item,rating,{_LONG}\n1,2,3\n"),
}


@pytest.mark.parametrize("chunk", [2, 3, dataset.CHUNK_ROWS])
@pytest.mark.parametrize("name", sorted(PARSER_EDGE_CASES))
def test_block_parser_edge_cases_match_the_reference(tmp_path, name, chunk):
    fmt, text = PARSER_EDGE_CASES[name]
    path = tmp_path / "ratings.txt"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(dataset, "CHUNK_ROWS", chunk):
        got = _outcome(load_ratings, path, fmt)
    assert got == _outcome(_load_ratings_reference, path, fmt)
    if name.startswith("long-field") and name != "long-field-after-bad-rating":
        with open(path, newline="") as fh:  # the line csv.reader stops at
            reader = csv.reader(fh)
            with pytest.raises(csv.Error):
                list(reader)
        assert got == (ParseError, f"{path}:{reader.line_num}: field larger than field "
                                   f"limit ({csv.field_size_limit()})")


# Ids csv.writer writes as they are: with spaces, negative, non-ASCII, empty.
PLAIN_IDS = [0, 7, -3, 10**12, "a", "b c", " x", "y ", "é", "7a", ""]
WRITER_VALUES = [-0.0, 0.0, 1.0, 2.5, 4.0, 0.1, 1e-300, 5e-324, 1.7976931348623157e308,
                 float("inf"), float("nan")]


@st.composite
def rating_parts(draw):
    """Ratings of one split part: ids drawn from plain ids and free text
    without the characters csv.writer quotes, and now and then one id that
    needs quotes; repeated values and -0.0; no, some or all timestamps."""
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
    ids = st.one_of(st.sampled_from(PLAIN_IDS),
                    text.filter(lambda s: not set(s) & set(',"\r\n')))
    stamped = draw(st.sampled_from(["none", "some", "all"]))
    ratings = []
    for _ in range(draw(st.integers(0, 25))):
        ts = None
        if stamped == "all" or (stamped == "some" and draw(st.booleans())):
            ts = draw(st.integers(-2**63, 2**63 - 1))
        ratings.append(Rating(draw(ids), draw(ids), draw(st.sampled_from(WRITER_VALUES)), ts))
    if ratings and draw(st.booleans()):
        k = draw(st.integers(0, len(ratings) - 1))
        field = draw(st.sampled_from(["user_id", "item_id"]))
        ratings[k] = replace(ratings[k], **{field: draw(st.sampled_from(QUOTED_IDS) | text)})
    return ratings


class TestJoinWriterMatchesCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(ratings=rating_parts(), rows=st.sampled_from([1, 2, 3, dataset.CHUNK_ROWS]))
    def test_same_bytes(self, tmp_path_factory, ratings, rows):
        out = tmp_path_factory.mktemp("write")
        cols = RatingColumns.from_ratings(ratings)
        with mock.patch.object(dataset, "CHUNK_ROWS", rows):
            dataset._write_ratings_csv(out / "join.csv", cols)
        _write_ratings_csv_reference(out / "reference.csv", cols.ratings())
        assert (out / "join.csv").read_bytes() == (out / "reference.csv").read_bytes()


def test_split_of_columns_whose_tables_are_in_another_order(synth_ratings):
    # the id tables list users in the order the unreversed rows meet them
    cols = RatingColumns.from_ratings(synth_ratings).take(np.arange(len(synth_ratings))[::-1])
    ref = _split_per_user_reference(synth_ratings[::-1], 0.5, 20, 5)
    new = split_per_user(cols, 0.5, 20, 5)
    assert new.train == ref.train and new.test == ref.test


class TestPopScorerMatchesReference:
    @EXACT
    @given(inst=instances(), n=st.integers(1, 16))
    def test_small_instances(self, inst, n):
        split = inst[0]
        assume(n <= len(split.items))
        self._check(split, n)

    def test_synthetic_split(self, synth_split):
        for n in (1, 5, 40):
            self._check(synth_split, n)

    @staticmethod
    def _check(split, n):
        stats = compute_item_stats(split)
        fast, ref = pop_scorer(split, stats, n), _PopScorerReference(split, n)
        # the top matrix built from the CSR against each user's candidate mask
        ranking = np.array([split.item_index[i] for i in ref._ranking])
        assert fast.top_matrix.shape == (len(split.users), n)
        for k, user in enumerate(split.users):
            top = ranking[split.candidate_mask(user)[ranking]][:n]
            assert np.array_equal(fast.top_matrix[k], np.pad(top, (0, n - len(top)),
                                                             constant_values=-1))
        for user in split.users:
            for _ in range(2):  # a cached answer must equal the first one
                assert fast.top_items(user) == ref.top_items(user)
                got, want = fast.score_vector(user), ref.score_vector(user)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def _external_scores_reference(path, split):
    """The dense (|U|, |I|) matrix the external-score loader filled before it
    kept only the file's pairs: a dict per user, filled in file order."""
    rows = [(u.strip(), i.strip(), float(v))
            for _, (u, i, v) in read_table(path, ("user", "item", "score"))]
    users = dataset.resolve_ids([r[0] for r in rows], split.users)
    items = dataset.resolve_ids([r[1] for r in rows], split.items)
    per_user: dict = {}
    for u, i, (_, _, v) in zip(users, items, rows):
        if u in split.user_index and i in split.item_index:
            per_user.setdefault(u, {})[i] = v
    scores = np.zeros((len(split.users), len(split.items)))
    for user, pairs in per_user.items():
        vals = np.array(list(pairs.values()), dtype=float)
        lo, hi = vals.min(), vals.max()
        norm = (vals - lo) / (hi - lo) if hi > lo else np.zeros_like(vals)
        for item, nv in zip(pairs, norm):
            scores[split.user_index[user], split.item_index[item]] = nv
    return scores


class TestExternalScoresMatchReference:
    """load_external_scores keeps the file's pairs only; read as dense
    vectors they must equal the dense matrix it built before, on files with
    repeated pairs, ids the split lacks, users without pairs and tied or
    equal scores. Values are compared, so a -0.0 may read as 0.0."""

    @EXACT
    @given(inst=instances(), seed=st.integers(0, 2**32 - 1),
           grid=st.booleans(), rows=st.integers(0, 60))
    def test_small_instances(self, inst, seed, grid, rows, tmp_path_factory):
        split = inst[0]
        rng = np.random.default_rng(seed)
        users = [*map(str, split.users), "0", "nobody"]
        items = [*map(str, split.items), "007", "nothing"]
        path = tmp_path_factory.mktemp("ext") / "scores.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user", "item", "score"])
            for _ in range(rows):  # few draws per pair: repeats
                v = rng.integers(-2, 3) / 2 if grid else rng.normal() * 10.0 ** rng.integers(-3, 4)
                w.writerow([users[rng.integers(len(users))], items[rng.integers(len(items))],
                            repr(float(v))])
        got = load_external_scores(path, split)
        dense = np.array([got.score_vector(u) for u in split.users])
        assert np.array_equal(dense, _external_scores_reference(path, split))


# ------------------------------------------------------ split.npz sidecar
#
# A saved split loads from its sidecar when there is one; it must equal the
# split parsed from train.csv and test.csv. An id column of the split is all
# ints or all strs (the tables are sorted).

SPLIT_ID_POOLS = {
    "int": [1, 2, 7, 10, -3, 0, 123456789012],
    "int64-edge": [1, 2**63 - 1, -2**63, 2**63, 10**20],  # the last two leave int64
    "str": ["u1", "a", "item x", "é", "7a", "x,y", 'q"t', "l\nf", "c\rr", "n\x00l", "z\x00"],
    # ints on reload unless "007" or "-0" is among them; past int64 for the last
    "int-like": ["1", "2", "10", "-3", "007", "7", "-0", "18446744073709551616"],
    "padded": ["7", " 7", "a", "a "],  # the reload strips, and merges, these
}
SPLIT_VALUES = [0.0, -0.0, 1.0, 4.5, 3.25, 5.0, 1e-300]
# None is a missing stamp; float() would round 2**53 + 1 and 2**63 - 1
SPLIT_STAMPS = [None, 0, 881250949, -12, 2**53 + 1, -2**63, 2**63 - 1]


@st.composite
def split_cases(draw):
    """(train, test) Rating lists over drawn id pools, values and stamps; in
    about half the cases one part or both have no timestamp at all."""
    user_pool = SPLIT_ID_POOLS[draw(st.sampled_from(sorted(SPLIT_ID_POOLS)))]
    item_pool = SPLIT_ID_POOLS[draw(st.sampled_from(sorted(SPLIT_ID_POOLS)))]
    unstamped = draw(st.sampled_from([(), (), (), ("train",), ("test",), ("train", "test")]))
    parts = []
    for part, min_size in (("train", 1), ("test", 0)):
        stamps = st.none() if part in unstamped else st.sampled_from(SPLIT_STAMPS)
        row = st.builds(Rating, st.sampled_from(user_pool), st.sampled_from(item_pool),
                        st.sampled_from(SPLIT_VALUES), stamps)
        parts.append(draw(st.lists(row, min_size=min_size, max_size=25)))
    return tuple(parts)


def _sidecar_expected(split) -> bool:
    """Whether the split's reload fits the sidecar: no padded or colliding
    written id, and every id within int64."""
    for table in (split.users, split.items):
        written = [str(x) for x in table]
        if len(set(written)) < len(written) or any(w != w.strip() for w in written):
            return False
        if any(isinstance(x, int) and not -2**63 <= x < 2**63 for x in canonical_ids(written)):
            return False
    return True


class TestSplitSidecarMatchesCsvParse:
    @settings(max_examples=200, deadline=None)
    @given(case=split_cases())
    def test_round_trip(self, tmp_path_factory, case):
        train, test = case
        with pytest.raises(ValueError, match="timestamp"):  # a stamp past int64
            SplitDataset.from_ratings([replace(train[0], timestamp=10**19), *train[1:]], test)
        split = SplitDataset.from_ratings(train, test)
        out = tmp_path_factory.mktemp("split")
        save_split(split, out)
        want = dataset._parse_split(out)
        has_sidecar = (out / dataset.SIDECAR).exists()
        assert has_sidecar == _sidecar_expected(split)
        if not has_sidecar:
            assert_same_split(load_split(out)[0], want)
            return
        with mock.patch.object(dataset, "_parse", side_effect=AssertionError("parsed")):
            assert_same_split(load_split(out)[0], want)
        # a part whose timestamps are all missing stores neither array; a
        # sidecar written before that rule, with both arrays, still loads
        with np.load(out / dataset.SIDECAR) as z:
            arrays = {k: z[k] for k in z.files}
        for part in ("train", "test"):
            cols = getattr(want, f"{part}_columns")
            assert (f"{part}_timestamps" in arrays) == (f"{part}_missing" in arrays) \
                == (not cols.missing.all())
            arrays.setdefault(f"{part}_timestamps", np.zeros(len(cols), dtype=np.int64))
            arrays.setdefault(f"{part}_missing", np.ones(len(cols), dtype=bool))
        np.savez(out / dataset.SIDECAR, **arrays)
        with mock.patch.object(dataset, "_parse", side_effect=AssertionError("parsed")):
            assert_same_split(load_split(out)[0], want)
