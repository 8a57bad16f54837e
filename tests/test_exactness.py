"""The one-pass assignment engine and evaluation against the code they replaced.

The references below are the implementations the fast paths replaced:
``_greedy_idx_reference`` rebuilds the blended gains (and the coverage
vector) at each of the n steps, ``_SnapshotStoreReference`` keeps full
frequency copies and rebuilds its theta array on every lookup, and
``_evaluate_reference`` recomputes relevant items per call and popularity
weights per relevant pair. Outputs must be equal, not close.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ganc.core import (
    PROTOCOLS,
    RecFrequency,
    SnapshotStore,
    TopNCollection,
    independent_greedy,
    kde_sample,
    locally_greedy_full,
    oslg,
)
from ganc.dataset import compute_item_stats
from ganc.errors import InfeasibleError, UndefinedMetricError
from ganc.metrics import EvalReport, evaluate, gini, lt_accuracy_at_n
from ganc.preference import PreferenceVector, theta_generalized
from ganc.recommenders import DynCoverage, pop_scorer, stat_coverage

from conftest import DictAccuracy, DictCoverage, build_split


# ---------------------------------------------------------------- references

def _greedy_idx_reference(user, theta, arec, crec, n, cand_idx):
    if len(cand_idx) < n:
        raise InfeasibleError(f"user {user!r}: {len(cand_idx)} candidates for top-{n}")
    acc = (1.0 - theta) * arec.score_vector(user)[cand_idx]
    avail = np.ones(len(cand_idx), dtype=bool)
    picked = []
    for _ in range(n):
        gains = acc + theta * crec.score_vector()[cand_idx]
        gains[~avail] = -np.inf
        k = int(np.argmax(gains))
        picked.append(int(cand_idx[k]))
        avail[k] = False
    return picked


class _SnapshotStoreReference:
    def __init__(self):
        self._thetas = []
        self._freqs = []

    def add(self, theta, freq):
        self._thetas.append(theta)
        self._freqs.append(freq)

    def nearest(self, theta):
        gaps = np.abs(np.asarray(self._thetas) - theta)
        return self._freqs[int(np.argmin(gaps))]


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


def _oslg_reference(split, theta, arec, n, s, seed, protocol):
    users, cands = _eligible_reference(split, n, protocol)
    sample = kde_sample(theta, s, seed, users=users)
    freq = RecFrequency(split)
    dyn = DynCoverage(freq)
    store = _SnapshotStoreReference()
    lists = {}
    for u in sample:
        picked = _ids(split, _greedy_idx_reference(u, theta.theta[u], arec, dyn, n, cands[u]))
        freq.increment(picked)
        store.add(theta.theta[u], RecFrequency(split, freq.counts.copy()))
        lists[u] = picked
    for u in users:
        if u not in lists:
            snapshot = DynCoverage(store.nearest(theta.theta[u]))
            lists[u] = _ids(split, _greedy_idx_reference(
                u, theta.theta[u], arec, snapshot, n, cands[u]))
    return tuple(sample), lists


def _locally_greedy_reference(split, theta, arec, n, user_order, protocol):
    users, cands = _eligible_reference(split, n, protocol)
    if user_order == "increasing_theta":
        users = sorted(users, key=lambda u: (theta.theta[u], u))
    freq = RecFrequency(split)
    dyn = DynCoverage(freq)
    lists = {}
    for u in users:
        picked = _ids(split, _greedy_idx_reference(u, theta.theta[u], arec, dyn, n, cands[u]))
        freq.increment(picked)
        lists[u] = picked
    return lists


def _independent_greedy_reference(split, theta, arec, crec, n, protocol):
    users, cands = _eligible_reference(split, n, protocol)
    return {u: _ids(split, _greedy_idx_reference(u, theta.theta[u], arec, crec, n, cands[u]))
            for u in users}


def _relevant_reference(split, user, threshold):
    return frozenset(r.item_id for r in split.test
                     if r.user_id == user and r.value >= threshold)


def _strat_recall_reference(coll, split, beta, threshold):
    def weight(item):
        pop = len(split.per_item_train_index.get(item, ())) or 1
        return pop ** (-beta)

    num = 0.0
    den = 0.0
    for u in coll.lists:
        relevant = _relevant_reference(split, u, threshold)
        retrieved = relevant & set(coll.lists[u])
        num += sum(weight(i) for i in retrieved)
        den += sum(weight(i) for i in relevant)
    if den == 0:
        raise UndefinedMetricError("no relevant test items anywhere")
    return num / den


def _evaluate_reference(coll, split, stats, protocol, n, beta, threshold):
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
        lt_accuracy=lt_accuracy_at_n(work, stats),
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


@st.composite
def instances(draw):
    """Small split, n, theta, an accuracy scorer and a static coverage scorer.

    Every item gets one anchor rating (round robin over users) so it stays in
    the train universe; with at least two users and twelve items each user
    keeps at least three unseen items, so every instance is feasible under
    all_unrated for n <= 3. Test ratings land on unseen items.
    """
    n_users = draw(st.integers(2, 7))
    n_items = draw(st.integers(12, 16))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
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
    split = build_split([(u, i, int(rng.integers(1, 6))) for u, i in sorted(train)], test)

    if draw(st.booleans()):  # many users share a theta: ties in sampling and lookup
        theta = {u: THETA_GRID[int(rng.integers(len(THETA_GRID)))] for u in split.users}
    else:
        theta = {u: float(rng.random()) for u in split.users}
    kind = draw(st.sampled_from(["pop", "binary", "continuous"]))
    if kind == "pop":  # binary scores from the real Pop scorer
        arec = pop_scorer(split, compute_item_stats(split), int(rng.integers(1, n_items + 1)))
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
        sample, lists = _oslg_reference(split, theta, arec, n, s, seed, protocol)
        assert run.sampled_users == sample
        assert list(run.collection.lists.items()) == list(lists.items())

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
                sample, lists = _oslg_reference(synth_split, theta, arec, 5, s, 4, protocol)
                assert run.sampled_users == sample
                assert list(run.collection.lists.items()) == list(lists.items())
                expected, _ = _evaluate_reference(TopNCollection(5, lists), synth_split,
                                                  synth_stats, protocol, 5, 0.5, 4.0)
                assert evaluate(run.collection, synth_split, synth_stats,
                                protocol=protocol) == expected


# ---------------------------------------------------------------- tie rules

class TestSnapshotTieRules:
    @settings(max_examples=200, deadline=None)
    @given(thetas=st.lists(st.sampled_from(THETA_GRID) | st.floats(0.0, 1.0),
                           min_size=1, max_size=12),
           queries=st.lists(st.floats(-2.0, 3.0) | st.sampled_from(THETA_GRID + (0.125, 0.375)),
                            min_size=1, max_size=8))
    def test_nearest_is_first_added_among_smallest_gap(self, thetas, queries):
        thetas = sorted(thetas)
        store = SnapshotStore()
        for k, th in enumerate(thetas):
            store.add(th, k)
        for x in queries:
            assert store.nearest(x) == min(range(len(thetas)),
                                           key=lambda k: (abs(thetas[k] - x), k))

    def test_duplicate_thetas_resolve_to_the_first_added(self):
        store = SnapshotStore()
        for th, name in ((0.5, "a"), (0.5, "b"), (0.9, "c"), (0.9, "d")):
            store.add(th, name)
        assert store.nearest(0.5) == "a"
        assert store.nearest(0.6) == "a"
        assert store.nearest(0.9) == "c"

    def test_equal_gaps_pick_the_lower_theta(self):
        store = SnapshotStore()
        store.add(0.25, "low")
        store.add(0.75, "high")
        assert store.nearest(0.5) == "low"  # both gaps are exactly 0.25

    def test_queries_outside_the_range_map_to_the_ends(self):
        store = SnapshotStore()
        for th, name in ((0.1, "a"), (0.1, "b"), (0.4, "c"), (0.9, "d"), (0.9, "e")):
            store.add(th, name)
        assert store.nearest(-5.0) == "a"
        assert store.nearest(7.0) == "d"

    def test_lookup_sees_snapshots_added_after_a_lookup(self):
        store = SnapshotStore()
        store.add(0.2, "a")
        assert store.nearest(0.8) == "a"
        store.add(0.7, "b")
        assert store.nearest(0.8) == "b"
        assert len(store) == 2


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


def test_no_eligible_user_is_infeasible():
    split = build_split([(1, "a", 3), (2, "b", 3), (1, "c", 3)], [(2, "a", 5)])
    theta = PreferenceVector("constant", {1: 0.5, 2: 0.5})
    arec = DictAccuracy({}, split)
    with pytest.raises(InfeasibleError, match="n=2.*rated_test_items"):
        oslg(split, theta, arec, 2, 1, 0, protocol="rated_test_items")
