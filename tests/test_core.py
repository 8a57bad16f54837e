"""Greedy assignment, sampling, and the exhaustive/property oracles of tests/oracles.py."""

import math
import tracemalloc
from collections import Counter

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganc.core import (
    PROTOCOLS,
    SnapshotStore,
    TopNCollection,
    candidate_pool_sizes,
    eligible_users,
    independent_greedy,
    kde_sample,
    load_collection,
    locally_greedy_full,
    oslg,
    save_collection,
)
from ganc.dataset import compute_item_stats
from ganc.errors import ContractViolationError, InfeasibleError
from ganc.preference import PreferenceVector, theta_baseline, theta_generalized
from ganc.recommenders import StaticCoverage, pop_scorer, rand_coverage, stat_coverage

from conftest import DictAccuracy, DictCoverage, build_split, random_instance
from oracles import (
    InstanceTooLargeError,
    brute_force_optimal,
    collection_value,
    greedy_topn_user,
    submodularity_check,
    unseen_items,
    user_value,
)


def const_theta(split, value):
    return theta_baseline(split.users, "constant", c=value)


class TestUserValue:
    def _setup(self):
        split = build_split([(1, "seen", 3), (2, "a", 3), (2, "b", 3)])
        arec = DictAccuracy({(1, "a"): 0.5, (1, "b"): 0.3}, split)
        crec = DictCoverage({"a": 0.1, "b": 0.3}, split)
        return split, arec, crec

    def test_blend(self):
        split, arec, crec = self._setup()
        v = user_value(split, 1, ["a", "b"], 0.5, arec, crec)
        assert v == pytest.approx(0.5 * 0.8 + 0.5 * 0.4)

    def test_theta_zero_is_pure_accuracy(self):
        split, arec, crec = self._setup()
        assert user_value(split, 1, ["a", "b"], 0.0, arec, crec) == pytest.approx(0.8)

    def test_theta_one_is_pure_coverage(self):
        split, arec, crec = self._setup()
        assert user_value(split, 1, ["a", "b"], 1.0, arec, crec) == pytest.approx(0.4)

    def test_seen_item_violates_contract(self):
        split, arec, crec = self._setup()
        with pytest.raises(ContractViolationError):
            user_value(split, 1, ["seen", "a"], 0.5, arec, crec)


def sort_oracle(split, user, theta, arec, crec, n):
    """Independent route: rank candidates by blended score, break ties by id."""
    cands = sorted(set(split.items) - split.per_user_train_index[user])
    acc, cov = arec.score_vector(user), crec.score_vector()
    scored = [((1 - theta) * acc[split.item_index[i]] + theta * cov[split.item_index[i]], i)
              for i in cands]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return tuple(i for _, i in scored[:n])


class TestGreedyTopnUser:
    def test_theta_zero_reduces_to_pop(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        crec = stat_coverage(synth_stats, synth_split)
        for user in synth_split.users[:8]:
            picked = greedy_topn_user(synth_split, user, 0.0, arec, crec, 5)
            assert set(picked) == arec.top_items(user)

    def test_all_candidates_returned_when_n_matches(self):
        split = build_split([(1, "x", 3), (2, "a", 3), (2, "b", 3), (2, "c", 3)])
        arec = DictAccuracy({(1, "a"): 0.9, (1, "b"): 0.2, (1, "c"): 0.5}, split)
        crec = DictCoverage({}, split)
        picked = greedy_topn_user(split, 1, 0.0, arec, crec, 3)
        assert picked == ("a", "c", "b")  # score order

    def test_matches_sort_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            split, theta, arec = random_instance(rng)
            crec = DictCoverage(
                {i: float(rng.random()) for i in split.items}, split)
            for user in split.users:
                n = min(2, len(split.items) - len(split.per_user_train_index[user]))
                got = greedy_topn_user(split, user, theta.theta[user], arec, crec, n)
                assert got == sort_oracle(split, user, theta.theta[user], arec, crec, n)

    def test_tie_breaks_by_ascending_item_id(self):
        split = build_split([(1, "pad", 3), (2, "b", 3), (2, "a", 3), (2, "c", 3)])
        arec = DictAccuracy({}, split)  # every candidate scores 0
        crec = DictCoverage({"a": 0.5, "b": 0.5, "c": 0.5}, split)
        assert greedy_topn_user(split, 1, 1.0, arec, crec, 2) == ("a", "b")

    def test_infeasible_when_too_few_candidates(self):
        split = build_split([(1, "x", 3), (2, "a", 3)])
        arec = DictAccuracy({}, split)
        crec = DictCoverage({}, split)
        with pytest.raises(InfeasibleError):
            greedy_topn_user(split, 1, 0.5, arec, crec, 2)

    def test_selected_marginal_gains_never_increase(self):
        # within one build the coverage state is frozen, so successive
        # greedy picks must carry non-increasing blended gains
        rng = np.random.default_rng(71)
        for _ in range(10):
            split, theta, arec = random_instance(rng, n_users=3, n_items=6)
            cov = DictCoverage({i: float(rng.random()) for i in split.items}, split)
            for user in split.users:
                th = theta.theta[user]
                picked = greedy_topn_user(split, user, th, arec, cov, 2)
                k = [split.item_index[i] for i in picked]
                gains = (1 - th) * arec.score_vector(user)[k] + th * cov.score_vector()[k]
                assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_scaling_both_scorers_leaves_output_unchanged(self):
        rng = np.random.default_rng(23)
        split, theta, arec = random_instance(rng)
        cov = {i: float(rng.random()) for i in split.items}
        crec = DictCoverage(cov, split)
        scaled_arec = DictAccuracy({k: 3.7 * v for k, v in arec.scores.items()}, split)
        scaled_crec = DictCoverage({k: 3.7 * v for k, v in cov.items()}, split)
        for user in split.users:
            base = greedy_topn_user(split, user, theta.theta[user], arec, crec, 2)
            scaled = greedy_topn_user(split, user, theta.theta[user],
                                      scaled_arec, scaled_crec, 2)
            assert base == scaled


class TestLocallyGreedy:
    def test_theta_zero_ignores_frequency_state(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        coll = locally_greedy_full(synth_split, const_theta(synth_split, 0.0), arec, 5)
        for user, items in coll.lists.items():
            assert set(items) == arec.top_items(user)

    def test_frequency_totals(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        coll = locally_greedy_full(synth_split, theta, arec, 5)
        coll.validate(synth_split)
        total = sum(len(v) for v in coll.lists.values())
        assert total == 5 * len(synth_split.users)

    def test_half_approximation_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            split, theta, arec = random_instance(rng)
            n = 2
            coll = locally_greedy_full(split, theta, arec, n)
            value = collection_value(split, theta, arec, coll.lists)
            optimum, _ = brute_force_optimal(split, theta, arec, n)
            assert value >= 0.5 * optimum - 1e-9

    def test_unknown_order_rejected(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        with pytest.raises(ValueError):
            locally_greedy_full(synth_split, const_theta(synth_split, 0.0),
                                arec, 5, user_order="by_name")


class TestKdeSample:
    def test_degenerate_distribution(self):
        theta = PreferenceVector("constant", {u: 0.5 for u in range(10)})
        sample = kde_sample(theta, 3, seed=1)
        assert len(sample) == len(set(sample)) == 3
        assert all(theta.theta[u] == 0.5 for u in sample)

    def test_full_sample_is_everyone_sorted(self):
        rng = np.random.default_rng(5)
        theta = PreferenceVector("random", {u: float(rng.random()) for u in range(25)})
        sample = kde_sample(theta, 25, seed=0)
        assert sorted(sample) == list(range(25))
        values = [theta.theta[u] for u in sample]
        assert values == sorted(values)

    def test_bimodal_balance(self):
        theta = PreferenceVector("random", {
            **{u: 0.1 for u in range(20)},
            **{u: 0.9 for u in range(20, 40)},
        })
        low_fraction = []
        for rep in range(1000):
            sample = kde_sample(theta, 20, seed=rep)
            low_fraction.append(sum(1 for u in sample if theta.theta[u] < 0.5) / 20)
        assert 0.40 <= float(np.mean(low_fraction)) <= 0.60

    def test_sample_too_large(self):
        theta = PreferenceVector("constant", {1: 0.5, 2: 0.5})
        with pytest.raises(ValueError):
            kde_sample(theta, 3, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        theta = PreferenceVector("random", {u: float(rng.random()) for u in range(30)})
        assert kde_sample(theta, 10, seed=4) == kde_sample(theta, 10, seed=4)


class TestOslg:
    def test_full_sample_equals_locally_greedy_increasing_theta(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            split, theta, arec = random_instance(rng, n_users=4, n_items=8)
            run = oslg(split, theta, arec, n=2, s=len(split.users), seed=0)
            baseline = locally_greedy_full(split, theta, arec, 2,
                                           user_order="increasing_theta")
            assert run.collection.lists == baseline.lists

    def test_theta_zero_degenerates_to_accuracy_topn(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        run = oslg(synth_split, const_theta(synth_split, 0.0), arec, 5,
                   s=30, seed=0)
        for user, items in run.collection.lists.items():
            assert set(items) == arec.top_items(user)

    def test_sequential_phase_frequency_totals(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        run = oslg(synth_split, theta, arec, 5, s=40, seed=1)
        assert len(run.sampled_users) == 40
        seq_total = sum(len(run.collection.lists[u]) for u in run.sampled_users)
        assert seq_total == 5 * 40
        assert set(run.phase_seconds) == {"sequential", "parallel"}

    def test_phase4_execution_order_is_irrelevant(self):
        rng = np.random.default_rng(7)
        split, theta, arec = random_instance(rng, n_users=4, n_items=8)
        base = oslg(split, theta, arec, n=2, s=2, seed=3)
        rest = [u for u in split.users if u not in base.sampled_users]
        for perm_seed in (1, 2):
            perm = list(np.random.default_rng(perm_seed).permutation(rest))
            again = oslg(split, theta, arec, n=2, s=2, seed=3,
                         phase4_order=perm)
            assert again.collection.lists == base.collection.lists

    def test_reversed_phase4_order_is_irrelevant(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        base = oslg(synth_split, theta, arec, 5, s=25, seed=2)
        rest = [u for u in synth_split.users if u not in base.sampled_users]
        assert base.phase2_users == len(rest) > 1
        # the ignored workers keyword is still accepted
        again = oslg(synth_split, theta, arec, 5, s=25, seed=2, workers=8,
                     phase4_order=rest[::-1])
        assert again.collection.lists == base.collection.lists

    def test_invalid_phase4_order_rejected(self):
        rng = np.random.default_rng(7)
        split, theta, arec = random_instance(rng, n_users=4, n_items=8)
        with pytest.raises(ValueError):
            oslg(split, theta, arec, n=2, s=2, seed=3, phase4_order=[999])

    def test_output_invariants(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        run = oslg(synth_split, theta, arec, 5, s=50, seed=0)
        run.collection.validate(synth_split)
        assert set(run.collection.lists) == set(synth_split.users)

    @settings(max_examples=60, deadline=None)
    @given(instance_seed=st.integers(0, 2**32 - 1), protocol=st.sampled_from(PROTOCOLS),
           n=st.integers(1, 3), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2,
                                                max_size=2, unique=True))
    def test_sample_of_every_eligible_user_ignores_the_seed(self, instance_seed, protocol,
                                                            n, seeds):
        # the rule that lets sweep reuse one run for every clipped (s, rep)
        split, theta, arec = random_instance(np.random.default_rng(instance_seed),
                                             n_users=5, n_items=10, test_per_user=(0, 6))
        try:
            s = len(eligible_users(split, n, protocol))
        except InfeasibleError:
            return
        a, b = (oslg(split, theta, arec, n, s, seed, protocol=protocol) for seed in seeds)
        assert a.sampled_users == b.sampled_users
        assert list(a.collection.lists.items()) == list(b.collection.lists.items())
        assert a.phase2_users == a.snapshots_used == 0

    def test_full_sample_scores_no_block(self, synth_split, synth_stats):
        # a scorer without the add_accuracy hook is read once per user scored:
        # with every user sampled, phase one reads each user and phase two none
        pop = pop_scorer(synth_split, synth_stats, 5)
        reads = Counter()

        class VectorOnly:
            def score_vector(self, user):
                reads[user] += 1
                return pop.score_vector(user)

        theta = theta_generalized(synth_split)
        run = oslg(synth_split, theta, VectorOnly(), 5, s=len(synth_split.users), seed=0)
        assert reads == Counter(synth_split.users)
        assert run.phase2_users == run.snapshots_used == 0

    def test_phase_one_runs_past_the_last_snapshot_read(self, synth_split, synth_stats):
        # phase two reads only snapshot 0 here, so every later sampled list
        # is written by the rest of phase one's pass after phase two is done
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        with mock.patch.object(SnapshotStore, "nearest_rows",
                               lambda self, thetas: np.zeros(len(thetas), dtype=np.intp)):
            run = oslg(synth_split, theta, arec, 5, s=20, seed=0)
        assert run.snapshots_used == 1 and run.phase2_users > 0
        counts = np.zeros(len(synth_split.items), dtype=np.int64)
        for user in run.sampled_users:  # the sequential greedy, one user at a time
            crec = StaticCoverage(1 / np.sqrt(counts + 1.0))
            picked = greedy_topn_user(synth_split, user, theta.theta[user], arec, crec, 5)
            assert run.collection.lists[user] == picked
            counts[[synth_split.item_index[i] for i in picked]] += 1

    def test_sampled_users_are_checked_before_phase_two_users(self):
        # all_unrated, n=2 over items a-f: user u rates item u, and an
        # infeasible user rates all but one item, leaving one candidate
        users = range(1, 7)
        theta = PreferenceVector("random", {u: u / 10 for u in users})
        sampled = kde_sample(theta, 3, seed=0)
        low = min(u for u in users if u not in sampled)
        high = max(sampled)
        assert low < high  # so a check in id order would name the phase-two user

        def run(*infeasible):
            ratings = []
            for u in users:
                skip = "a" if u == 6 else "f"
                rated = [i for i in "abcdef" if i != skip] if u in infeasible else ["abcdef"[u - 1]]
                ratings += [(u, i, 3) for i in rated]
            split = build_split(ratings)
            with pytest.raises(InfeasibleError) as err:
                oslg(split, theta, DictAccuracy({}, split), 2, 3, seed=0)
            return str(err.value)

        assert run(low, high).startswith(f"user {high!r}: 1 candidates")
        assert run(low).startswith(f"user {low!r}: 1 candidates")

    def test_phase_two_holds_no_snapshot_matrix(self, synth_split, synth_stats):
        # one row per sampled user would be s * |I| * 8 bytes; phase two
        # reads each snapshot from phase one's one live coverage vector instead
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        s = len(synth_split.users) - 1
        oslg(synth_split, theta, arec, 5, s=s, seed=0)  # fills the split's lazy caches
        tracemalloc.start()
        try:
            oslg(synth_split, theta, arec, 5, s=s, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < s * len(synth_split.items) * 8

    def test_rated_protocol_restricts_users_and_candidates(self, synth_split,
                                                           synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        run = oslg(synth_split, theta, arec, 5, s=20, seed=0,
                   protocol="rated_test_items")
        eligible = {u for u in synth_split.users
                    if len(synth_split.per_user_test_index[u]) >= 5}
        assert set(run.collection.lists) == eligible
        for user, items in run.collection.lists.items():
            assert set(items) <= synth_split.per_user_test_index[user]


class TestCandidatePoolSizes:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_match_the_masks_oslg_scores(self, synth_split, protocol):
        for n in (1, 5, 12):
            if protocol == "all_unrated":
                pool = [len(unseen_items(synth_split, u))
                        for u in eligible_users(synth_split, n, protocol)]
            else:
                pool = [len(synth_split.per_user_test_index[u])
                        for u in eligible_users(synth_split, n, protocol)]
            assert candidate_pool_sizes(synth_split, n, protocol).tolist() == pool


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("n", [0, -1])
def test_every_entry_refuses_n_below_one(synth_split, synth_stats, protocol, n):
    theta = theta_generalized(synth_split)
    arec, crec = pop_scorer(synth_split, synth_stats, 5), rand_coverage(3, synth_split)
    for call in (lambda: eligible_users(synth_split, n, protocol),
                 lambda: candidate_pool_sizes(synth_split, n, protocol),
                 lambda: oslg(synth_split, theta, arec, n, 10, 0, protocol=protocol),
                 lambda: independent_greedy(synth_split, theta, arec, crec, n, protocol),
                 lambda: locally_greedy_full(synth_split, theta, arec, n, protocol=protocol)):
        with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
            call()


class TestIndependentGreedy:
    def test_matches_per_user_greedy(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        crec = rand_coverage(3, synth_split)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec, crec, 5)
        coll.validate(synth_split)
        for user in synth_split.users[:10]:
            expected = greedy_topn_user(synth_split, user, theta.theta[user],
                                        arec, crec, 5)
            assert coll.lists[user] == expected

    def test_stat_coverage_matches_per_user_greedy(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        crec = stat_coverage(synth_stats, synth_split)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec, crec, 5)
        assert list(coll.lists) == list(synth_split.users)
        for user in synth_split.users:
            assert coll.lists[user] == greedy_topn_user(
                synth_split, user, theta.theta[user], arec, crec, 5)


class TestBruteForce:
    def test_theta_zero_optimum_is_each_users_accuracy_topn(self):
        # with theta at zero the objective is modular, so the optimum
        # decomposes into independent per-user accuracy top-n sets
        rng = np.random.default_rng(11)
        split, _, arec = random_instance(rng, n_users=2, n_items=5)
        theta = const_theta(split, 0.0)
        optimum, coll = brute_force_optimal(split, theta, arec, 2)
        crec = DictCoverage({}, split)
        expected_value = 0.0
        for user in split.users:
            greedy = greedy_topn_user(split, user, 0.0, arec, crec, 2)
            assert set(coll.lists[user]) == set(greedy)
            acc = arec.score_vector(user)
            expected_value += sum(acc[split.item_index[i]] for i in greedy)
        assert optimum == pytest.approx(expected_value)

    def test_pure_coverage_prefers_splitting_items(self):
        # three users, each with one private pad item plus two shared
        # candidates; with theta = 1 every distinct assignment scores
        # 1/sqrt(2) per item, so the optimum never shares an item:
        # value = 3/sqrt(2), against 2/sqrt(3) + 1/sqrt(2) for one shared pair
        split = build_split([
            (1, "pad1", 3), (2, "pad2", 3), (3, "pad3", 3),
            (3, "a", 3), (3, "b", 3),
        ])
        theta = const_theta(split, 1.0)
        arec = DictAccuracy({}, split)
        optimum, coll = brute_force_optimal(split, theta, arec, 1)
        flat = [items[0] for items in coll.lists.values()]
        assert len(set(flat)) == 3
        assert optimum == pytest.approx(3 / math.sqrt(2))
        shared = {1: ("a",), 2: ("a",), 3: ("pad1",)}
        assert collection_value(split, theta, arec, shared) == pytest.approx(
            2 / math.sqrt(3) + 1 / math.sqrt(2))

    def test_refuses_large_instances(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        with pytest.raises(InstanceTooLargeError):
            brute_force_optimal(synth_split, const_theta(synth_split, 0.5), arec, 2)


class TestSubmodularityCheck:
    def test_pure_accuracy_is_modular(self):
        rng = np.random.default_rng(41)
        split, _, arec = random_instance(rng)
        assert submodularity_check(split, const_theta(split, 0.0), arec,
                                   trials=200, seed=0)

    def test_pure_coverage_has_diminishing_gains(self):
        rng = np.random.default_rng(42)
        split, _, arec = random_instance(rng)
        assert submodularity_check(split, const_theta(split, 1.0), arec,
                                   trials=200, seed=1)

    def test_mixed_theta_random_instances(self):
        rng = np.random.default_rng(43)
        for trial in range(20):
            split, theta, arec = random_instance(rng)
            assert submodularity_check(split, theta, arec, trials=50,
                                       seed=trial)


class TestSnapshotStore:
    def test_nearest_prefers_lower_theta_on_exact_tie(self):
        store = SnapshotStore([0.25, 0.75])
        assert store.nearest(0.5) == 0
        assert store.nearest(0.74) == 1
        assert len(store) == 2


class TestCollectionPersistence:
    def test_round_trip(self, tmp_path, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        coll = independent_greedy(synth_split, const_theta(synth_split, 0.3),
                                  arec, stat_coverage(synth_stats, synth_split), 5)
        save_collection(coll, tmp_path)
        loaded = load_collection(tmp_path)
        assert loaded.n == coll.n
        assert loaded.lists == coll.lists

    def test_zero_padded_and_plain_ids_stay_distinct(self, tmp_path):
        coll = TopNCollection(2, {"007": ("01", "1"), "7": ("1", "x")})
        save_collection(coll, tmp_path)
        assert load_collection(tmp_path).lists == coll.lists

    def test_ids_are_read_against_the_split(self, tmp_path):
        # "x0" makes the split's item ids strings; a file listing only the
        # int-like ones must still name the split's items, not ints
        split = build_split([(1, "x0", 3), (2, "x0", 3), (3, "x0", 3),
                             (1, "1", 3), (2, "2", 3), (3, "3", 3)])
        coll = TopNCollection(1, {1: ("2",), 2: ("3",), 3: ("1",)})
        save_collection(coll, tmp_path)
        assert load_collection(tmp_path).lists == {1: (2,), 2: (3,), 3: (1,)}
        loaded = load_collection(tmp_path, split)
        assert loaded.lists == coll.lists
        loaded.validate(split)
        # an id the split lacks stays as read, and validate reports it
        (tmp_path / "topn.csv").write_text("user,rank,item\n1,1,9\nu7,1,2\n")
        odd = load_collection(tmp_path, split)
        assert odd.lists == {1: ("9",), "u7": ("2",)}
        with pytest.raises(ContractViolationError, match="'9' outside"):
            odd.validate(split)

    def test_truncation(self):
        coll = TopNCollection(3, {1: ("a", "b", "c"), 2: ("d", "e", "f")})
        assert coll.truncated(3) is coll
        assert coll.truncated(1).lists == {1: ("a",), 2: ("d",)}
        for n in (0, -1, 4):
            with pytest.raises(ValueError, match=r"n must be in \[1, 3\]"):
                coll.truncated(n)

    def test_validate_rejects_bad_lists(self, synth_split):
        user = synth_split.users[0]
        seen_item = next(iter(synth_split.per_user_train_index[user]))
        with pytest.raises(ContractViolationError):
            TopNCollection(1, {user: (seen_item,)}).validate(synth_split)
        with pytest.raises(ContractViolationError):
            TopNCollection(2, {user: ("nope", "nope")}).validate(synth_split)
