"""Preference model tests, including an independent solver oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganc import preference
from ganc.dataset import Rating, compute_item_stats, min_max_normalize
from ganc.errors import NumericalDegeneracyError
from ganc.preference import (
    _raw_theta_ui,
    load_prefs,
    save_prefs,
    theta_activity,
    theta_baseline,
    theta_generalized,
    theta_normalized_longtail,
    theta_tfidf,
)

from conftest import build_split, item_stats_reference


def _projected_pairs(split):
    """(user, item) -> theta_ui, the per-pair values min-max projected onto [0, 1]."""
    return dict(zip(((r.user_id, r.item_id) for r in split.train),
                    min_max_normalize(_raw_theta_ui(split)).tolist()))


class TestThetaActivity:
    def test_count_normalization(self):
        train = [(1, i, 3) for i in range(10)]
        train += [(2, i, 3) for i in range(20)]
        train += [(3, i, 3) for i in range(30)]
        pv = theta_activity(build_split(train))
        assert pv.theta == {1: 0.0, 2: 0.5, 3: 1.0}

    def test_single_user(self):
        pv = theta_activity(build_split([(1, "a", 3)]))
        assert pv.theta == {1: 0.0}

    def test_equal_counts_all_zero(self):
        pv = theta_activity(build_split([(1, "a", 3), (2, "b", 3)]))
        assert pv.theta == {1: 0.0, 2: 0.0}


class TestThetaNormalizedLongtail:
    def test_ratio(self, synth_split, synth_stats):
        pv = theta_normalized_longtail(synth_split, synth_stats)
        tail = item_stats_reference(synth_split)[1]
        for u, value in pv.theta.items():
            seen = synth_split.per_user_train_index[u]
            assert value == pytest.approx(len(seen & tail) / len(seen))
            assert 0.0 <= value <= 1.0

    def test_head_only_and_tail_only_users(self):
        # popular item carries 8 of 10 ratings, so the two rare items are
        # the tail; user 20 rated only the popular head item
        train = [(u, "hit", 3) for u in range(1, 9)]
        train += [(20, "hit", 4), (21, "rare1", 4), (21, "rare2", 4)]
        split = build_split(train)
        stats = compute_item_stats(split)
        assert [split.items[k] for k in np.flatnonzero(stats.in_tail)] == ["rare1", "rare2"]
        pv = theta_normalized_longtail(split, stats)
        assert pv.theta[20] == 0.0
        assert pv.theta[21] == 1.0


class TestThetaUi:
    def test_raw_formula(self):
        # 100 users total; item "niche" rated by 10 of them with value 4
        train = [(u, "everyone", 3) for u in range(100)]
        train += [(u, "niche", 4) for u in range(10)]
        split = build_split(train)
        raw = dict(zip(((r.user_id, r.item_id) for r in split.train),
                       _raw_theta_ui(split)))
        assert raw[(0, "niche")] == pytest.approx(4 * math.log(10), abs=1e-9)
        assert 4 * math.log(10) == pytest.approx(9.2103, abs=1e-4)

    def test_item_rated_by_everyone_scores_zero(self):
        train = [(u, "everyone", 5) for u in range(4)] + [(0, "other", 1)]
        split = build_split(train)
        raw = dict(zip(((r.user_id, r.item_id) for r in split.train),
                       _raw_theta_ui(split)))
        for u in range(4):
            assert raw[(u, "everyone")] == 0.0

    def test_projection_endpoints(self, synth_split):
        values = np.array(list(_projected_pairs(synth_split).values()))
        assert values.min() == 0.0 and values.max() == 1.0
        assert np.all((values >= 0) & (values <= 1))


class TestThetaTfidf:
    def test_is_mean_of_projected_pairs(self, synth_split):
        pv = theta_tfidf(synth_split)
        pairs = _projected_pairs(synth_split)
        for u in synth_split.users:
            seen = synth_split.per_user_train_index[u]
            expected = sum(pairs[(u, i)] for i in seen) / len(seen)
            assert pv.theta[u] == pytest.approx(expected, abs=1e-12)

    def test_equals_generalized_with_zero_sweeps(self, synth_split):
        tfidf = theta_tfidf(synth_split)
        frozen = theta_generalized(synth_split, max_iters=0)
        # the same unit-weight means; the clip to [0, 1] keeps a mean of
        # values in [0, 1] as it is, so every theta has the same bits
        for u in synth_split.users:
            assert tfidf.theta[u] == frozen.theta[u]
        assert all(w == 1.0 for w in frozen.weights.values())
        assert frozen.iterations == 0


def _oracle_generalized(split, lambda1, sweeps):
    """Plain-dict reimplementation of the alternating updates, by the book."""
    n_users = len(split.users)
    raters = {}  # item -> the users who rated it in train
    for r in split.train:
        raters.setdefault(r.item_id, set()).add(r.user_id)
    raw = {(r.user_id, r.item_id): r.value * math.log(n_users / len(raters[r.item_id]))
           for r in split.train}
    lo, hi = min(raw.values()), max(raw.values())
    t = {k: (v - lo) / (hi - lo) if hi > lo else 0.0 for k, v in raw.items()}
    w = {i: 1.0 for i in split.items}

    def theta_update():
        out = {}
        for u in split.users:
            seen = split.per_user_train_index[u]
            num = sum(w[i] * t[(u, i)] for i in seen)
            den = sum(w[i] for i in seen)
            out[u] = num / den
        return out

    theta = theta_update()
    for _ in range(sweeps):
        for i in split.items:
            eps = sum(1 - (t[(u, i)] - theta[u]) ** 2 for u in raters[i])
            w[i] = lambda1 / eps
        theta = theta_update()
    return theta, w


class TestThetaGeneralized:
    def test_single_pair_fixed_point(self):
        # one rated pair plus an anchor user so |U| = 2 and the projected
        # pair value is non-trivial; with a single rater theta equals the
        # pair value and eps = 1 exactly
        train = [(1, "a", 4), (2, "a", 4), (1, "b", 2)]
        split = build_split(train)
        pv = theta_generalized(split, lambda1=1.0)
        assert pv.converged is True
        pairs = _projected_pairs(split)
        seen = split.per_user_train_index[2]
        assert pv.theta[2] == pytest.approx(pairs[(2, "a")])

    def test_two_item_symmetric_fixed_point(self):
        # craft projected values {0.2, 0.8} for one user: raw values are
        # r * ln(2) for r in {1..5}; picking 2 and 4.25 after projection of
        # the full raw range needs care, so check the update math instead
        # with the oracle at machine precision on a tiny instance
        train = [(1, "x", 2), (1, "y", 4), (2, "x", 1)]
        split = build_split(train)
        pv = theta_generalized(split, lambda1=1.0)
        oracle_theta, oracle_w = _oracle_generalized(split, 1.0, pv.iterations)
        for u in split.users:
            assert pv.theta[u] == pytest.approx(oracle_theta[u], abs=1e-12)

    def test_matches_independent_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            users = [1, 2, 3]
            items = ["a", "b", "c", "d"]
            train = []
            for u in users:
                k = int(rng.integers(2, len(items) + 1))
                for i in rng.choice(items, size=k, replace=False):
                    train.append((u, str(i), float(rng.integers(1, 6))))
            dedup = {(u, i): (u, i, r) for u, i, r in train}
            split = build_split(list(dedup.values()))
            pv = theta_generalized(split, lambda1=1.0, tol=1e-12, max_iters=50)
            oracle_theta, oracle_w = _oracle_generalized(split, 1.0, pv.iterations)
            for u in split.users:
                assert pv.theta[u] == pytest.approx(oracle_theta[u], abs=1e-9)
            for i in split.items:
                assert pv.weights[i] == pytest.approx(oracle_w[i], abs=1e-9)

    def test_outputs_in_range_and_weights_positive(self, synth_split):
        pv = theta_generalized(synth_split)
        assert pv.converged is True and pv.iterations <= 100
        assert all(0.0 <= v <= 1.0 for v in pv.theta.values())
        assert all(w > 0 for w in pv.weights.values())

    def test_half_steps_move_objective_correctly(self):
        # the theta update must not decrease the weighted-mediocrity
        # objective at fixed weights; the weight update must not increase
        # the log-regularized objective at fixed theta
        rng = np.random.default_rng(3)
        for trial in range(20):
            n_users, n_items = 4, 5
            pairs = {}
            for u in range(n_users):
                for i in rng.choice(n_items, size=int(rng.integers(2, n_items + 1)),
                                    replace=False):
                    pairs[(u, int(i))] = float(rng.random())
            lam = 1.0

            def objective(w, theta):
                return sum(w[i] * (1 - (t - theta[u]) ** 2)
                           for (u, i), t in pairs.items())

            def penalized(w, theta):
                per_item = {i for (_, i) in pairs}
                return objective(w, theta) - lam * sum(math.log(w[i]) for i in per_item)

            w = {i: float(rng.uniform(0.2, 3.0)) for (_, i) in pairs}
            theta0 = {u: float(rng.random()) for (u, _) in pairs}
            # closed-form theta update at fixed w
            theta1 = {}
            for u in {u for (u, _) in pairs}:
                num = sum(w[i] * t for (uu, i), t in pairs.items() if uu == u)
                den = sum(w[i] for (uu, i), _ in pairs.items() if uu == u)
                theta1[u] = num / den
            assert objective(w, theta1) >= objective(w, theta0) - 1e-9
            # closed-form weight update at fixed theta
            w1 = {}
            for i in {i for (_, i) in pairs}:
                eps = sum(1 - (t - theta1[uu]) ** 2
                          for (uu, ii), t in pairs.items() if ii == i)
                w1[i] = lam / eps
            assert penalized(w1, theta1) <= penalized(w, theta1) + 1e-9

    def test_eps_positive_whenever_pairs_in_unit_interval(self):
        # a rater's own pair enters their theta with positive weight, so the
        # maximal deviation of exactly 1 is unreachable from valid inputs
        rng = np.random.default_rng(8)
        for _ in range(10):
            train = []
            for u in range(1, 5):
                for i in rng.choice(12, size=int(rng.integers(2, 7)), replace=False):
                    train.append((u, int(i), float(rng.integers(1, 6))))
            split = build_split(list({(u, i): (u, i, r) for u, i, r in train}.values()))
            pv = theta_generalized(split, max_iters=60)
            assert all(w > 0 for w in pv.weights.values())

    def test_degenerate_mediocrity_raises(self):
        # injected pair values outside [0, 1] can push a user's theta a
        # full unit away from their value on an item, collapsing eps to 0
        split = build_split([(1, "edge", 5), (1, "zero", 1)])
        bad = {(1, "edge"): 2.0, (1, "zero"): 0.0}

        def inject(raw):
            return np.array([bad[r.user_id, r.item_id] for r in split.train])

        with mock.patch.object(preference, "min_max_normalize", inject), \
                pytest.raises(NumericalDegeneracyError, match="edge"):
            theta_generalized(split, lambda1=1.0)
        theta_generalized(split, lambda1=1.0)  # the projected values themselves are fine

    @pytest.mark.parametrize("lambda1, total", [(1e308, "inf"), (5e-324, "0.0")])
    def test_weights_outside_the_float_range_raise(self, synth_split, lambda1, total):
        # theta does not depend on lambda1, but lambda1 / eps can overflow or
        # underflow, leaving a weighted mean of inf / inf or 0 / 0
        with pytest.raises(NumericalDegeneracyError,
                           match=f"weights lambda1 / eps sum to {total}; lambda1 is too far"):
            theta_generalized(synth_split, lambda1=lambda1)

    def test_bad_arguments(self, synth_split):
        with pytest.raises(ValueError):
            theta_generalized(synth_split, lambda1=0.0)
        with pytest.raises(ValueError):
            theta_generalized(synth_split, tol=0.0)
        with pytest.raises(ValueError):
            theta_generalized(synth_split, max_iters=-1)

    @pytest.mark.parametrize("kwargs", [
        {"lambda1": math.nan}, {"lambda1": math.inf}, {"tol": math.nan}, {"tol": math.inf},
    ])
    def test_non_finite_arguments(self, synth_split, kwargs):
        with pytest.raises(ValueError, match="finite"):
            theta_generalized(synth_split, **kwargs)

    @pytest.mark.parametrize("tol, max_iters", [(1e-6, 100), (1e-12, 3), (1e-3, 0)])
    def test_theta_deltas_trace_every_iteration(self, synth_split, tol, max_iters):
        pv = theta_generalized(synth_split, tol=tol, max_iters=max_iters)
        assert len(pv.theta_deltas) == pv.iterations <= max_iters
        assert all(d >= 0 for d in pv.theta_deltas)
        if pv.converged:
            assert pv.theta_deltas[-1] < tol
            assert all(d >= tol for d in pv.theta_deltas[:-1])
        else:
            assert pv.iterations == max_iters
            assert all(d >= tol for d in pv.theta_deltas)
        # each entry is the largest change of theta over one more sweep
        thetas = [theta_generalized(synth_split, tol=1e-300, max_iters=k).theta
                  for k in range(pv.iterations + 1)]
        assert list(pv.theta_deltas) == [
            max(abs(b[u] - a[u]) for u in a) for a, b in zip(thetas, thetas[1:])]


class TestThetaBaseline:
    def test_constant(self):
        pv = theta_baseline({3, 1, 2}, "constant", c=0.5)
        assert pv.theta == {1: 0.5, 2: 0.5, 3: 0.5}

    def test_constant_out_of_range(self):
        with pytest.raises(ValueError):
            theta_baseline({1}, "constant", c=1.5)

    def test_random_deterministic(self):
        a = theta_baseline(range(50), "random", seed=7)
        b = theta_baseline(range(50), "random", seed=7)
        assert a.theta == b.theta
        assert all(0 <= v < 1 for v in a.theta.values())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            theta_baseline({1}, "zipf")


@given(st.integers(0, 2 ** 31))
@settings(max_examples=20, deadline=None)
def test_all_models_stay_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    train = []
    for u in range(1, 6):
        for i in rng.choice(20, size=int(rng.integers(2, 8)), replace=False):
            train.append((u, int(i), float(rng.integers(1, 6))))
    split = build_split(list({(u, i): (u, i, r) for u, i, r in train}.values()))
    stats = compute_item_stats(split)
    for pv in (theta_activity(split),
               theta_normalized_longtail(split, stats),
               theta_tfidf(split),
               theta_generalized(split)):
        assert all(0.0 <= v <= 1.0 for v in pv.theta.values()), pv.model


class TestPersistence:
    def test_round_trip_generalized(self, tmp_path, synth_split):
        pv = theta_generalized(synth_split)
        save_prefs(pv, tmp_path / "p", manifest={"split_sha256": "abc"})
        loaded, manifest = load_prefs(tmp_path / "p")
        assert manifest["split_sha256"] == "abc"
        assert loaded.model == pv.model
        assert loaded.theta == pv.theta
        assert loaded.weights == pv.weights
        assert loaded.iterations == pv.iterations
        assert loaded.converged == pv.converged
        assert loaded.theta_deltas == pv.theta_deltas and len(pv.theta_deltas) > 0

    def test_zero_padded_and_plain_ids_stay_distinct(self, tmp_path):
        from ganc.preference import PreferenceVector

        pv = PreferenceVector("constant", {"007": 0.25, "7": 0.75})
        save_prefs(pv, tmp_path / "p")
        assert load_prefs(tmp_path / "p")[0].theta == pv.theta

    def test_round_trip_without_weights(self, tmp_path, synth_split):
        pv = theta_tfidf(synth_split)
        save_prefs(pv, tmp_path / "p")
        loaded, _ = load_prefs(tmp_path / "p")
        assert loaded.theta == pv.theta
        assert loaded.weights is None
