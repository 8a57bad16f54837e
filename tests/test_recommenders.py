"""Accuracy and coverage scorer tests, including SGD training behavior."""

import math
import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganc import forked, recommenders
from ganc.core import greedy_topn_user, locally_greedy_full
from ganc.dataset import Rating, compute_item_stats
from ganc.errors import ParseError, TrainingDivergenceError, UnknownIdError
from ganc.preference import PreferenceVector
from ganc.recommenders import (
    MFModel,
    StaticCoverage,
    load_external_scores,
    load_mf_model,
    mf_accuracy_scorer,
    pop_scorer,
    rand_coverage,
    rmse,
    rsvd_train,
    save_mf_model,
    stat_coverage,
    wavefront_schedule,
)

from conftest import a_usable_cpu, assert_no_child_left, build_split, deadline


def _rsvd_reference(split, g, lam, eta, epochs, seed):
    """The per-rating SGD loop that ``rsvd_train`` must reproduce bit for bit.

    Returns (P, Q, per-epoch online training RMSE).
    """
    rng = np.random.default_rng(seed)
    P = rng.uniform(-0.05, 0.05, size=(len(split.users), g))
    Q = rng.uniform(-0.05, 0.05, size=(len(split.items), g))
    uidx = np.array([split.user_index[r.user_id] for r in split.train])
    iidx = np.array([split.item_index[r.item_id] for r in split.train])
    vals = np.array([r.value for r in split.train], dtype=float)
    epoch_rmse = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            sq_err = 0.0
            for k in rng.permutation(len(vals)):
                u, i = uidx[k], iidx[k]
                pu = P[u].copy()
                qi = Q[i]
                e = vals[k] - pu @ qi
                P[u] += eta * (e * qi - lam * pu)
                Q[i] += eta * (e * pu - lam * qi)
                sq_err += e * e
            if not (np.isfinite(P).all() and np.isfinite(Q).all()):
                raise TrainingDivergenceError(f"non-finite factors at epoch {epoch + 1}")
            epoch_rmse.append(math.sqrt(sq_err / len(vals)))
    return P, Q, epoch_rmse


def _rmse_reference(model, ratings):
    total = 0.0
    for r in ratings:
        try:
            pred = model.predict_raw(r.user_id, r.item_id)
        except UnknownIdError:
            pred = model.global_mean
        total += (r.value - pred) ** 2
    return math.sqrt(total / len(ratings))


@st.composite
def small_splits(draw):
    """Train splits of up to 12 users x 10 items with 1-5 star ratings."""
    n_users = draw(st.integers(1, 12))
    n_items = draw(st.integers(1, 10))
    pairs = draw(st.sets(st.tuples(st.integers(0, n_users - 1),
                                   st.integers(0, n_items - 1)),
                         min_size=1, max_size=60))
    stars = draw(st.lists(st.integers(1, 5), min_size=len(pairs),
                          max_size=len(pairs)))
    return build_split([(u, f"i{i}", r) for (u, i), r in zip(sorted(pairs), stars)])


class TestPopScorer:
    def test_top_unseen_popular(self):
        # popularity i1:5 i2:3 i3:1; user 1 saw only i1
        train = [(u, "i1", 3) for u in range(1, 6)]
        train += [(u, "i2", 3) for u in range(2, 5)]
        train += [(2, "i3", 3)]
        split = build_split(train)
        scorer = pop_scorer(split, compute_item_stats(split), 2)
        assert scorer.score(1, "i2") == 1.0
        assert scorer.score(1, "i3") == 1.0
        assert scorer.top_items(1) == {"i2", "i3"}
        # user 5 saw only i1 as well
        assert scorer.top_items(5) == {"i2", "i3"}

    def test_user_with_nothing_seen(self):
        train = [(1, "a", 3), (1, "b", 3), (2, "a", 3), (3, "c", 3)]
        split = build_split(train)
        scorer = pop_scorer(split, compute_item_stats(split), 1)
        # user 3 saw only c; most popular item is a
        assert scorer.score(3, "a") == 1.0
        assert scorer.score(3, "b") == 0.0

    def test_full_cutoff_scores_everything(self):
        train = [(1, "a", 3), (2, "b", 3), (3, "c", 3)]
        split = build_split(train)
        scorer = pop_scorer(split, compute_item_stats(split), 3)
        for i in split.items:
            assert scorer.score(2, i) in (0.0, 1.0)
        assert all(scorer.score(1, i) == 1.0 for i in ("b", "c"))

    def test_n_out_of_range(self, synth_split, synth_stats):
        with pytest.raises(ValueError):
            pop_scorer(synth_split, synth_stats, 0)
        with pytest.raises(ValueError):
            pop_scorer(synth_split, synth_stats, len(synth_split.items) + 1)

    def test_vector_matches_scalar(self, synth_split, synth_stats):
        scorer = pop_scorer(synth_split, synth_stats, 5)
        user = synth_split.users[0]
        vec = scorer.score_vector(user)
        for k, item in enumerate(synth_split.items):
            assert vec[k] == scorer.score(user, item)


class TestRsvdTrain:
    def test_single_rating_unregularized_fit(self):
        split = build_split([(1, "a", 4)])
        model = rsvd_train(split, g=1, lam=0.0, eta=0.1, epochs=400, seed=0)
        assert model.predict_raw(1, "a") == pytest.approx(4.0, abs=1e-3)
        assert rmse(model, split.train) == pytest.approx(0.0, abs=1e-3)

    def test_heavy_regularization_shrinks_predictions(self, synth_split):
        model = rsvd_train(synth_split, g=4, lam=1e3, eta=0.001, epochs=3, seed=0)
        preds = [model.predict_raw(r.user_id, r.item_id) for r in synth_split.train[:50]]
        assert max(abs(p) for p in preds) < 0.05

    def test_deterministic(self, synth_split):
        a = rsvd_train(synth_split, g=4, lam=0.05, eta=0.03, epochs=2, seed=3)
        b = rsvd_train(synth_split, g=4, lam=0.05, eta=0.03, epochs=2, seed=3)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)

    def test_divergence_reports_epoch(self, synth_split):
        with pytest.raises(TrainingDivergenceError, match="epoch"):
            rsvd_train(synth_split, g=4, lam=0.0, eta=50.0, epochs=5, seed=0)

    def test_learns_signal_out_of_sample(self, synth_split):
        model = rsvd_train(synth_split, g=16, lam=0.05, eta=0.03, epochs=12, seed=0)
        baseline = np.sqrt(np.mean(
            [(r.value - model.global_mean) ** 2 for r in synth_split.test]))
        assert rmse(model, synth_split.test) < baseline

    @pytest.mark.parametrize("g,eta", [(1, 50.0), (4, 50.0), (4, 0.21)])
    def test_divergence_names_reference_epoch(self, synth_split, g, eta):
        # eta=0.21 first overflows in a later epoch (epoch 4 on this split)
        with pytest.raises(TrainingDivergenceError) as expected:
            _rsvd_reference(synth_split, g, 0.0, eta, 8, 0)
        with pytest.raises(TrainingDivergenceError) as got:
            rsvd_train(synth_split, g=g, lam=0.0, eta=eta, epochs=8, seed=0)
        assert str(got.value) == str(expected.value)

    @settings(max_examples=60, deadline=None)
    @given(split=small_splits(), g=st.integers(1, 16),
           lam_eta=st.sampled_from([(0.05, 0.03), (0.0, 0.1), (0.2, 0.01)]),
           epochs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_per_rating_loop(self, split, g, lam_eta, epochs, seed):
        lam, eta = lam_eta
        P, Q, _ = _rsvd_reference(split, g, lam, eta, epochs, seed)
        model = rsvd_train(split, g=g, lam=lam, eta=eta, epochs=epochs, seed=seed)
        assert np.array_equal(model.user_factors, P)
        assert np.array_equal(model.item_factors, Q)

    def test_bit_identical_on_synthetic_split(self, synth_split):
        P, Q, _ = _rsvd_reference(synth_split, 16, 0.05, 0.03, 3, 4)
        model = rsvd_train(synth_split, g=16, lam=0.05, eta=0.03, epochs=3, seed=4)
        assert np.array_equal(model.user_factors, P)
        assert np.array_equal(model.item_factors, Q)

    def test_epoch_rmse_is_online_training_error(self, synth_split):
        _, _, expected = _rsvd_reference(synth_split, 8, 0.05, 0.03, 4, 2)
        model = rsvd_train(synth_split, g=8, lam=0.05, eta=0.03, epochs=4, seed=2)
        assert model.epoch_rmse == pytest.approx(expected, rel=1e-12)
        assert model.epoch_rmse[-1] < model.epoch_rmse[0]


class TestScheduleProducer:
    """rsvd_train's factors do not depend on where each epoch's schedule is
    made: in a forked producer, in this process, or partly in each."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Force the producer on at any size and CPU count; list its pids."""
        monkeypatch.setattr(recommenders, "_PRODUCER_MIN_RATINGS", 0)
        monkeypatch.setattr(forked, "spare_cpus", lambda: [a_usable_cpu()])
        pids, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return pids

    @staticmethod
    def _check(split, epochs=4, seed=7):
        P, Q, rmse_ref = _rsvd_reference(split, 8, 0.05, 0.03, epochs, seed)
        with deadline(60):
            model = rsvd_train(split, g=8, lam=0.05, eta=0.03, epochs=epochs, seed=seed)
        assert_no_child_left()
        assert np.array_equal(model.user_factors, P)
        assert np.array_equal(model.item_factors, Q)
        assert model.epoch_rmse == pytest.approx(rmse_ref, rel=1e-12)
        return model

    def test_forced_on_and_off_match_the_reference(self, synth_split, forks, monkeypatch):
        on = self._check(synth_split)
        assert len(forks) == 1
        monkeypatch.setattr(forked, "spare_cpus", lambda: [])
        off = self._check(synth_split)
        assert len(forks) == 1
        assert on.epoch_rmse == off.epoch_rmse  # the same bits, not only close

    def test_small_or_one_epoch_runs_stay_in_process(self, synth_split, forks, monkeypatch):
        self._check(synth_split, epochs=1)
        monkeypatch.setattr(recommenders, "_PRODUCER_MIN_RATINGS",
                            3 * len(synth_split.train_columns) + 1)
        self._check(synth_split, epochs=4)
        assert forks == []

    @pytest.mark.parametrize("stop", [0, 1, 3])
    def test_a_producer_that_fails_at_epoch_k(self, synth_split, forks, monkeypatch, stop):
        parent, make = os.getpid(), recommenders._epoch_fill

        def failing(t, rng):
            fill = make(t, rng)

            def wrapped(epoch, buffer):
                if os.getpid() != parent and epoch == stop:
                    raise RuntimeError("the producer fails")
                fill(epoch, buffer)
            return wrapped

        monkeypatch.setattr(recommenders, "_epoch_fill", failing)
        self._check(synth_split, epochs=5)
        assert len(forks) == 1

    def test_a_fork_that_fails(self, synth_split, forks, monkeypatch):
        def refuse():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", refuse)
        self._check(synth_split)

    def test_divergence_leaves_no_child(self, synth_split, forks):
        with deadline(60), pytest.raises(TrainingDivergenceError, match="epoch 4$"):
            rsvd_train(synth_split, g=4, lam=0.0, eta=0.21, epochs=30, seed=0)
        assert len(forks) == 1
        assert_no_child_left()


class TestWavefrontSchedule:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)),
                    min_size=1, max_size=80))
    def test_levels_are_conflict_free_and_earliest(self, seq):
        uidx = np.array([u for u, _ in seq])
        iidx = np.array([i for _, i in seq])
        order, bounds = wavefront_schedule(uidx, iidx)
        assert sorted(order.tolist()) == list(range(len(seq)))
        assert bounds[0] == 0 and bounds[-1] == len(seq)
        levels = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert sum(len(positions) for positions in levels) == len(seq)
        level_of = np.full(len(seq), -1)
        for lv, positions in enumerate(levels):
            assert np.all(np.diff(positions) > 0)
            assert len(set(uidx[positions].tolist())) == len(positions)
            assert len(set(iidx[positions].tolist())) == len(positions)
            level_of[positions] = lv
        # each rating sits one level past the latest earlier rating sharing
        # its user or item, so each user and item keeps its sequence order
        expected = []
        for k, (u, i) in enumerate(seq):
            deps = [expected[j] for j in range(k) if seq[j][0] == u or seq[j][1] == i]
            expected.append(max(deps, default=-1) + 1)
        assert level_of.tolist() == expected

    def test_chain_past_16_bit_levels(self):
        # one user rating 70,000 items in turn: level k holds rating k alone,
        # more levels than a 16-bit key can number
        n = 70_000
        order, bounds = wavefront_schedule(np.zeros(n, dtype=np.int64), np.arange(n))
        assert np.array_equal(order, np.arange(n))
        assert bounds == list(range(n + 1))


class TestRmse:
    def test_perfect_predictions(self):
        split = build_split([(1, "a", 4)])
        model = rsvd_train(split, g=1, lam=0.0, eta=0.1, epochs=500, seed=0)
        assert rmse(model, split.train) < 1e-3

    def test_single_unit_error(self, synth_split):
        model = rsvd_train(synth_split, g=2, lam=0.05, eta=0.03, epochs=2, seed=0)
        pred = model.predict_raw(synth_split.users[0], synth_split.items[0])
        assert rmse(model, [Rating(synth_split.users[0], synth_split.items[0],
                                   pred + 1.0)]) == pytest.approx(1.0)

    def test_unknown_ids_predict_global_mean(self, synth_split):
        model = rsvd_train(synth_split, g=2, lam=0.05, eta=0.03, epochs=1, seed=0)
        out = rmse(model, [Rating("nobody", "nothing", model.global_mean)])
        assert out == pytest.approx(0.0)

    def test_matches_per_rating_sum(self, synth_split):
        model = rsvd_train(synth_split, g=8, lam=0.05, eta=0.03, epochs=2, seed=0)
        mixed = list(synth_split.test) + [Rating("nobody", synth_split.items[0], 4.0),
                                          Rating(synth_split.users[0], "nothing", 1.0)]
        for ratings in (synth_split.train, mixed):
            assert rmse(model, ratings) == pytest.approx(
                _rmse_reference(model, ratings), rel=1e-12)

    def test_empty_list_rejected(self, synth_split):
        model = rsvd_train(synth_split, g=2, lam=0.05, eta=0.03, epochs=1, seed=0)
        with pytest.raises(ValueError):
            rmse(model, [])


class TestMFScorer:
    def test_per_user_normalization_endpoints(self, synth_split):
        model = rsvd_train(synth_split, g=4, lam=0.05, eta=0.03, epochs=3, seed=1)
        scorer = mf_accuracy_scorer(model, synth_split)
        for user in synth_split.users[:10]:
            cand = synth_split.candidate_indices(user)
            vec = scorer.score_vector(user)[cand]
            assert vec.min() == 0.0 and vec.max() == 1.0

    def test_ranking_preserved(self, synth_split):
        model = rsvd_train(synth_split, g=4, lam=0.05, eta=0.03, epochs=3, seed=1)
        scorer = mf_accuracy_scorer(model, synth_split)
        user = synth_split.users[0]
        cand_idx = synth_split.candidate_indices(user)
        raw = np.array([model.predict_raw(user, synth_split.items[k]) for k in cand_idx])
        norm = scorer.score_vector(user)[cand_idx]
        assert np.array_equal(np.argsort(raw, kind="stable"),
                              np.argsort(norm, kind="stable"))

    def test_bit_identical_to_separate_score_matrix(self, synth_split):
        # reference: normalize each row of the raw predictions into a second,
        # zero-initialized matrix, as the scorer did before it worked in place
        model = rsvd_train(synth_split, g=6, lam=0.05, eta=0.03, epochs=2, seed=3)
        urows = [model.user_index[u] for u in synth_split.users]
        irows = [model.item_index[i] for i in synth_split.items]
        raw = model.user_factors[urows] @ model.item_factors[irows].T
        expected = np.zeros_like(raw)
        for k, user in enumerate(synth_split.users):
            cand = np.array([j for j, i in enumerate(synth_split.items)
                             if i not in synth_split.per_user_train_index[user]])
            row = raw[k, cand]
            lo, hi = row.min(), row.max()
            if hi > lo:
                expected[k, cand] = (row - lo) / (hi - lo)
        scorer = mf_accuracy_scorer(model, synth_split)
        got = np.array([scorer.score_vector(u) for u in synth_split.users])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_unknown_user_rejected(self, synth_split):
        model = rsvd_train(synth_split, g=2, lam=0.05, eta=0.03, epochs=1, seed=0)
        scorer = mf_accuracy_scorer(model, synth_split)
        with pytest.raises(UnknownIdError):
            scorer.score("nobody", synth_split.items[0])

    def test_degenerate_prediction_range_scores_zero(self):
        # constant factors make every raw prediction identical, which the
        # shared degenerate-range rule maps to zero
        split = build_split([(1, "x", 3), (2, "a", 3), (2, "b", 3)])
        model = MFModel(split.users, split.items,
                        np.ones((2, 2)), np.ones((3, 2)), 2, 3.0)
        scorer = mf_accuracy_scorer(model, split)
        assert scorer.score(1, "a") == 0.0
        assert scorer.score(1, "b") == 0.0

    def test_user_without_candidates_scores_zero(self):
        # user 1 has rated every train item: an all-zero row, not a crash
        split = build_split([(1, "a", 4), (1, "b", 3), (2, "a", 5), (3, "b", 2)])
        model = rsvd_train(split, g=2, lam=0.05, eta=0.03, epochs=2, seed=0)
        scorer = mf_accuracy_scorer(model, split)
        assert np.array_equal(scorer.score_vector(1), [0.0, 0.0])
        assert scorer.score(2, "b") == scorer.score(3, "a") == 0.0

    def test_model_missing_split_user_rejected(self, synth_split):
        small = build_split([(1, "a", 3), (1, "b", 4), (2, "a", 2)])
        model = rsvd_train(small, g=2, lam=0.05, eta=0.03, epochs=1, seed=0)
        with pytest.raises(UnknownIdError):
            mf_accuracy_scorer(model, synth_split)


class TestExternalScores:
    def test_two_point_normalization(self, tmp_path):
        split = build_split([(u, i, 3) for u in ("u1", "u2") for i in ("i1", "i2", "i3")])
        p = tmp_path / "scores.csv"
        p.write_text("user,item,score\nu1,i1,0.9\nu1,i2,0.1\n")
        scorer = load_external_scores(p, split)
        assert scorer.score("u1", "i1") == 1.0
        assert scorer.score("u1", "i2") == 0.0

    def test_missing_pair_scores_zero(self, tmp_path):
        split = build_split([("u1", "i1", 3), ("u1", "i2", 3), ("u2", "i1", 3)])
        p = tmp_path / "scores.csv"
        p.write_text("user,item,score\nu1,i1,0.5\nu1,i2,0.7\n")
        scorer = load_external_scores(p, split)
        assert scorer.score("u2", "i2") == 0.0

    def test_monotone_per_user(self, tmp_path):
        split = build_split([("u1", f"i{k}", 3) for k in range(6)] +
                            [("u2", "i0", 3)])
        rng = np.random.default_rng(0)
        raw = {f"i{k}": float(rng.normal()) for k in range(6)}
        p = tmp_path / "scores.csv"
        p.write_text("user,item,score\n" +
                     "".join(f"u2,{i},{v}\n" for i, v in raw.items()))
        scorer = load_external_scores(p, split)
        order_raw = sorted(raw, key=raw.get)
        scores = {i: scorer.score("u2", i) for i in raw}
        assert order_raw == sorted(scores, key=scores.get)

    def test_duplicate_pair_keeps_last(self, tmp_path):
        split = build_split([("u1", "i1", 3), ("u1", "i2", 3), ("u2", "i1", 3)])
        p = tmp_path / "scores.csv"
        p.write_text("user,item,score\nu1,i1,0.2\nu1,i2,0.5\nu1,i1,0.9\n")
        scorer = load_external_scores(p, split)
        assert scorer.score("u1", "i1") == 1.0

    def test_malformed_row(self, tmp_path):
        split = build_split([("u1", "i1", 3)])
        p = tmp_path / "scores.csv"
        p.write_text("user,item,score\nu1,i1,not-a-number\n")
        with pytest.raises(ParseError, match=":2"):
            load_external_scores(p, split)

    def test_ids_are_read_against_the_split(self, tmp_path):
        # "x0" makes the split's item ids strings; a file listing only the
        # int-like ones must still score the split's items
        split = build_split([(1, "x0", 3), (1, "1", 3), (1, "2", 3), (2, "3", 3)])
        p = tmp_path / "scores.csv"
        p.write_text("user,item,score\n2,1,0.9\n2,2,0.1\n2,99,0.5\n")
        scorer = load_external_scores(p, split)
        assert scorer.score(2, "1") == 1.0
        assert scorer.score(2, "2") == 0.0
        assert scorer.score_vector(2).tolist() == [1.0, 0.0, 0.0, 0.0]  # "99" is ignored

    def test_bad_header(self, tmp_path):
        split = build_split([("u1", "i1", 3)])
        p = tmp_path / "scores.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            load_external_scores(p, split)


class TestCoverageScorers:
    def test_stat_formula(self):
        train = [(u, "zero3", 3) for u in range(1, 4)]
        train += [(u, "pop99", 3) for u in range(1, 100)]
        train += [(100, "fresh", 3)]
        split = build_split(train)
        stats = compute_item_stats(split)
        scorer = stat_coverage(stats, split)
        assert scorer.score("zero3") == pytest.approx(0.5)        # 1/sqrt(4)
        assert scorer.score("pop99") == pytest.approx(0.1)        # 1/sqrt(100)
        assert scorer.score("fresh") == pytest.approx(1 / np.sqrt(2))

    def test_dyn_tracks_live_frequency(self, synth_split, synth_stats):
        # dynamic coverage (kept inside the locally greedy pass) is
        # 1/sqrt(f + 1) of the lists counted so far: each user's list is its
        # greedy list against that coverage, fixed while the list is built
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = PreferenceVector("constant", dict.fromkeys(synth_split.users, 0.5))
        coll = locally_greedy_full(synth_split, theta, arec, 5)
        counts = np.zeros(len(synth_split.items), dtype=np.int64)
        for user, picked in coll.lists.items():
            crec = StaticCoverage(synth_split, 1 / np.sqrt(counts + 1.0))
            assert picked == greedy_topn_user(synth_split, user, 0.5, arec, crec, 5)
            counts[[synth_split.item_index[i] for i in picked]] += 1
        assert counts.max() > 1

    def test_stat_equals_dyn_when_frequencies_match(self, synth_split, synth_stats):
        counts = np.array([synth_stats.popularity[i] for i in synth_split.items])
        stat = stat_coverage(synth_stats, synth_split)
        assert np.array_equal(stat.score_vector(), 1 / np.sqrt(counts + 1.0))

    def test_rand_stable_within_run(self, synth_split):
        a = rand_coverage(9, synth_split)
        item = synth_split.items[3]
        assert a.score(item) == a.score(item)
        b = rand_coverage(9, synth_split)
        assert np.array_equal(a.score_vector(), b.score_vector())

    def test_rand_seeds_differ(self, synth_split):
        a = rand_coverage(1, synth_split)
        b = rand_coverage(2, synth_split)
        assert not np.array_equal(a.score_vector(), b.score_vector())

    def test_rand_mean_near_half(self):
        split = build_split([(1, k, 3) for k in range(100_000)])
        scorer = rand_coverage(123, split)
        mean = float(scorer.score_vector().mean())
        assert 0.49 <= mean <= 0.51

    def test_ranges(self, synth_split, synth_stats):
        stat = stat_coverage(synth_stats, synth_split).score_vector()
        rand = rand_coverage(0, synth_split).score_vector()
        assert np.all((stat > 0) & (stat <= 1))
        assert np.all((rand >= 0) & (rand < 1))


class TestMFPersistence:
    @staticmethod
    def _assert_loads_back(directory, model):
        """The saved model and its manifest load back, factors bit for bit."""
        loaded, manifest = load_mf_model(directory)
        assert manifest["split_sha256"] == "s"
        assert loaded.users == model.users and loaded.items == model.items
        for got, want in ((loaded.user_factors, model.user_factors),
                          (loaded.item_factors, model.item_factors)):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert loaded.global_mean == model.global_mean

    def test_round_trip(self, tmp_path, synth_split):
        model = rsvd_train(synth_split, g=3, lam=0.05, eta=0.03, epochs=2, seed=0)
        save_mf_model(model, tmp_path / "m", manifest={"split_sha256": "s"})
        self._assert_loads_back(tmp_path / "m", model)

    def test_model_file_is_stored_uncompressed(self, tmp_path, synth_split):
        model = rsvd_train(synth_split, g=3, lam=0.05, eta=0.03, epochs=1, seed=0)
        save_mf_model(model, tmp_path / "m")
        with zipfile.ZipFile(tmp_path / "m" / "mf_model.npz") as z:
            assert {info.compress_type for info in z.infolist()} == {zipfile.ZIP_STORED}

    def test_reads_a_compressed_model_file(self, tmp_path, synth_split):
        # models saved before the file was stored uncompressed still load
        model = rsvd_train(synth_split, g=3, lam=0.05, eta=0.03, epochs=1, seed=0)
        save_mf_model(model, tmp_path / "m", manifest={"split_sha256": "s"})
        path = tmp_path / "m" / "mf_model.npz"
        with np.load(path) as z:
            arrays = dict(z)
        np.savez_compressed(path, **arrays)
        self._assert_loads_back(tmp_path / "m", model)
