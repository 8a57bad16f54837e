"""Dataset ingestion, splitting, popularity statistics, and normalization."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganc import dataset
from ganc.dataset import (
    Rating,
    RatingColumns,
    SplitDataset,
    activity_popularity_profile,
    compute_item_stats,
    load_columns,
    load_ratings,
    load_split,
    min_max_normalize,
    save_split,
    split_per_user,
)
from ganc.errors import EmptyDatasetError, ParseError
from ganc.io_utils import canonical_ids, split_hash

from conftest import assert_same_split, build_split, item_stats_reference


class TestLoadRatings:
    def test_tab_separated_movielens_line(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("196\t242\t3\t881250949\n")
        (r,) = load_ratings(p, "tab_separated")
        assert r == Rating(196, 242, 3.0, 881250949)

    def test_double_colon_line(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1193::5::978300760\n")
        (r,) = load_ratings(p, "double_colon")
        assert r == Rating(1, 1193, 5.0, 978300760)

    def test_csv_with_and_without_timestamp(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("user,item,rating,timestamp\nu1,i1,4.5,100\nu2,i2,2,\n")
        rows = load_ratings(p, "csv")
        assert rows == [Rating("u1", "i1", 4.5, 100), Rating("u2", "i2", 2.0, None)]

    def test_duplicate_pair_keeps_last(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t7\t3\t0\n1\t7\t5\t1\n")
        (r,) = load_ratings(p, "tab_separated")
        assert r.value == 5.0

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t7\t3\t0\n1\t7\n")
        with pytest.raises(ParseError, match=":2"):
            load_ratings(p, "tab_separated")

    def test_non_numeric_rating_rejected(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\tx\tbad\t0\n")
        with pytest.raises(ParseError, match=":1"):
            load_ratings(p, "tab_separated")

    def test_negative_rating_rejected(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t2\t-1\t0\n")
        with pytest.raises(ParseError):
            load_ratings(p, "tab_separated")

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_ratings(p, "tab_separated")

    def test_header_only_csv_raises(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("user,item,rating\n")
        with pytest.raises(EmptyDatasetError):
            load_ratings(p, "csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_ratings(tmp_path / "x", "pipe")

    def test_infinite_timestamp_is_a_parse_error(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t2\t3\t0\n1\t3\t3\tinf\n")
        with pytest.raises(ParseError, match=r"u\.data:2: bad timestamp 'inf'"):
            load_ratings(p, "tab_separated")

    @pytest.mark.parametrize("text, stamp", [
        ("9007199254740993", 2**53 + 1),  # float() would round it
        ("9223372036854775807", 2**63 - 1),
        ("-9223372036854775807", -2**63 + 1),
        ("-9223372036854775808", -2**63),
        ("1.5e9", 1_500_000_000),
        ("12.7", 12),
    ])
    def test_timestamp_reads_exactly_when_an_integer_literal(self, tmp_path, text, stamp):
        p = tmp_path / "u.data"
        p.write_text(f"1\t2\t3\t{text}\n")
        (r,) = load_ratings(p, "tab_separated")
        assert type(r.timestamp) is int and r.timestamp == stamp

    @pytest.mark.parametrize("text", ["9223372036854775808", "-9223372036854775809", "1e30"])
    def test_timestamp_outside_int64_is_a_parse_error(self, tmp_path, text):
        p = tmp_path / "u.data"
        p.write_text(f"1\t2\t3\t0\n1\t3\t3\t{text}\n1\t4\t3\t0\n")
        with pytest.raises(ParseError, match=rf"u\.data:2: bad timestamp '{text}'"):
            load_ratings(p, "tab_separated")

    def test_first_bad_line_wins_across_kinds_of_error(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t2\t3\t0\n1\t3\t3\tx\n1\t4\t-2\t0\n1\t5\n")
        with pytest.raises(ParseError, match=":2: bad timestamp"):
            load_ratings(p, "tab_separated")

    def test_columns_match_the_rating_list(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("user,item,rating,timestamp\nb,10,4,5\na,2,3,\nb,2,1,7\nb,10,2,9\n")
        cols = load_columns(p, "csv")
        assert cols.users == ("b", "a") and cols.items == (10, 2)
        assert cols.ratings() == load_ratings(p, "csv") == [
            Rating("b", 10, 2.0, 9), Rating("a", 2, 3.0, None), Rating("b", 2, 1.0, 7)]
        assert cols.user_codes.dtype == cols.item_codes.dtype == np.int64
        assert cols.values.dtype == np.float64


class TestIdColumns:
    def test_zero_padded_and_plain_ids_stay_distinct(self, tmp_path):
        # both ratings survive: "007" and "7" are two users, not one
        p = tmp_path / "u.data"
        p.write_text("007\t1\t3\t0\n7\t1\t5\t1\n")
        assert load_ratings(p, "tab_separated") == [
            Rating("007", 1, 3.0, 0), Rating("7", 1, 5.0, 1)]

    def test_int_only_when_every_value_reads_back(self):
        assert canonical_ids(["7", "-3", "0", "12345678901234567890"]) == \
            [7, -3, 0, 12345678901234567890]
        for odd in ("007", "+7", "1_0", "7.0", "\u0667"):
            assert canonical_ids(["7", odd]) == ["7", odd]

    def test_ints_pass_unchanged(self):
        out = canonical_ids([np.int64(5), 6])
        assert out == [5, 6] and all(type(v) is int for v in out)
        assert canonical_ids(list(np.array(["1", "2"]))) == [1, 2]  # as load_mf_model reads

    def test_split_files_read_ids_alike(self, tmp_path):
        # test.csv alone holds only "7"; read on its own it would turn into the
        # int 7 and no longer match train's "7"
        split = build_split([("007", "a", 3), ("007", "b", 3), ("7", "a", 4)],
                            [("7", "b", 5)])
        save_split(split, tmp_path / "s")
        loaded, _ = load_split(tmp_path / "s")
        assert loaded.users == ("007", "7")
        assert loaded.test == (Rating("7", "b", 5.0),)


class TestRatingColumns:
    def test_from_ratings_keeps_rows_and_first_appearance(self):
        rows = [Rating("b", 2, 3.0), Rating("a", 1, 4.5, 17), Rating("b", 1, 1.0)]
        cols = RatingColumns.from_ratings(rows)
        assert cols.users == ("b", "a") and cols.items == (2, 1)
        assert cols.user_codes.tolist() == [0, 1, 0]
        assert cols.ratings() == rows

    def test_deduplicated_keeps_last_value_at_first_position(self):
        rows = [Rating(1, "x", 1.0), Rating(2, "y", 2.0), Rating(1, "x", 5.0, 9),
                Rating(3, "z", 3.0), Rating(1, "x", 4.0, 8)]
        assert RatingColumns.from_ratings(rows).deduplicated().ratings() == [
            Rating(1, "x", 4.0, 8), Rating(2, "y", 2.0), Rating(3, "z", 3.0)]

    def test_from_ratings_split_drops_duplicate_pairs(self):
        split = build_split([(1, "a", 3), (1, "a", 5), (2, "a", 1)])
        assert split.train == (Rating(1, "a", 5.0), Rating(2, "a", 1.0))
        assert split.item_train_counts.tolist() == [2]

    def test_counts_and_csr_views(self):
        split = build_split([(2, "b", 3), (1, "c", 3), (1, "a", 4), (2, "a", 1)],
                            [(1, "b", 5), (2, "zzz", 4)])
        assert split.users == (1, 2) and split.items == ("a", "b", "c")
        assert split.item_train_counts.tolist() == [2, 1, 1]
        assert split.user_train_counts.tolist() == [2, 2]
        assert split.user_test_counts.tolist() == [1, 0]  # "zzz" is not a train item
        indptr, codes = split.train_csr
        assert codes[indptr[0]:indptr[1]].tolist() == [2, 0]  # user 1's, in file order
        indptr, codes = split.test_csr
        assert indptr.tolist() == [0, 1, 1] and codes.tolist() == [1]
        assert dict(split.per_user_test_index) == {1: {"b"}, 2: frozenset()}
        assert 3 not in split.per_user_train_index
        assert split.per_user_train_index.get(3) is None

    def test_algorithms_do_not_build_rating_or_set_views(self, synth_ratings):
        from ganc.core import oslg
        from ganc.metrics import evaluate
        from ganc.preference import (theta_activity, theta_generalized,
                                     theta_normalized_longtail, theta_tfidf)
        from ganc.recommenders import pop_scorer, rmse, rsvd_train

        split = split_per_user(synth_ratings, kappa=0.5, tau=20, seed=5)
        stats = compute_item_stats(split)
        theta_activity(split)
        theta_normalized_longtail(split, stats)
        theta_tfidf(split)
        pv = theta_generalized(split)
        model = rsvd_train(split, g=2, lam=0.05, eta=0.01, epochs=1, seed=0)
        rmse(model, split.train_columns)
        activity_popularity_profile(split)
        for protocol in ("all_unrated", "rated_test_items"):
            run = oslg(split, pv, pop_scorer(split, stats, 5), 5, 10, 0, protocol=protocol)
            evaluate(run.collection, split, stats, protocol=protocol, per_user=True)
        views = {"train", "test", "per_user_train_index", "per_user_test_index"}
        assert not views & set(vars(split))


def _ratings(counts, seed=0):
    """One user per entry with the given number of ratings on shared items."""
    rng = np.random.default_rng(seed)
    out = []
    for u, n in counts.items():
        for i in range(n):
            out.append(Rating(u, i + 1, float(rng.integers(1, 6))))
    return out


class TestSplitPerUser:
    def test_five_ratings_kappa_08(self):
        split = split_per_user(_ratings({1: 5}), kappa=0.8, tau=1, seed=0)
        assert len(split.train) == 4 and len(split.test) <= 1

    def test_ten_ratings_kappa_05(self):
        split = split_per_user(_ratings({1: 10}), kappa=0.5, tau=1, seed=0)
        assert len(split.per_user_train_index[1]) == 5

    def test_tau_filter_drops_user(self):
        split = split_per_user(_ratings({1: 3, 2: 8}), kappa=0.5, tau=5, seed=0)
        assert 1 not in split.per_user_train_index
        assert 2 in split.per_user_train_index

    def test_kappa_out_of_range(self):
        for kappa in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                split_per_user(_ratings({1: 5}), kappa=kappa, tau=1, seed=0)

    def test_no_survivors_raises(self):
        with pytest.raises(EmptyDatasetError):
            split_per_user(_ratings({1: 2, 2: 3}), kappa=0.5, tau=10, seed=0)

    def test_other_users_do_not_perturb_a_split(self):
        base = _ratings({1: 12, 2: 9})
        extended = base + _ratings({3: 15}, seed=9)
        a = split_per_user(base, kappa=0.5, tau=1, seed=4)
        b = split_per_user(extended, kappa=0.5, tau=1, seed=4)
        assert a.per_user_train_index[1] == b.per_user_train_index[1]
        assert a.per_user_train_index[2] == b.per_user_train_index[2]

    def test_determinism(self):
        rows = _ratings({1: 9, 2: 14, 3: 21})
        a = split_per_user(rows, kappa=0.6, tau=1, seed=7)
        b = split_per_user(rows, kappa=0.6, tau=1, seed=7)
        assert a.train == b.train and a.test == b.test

    @given(st.dictionaries(st.integers(1, 30), st.integers(1, 25),
                           min_size=1, max_size=10),
           st.floats(0.05, 0.95), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, counts, kappa, seed):
        split = split_per_user(_ratings(counts), kappa=kappa, tau=1, seed=seed)
        for u in split.users:
            n_train = len(split.per_user_train_index[u])
            assert n_train >= 1
            assert n_train == math.ceil(kappa * counts[u])
            assert not split.per_user_train_index[u] & split.per_user_test_index[u]
        test_users = {r.user_id for r in split.test}
        assert test_users <= set(split.users)
        test_items = {r.item_id for r in split.test}
        assert test_items <= set(split.items)


class TestItemStats:
    def test_boundary_rule_hand_case(self):
        # popularities i1:10 i2:5 i3:3 i4:1 i5:1, total 20; cumulative 10, 15,
        # 18 >= 16 puts the boundary after i3, leaving {i4, i5} in the tail
        train = []
        pops = {"i1": 10, "i2": 5, "i3": 3, "i4": 1, "i5": 1}
        for item, n in pops.items():
            for u in range(n):
                train.append((f"u{u}", item, 3))
        split = build_split(train)
        stats = compute_item_stats(split)
        assert split.items == tuple(pops)
        assert stats.counts is split.item_train_counts
        assert stats.counts.tolist() == list(pops.values())
        assert stats.ranked.tolist() == [0, 1, 2, 3, 4]
        assert stats.in_tail.tolist() == [False, False, False, True, True]

    def test_single_item_has_empty_tail(self):
        split = build_split([(u, "only", 4) for u in range(5)])
        stats = compute_item_stats(split)
        assert stats.in_tail.tolist() == [False]

    def test_popularity_sums_to_total(self, synth_split, synth_stats):
        assert int(synth_stats.counts.sum()) == len(synth_split.train)

    def test_tail_never_more_popular_than_head(self, synth_stats):
        counts, in_tail = synth_stats.counts, synth_stats.in_tail
        tail, head = counts[in_tail], counts[~in_tail]
        if len(tail) and len(head):
            assert tail.max() <= head.min()

    def test_tail_mass_bounded(self, synth_split, synth_stats):
        tail_mass = int(synth_stats.counts[synth_stats.in_tail].sum())
        boundary_pop = int(synth_stats.counts[~synth_stats.in_tail].min())
        assert tail_mass <= 0.20 * len(synth_split.train) + boundary_pop

    def test_deterministic(self, synth_split):
        a, b = compute_item_stats(synth_split), compute_item_stats(synth_split)
        assert np.array_equal(a.ranked, b.ranked) and np.array_equal(a.in_tail, b.in_tail)

    @given(st.one_of(st.lists(st.integers(-5, 40), min_size=1, max_size=12, unique=True),
                     st.lists(st.text("ab1 ,", min_size=1, max_size=3), min_size=1,
                              max_size=12, unique=True)),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_definition(self, items, data):
        # counts from 1 to 4 over up to 12 items, so ties are common
        counts = data.draw(st.lists(st.integers(1, 4), min_size=len(items),
                                    max_size=len(items)))
        split = build_split([(u, i, 3) for i, c in zip(items, counts) for u in range(c)])
        stats = compute_item_stats(split)
        ranking, tail = item_stats_reference(split)
        assert [split.items[k] for k in stats.ranked.tolist()] == ranking
        assert {split.items[k] for k in np.flatnonzero(stats.in_tail).tolist()} == tail
        assert stats.counts.tolist() == [dict(zip(items, counts))[i] for i in split.items]


class TestMinMaxNormalize:
    def test_endpoints(self):
        assert np.allclose(min_max_normalize([0, 5, 10]), [0, 0.5, 1])

    def test_degenerate_range_maps_to_zero(self):
        assert np.allclose(min_max_normalize([3, 3, 3]), [0, 0, 0])

    def test_shift_invariance(self):
        assert np.allclose(min_max_normalize([-1, 0, 1]), [0, 0.5, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_max_normalize([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            min_max_normalize([1.0, float("nan")])

    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=50))
    def test_bounds_and_argmax(self, xs):
        out = min_max_normalize(xs)
        assert np.all(out >= 0) and np.all(out <= 1)
        if max(xs) > min(xs):
            # rounding may create ties, but the raw extremes must still
            # attain the normalized extremes
            assert out[int(np.argmax(xs))] == out.max() == 1.0
            assert out[int(np.argmin(xs))] == out.min() == 0.0


def _train_codes(split, user):
    """The user's row of ``split.train_csr``."""
    indptr, codes = split.train_csr
    k = split.user_index[user]
    return codes[indptr[k]:indptr[k + 1]]


class TestItemIndices:
    def test_train_and_candidate_indices_partition_the_universe(self, synth_split):
        for user in synth_split.users:
            seen = synth_split.per_user_train_index[user]
            train = _train_codes(synth_split, user)
            assert sorted(synth_split.items[k] for k in train) == sorted(seen)
            cand = np.flatnonzero(synth_split.candidate_mask(user))
            assert list(cand) == [k for k, i in enumerate(synth_split.items) if i not in seen]

    def test_string_ids(self):
        split = build_split([("u2", "b", 3), ("u1", "c", 3), ("u1", "a", 3)])
        # items are a, b, c
        assert split.candidate_mask("u1").tolist() == [False, True, False]
        assert sorted(_train_codes(split, "u1")) == [0, 2]
        assert split.candidate_mask("u2").tolist() == [True, False, True]


def _relevant(split, user, threshold=4.0):
    """Item ids of the user's row of ``split.relevant_csr(threshold)``, in
    file order."""
    indptr, codes = split.relevant_csr(threshold)
    k = split.user_index[user]
    return [split.items[c] for c in codes[indptr[k]:indptr[k + 1]].tolist()]


class TestRelevantTestItems:
    """``SplitDataset.relevant_csr``: each user's test items rated at or
    above a threshold."""

    def test_threshold_filter(self):
        split = build_split([(1, "a", 3), (2, "i1", 1), (2, "i2", 1), (2, "i3", 1)],
                            [(1, "i3", 4), (1, "i2", 3), (1, "i1", 5)])
        assert _relevant(split, 1, 4.0) == ["i3", "i1"]

    def test_each_threshold_answered_on_the_same_split(self):
        # results are kept per threshold; asking again must not mix them up
        split = build_split([(1, "a", 3), (2, "i1", 1), (2, "i2", 1), (2, "i3", 1)],
                            [(1, "i1", 5), (1, "i2", 3), (1, "i3", 4)])
        for threshold, expected in ((4.0, ["i1", "i3"]), (5.0, ["i1"]),
                                    (0.0, ["i1", "i2", "i3"]), (4.0, ["i1", "i3"])):
            assert _relevant(split, 1, threshold) == expected
        assert _relevant(split, 2, 0.0) == []
        assert split.relevant_csr(4.0) is split.relevant_csr(4.0)

    def test_all_below_threshold(self):
        split = build_split([(1, "a", 3), (2, "i1", 2)], [(1, "i1", 2)])
        assert _relevant(split, 1) == []

    def test_zero_threshold_returns_all(self):
        split = build_split([(1, "a", 3), (2, "i1", 2), (2, "i2", 2)],
                            [(1, "i1", 1), (1, "i2", 5)])
        assert _relevant(split, 1, 0.0) == ["i1", "i2"]


class TestActivityPopularityProfile:
    def test_single_user_average(self):
        # one user rating two items whose popularities end up 2 and 4
        train = [(1, "a", 3), (1, "b", 3)]
        train += [(u, "a", 3) for u in (2,)]
        train += [(u, "b", 3) for u in (2, 3, 4)]
        split = build_split(train)
        profile = activity_popularity_profile(split, bins=4)
        by_center = dict(profile)
        # user 1 has activity 2, users 3 and 4 have activity 1 (bin 0),
        # user 2 has activity 2; normalized activity 1.0 lands in the last bin
        assert by_center[0.875] == pytest.approx(3.0)

    def test_identical_users_share_a_bin(self):
        split = build_split([(1, "a", 3), (2, "a", 4)])
        profile = activity_popularity_profile(split, bins=10)
        assert len(profile) == 1
        assert profile[0][1] == pytest.approx(2.0)

    def test_trend_on_skewed_data(self, synth_split):
        profile = activity_popularity_profile(synth_split, bins=10)
        assert profile[0][1] >= profile[-1][1]

    def test_bad_bins(self, synth_split):
        with pytest.raises(ValueError):
            activity_popularity_profile(synth_split, bins=0)


class TestPersistence:
    def test_round_trip(self, tmp_path, synth_split):
        save_split(synth_split, tmp_path / "s", manifest={"kappa": 0.5})
        loaded, manifest = load_split(tmp_path / "s")
        assert manifest["kappa"] == 0.5
        assert loaded.train == synth_split.train
        assert loaded.test == synth_split.test
        assert loaded.users == synth_split.users
        assert loaded.items == synth_split.items

    def test_rewrites_are_byte_identical(self, tmp_path, synth_split):
        save_split(synth_split, tmp_path / "a")
        save_split(synth_split, tmp_path / "b")
        assert (tmp_path / "a" / "train.csv").read_bytes() == \
            (tmp_path / "b" / "train.csv").read_bytes()
        assert (tmp_path / "a" / "test.csv").read_bytes() == \
            (tmp_path / "b" / "test.csv").read_bytes()


def _write_npy(path, array):
    with open(path, "wb") as fh:
        np.save(fh, array)


def _tamper(path, **changes):
    """Rewrite a sidecar with some arrays replaced (None drops one); its
    recorded CSV digests stay as they were."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays.update(changes)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})


class TestSplitSidecar:
    @pytest.fixture
    def saved(self, tmp_path, synth_split):
        save_split(synth_split, tmp_path / "s")
        return tmp_path / "s"

    def test_valid_sidecar_is_read_without_parsing(self, saved, synth_split):
        with mock.patch.object(dataset, "_parse", side_effect=AssertionError("parsed")):
            loaded, manifest = load_split(saved)
        assert_same_split(loaded, dataset._parse_split(saved))
        assert_same_split(loaded, synth_split)
        assert manifest["split_sha256"] == split_hash(saved)

    def test_rewrites_are_byte_identical(self, tmp_path, synth_split):
        save_split(synth_split, tmp_path / "a")
        save_split(synth_split, tmp_path / "b")
        assert (tmp_path / "a" / "split.npz").read_bytes() == \
            (tmp_path / "b" / "split.npz").read_bytes()

    @pytest.mark.parametrize("damage", [
        lambda p: p.unlink(),
        lambda p: p.write_bytes(p.read_bytes()[:len(p.read_bytes()) // 2]),
        lambda p: p.write_bytes(p.read_bytes()[:100]),
        lambda p: p.write_bytes(b""),
        lambda p: p.write_bytes(b"not a zip file at all"),
        lambda p: p.write_bytes(bytes(range(256)) * 50),
        lambda p: _write_npy(p, np.arange(5)),  # a bare .npy array
        lambda p: np.savez(p, x=np.arange(3)),
    ], ids=["missing", "truncated-half", "truncated-100", "empty", "text", "garbage",
            "npy", "other-arrays"])
    def test_damaged_sidecar_falls_back_to_the_csv_parse(self, saved, damage):
        damage(saved / "split.npz")
        loaded, _ = load_split(saved)
        assert_same_split(loaded, dataset._parse_split(saved))

    # A callable change reads the archive. The synthetic split has no
    # timestamps, so its sidecar stores neither train_timestamps nor
    # train_missing; int-mask adds both, with an int64 mask.
    @pytest.mark.parametrize("changes", [
        {"train_user_codes": None},
        {"train_user_codes": np.zeros(3, dtype=np.int64)},
        {"train_item_codes": lambda z: z["train_item_codes"] + 10_000},
        {"test_user_codes": lambda z: z["test_user_codes"] - 10_000},
        {"train_values": lambda z: z["train_values"].astype(np.float32)},
        {"train_values": lambda z: np.where(np.arange(len(z["train_values"])) == 0, np.nan,
                                            z["train_values"])},
        {"train_timestamps": lambda z: np.zeros(len(z["train_values"]), dtype=np.int64),
         "train_missing": lambda z: np.ones(len(z["train_values"]), dtype=np.int64)},
        {"train_missing": lambda z: np.ones(len(z["train_values"]), dtype=bool)},
        {"users": lambda z: z["users"][::-1]},
        {"users": lambda z: z["users"][1:]},
        {"items": lambda z: z["items"].astype(str)},
        {"users": lambda z: np.array([[1, 2]])},
        {"train_sha256": np.array("0" * 64)},
        {"test_sha256": None},
    ], ids=["train-codes-gone", "short-codes", "item-codes-out-of-range",
            "test-codes-negative", "float32-values", "nan-value", "int-mask",
            "mask-without-timestamps", "unsorted-users", "user-never-in-train",
            "str-array-items", "2d-users", "other-train-hash", "no-test-hash"])
    def test_tampered_arrays_fall_back_to_the_csv_parse(self, saved, changes):
        path = saved / "split.npz"
        with np.load(path) as z:
            changes = {k: v(z) if callable(v) else v for k, v in changes.items()}
        _tamper(path, **changes)
        loaded, _ = load_split(saved)
        assert_same_split(loaded, dataset._parse_split(saved))

    def test_tampered_string_table_falls_back(self, tmp_path):
        split = build_split([("a", "x", 3), ("b", "y", 4)], [("a", "y", 5)])
        save_split(split, tmp_path / "s")
        path = tmp_path / "s" / "split.npz"
        for changes in ({"users_offsets": np.array([0, 1, 5], dtype=np.int64)},
                        {"users_utf8": np.frombuffer(b"\xff\xfe", dtype=np.uint8)},
                        {"users_utf8": np.frombuffer(b"ba", dtype=np.uint8)}):
            save_split(split, tmp_path / "s")
            _tamper(path, **changes)
            loaded, _ = load_split(tmp_path / "s")
            assert_same_split(loaded, dataset._parse_split(tmp_path / "s"))

    def test_edited_csv_is_parsed_not_read_from_the_stale_sidecar(self, saved):
        train = saved / "train.csv"
        lines = train.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "1.0" if fields[2] != "1.0" else "2.0"  # one rating changes
        lines[1] = ",".join(fields)
        train.write_text("\n".join(lines) + "\n")
        loaded, manifest = load_split(saved)
        assert loaded.train_columns.values[0] == float(fields[2])
        assert_same_split(loaded, dataset._parse_split(saved))
        assert manifest["split_sha256"] == split_hash(saved)

    def test_edited_csv_that_no_longer_parses_raises_the_parse_error(self, saved):
        train = saved / "train.csv"
        data = bytearray(train.read_bytes())
        data[data.index(b"\n") + 1] = ord(",")  # line 2 loses its user id
        train.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=r"train.csv:2: "):
            load_split(saved)

    def test_edited_csv_that_no_longer_decodes_raises_a_parse_error(self, saved):
        train = saved / "train.csv"
        data = bytearray(train.read_bytes())
        data[data.index(b"\n") + 1] = 0xFF  # line 2 starts with a byte UTF-8 never uses
        train.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=r"train\.csv: not .* text$"):
            load_split(saved)

    def test_sidecar_of_another_split_is_ignored(self, saved, tmp_path, synth_ratings):
        other = split_per_user(synth_ratings, kappa=0.6, tau=20, seed=9)
        save_split(other, tmp_path / "other")
        (saved / "split.npz").write_bytes((tmp_path / "other" / "split.npz").read_bytes())
        loaded, _ = load_split(saved)
        assert_same_split(loaded, dataset._parse_split(saved))

    def test_reloaded_ids_are_canonicalized_over_their_written_form(self, tmp_path):
        # user "a" falls under tau, so the rest keep the raw column's strings
        # "1", "10", "2"; the files read back as the ints 1, 2, 10
        rows = [Rating(u, i, 4.0) for u in ("1", "2", "10") for i in range(1, 5)]
        cols = RatingColumns.from_ratings(rows + [Rating("a", 1, 3.0)])
        split = split_per_user(cols, kappa=0.5, tau=2, seed=0)
        assert split.users == ("1", "10", "2")
        save_split(split, tmp_path / "s")
        assert (tmp_path / "s" / "split.npz").exists()
        loaded, _ = load_split(tmp_path / "s")
        assert loaded.users == (1, 2, 10)
        assert_same_split(loaded, dataset._parse_split(tmp_path / "s"))

    def test_empty_test_set_and_missing_timestamps(self, tmp_path):
        split = SplitDataset.from_ratings(
            [Rating(1, "x", 4.0, 17), Rating(2, "y", -0.0), Rating(2, "x", 3.5, -4)], [])
        save_split(split, tmp_path / "s")
        with mock.patch.object(dataset, "_parse", side_effect=AssertionError("parsed")):
            loaded, _ = load_split(tmp_path / "s")
        assert_same_split(loaded, dataset._parse_split(tmp_path / "s"))
        assert not len(loaded.test_columns)
        assert loaded.train_columns.timestamps.tolist() == [17, 0, -4]
        assert loaded.train_columns.missing.tolist() == [False, True, False]
        assert [r.timestamp for r in loaded.train] == [17, None, -4]

    def test_duplicate_pairs_come_back_as_the_parse_keeps_them(self, tmp_path):
        # from_columns expects columns free of duplicate pairs; the reload
        # keeps the last value of each pair
        cols = RatingColumns.from_ratings(
            [Rating(1, "x", 4.0), Rating(2, "x", 3.0), Rating(1, "x", 5.0)])
        save_split(SplitDataset.from_columns(cols, cols.take([])), tmp_path / "s")
        loaded, _ = load_split(tmp_path / "s")
        assert_same_split(loaded, dataset._parse_split(tmp_path / "s"))
        assert loaded.train == (Rating(1, "x", 5.0), Rating(2, "x", 3.0))

    @pytest.mark.parametrize("train", [
        [Rating(2**64, "x", 4.0), Rating(1, "x", 3.0)],  # id past int64
        [Rating(1, " x", 4.0), Rating(1, "y", 3.0)],  # the reload strips the id
        [Rating(1, "x", float("nan"))],  # the reload refuses the value
    ], ids=["id-past-int64", "padded-id", "nan-value"])
    def test_no_sidecar_where_it_cannot_hold_the_reload(self, tmp_path, train):
        out = tmp_path / "s"
        save_split(build_split([(1, "z", 1.0)]), out)  # a sidecar to be replaced
        save_split(SplitDataset.from_ratings(train, []), out)
        assert not (out / "split.npz").exists()

    @pytest.mark.parametrize("stamp", [10**19, -2**63 - 1, 1.5, "7", True],
                             ids=["stamp-past-int64", "stamp-below-int64", "float-stamp",
                                  "str-stamp", "bool-stamp"])
    def test_columns_refuse_a_stamp_they_cannot_hold(self, stamp):
        with pytest.raises(ValueError, match="timestamp"):
            RatingColumns.from_ratings([Rating(1, "x", 4.0), Rating(2, "x", 3.0, stamp)])

    def test_stamps_at_the_int64_ends_round_trip_through_the_sidecar(self, tmp_path):
        stamps = [2**63 - 1, -2**63, 2**53 + 1, None]
        split = SplitDataset.from_ratings(
            [Rating(u, "x", 4.0, t) for u, t in enumerate(stamps)], [])
        save_split(split, tmp_path / "s")
        assert (tmp_path / "s" / "split.npz").exists()
        with mock.patch.object(dataset, "_parse", side_effect=AssertionError("parsed")):
            loaded, _ = load_split(tmp_path / "s")
        assert_same_split(loaded, dataset._parse_split(tmp_path / "s"))
        assert_same_split(loaded, split)
        assert [r.timestamp for r in loaded.train] == stamps
