"""Metric formula checks, invariances, and report plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganc.core import PROTOCOLS, TopNCollection, independent_greedy
from ganc.dataset import compute_item_stats
from ganc.errors import ContractViolationError, UndefinedMetricError
from ganc.metrics import EvalReport, evaluate, gini
from ganc.preference import theta_baseline, theta_generalized
from ganc.recommenders import pop_scorer, stat_coverage

from conftest import build_split


def _padded_split(test_pairs, n_items=8):
    """All items rated by a dedicated filler user; real users only in test."""
    train = [("filler", f"i{k}", 3) for k in range(n_items)]
    train += [(u, "warm", 3) for u in {u for u, _, _ in test_pairs}]
    train += [("filler", "warm", 3)]
    return build_split(train, test_pairs)


def _report(coll, split, stats=None, **kwargs):
    """``evaluate``'s report under all_unrated: every metric is one of its fields."""
    return evaluate(coll, split, compute_item_stats(split) if stats is None else stats, **kwargs)


def _prf(coll, split):
    report = _report(coll, split)
    return report.precision, report.recall, report.f_measure


class TestPrecisionRecall:
    def test_hand_case(self):
        # one user, 4 relevant test items, 2 of them retrieved at N=5
        test = [("u", f"i{k}", 5) for k in range(4)]
        split = _padded_split(test)
        coll = TopNCollection(5, {"u": ("i0", "i1", "i4", "i5", "i6")})
        p, r, f = _prf(coll, split)
        assert p == pytest.approx(0.4)
        assert r == pytest.approx(0.5)
        assert f == pytest.approx(2 * 0.4 * 0.5 / 0.9)

    def test_no_relevant_items_anywhere(self):
        test = [("u", "i0", 2), ("u", "i1", 1)]
        split = _padded_split(test)
        coll = TopNCollection(2, {"u": ("i0", "i1")})
        # strat recall is undefined there, so the report is refused
        with pytest.raises(UndefinedMetricError, match="^no relevant test items anywhere$"):
            _report(coll, split)
        # with one relevant item elsewhere, nothing retrieved scores zero
        split = _padded_split(test + [("v", "i2", 5)])
        coll = TopNCollection(2, {"u": ("i0", "i1"), "v": ("i3", "i4")})
        assert _prf(coll, split) == (0.0, 0.0, 0.0)

    def test_every_relevant_item_retrieved(self):
        test = [("u", f"i{k}", 5) for k in range(5)]
        split = _padded_split(test)
        coll = TopNCollection(5, {"u": tuple(f"i{k}" for k in range(5))})
        p, r, f = _prf(coll, split)
        assert p == 1.0 and r == 1.0 and f == 1.0

    def test_users_without_relevant_stay_in_denominator(self):
        test = [("u1", "i0", 5), ("u2", "i1", 1)]
        split = _padded_split(test)
        coll = TopNCollection(1, {"u1": ("i0",), "u2": ("i2",)})
        p, r, _ = _prf(coll, split)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)  # u1 recall 1, u2 contributes 0

    def test_f_measure_zero_iff_either_side_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n_rel = int(rng.integers(0, 4))
            test = [("u", f"i{k}", 5) for k in range(n_rel)]
            test += [("u", "i5", 1)]
            split = _padded_split(test)
            hit = int(rng.integers(0, 2)) and n_rel > 0
            lists = ("i0", "i6") if hit else ("i6", "i7")
            coll = TopNCollection(2, {"u": lists})
            if n_rel == 0:  # no relevant item anywhere: strat recall is undefined
                with pytest.raises(UndefinedMetricError):
                    _report(coll, split)
                continue
            p, r, f = _prf(coll, split)
            assert 0.0 <= f <= 1.0
            assert (f == 0.0) == (p == 0.0 or r == 0.0)
            if p + r > 0:
                assert f <= 2 * min(p, r) / (p + r) + 1e-12

    def test_precision_times_slots_is_the_hit_count(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec,
                                  stat_coverage(synth_stats, synth_split), 5)
        p = _report(coll, synth_split, synth_stats).precision
        relevant = {(r.user_id, r.item_id) for r in synth_split.test if r.value >= 4.0}
        hits = sum((u, i) in relevant for u, items in coll.lists.items() for i in items)
        assert p * 5 * len(coll.lists) == pytest.approx(hits, abs=1e-9)


class TestLtAccuracy:
    def test_hand_case(self):
        train = [(u, "hit", 3) for u in range(30)]
        train += [(1, "t1", 3), (2, "t2", 3), (3, "t3", 3), (4, "t4", 3), (5, "t5", 3)]
        split = build_split(train, [(10, "t1", 5)])  # a relevant item: strat recall is defined
        stats = compute_item_stats(split)
        assert [split.items[k] for k in np.flatnonzero(stats.in_tail)] == \
            ["t1", "t2", "t3", "t4", "t5"]
        coll = TopNCollection(5, {
            10: ("t1", "t2", "t3", "t4", "t5"),
            11: ("hit", "t1", "t2", "t3", "t4"),
        })
        # the second list holds the head item "hit"; 9 of 10 slots are tail
        assert _report(coll, split, stats).lt_accuracy == pytest.approx(0.9)

    def test_all_long_tail_is_one(self):
        train = [(u, "hit", 3) for u in range(30)]
        train += [(1, "t1", 3), (2, "t2", 3)]
        split = build_split(train, [(10, "t1", 5)])
        stats = compute_item_stats(split)
        coll = TopNCollection(2, {10: ("t1", "t2")})
        assert _report(coll, split, stats).lt_accuracy == 1.0

    def test_head_only_is_zero(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_baseline(synth_split.users, "constant", c=0.0)
        coll = independent_greedy(synth_split, theta, arec,
                                  stat_coverage(synth_stats, synth_split), 5)
        head = {synth_split.items[k] for k in np.flatnonzero(~synth_stats.in_tail)}
        if all(set(items) <= head for items in coll.lists.values()):
            assert _report(coll, synth_split, synth_stats).lt_accuracy == 0.0


class TestStratRecall:
    def test_beta_zero_equals_micro_recall(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec,
                                  stat_coverage(synth_stats, synth_split), 5)
        hits = 0
        relevant = 0
        for u in coll.lists:
            rel = {r.item_id for r in synth_split.test if r.user_id == u and r.value >= 4.0}
            hits += len(rel & set(coll.lists[u]))
            relevant += len(rel)
        micro = hits / relevant
        assert _report(coll, synth_split, synth_stats, beta=0.0).strat_recall == \
            pytest.approx(micro, abs=1e-12)

    def test_hand_case_rare_item_hit(self):
        # two relevant items with popularity 1 and 100; only the rare one is
        # retrieved: 1 / (1 + 100^-0.5) = 1 / 1.1
        train = [("filler", "rare", 3)]
        train += [(f"u{k}", "pop", 3) for k in range(100)]
        train += [("a", "warm", 3), ("b", "warm2", 3)]
        split = build_split(train, [("a", "rare", 5), ("b", "pop", 5)])
        coll = TopNCollection(1, {"a": ("rare",), "b": ("warm",)})
        assert _report(coll, split, beta=0.5).strat_recall == pytest.approx(1 / 1.1)

    def test_full_retrieval_is_one_for_any_beta(self):
        test = [("u", "i0", 5), ("u", "i1", 5)]
        split = _padded_split(test)
        coll = TopNCollection(2, {"u": ("i0", "i1")})
        for beta in (0.0, 0.5, 1.0, 2.0):
            assert _report(coll, split, beta=beta).strat_recall == pytest.approx(1.0)

    def test_undefined_without_relevant_items(self):
        test = [("u", "i0", 1)]
        split = _padded_split(test)
        coll = TopNCollection(1, {"u": ("i0",)})
        with pytest.raises(UndefinedMetricError):
            _report(coll, split)

    def test_weights_that_underflow_are_named(self):
        # both relevant items have popularity 2, and 2.0 ** -2000 is 0.0
        train = [(f, i, 3) for f in ("f1", "f2") for i in ("i0", "i1")]
        train += [("a", "wa", 3), ("b", "wb", 3)]
        split = build_split(train, [("a", "i0", 5), ("b", "i1", 5)])
        lists = {"a": ("i0",), "b": ("wa",), "f1": ("wa",), "f2": ("wb",)}
        some = {u: lists[u] for u in ("a", "b")}
        for chosen in (lists, some):  # the split's cached denominator, then a subset's
            with pytest.raises(UndefinedMetricError, match=r"^the popularity weights pop\^-beta "
                               r"of all 2 relevant test items underflow to 0 at beta=2000\.0$"):
                _report(TopNCollection(1, chosen), split, beta=2000.0)
        assert _report(TopNCollection(1, lists), split, beta=1000.0).strat_recall == 0.5

    def test_negative_beta_rejected(self, synth_split):
        with pytest.raises(ValueError):
            _report(TopNCollection(1, {}), synth_split, beta=-1.0)


class TestCoverage:
    def test_full_coverage(self):
        split = build_split([(1, "a", 3), (2, "b", 3), (3, "c", 3)], [(1, "b", 5)])
        coll = TopNCollection(1, {1: ("b",), 2: ("c",), 3: ("a",)})
        assert _report(coll, split).coverage == 1.0

    def test_identical_lists(self):
        split = build_split([(1, "a", 3), (2, "b", 3), (3, "c", 3), (1, "d", 3)], [(2, "a", 5)])
        coll = TopNCollection(2, {2: ("a", "d"), 3: ("a", "d")})
        assert _report(coll, split).coverage == pytest.approx(2 / 4)

    def test_monotone_in_n_for_nested_lists(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 10)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec,
                                  stat_coverage(synth_stats, synth_split), 10)
        values = [_report(coll.truncated(n), synth_split, synth_stats).coverage
                  for n in (2, 5, 8, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestGini:
    def test_uniform_is_exactly_zero(self):
        for c in (1, 3, 17):
            for m in (2, 5, 40):
                assert gini([c] * m) == 0.0

    def test_hand_case_two_values(self):
        assert gini([1, 3]) == pytest.approx(0.25)

    def test_hand_case_concentrated(self):
        assert gini([0, 0, 0, 12]) == pytest.approx(0.75)

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedMetricError):
            gini([0, 0, 0])

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=30).filter(
        lambda xs: sum(xs) > 0), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_scale_and_permutation_invariance(self, xs, scale):
        rng = np.random.default_rng(0)
        base = gini(xs)
        assert gini([scale * x for x in xs]) == pytest.approx(base, abs=1e-12)
        assert gini(list(rng.permutation(xs))) == pytest.approx(base, abs=1e-12)
        assert 0.0 <= base <= 1.0 - 1.0 / len(xs) + 1e-12


class TestEvaluate:
    def test_bundles_match_components(self, synth_split, synth_stats):
        # each field against its definition over the collection's id lists
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec,
                                  stat_coverage(synth_stats, synth_split), 5)
        report = evaluate(coll, synth_split, synth_stats)
        relevant = {u: set() for u in coll.lists}
        for r in synth_split.test:
            if r.value >= 4.0 and r.user_id in relevant:
                relevant[r.user_id].add(r.item_id)
        hits = [len(relevant[u] & set(items)) for u, items in coll.lists.items()]
        p = sum(hits) / (5 * len(hits))
        r = 0.0
        for h, u in zip(hits, coll.lists):
            r += h / len(relevant[u]) if relevant[u] else 0.0
        r /= len(hits)
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        assert report.precision == p and report.recall == r and report.f_measure == f
        slots = [i for items in coll.lists.values() for i in items]
        assert report.coverage == len(set(slots)) / len(synth_split.items)
        tail = {synth_split.items[k] for k in np.flatnonzero(synth_stats.in_tail)}
        assert report.lt_accuracy == sum(i in tail for i in slots) / len(slots)
        assert report.gini == gini([slots.count(i) for i in synth_split.items])
        assert 0 <= report.gini <= 1

    def test_gini_counts_never_recommended_items_as_zeros(self):
        split = build_split([(1, "a", 3), (2, "b", 3), (3, "c", 3), (4, "d", 3)],
                            [(1, "b", 5)])
        coll = TopNCollection(1, {1: ("b",), 2: ("a",), 3: ("b",), 4: ("b",)})
        report = evaluate(coll, split, compute_item_stats(split))
        # frequencies over the full universe: [1, 3, 0, 0] sorted ascending
        assert report.gini == pytest.approx(gini([0, 0, 1, 3]))

    def test_declared_protocol_mismatch(self, synth_split, synth_stats):
        user = synth_split.users[0]
        first_candidate = synth_split.items[np.flatnonzero(synth_split.candidate_mask(user))[0]]
        coll = TopNCollection(1, {user: (first_candidate,)})
        with pytest.raises(ContractViolationError):
            evaluate(coll, synth_split, synth_stats, protocol="all_unrated",
                     declared_protocol="rated_test_items")

    def test_rated_protocol_drops_short_test_users(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec,
                                  stat_coverage(synth_stats, synth_split), 5,
                                  protocol="rated_test_items")
        report = evaluate(coll, synth_split, synth_stats,
                          protocol="rated_test_items",
                          declared_protocol="rated_test_items")
        eligible = {u for u in synth_split.users
                    if len(synth_split.per_user_test_index[u]) >= 5}
        assert set(coll.lists) == eligible
        assert report.protocol == "rated_test_items"

    def test_truncation(self, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec,
                                  stat_coverage(synth_stats, synth_split), 5)
        report = evaluate(coll, synth_split, synth_stats, n=3)
        assert report.n == 3
        with pytest.raises(ValueError):
            evaluate(coll, synth_split, synth_stats, n=9)

    def test_n_below_one_rejected(self, synth_split, synth_stats):
        lists = {u: () for u in synth_split.users}  # a list of n = 0 items per user
        for n in (None, 0, -1):
            with pytest.raises(ValueError, match="^n must be at least 1, got "):
                evaluate(TopNCollection(0, lists), synth_split, synth_stats, n=n)

    def test_empty_collection_rejected(self, synth_split, synth_stats):
        with pytest.raises(UndefinedMetricError):
            evaluate(TopNCollection(5, {}), synth_split, synth_stats)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_empty_collection_has_no_users_under_either_protocol(self, protocol):
        # the split has relevant test items, so only the empty collection is at fault
        split = _padded_split([("u", "i0", 5), ("u", "i1", 5)])
        with pytest.raises(UndefinedMetricError, match="^no users to evaluate$"):
            evaluate(TopNCollection(1, {}), split, compute_item_stats(split), protocol)

    def test_empty_test_set_is_undefined(self):
        split = build_split([(1, "a", 3), (2, "b", 3)])
        stats = compute_item_stats(split)
        coll = TopNCollection(1, {1: ("b",), 2: ("a",)})
        with pytest.raises(UndefinedMetricError):
            evaluate(coll, split, stats)

    def test_report_round_trip(self, tmp_path, synth_split, synth_stats):
        arec = pop_scorer(synth_split, synth_stats, 5)
        theta = theta_generalized(synth_split)
        coll = independent_greedy(synth_split, theta, arec,
                                  stat_coverage(synth_stats, synth_split), 5)
        report = evaluate(coll, synth_split, synth_stats, per_user=True)
        report.save(tmp_path)
        loaded = EvalReport.load(tmp_path)
        assert loaded == EvalReport(**{**report.to_dict()})
        assert (tmp_path / "per_user.csv").exists()
        assert (tmp_path / "report.csv").read_text().count("\n") == 2
