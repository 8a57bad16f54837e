"""Qualitative behavior on synthetic popularity-skewed data.

These mirror the real-data trend criteria in test_acceptance.py with
relaxed margins: the directions are properties of the algorithms on any
popularity-skewed dataset, while the published magnitudes are specific to
the real benchmark files.
"""

import numpy as np
import pytest

from ganc.core import independent_greedy, oslg
from ganc.dataset import compute_item_stats, split_per_user
from ganc.metrics import evaluate
from ganc.preference import theta_baseline, theta_generalized, theta_normalized_longtail
from ganc.recommenders import pop_scorer, rand_coverage, stat_coverage
from ganc.synthetic import generate_ratings


@pytest.fixture(scope="module")
def theta_g(synth_split):
    return theta_generalized(synth_split)


@pytest.fixture(scope="module")
def pop_arec(synth_split, synth_stats):
    return pop_scorer(synth_split, synth_stats, 5)


@pytest.fixture(scope="module")
def pop_report(synth_split, synth_stats, pop_arec):
    zero = theta_baseline(synth_split.users, "constant", c=0.0)
    coll = independent_greedy(synth_split, zero, pop_arec,
                              stat_coverage(synth_stats, synth_split), 5)
    return evaluate(coll, synth_split, synth_stats)


def test_generalized_theta_sits_above_normalized(synth_split, synth_stats, theta_g):
    tn = theta_normalized_longtail(synth_split, synth_stats)
    g = np.array(list(theta_g.theta.values()))
    n = np.array(list(tn.theta.values()))
    assert g.mean() > n.mean()


def test_dynamic_reranking_boosts_coverage_and_flattens_gini(
        synth_split, synth_stats, theta_g, pop_arec, pop_report):
    run = oslg(synth_split, theta_g, pop_arec, 5, s=50, seed=0)
    report = evaluate(run.collection, synth_split, synth_stats)
    assert report.coverage > 1.3 * pop_report.coverage
    assert report.gini < pop_report.gini
    assert report.f_measure >= 0.6 * pop_report.f_measure


def test_coverage_grows_with_sample_size(synth_split, synth_stats, theta_g, pop_arec):
    coverages = []
    for s in (15, 50, len(synth_split.users)):
        values = [
            evaluate(oslg(synth_split, theta_g, pop_arec, 5, s, seed=rep).collection,
                     synth_split, synth_stats).coverage
            for rep in range(5)
        ]
        coverages.append(float(np.mean(values)))
    assert all(b >= a - 0.02 for a, b in zip(coverages, coverages[1:]))


def test_rated_protocol_inflates_f_measure(synth_split, synth_stats, pop_arec):
    zero = theta_baseline(synth_split.users, "constant", c=0.0)
    stat = stat_coverage(synth_stats, synth_split)
    unrated = independent_greedy(synth_split, zero, pop_arec, stat, 5)
    rated = independent_greedy(synth_split, zero, pop_arec, stat, 5,
                               protocol="rated_test_items")
    f_unrated = evaluate(unrated, synth_split, synth_stats).f_measure
    f_rated = evaluate(rated, synth_split, synth_stats,
                       protocol="rated_test_items").f_measure
    assert f_rated > f_unrated


def test_random_coverage_spreads_recommendations_widest(
        synth_split, synth_stats, theta_g, pop_arec, pop_report):
    rand_coll = independent_greedy(
        synth_split, theta_g, pop_arec, rand_coverage(1, synth_split), 5)
    rand_report = evaluate(rand_coll, synth_split, synth_stats)
    assert rand_report.coverage > pop_report.coverage


def test_phase4_order_invariance_at_ml100k_shape():
    # c06 on a synthetic split of MovieLens-100K's shape: phase two assigns
    # hundreds of users against many snapshots, in any order
    split = split_per_user(generate_ratings(943, 1682, seed=0, mean_activity=106),
                           kappa=0.5, tau=20, seed=0)
    theta = theta_generalized(split)
    arec = pop_scorer(split, compute_item_stats(split), 5)
    base = oslg(split, theta, arec, 5, s=500, seed=0)
    assert base.phase2_users > 0 and base.snapshots_used > 1
    sampled = set(base.sampled_users)
    rest = [u for u in split.users if u not in sampled]
    for perm_seed in (1, 2):
        order = np.random.default_rng(perm_seed).permutation(rest).tolist()
        again = oslg(split, theta, arec, 5, s=500, seed=0, phase4_order=order)
        assert again.collection.lists == base.collection.lists
