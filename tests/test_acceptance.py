"""Acceptance criteria, one test per criterion, printed as pass/fail lines.

Criteria 1, 2, 6, 7, 8, 9 and the protocol comparison in 10 need the real
MovieLens 100K rating file. Place it at data/ml-100k/u.data (see
scripts/fetch_ml100k.py) or point GANC_ML100K at it; without the file those
tests fail with an explanatory message rather than silently passing.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ganc.core import TopNCollection, independent_greedy, locally_greedy_full, oslg
from ganc.dataset import compute_item_stats, load_ratings, split_per_user
from ganc.metrics import evaluate, gini
from ganc.preference import (
    theta_baseline,
    theta_generalized,
    theta_normalized_longtail,
)
from ganc.recommenders import (
    mf_accuracy_scorer,
    pop_scorer,
    rmse,
    rsvd_train,
    stat_coverage,
)

from conftest import build_split, random_instance
from oracles import brute_force_optimal, collection_value, submodularity_check

ML100K_ENV = "GANC_ML100K"
ML100K_DEFAULT = Path(__file__).resolve().parent.parent / "data" / "ml-100k" / "u.data"


def _report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ml100k_ratings():
    path = Path(os.environ.get(ML100K_ENV, ML100K_DEFAULT))
    if not path.exists():
        pytest.fail(
            f"MovieLens 100K not found at {path}. This environment has no "
            "route to files.grouplens.org; run scripts/fetch_ml100k.py on a "
            "networked machine (or set GANC_ML100K) and rerun. The criterion "
            "is implemented and runs unmodified once the file exists.",
            pytrace=False,
        )
    return load_ratings(path, "tab_separated")


@pytest.fixture(scope="module")
def ml100k_split(ml100k_ratings):
    return split_per_user(ml100k_ratings, kappa=0.5, tau=20, seed=0)


@pytest.fixture(scope="module")
def ml100k_stats(ml100k_split):
    return compute_item_stats(ml100k_split)


@pytest.fixture(scope="module")
def ml100k_theta_g(ml100k_split):
    return theta_generalized(ml100k_split)


def test_c01_rsvd_rmse_reproduction(ml100k_split):
    start = time.perf_counter()
    model = rsvd_train(ml100k_split, g=100, lam=0.05, eta=0.03, epochs=30, seed=0)
    heldout = rmse(model, ml100k_split.test)
    elapsed = time.perf_counter() - start
    _report(1, abs(heldout - 0.935) <= 0.02,
            f"held-out RMSE {heldout:.4f} (target 0.935 +/- 0.02, {elapsed:.0f}s)")


def test_c02_long_tail_share(ml100k_ratings):
    shares = []
    for seed in range(5):
        split = split_per_user(ml100k_ratings, kappa=0.5, tau=20, seed=seed)
        stats = compute_item_stats(split)
        shares.append(100.0 * np.count_nonzero(stats.in_tail) / len(split.items))
    ok = all(abs(s - 66.98) <= 1.5 for s in shares)
    _report(2, ok, "long-tail share per seed: "
            + ", ".join(f"{s:.2f}%" for s in shares) + " (target 66.98 +/- 1.5)")


def test_c03_greedy_half_approximation_bound():
    rng = np.random.default_rng(2024)
    worst = math.inf
    passes = 0
    for _ in range(100):
        split, theta, arec = random_instance(rng, n_users=3, n_items=6)
        n = int(rng.integers(1, 3))
        coll = locally_greedy_full(split, theta, arec, n)
        value = collection_value(split, theta, arec, coll.lists)
        optimum, _ = brute_force_optimal(split, theta, arec, n)
        ratio = value / optimum if optimum > 0 else 1.0
        worst = min(worst, ratio)
        passes += ratio >= 0.5 - 1e-9
    _report(3, passes == 100,
            f"{passes}/100 instances at >= 0.5 x optimum (worst ratio {worst:.3f})")


def test_c04_submodularity_suite():
    rng = np.random.default_rng(7)
    failures = 0
    for trial in range(1000):
        split, theta, arec = random_instance(rng)
        if not submodularity_check(split, theta, arec, trials=20, seed=trial):
            failures += 1
    _report(4, failures == 0,
            f"diminishing-gain checks failed on {failures}/1000 instances")


def test_c05_oslg_full_sample_degeneracy():
    rng = np.random.default_rng(55)
    mismatches = 0
    for _ in range(20):
        split, theta, arec = random_instance(rng, n_users=4, n_items=8)
        run = oslg(split, theta, arec, n=2, s=len(split.users), seed=1)
        baseline = locally_greedy_full(split, theta, arec, 2,
                                       user_order="increasing_theta")
        mismatches += run.collection.lists != baseline.lists
    _report(5, mismatches == 0,
            f"{20 - mismatches}/20 instances identical to the sequential baseline")


def test_c06_phase4_determinism(ml100k_ratings, ml100k_split, ml100k_theta_g,
                                ml100k_stats):
    # the nominal 2000-user subsample exceeds the dataset, so the whole
    # user set is the subsample
    users = ml100k_split.users[:2000]
    assert len(users) == len(ml100k_split.users)
    arec = pop_scorer(ml100k_split, ml100k_stats, 5)
    base = oslg(ml100k_split, ml100k_theta_g, arec, 5, s=500, seed=0, workers=1)
    rest = [u for u in ml100k_split.users if u not in set(base.sampled_users)]
    same = True
    for perm_seed in (1, 2):
        order = list(np.random.default_rng(perm_seed).permutation(rest))
        again = oslg(ml100k_split, ml100k_theta_g, arec, 5, s=500, seed=0,
                     phase4_order=order)
        same &= again.collection.lists == base.collection.lists
    wide = oslg(ml100k_split, ml100k_theta_g, arec, 5, s=500, seed=0, workers=8)
    same &= wide.collection.lists == base.collection.lists
    _report(6, same, "output invariant under phase-4 order and 1 vs 8 workers")


def test_c07_coverage_novelty_trend(ml100k_split, ml100k_stats, ml100k_theta_g):
    arec = pop_scorer(ml100k_split, ml100k_stats, 5)
    zero = theta_baseline(ml100k_split.users, "constant", c=0.0)
    pop_coll = independent_greedy(ml100k_split, zero, arec,
                                  stat_coverage(ml100k_stats, ml100k_split), 5)
    pop_report = evaluate(pop_coll, ml100k_split, ml100k_stats)
    run = oslg(ml100k_split, ml100k_theta_g, arec, 5, s=500, seed=0)
    ganc_report = evaluate(run.collection, ml100k_split, ml100k_stats)
    ok = (ganc_report.coverage >= 3.0 * pop_report.coverage
          and ganc_report.gini < pop_report.gini
          and ganc_report.f_measure >= 0.6 * pop_report.f_measure)
    _report(7, ok,
            f"coverage {ganc_report.coverage:.3f} vs Pop {pop_report.coverage:.3f} "
            f"(x{ganc_report.coverage / pop_report.coverage:.1f}), "
            f"gini {ganc_report.gini:.3f} vs {pop_report.gini:.3f}, "
            f"F {ganc_report.f_measure:.4f} vs {pop_report.f_measure:.4f}")


def test_c08_sample_size_trend(ml100k_split, ml100k_stats, ml100k_theta_g):
    arec = pop_scorer(ml100k_split, ml100k_stats, 5)
    coverages = []
    for s in (100, 500, 1000, 2000):
        effective = min(s, len(ml100k_split.users))
        values = []
        for rep in range(10):
            run = oslg(ml100k_split, ml100k_theta_g, arec, 5, effective, seed=rep)
            values.append(evaluate(run.collection, ml100k_split, ml100k_stats).coverage)
        coverages.append(float(np.mean(values)))
    ok = all(b >= a - 0.02 for a, b in zip(coverages, coverages[1:]))
    _report(8, ok, "mean coverage over S in {100,500,1000,2000}: "
            + ", ".join(f"{c:.3f}" for c in coverages))


def test_c09_preference_distribution(ml100k_split, ml100k_stats, ml100k_theta_g):
    tn = theta_normalized_longtail(ml100k_split, ml100k_stats)
    g = np.array(list(ml100k_theta_g.theta.values()))
    n = np.array(list(tn.theta.values()))
    ok = g.mean() > n.mean() and g.var() > n.var()
    _report(9, ok,
            f"generalized mean {g.mean():.4f} var {g.var():.4f} vs "
            f"normalized mean {n.mean():.4f} var {n.var():.4f}")


def test_c10a_metric_unit_suite():
    checks = []
    checks.append(gini([4] * 7) == 0.0)
    checks.append(abs(gini([1, 3]) - 0.25) < 1e-12)
    # stratified recall at beta 0 equals micro recall, exercised on a
    # hand-built split with partial hits
    train = [("filler", f"i{k}", 3) for k in range(6)]
    train += [("a", "warm", 3), ("b", "warm2", 3)]
    split = build_split(train, [("a", "i0", 5), ("a", "i1", 5), ("b", "i2", 5)])
    coll = TopNCollection(2, {"a": ("i0", "i3"), "b": ("i2", "i4")})
    micro = 2 / 3
    report = evaluate(coll, split, compute_item_stats(split), beta=0.0)
    checks.append(abs(report.strat_recall - micro) <= 1e-12)
    # an all-long-tail collection has long-tail accuracy 1
    lt_train = [(u, "hit", 3) for u in range(30)]
    lt_train += [(1, "t1", 3), (2, "t2", 3)]
    lt_split = build_split(lt_train, [(10, "t1", 5)])  # a relevant item, for strat recall
    lt_stats = compute_item_stats(lt_split)
    lt_coll = TopNCollection(2, {10: ("t1", "t2"), 11: ("t2", "t1")})
    checks.append(evaluate(lt_coll, lt_split, lt_stats).lt_accuracy == 1.0)
    _report(10, all(checks),
            f"unit checks (gini uniform, gini [1,3], strat beta=0, all-tail LT): {checks}")


def test_c10b_protocol_comparison(ml100k_split, ml100k_stats, ml100k_theta_g):
    zero = theta_baseline(ml100k_split.users, "constant", c=0.0)
    stat = stat_coverage(ml100k_stats, ml100k_split)
    model = rsvd_train(ml100k_split, g=100, lam=0.05, eta=0.03, epochs=30, seed=0)
    mf = mf_accuracy_scorer(model, ml100k_split)
    pop = pop_scorer(ml100k_split, ml100k_stats, 5)
    outcomes = {}
    for name, arec, theta in (
        ("pop", pop, zero),
        ("rsvd", mf, zero),
        ("ganc-pop-dyn", pop, ml100k_theta_g),
        ("ganc-rsvd-stat", mf, ml100k_theta_g),
    ):
        if name == "ganc-pop-dyn":
            unrated = oslg(ml100k_split, theta, arec, 5, s=500, seed=0).collection
            rated = oslg(ml100k_split, theta, arec, 5, s=500, seed=0,
                         protocol="rated_test_items").collection
        else:
            unrated = independent_greedy(ml100k_split, theta, arec, stat, 5)
            rated = independent_greedy(ml100k_split, theta, arec, stat, 5,
                                       protocol="rated_test_items")
        f_unrated = evaluate(unrated, ml100k_split, ml100k_stats).f_measure
        f_rated = evaluate(rated, ml100k_split, ml100k_stats,
                           protocol="rated_test_items").f_measure
        outcomes[name] = (f_unrated, f_rated)
    ok = all(rated > unrated for unrated, rated in outcomes.values())
    detail = "; ".join(f"{k}: all={u:.4f} rated={r:.4f}"
                       for k, (u, r) in outcomes.items())
    _report(10, ok, f"rated protocol F-measure exceeds all-unrated: {detail}")
