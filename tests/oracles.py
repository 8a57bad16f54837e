"""Oracles for the greedy guarantees, written with the public API only.

The value of a collection is the sum over users of (1-theta_u)*sum(a) +
theta_u*sum(c), with dynamic coverage c = 1/sqrt(1 + f) at the final
recommendation frequencies f. The locally greedy assignment reaches at
least half its maximum, and the greedy gains of adding a (user, item) pair
diminish as the set grows. :func:`brute_force_optimal` finds the maximum of
a tiny instance by enumeration, :func:`submodularity_check` samples nested
sets for the gains, and :func:`greedy_picks` is the per-user rule every
greedy path must follow. Scorers are read through ``score_vector`` only.
"""

import itertools
import math
from collections import Counter

import numpy as np

from ganc.core import TopNCollection
from ganc.errors import ContractViolationError, InfeasibleError


class InstanceTooLargeError(Exception):
    """Exhaustive search refused an instance beyond its size guards."""


def greedy_picks(user, theta, arec, crec, n, cand_idx) -> list:
    """n greedy steps over the item indices ``cand_idx`` (ascending).

    Each step rebuilds the blended gains (1-theta)*a + theta*c of the
    candidates not yet picked and takes the first maximum, so ties go to
    the lowest item index. Returns the picked item indices in pick order.
    """
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


def greedy_topn_user(split, user, theta, arec, crec, n) -> tuple:
    """One user's top-n ids over every unseen train item, by :func:`greedy_picks`."""
    cands = np.flatnonzero(split.candidate_mask(user))
    return tuple(split.items[k] for k in greedy_picks(user, theta, arec, crec, n, cands))


def _accuracy(split, arec, users) -> dict:
    """user -> {item id: accuracy score} over the split's items."""
    return {u: dict(zip(split.items, arec.score_vector(u).tolist())) for u in users}


def user_value(split, user, items, theta, arec, crec) -> float:
    """Blended value (1-theta)*sum(a) + theta*sum(c) of an item set for a user."""
    seen = split.per_user_train_index[user]
    overlap = [i for i in items if i in seen]
    if overlap:
        raise ContractViolationError(f"user {user!r}: items {overlap!r} already rated in train")
    acc = _accuracy(split, arec, [user])[user]
    cov = dict(zip(split.items, crec.score_vector().tolist()))
    return (1.0 - theta) * sum(acc[i] for i in items) + theta * sum(cov[i] for i in items)


def _value(theta, acc, lists) -> float:
    """:func:`collection_value` with the accuracy table ``acc`` of :func:`_accuracy`."""
    freq = Counter(i for items in lists.values() for i in items)
    total = 0.0
    for u, items in lists.items():
        th = theta.theta[u]
        a_sum = sum(acc[u][i] for i in items)
        c_sum = sum(1.0 / math.sqrt(1.0 + freq[i]) for i in items)
        total += (1.0 - th) * a_sum + th * c_sum
    return total


def collection_value(split, theta, arec, lists) -> float:
    """Objective value of a full collection, with dynamic coverage evaluated
    at the final recommendation frequencies."""
    return _value(theta, _accuracy(split, arec, lists), lists)


def brute_force_optimal(split, theta, arec, n) -> tuple:
    """(maximum, a collection reaching it) of the final-frequency objective.

    Enumerates every feasible collection (all n-subsets of unseen items per
    user). Guarded to at most 4 users, 8 items, and n <= 2 because the
    search is exponential.
    """
    if len(split.users) > 4 or len(split.items) > 8 or n > 2:
        raise InstanceTooLargeError(
            f"refusing exhaustive search on |U|={len(split.users)}, "
            f"|I|={len(split.items)}, n={n}")
    per_user = []
    for u in split.users:
        cands = sorted(set(split.items) - split.per_user_train_index[u])
        if len(cands) < n:
            raise InfeasibleError(f"user {u!r}: {len(cands)} candidates for top-{n}")
        per_user.append(list(itertools.combinations(cands, n)))
    acc = _accuracy(split, arec, split.users)
    best_value = -np.inf
    best = None
    for assignment in itertools.product(*per_user):
        lists = dict(zip(split.users, assignment))
        value = _value(theta, acc, lists)
        if value > best_value:
            best_value = value
            best = lists
    return float(best_value), TopNCollection(n, best)


def submodularity_check(split, theta, arec, trials=100, seed=0) -> bool:
    """Randomized check of diminishing, non-negative greedy gains.

    The ground set is all feasible (user, item) pairs. For random chains
    A within B and a pair outside B, the gain credited for adding the pair,
    (1-theta_u)*a(u,i) + theta_u/sqrt(1 + count of the item in the set),
    must not grow with the set and must stay non-negative.
    """
    pairs = [(u, i) for u in split.users
             for i in sorted(set(split.items) - split.per_user_train_index[u])]
    if len(pairs) < 2:
        raise ValueError("need at least two feasible pairs")
    rng = np.random.default_rng(seed)
    acc = _accuracy(split, arec, split.users)

    def gain(user, item, members) -> float:
        f = sum(1 for (_, j) in members if j == item)
        return ((1.0 - theta.theta[user]) * acc[user][item]
                + theta.theta[user] / math.sqrt(1.0 + f))

    for _ in range(trials):
        perm = rng.permutation(len(pairs))
        b_size = int(rng.integers(0, len(pairs)))  # leaves at least one pair outside B
        a_size = int(rng.integers(0, b_size + 1))
        a_set = [pairs[k] for k in perm[:a_size]]
        b_set = [pairs[k] for k in perm[:b_size]]
        user, item = pairs[perm[b_size]]
        d_a = gain(user, item, a_set)
        d_b = gain(user, item, b_set)
        if d_a < d_b - 1e-12 or d_b < -1e-12:
            return False
    return True
