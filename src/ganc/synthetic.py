"""Seeded generator of popularity-skewed rating data.

Produces datasets with the shape this package targets: a Zipf-like item
popularity curve, heterogeneous user activity, users that differ in how far
down the popularity curve they explore, and ratings on a 1..5 scale driven
by a latent item quality. Used by the demo scripts and the test suite;
real-data experiments load MovieLens-style files instead.
"""

from __future__ import annotations

import numpy as np

from .dataset import Rating


def generate_ratings(n_users: int = 200, n_items: int = 400, seed: int = 0,
                     min_activity: int = 20, mean_activity: float = 40.0) -> list:
    """Return a list of :class:`Rating` with integer ids starting at 1.

    Each user draws a without-replacement item sample weighted by
    popularity^gamma_u, where gamma_u varies across users, so some users
    concentrate on the head of the catalog and others wander into the tail.
    """
    rng = np.random.default_rng(seed)
    base_pop = 1.0 / np.arange(1, n_items + 1) ** 0.8
    quality = np.clip(rng.normal(3.6, 0.5, size=n_items), 1.0, 5.0)
    gamma = rng.uniform(0.2, 1.4, size=n_users)
    user_bias = rng.normal(0.0, 0.3, size=n_users)
    sigma = np.log(2.0)
    mu = np.log(mean_activity) - 0.5 * sigma ** 2
    activity = np.clip(rng.lognormal(mu, sigma, size=n_users).astype(int),
                       min_activity, n_items - 1)
    # the ratings share one int per id and one float per value (1.0 to 5.0)
    item_ids = list(range(1, n_items + 1))
    scale = [float(v) for v in range(6)]
    ratings = []
    for u in range(n_users):
        weights = base_pop ** gamma[u]
        probs = weights / weights.sum()
        items = rng.choice(n_items, size=activity[u], replace=False, p=probs)
        noise = rng.normal(0.0, 0.7, size=len(items))
        values = np.clip(np.rint(quality[items] + user_bias[u] + noise), 1.0, 5.0)
        user = u + 1
        ratings.extend(Rating(user, item_ids[i], scale[v])
                       for i, v in zip(items.tolist(), values.astype(np.intp).tolist()))
    return ratings
