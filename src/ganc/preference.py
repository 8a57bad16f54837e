"""Per-user long-tail novelty preference models.

Four estimators produce a scalar theta in [0, 1] per user: rated-item count
(activity), long-tail share of rated items, a tf-idf style average of
per-pair values, and a generalized weighted average learned by alternating
minimax updates over per-item importance weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ItemStats, SplitDataset, min_max_normalize, resolve_ids
from .errors import NumericalDegeneracyError, ParseError
from .io_utils import canonical_ids, read_json, read_table, write_json, write_table

MODELS = ("activity", "normalized_longtail", "tfidf", "generalized", "constant", "random")
THETA_HEADER, WEIGHTS_HEADER = ("user", "theta"), ("item", "weight")


@dataclass(frozen=True)
class PerUserItemPreference:
    """Per observed train pair (user, item) -> preference value in [0, 1]."""

    values: dict


@dataclass(frozen=True)
class PreferenceVector:
    model: str
    theta: dict
    weights: dict | None = None
    iterations: int | None = None
    converged: bool | None = None
    theta_deltas: tuple | None = None  # max |change of theta| per iteration


def _raw_theta_ui(split: SplitDataset) -> np.ndarray:
    """Unprojected per-pair values r_ui * ln(|U| / |U_i|), aligned with the train columns."""
    t = split.train_columns
    raters = split.item_train_counts.astype(float)
    return t.values * np.log(len(split.users) / raters[t.item_codes])


def compute_theta_ui(split: SplitDataset) -> PerUserItemPreference:
    """Per-pair preference values, min-max projected jointly onto [0, 1]."""
    t = split.train_columns
    projected = min_max_normalize(_raw_theta_ui(split))
    return PerUserItemPreference(
        dict(zip(zip(t.user_ids(), t.item_ids()), projected.tolist())))


def _weighted_user_means(split, theta_ui: np.ndarray, w_item: np.ndarray) -> np.ndarray:
    """Per-user weighted average of pair values with per-item weights.

    Raises NumericalDegeneracyError when a user's weights sum to inf or to
    0, whose average would be inf / inf or 0 / 0, or when a weight in use
    is subnormal, where it keeps too few bits for the average to hold.
    Only the generalized model's weights lambda1 / eps can: scaled far
    enough from 1 by lambda1, which the average does not depend on, they
    overflow or underflow.
    """
    t = split.train_columns
    wi = w_item[t.item_codes]
    den = np.bincount(t.user_codes, weights=wi, minlength=len(split.users))
    usable = np.isfinite(den) & (den > 0)
    if not usable.all():
        k = int(np.argmin(usable))
        raise NumericalDegeneracyError(
            f"user {split.users[k]!r}: item weights lambda1 / eps sum to {float(den[k])!r}; "
            f"lambda1 is too far from 1")
    subnormal = wi < np.finfo(float).tiny
    if subnormal.any():
        k = int(np.argmax(subnormal))
        raise NumericalDegeneracyError(
            f"item {split.items[t.item_codes[k]]!r}: weight lambda1 / eps is {float(wi[k])!r}, "
            f"below the normal float range; lambda1 is too far from 1")
    num = np.bincount(t.user_codes, weights=wi * theta_ui, minlength=len(split.users))
    return num / den


def theta_activity(split: SplitDataset) -> PreferenceVector:
    """Rated-item counts, min-max normalized across users."""
    norm = min_max_normalize(split.user_train_counts)
    return PreferenceVector("activity", dict(zip(split.users, norm.tolist())))


def theta_normalized_longtail(split: SplitDataset, stats: ItemStats) -> PreferenceVector:
    """Fraction of each user's rated items that fall in the long tail."""
    t = split.train_columns
    in_tail = np.array([i in stats.long_tail for i in split.items], dtype=float)
    tail_counts = np.bincount(t.user_codes, weights=in_tail[t.item_codes],
                              minlength=len(split.users))
    theta = tail_counts / split.user_train_counts
    return PreferenceVector("normalized_longtail", dict(zip(split.users, theta.tolist())))


def theta_tfidf(split: SplitDataset) -> PreferenceVector:
    """Plain per-user average of the projected per-pair values."""
    projected = min_max_normalize(_raw_theta_ui(split))
    means = _weighted_user_means(split, projected, np.ones(len(split.items)))
    return PreferenceVector("tfidf", dict(zip(split.users, map(float, means))))


def theta_generalized(split: SplitDataset, lambda1: float = 1.0,
                      tol: float = 1e-6, max_iters: int = 100,
                      theta_ui: PerUserItemPreference | None = None) -> PreferenceVector:
    """Alternating minimax estimate of user preferences and item weights.

    Starting from unit weights, each sweep recomputes item weights
    w_i = lambda1 / eps_i from the item mediocrity coefficient
    eps_i = sum over raters of 1 - (theta_ui - theta_u)^2, then refreshes
    every theta_u as the w-weighted average of its pair values. Stops when
    the largest per-user change drops below ``tol``; ``theta_deltas``
    records that change for every iteration. With ``max_iters=0`` the
    result equals :func:`theta_tfidf` and weights stay at one.

    ``theta_ui`` overrides the internally computed pair values; entries must
    already lie in [0, 1] or the mediocrity coefficient can degenerate.
    """
    if not (math.isfinite(lambda1) and lambda1 > 0):
        raise ValueError(f"lambda1 must be positive and finite, got {lambda1}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    t = split.train_columns
    uidx, iidx = t.user_codes, t.item_codes
    n_items = len(split.items)
    if theta_ui is None:
        t_ui = min_max_normalize(_raw_theta_ui(split))
    else:
        t_ui = np.array([theta_ui.values[pair] for pair in zip(t.user_ids(), t.item_ids())])

    w = np.ones(n_items)
    theta = _weighted_user_means(split, t_ui, w)
    deltas = []
    converged = False
    for k in range(1, max_iters + 1):
        sq_dev = (t_ui - theta[uidx]) ** 2
        eps = np.bincount(iidx, weights=1.0 - sq_dev, minlength=n_items)
        if np.any(eps <= 0):
            bad = split.items[int(np.argmax(eps <= 0))]
            raise NumericalDegeneracyError(
                f"item {bad!r}: mediocrity coefficient is not positive")
        with np.errstate(over="ignore"):  # an infinite weight is refused below
            w = lambda1 / eps
        new_theta = _weighted_user_means(split, t_ui, w)
        delta = float(np.max(np.abs(new_theta - theta)))
        theta = new_theta
        deltas.append(delta)
        if delta < tol:
            converged = True
            break
    theta = np.clip(theta, 0.0, 1.0)
    return PreferenceVector(
        "generalized",
        dict(zip(split.users, map(float, theta))),
        weights=dict(zip(split.items, map(float, w))),
        iterations=len(deltas),
        converged=converged,
        theta_deltas=tuple(deltas),
    )


def theta_baseline(users, kind: str, c: float = 0.5, seed: int = 0) -> PreferenceVector:
    """Constant or seeded-uniform-random preference vector over ``users``."""
    ordered = sorted(users)
    if kind == "constant":
        if not 0 <= c <= 1:
            raise ValueError(f"constant must be in [0, 1], got {c}")
        return PreferenceVector("constant", {u: float(c) for u in ordered})
    if kind == "random":
        rng = np.random.default_rng(seed)
        draws = rng.random(len(ordered))
        return PreferenceVector("random", dict(zip(ordered, map(float, draws))))
    raise ValueError(f"unknown baseline kind {kind!r}")


def save_prefs(pv: PreferenceVector, directory, manifest: dict | None = None) -> None:
    """Persist theta.csv (plus weights.csv for the generalized model) and a manifest."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_table(d / "theta.csv", THETA_HEADER,
                ((u, repr(pv.theta[u])) for u in sorted(pv.theta)))
    if pv.weights is not None:
        write_table(d / "weights.csv", WEIGHTS_HEADER,
                    ((i, repr(pv.weights[i])) for i in sorted(pv.weights)))
    payload = dict(manifest or {})
    payload.update(model=pv.model, iterations=pv.iterations, converged=pv.converged,
                   theta_deltas=None if pv.theta_deltas is None else list(pv.theta_deltas))
    write_json(d / "prefs.json", payload)


def load_prefs(directory, split: SplitDataset | None = None) -> tuple[PreferenceVector, dict]:
    """Read a prefs directory back; (preference vector, prefs.json).

    Given the split, theta.csv users and weights.csv items are read against
    its id tables (see :func:`~ganc.dataset.resolve_ids`); without it each
    id column is canonicalized on its own.
    """
    d = Path(directory)
    manifest = read_json(d / "prefs.json")
    if manifest.get("model") not in MODELS:
        raise ParseError(f"{d / 'prefs.json'}: model must be one of {', '.join(MODELS)}, "
                         f"got {manifest.get('model')!r}")
    deltas = manifest.get("theta_deltas")
    if not isinstance(deltas, (list, type(None))):
        raise ParseError(f"{d / 'prefs.json'}: theta_deltas must be a list, got {deltas!r}")
    theta = _read_id_column_map(d / "theta.csv", THETA_HEADER,
                                None if split is None else split.users, unit_interval=True)
    weights = None
    if (d / "weights.csv").exists():
        weights = _read_id_column_map(d / "weights.csv", WEIGHTS_HEADER,
                                      None if split is None else split.items)
    return PreferenceVector(
        manifest["model"], theta, weights,
        manifest.get("iterations"), manifest.get("converged"),
        None if deltas is None else tuple(deltas),
    ), manifest


def _read_id_column_map(path, header: tuple, ids: tuple | None,
                        unit_interval: bool = False) -> dict:
    """Read a two-column ``id,value`` table, its id column read against the
    id table ``ids`` or, when that is None, canonicalized as a whole.

    An id listed twice is a ParseError, and with ``unit_interval`` so is a
    value outside [0, 1] (NaN included).
    """
    values = {}  # id string -> value, in file order
    for line, (key, raw) in read_table(path, header):
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(f"{path}:{line}: bad value {raw!r}") from None
        if unit_interval and not 0.0 <= value <= 1.0:
            raise ParseError(f"{path}:{line}: value {raw!r} outside [0, 1]")
        if key in values:
            raise ParseError(f"{path}:{line}: {header[0]} {key!r} listed twice")
        values[key] = value
    keys = canonical_ids(list(values)) if ids is None else resolve_ids(list(values), ids)
    return dict(zip(keys, values.values()))
