"""Rating ingestion, per-user train/test splitting, and popularity statistics.

Supported input layouts: MovieLens-100K style tab-separated files, the
``user::item::rating::timestamp`` layout, and generic CSV with a
``user,item,rating[,timestamp]`` header. Splits persist as two generic CSV
files plus a JSON manifest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptyDatasetError, ParseError, UnknownIdError
from .io_utils import canonical_ids, id_int, read_json, sha256_file, write_json

FORMATS = ("tab_separated", "double_colon", "csv")


@dataclass(frozen=True)
class Rating:
    user_id: object
    item_id: object
    value: float
    timestamp: int | None = None


@dataclass(frozen=True)
class SplitDataset:
    """Immutable train/test partition with per-user and per-item indices."""

    train: tuple
    test: tuple
    users: tuple
    items: tuple
    per_user_train_index: dict
    per_user_test_index: dict
    per_item_train_index: dict
    # relevant_by_user results per threshold
    _relevant: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def from_ratings(train, test) -> "SplitDataset":
        """Build a split from explicit train/test rating lists.

        Test ratings whose user or item never occurs in train are dropped;
        the recommendable universe is the train item set.
        """
        if not train:
            raise EmptyDatasetError("train set is empty")
        user_train: dict = {}
        item_train: dict = {}
        for r in train:
            user_train.setdefault(r.user_id, set()).add(r.item_id)
            item_train.setdefault(r.item_id, set()).add(r.user_id)
        kept_test = [
            r for r in test
            if r.user_id in user_train and r.item_id in item_train
        ]
        user_test: dict = {u: set() for u in user_train}
        for r in kept_test:
            user_test[r.user_id].add(r.item_id)
        return SplitDataset(
            train=tuple(train),
            test=tuple(kept_test),
            users=tuple(sorted(user_train)),
            items=tuple(sorted(item_train)),
            per_user_train_index={u: frozenset(s) for u, s in user_train.items()},
            per_user_test_index={u: frozenset(s) for u, s in user_test.items()},
            per_item_train_index={i: frozenset(s) for i, s in item_train.items()},
        )

    @cached_property
    def item_index(self) -> dict:
        return {i: k for k, i in enumerate(self.items)}

    @cached_property
    def user_index(self) -> dict:
        return {u: k for k, u in enumerate(self.users)}

    @cached_property
    def _train_codes(self) -> tuple:
        """(indptr, codes): ``codes[indptr[k]:indptr[k + 1]]`` are the item
        indices that ``users[k]`` rated in train."""
        idx = self.item_index
        seen = [self.per_user_train_index[u] for u in self.users]
        indptr = np.zeros(len(seen) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in seen], out=indptr[1:])
        codes = np.fromiter((idx[i] for s in seen for i in s), dtype=np.int64,
                            count=int(indptr[-1]))
        return indptr, codes

    def train_item_indices(self, user) -> np.ndarray:
        """Indices into ``items`` of the user's train items (unordered)."""
        indptr, codes = self._train_codes
        k = self.user_index[user]
        return codes[indptr[k]:indptr[k + 1]]

    def candidate_mask(self, user) -> np.ndarray:
        """Boolean mask over ``items``: True where the user has not rated in train."""
        mask = np.ones(len(self.items), dtype=bool)
        mask[self.train_item_indices(user)] = False
        return mask

    def candidate_indices(self, user) -> np.ndarray:
        """Indices into ``items`` of everything the user has not rated in train."""
        return np.flatnonzero(self.candidate_mask(user))

    def relevant_by_user(self, threshold: float = 4.0) -> dict:
        """Per user, the test items rated at or above ``threshold``; built once
        per threshold."""
        relevant = self._relevant.get(threshold)
        if relevant is None:
            items: dict = {u: [] for u in self.users}
            for r in self.test:
                if r.value >= threshold:
                    items[r.user_id].append(r.item_id)
            relevant = self._relevant[threshold] = {
                u: frozenset(i) for u, i in items.items()}
        return relevant


@dataclass(frozen=True)
class ItemStats:
    """Train popularity counts and the Pareto long-tail item set."""

    popularity: dict
    long_tail: frozenset
    total_train_ratings: int

    @cached_property
    def ranking(self) -> tuple:
        """Item ids sorted by decreasing popularity, ties by ascending id."""
        return tuple(sorted(self.popularity, key=lambda i: (-self.popularity[i], i)))


def _parse_fields(fields, line_no, path):
    if len(fields) not in (3, 4):
        raise ParseError(f"{path}:{line_no}: expected 3 or 4 fields, got {len(fields)}")
    user, item = fields[0].strip(), fields[1].strip()
    if not user or not item:
        raise ParseError(f"{path}:{line_no}: empty user or item id")
    try:
        value = float(fields[2])
    except ValueError:
        raise ParseError(f"{path}:{line_no}: bad rating {fields[2]!r}") from None
    if not math.isfinite(value) or value < 0:
        raise ParseError(f"{path}:{line_no}: rating must be finite and >= 0")
    ts = None
    if len(fields) == 4 and fields[3].strip():
        try:
            ts = int(float(fields[3]))
        except ValueError:
            raise ParseError(f"{path}:{line_no}: bad timestamp {fields[3]!r}") from None
    return user, item, value, ts


def load_ratings(path, format: str = "tab_separated") -> list:
    """Parse a rating file into a list of :class:`Rating`.

    Duplicate (user, item) pairs keep the last occurrence. Ids become ints
    when every id in the column is int-like, otherwise they stay strings.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        if format == "csv":
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyDatasetError(f"{path}: empty file")
            header = [h.strip().lower() for h in header]
            if header[:3] != ["user", "item", "rating"]:
                raise ParseError(f"{path}:1: expected header user,item,rating[,timestamp]")
            for line_no, fields in enumerate(reader, start=2):
                if not fields or (len(fields) == 1 and not fields[0].strip()):
                    continue
                rows.append(_parse_fields(fields, line_no, path))
        else:
            delim = "\t" if format == "tab_separated" else "::"
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line.strip():
                    continue
                rows.append(_parse_fields(line.split(delim), line_no, path))
    if not rows:
        raise EmptyDatasetError(f"{path}: no ratings parsed")
    users = canonical_ids([r[0] for r in rows])
    items = canonical_ids([r[1] for r in rows])
    dedup: dict = {}
    for (u, i), (_, _, value, ts) in zip(zip(users, items), rows):
        dedup[(u, i)] = Rating(u, i, value, ts)
    return list(dedup.values())


def split_per_user(ratings, kappa: float, tau: int, seed: int) -> SplitDataset:
    """Random per-user split keeping a ceil(kappa * n_u) share in train.

    Users with fewer than ``tau`` ratings are dropped. Each surviving user's
    ratings are shuffled by an rng seeded with ``seed XOR user id``, so adding
    or removing other users never perturbs an existing user's split.
    """
    if not 0 < kappa < 1:
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    by_user: dict = {}
    for r in ratings:  # duplicate (user, item) pairs keep the last occurrence
        by_user.setdefault(r.user_id, {})[r.item_id] = r
    train: list = []
    test: list = []
    for user, by_item in by_user.items():
        rows = list(by_item.values())
        n = len(rows)
        if n < tau:
            continue
        n_train = math.ceil(kappa * n)
        rng = np.random.default_rng((seed ^ id_int(user)) & 0xFFFFFFFFFFFFFFFF)
        perm = rng.permutation(n)
        chosen = np.zeros(n, dtype=bool)
        chosen[perm[:n_train]] = True
        for k, row in enumerate(rows):
            (train if chosen[k] else test).append(row)
    if not train:
        raise EmptyDatasetError(f"no users with at least tau={tau} ratings")
    return SplitDataset.from_ratings(train, test)


def compute_item_stats(split: SplitDataset) -> ItemStats:
    """Popularity counts plus the long-tail set under the 80/20 boundary rule.

    Items are ranked by (popularity desc, id asc); the head is the shortest
    prefix whose cumulative popularity reaches 80% of all train ratings and
    the long tail is everything after it.
    """
    popularity = {i: len(us) for i, us in split.per_item_train_index.items()}
    total = len(split.train)
    ranked = sorted(popularity, key=lambda i: (-popularity[i], i))
    cum = 0
    boundary = 0
    for k, item in enumerate(ranked):
        cum += popularity[item]
        if 5 * cum >= 4 * total:  # cum >= 0.80 * total, exact in integers
            boundary = k + 1
            break
    return ItemStats(
        popularity=popularity,
        long_tail=frozenset(ranked[boundary:]),
        total_train_ratings=total,
    )


def min_max_normalize(x) -> np.ndarray:
    """Affine map of a vector onto [0, 1]; a constant vector maps to zeros."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot normalize non-finite values")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def relevant_test_items(split: SplitDataset, user, threshold: float = 4.0) -> frozenset:
    """Test items the user rated at or above ``threshold``."""
    relevant = split.relevant_by_user(threshold).get(user)
    if relevant is None:
        raise UnknownIdError(f"unknown user {user!r}")
    return relevant


def activity_popularity_profile(split: SplitDataset, bins: int = 20) -> list:
    """Mean average-popularity of rated items, binned by normalized activity.

    Returns (bin_center, mean average-popularity) for occupied bins only.
    Diagnostic output for the ``stats`` command; no algorithm consumes it.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    popularity = {i: len(us) for i, us in split.per_item_train_index.items()}
    users = split.users
    activity = np.array([len(split.per_user_train_index[u]) for u in users], dtype=float)
    avg_pop = np.array([
        sum(popularity[i] for i in split.per_user_train_index[u])
        / len(split.per_user_train_index[u])
        for u in users
    ])
    norm = min_max_normalize(activity)
    which = np.minimum((norm * bins).astype(int), bins - 1)
    out = []
    for b in range(bins):
        sel = which == b
        if sel.any():
            out.append(((b + 0.5) / bins, float(avg_pop[sel].mean())))
    return out


def _write_ratings_csv(path, ratings) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "item", "rating", "timestamp"])
        for r in ratings:
            w.writerow([r.user_id, r.item_id, repr(float(r.value)),
                        "" if r.timestamp is None else r.timestamp])


def save_split(split: SplitDataset, directory, manifest: dict | None = None) -> None:
    """Persist train.csv, test.csv and a split.json manifest."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    _write_ratings_csv(d / "train.csv", split.train)
    _write_ratings_csv(d / "test.csv", split.test)
    payload = dict(manifest or {})
    payload.update(
        n_train=len(split.train),
        n_test=len(split.test),
        n_users=len(split.users),
        n_items_train=len(split.items),
        train_sha256=sha256_file(d / "train.csv"),
        test_sha256=sha256_file(d / "test.csv"),
    )
    write_json(d / "split.json", payload)


def load_split(directory) -> tuple[SplitDataset, dict]:
    """Load a persisted split; returns (split, manifest)."""
    d = Path(directory)
    train = load_ratings(d / "train.csv", "csv")
    test_path = d / "test.csv"
    try:
        test = load_ratings(test_path, "csv")
    except EmptyDatasetError:
        test = []
    manifest = read_json(d / "split.json")
    return SplitDataset.from_ratings(train, test), manifest
