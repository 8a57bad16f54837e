"""Accuracy and coverage scorers.

Accuracy side: a most-popular scorer, and one dense score matrix built
from an SGD-trained matrix factorization model or from an externally
computed score file. Coverage side: random and static popularity-based
scores; dynamic frequency-based coverage is kept by OSLG itself
(:mod:`ganc.core`). Every scorer emits values in [0, 1] and exposes both a
scalar lookup and a vector aligned with the split's item universe. The
accuracy scorers here also add their weighted scores straight into a block
of gains (``add_accuracy``), which the greedy loops use in place of the
per-user vectors when a scorer offers it.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import forked
from .dataset import ItemStats, RatingColumns, SplitDataset, resolve_ids
from .errors import ParseError, TrainingDivergenceError, UnknownIdError
from .io_utils import NPZ_ERRORS, canonical_ids, read_json, read_table, write_json


class PopScorer:
    """Binary accuracy scores: 1 for a user's top-n most popular unseen items."""

    def __init__(self, split: SplitDataset, stats: ItemStats, n: int):
        if not 0 < n <= len(split.items):
            raise ValueError(f"n must be in [1, {len(split.items)}], got {n}")
        self.split = split
        self.n = n
        # item indices, most popular first
        ranking = np.array([split.item_index[i] for i in stats.ranking], dtype=np.int64)
        if len(ranking) != len(split.items):
            raise ValueError("stats must rank every item of the split")
        self.top_matrix = _top_unseen(split, ranking, n)
        # True when some user has fewer than n unseen items, so -1 pads a row;
        # a full matrix spares the one-row path a mask
        self._ragged = bool((self.top_matrix < 0).any())

    def _top_indices(self, user) -> np.ndarray:
        """Indices into ``items`` of the user's top-n unseen items."""
        top = self.top_matrix[self.split.user_index[user]]
        return top[top >= 0]

    def top_items(self, user) -> frozenset:
        return frozenset(map(self.split.items.__getitem__, self._top_indices(user).tolist()))

    def score(self, user, item) -> float:
        return 1.0 if item in self.top_items(user) else 0.0

    def score_vector(self, user) -> np.ndarray:
        out = np.zeros(len(self.split.items))
        out[self._top_indices(user)] = 1.0
        return out

    def add_accuracy(self, gains: np.ndarray, codes: np.ndarray, weights: np.ndarray) -> None:
        """``gains[r] += weights[r] * score_vector(users[codes[r]])`` for every
        row r, adding ``weights[r]`` at the user's top-n items only: a weight
        times 1.0 is the weight, and elsewhere the score is 0."""
        if len(codes) == 1:  # the sequential pass; 1-D indexing costs a third of 2-D
            top = self.top_matrix[codes[0]]
            gains[0][top[top >= 0] if self._ragged else top] += weights[0]
            return
        top = self.top_matrix[codes]
        r, j = np.nonzero(top >= 0)
        gains[r, top[r, j]] += weights[r]


def _top_unseen(split: SplitDataset, ranking: np.ndarray, n: int) -> np.ndarray:
    """(|U|, n) item indices: row u lists user u's first n unseen items in
    ``ranking`` order, padded with -1 past the user's unseen items.

    With a user's seen ranks s_0 < s_1 < ... (positions in ``ranking``),
    s_k - k unseen ranks come before s_k, so the j-th unseen rank is j plus
    the count of k with s_k - k <= j: one searchsorted over every user's
    gaps, each user offset past the previous one's.
    """
    m, n_users = len(ranking), len(split.users)
    rank = np.empty(m, dtype=np.int64)
    rank[ranking] = np.arange(m)
    t = split.train_columns
    key = np.sort(t.user_codes * m + rank[t.item_codes])  # by user, then rank
    user, seen = np.divmod(key, m)
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(split.user_train_counts, out=indptr[1:])
    gaps = user * (m + 1) + seen - (np.arange(len(key)) - indptr[user])
    j = np.arange(n)
    below = np.searchsorted(gaps, np.arange(n_users)[:, None] * (m + 1) + j, side="right")
    ranks = j + below - indptr[:-1, None]
    return np.where(ranks < m, ranking[np.minimum(ranks, m - 1)], -1)


@dataclass(frozen=True)
class MFModel:
    """Latent factors from SGD matrix factorization, plus training metadata."""

    users: tuple
    items: tuple
    user_factors: np.ndarray  # shape (n_users, g)
    item_factors: np.ndarray  # shape (n_items, g)
    g: int
    global_mean: float
    epoch_rmse: tuple = ()  # online training RMSE per epoch; empty when loaded

    @cached_property
    def user_index(self) -> dict:
        return {u: k for k, u in enumerate(self.users)}

    @cached_property
    def item_index(self) -> dict:
        return {i: k for k, i in enumerate(self.items)}

    def predict_raw(self, user, item) -> float:
        try:
            u = self.user_index[user]
            i = self.item_index[item]
        except KeyError:
            raise UnknownIdError(f"({user!r}, {item!r}) not in model") from None
        return float(self.user_factors[u] @ self.item_factors[i])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products through the same BLAS dot as ``a[k] @ b[k]``.

    A stacked matmul keeps each product bit-identical to the 1-D ``@``;
    ``einsum`` sums in a different order and is not.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def wavefront_schedule(uidx: np.ndarray, iidx: np.ndarray) -> tuple:
    """Split a rating sequence into conflict-free levels, keeping its order.

    Rating k goes one level past the latest level holding its user or its
    item, so no user and no item repeats within a level, and every user and
    item meets its ratings in sequence order. Returns ``(order, bounds)``:
    the sequence positions in level order, ascending within a level, and a
    list of level boundaries, so level L is ``order[bounds[L]:bounds[L + 1]]``.
    """
    n_users = int(uidx.max()) + 1
    last = [0] * (n_users + int(iidx.max()) + 1)  # latest level of each user, then item
    level = []
    for u, i in zip(uidx.tolist(), (iidx + n_users).tolist()):
        a, b = last[u], last[i]
        lv = last[u] = last[i] = (a if a > b else b) + 1  # twice as fast as max()
        level.append(lv)
    # a stable argsort of 16-bit keys is a radix sort, several times faster
    level = np.array(level, dtype=np.uint16 if max(last) < 1 << 16 else np.int64)
    return np.argsort(level, kind="stable"), np.cumsum(np.bincount(level)).tolist()


def _epoch_fill(t: RatingColumns, rng: np.random.Generator):
    """``fill(epoch, buffer)``: each epoch's ratings in wavefront level order.

    Epoch e visits the ratings in the order of rng's e-th shuffle of
    ``arange(n)`` (the order ``rng.permutation(n)`` draws). ``fill`` writes
    that epoch's user codes, item codes and values in the level order of
    :func:`wavefront_schedule`, and the level bounds, into ``buffer`` (laid
    out by :func:`_epoch_views`), after it has drawn the shuffles of any
    epochs before e that
    another process made, so the order does not depend on which process
    fills which epoch.
    """
    n = len(t.values)
    drawn = 0  # the epochs whose shuffle rng has drawn
    scratch = None  # allocated on the first fill, in the process that makes it

    def fill(epoch: int, buffer) -> None:
        nonlocal drawn, scratch
        if scratch is None:
            scratch = np.empty((4, n), dtype=np.int64)
            scratch[0] = np.arange(n)
        positions, order, seq_u, seq_i = scratch
        for _ in range(drawn, epoch):  # a shuffle's draws do not depend on the contents
            rng.shuffle(order)
        order[:] = positions
        rng.shuffle(order)
        drawn = epoch + 1
        np.take(t.user_codes, order, out=seq_u)
        np.take(t.item_codes, order, out=seq_i)
        by_level, bounds = wavefront_schedule(seq_u, seq_i)  # each level is now a slice
        uo, io, vo, tail = _epoch_views(buffer, n)
        np.take(seq_u, by_level, out=uo)
        np.take(seq_i, by_level, out=io)
        np.take(order, by_level, out=seq_u)  # the rated positions, level by level
        np.take(t.values, seq_u, out=vo)
        tail[0] = len(bounds)
        tail[1:1 + len(bounds)] = bounds

    return fill


def _epoch_bytes(n: int) -> int:
    """Bytes of one epoch's buffer for ``n`` ratings (see _epoch_views)."""
    return 8 * (4 * n + 2)


def _epoch_views(buffer, n: int) -> tuple:
    """(user codes, item codes, values, tail) over an epoch's buffer: n
    int64, n int64 and n float64, then the tail, the count of level bounds
    and room for n + 1 bounds (an epoch has n levels at most)."""
    words = np.frombuffer(buffer, dtype=np.int64)
    return words[:n], words[n:2 * n], words[2 * n:3 * n].view(np.float64), words[3 * n:]


# The producer is forked when its fills after the first epoch, the ones that
# can overlap training, cover at least this many ratings (n * (epochs - 1)).
# Forking and reaping it costs ~3 ms in a 58 MB process, and the pages both
# processes then write are copied. In-process rsvd_train (g = 100, 2 CPUs,
# medians of 11) ran 8 % slower with it at 2 epochs of 49K ratings (49K
# after the first) and 4 % at 3 of 23.6K (47K), and 8 % faster at 3 of 49K
# (98K) and 13 % at 30 of 3K (88K).
_PRODUCER_MIN_RATINGS = 75_000


def rsvd_train(split: SplitDataset, g: int, lam: float, eta: float,
               epochs: int, seed: int) -> MFModel:
    """SGD on the squared-error loss with L2 regularization.

    Per rating update: e = r - p.q; p += eta*(e*q - lam*p); q += eta*(e*p - lam*q),
    with q's step using the pre-update p, visiting the ratings in a seeded
    permutation per epoch. Ratings are applied one conflict-free level of
    ``wavefront_schedule`` at a time, which gives factors bit-identical to
    one rating at a time in permutation order. Factors start iid uniform in
    [-0.05, 0.05]. Records the online training RMSE of each epoch from the
    update errors. Raises on non-finite factors, reporting the epoch.

    Schedules depend on the shuffles only, never on the factors. So with a
    spare CPU (:func:`ganc.forked.spare_cpus`) and enough epochs after the
    first to repay a fork (``_PRODUCER_MIN_RATINGS``), a child pinned to
    that CPU makes each epoch's level-ordered ratings (:func:`_epoch_fill`)
    while this process runs the levels of the epoch before; otherwise this
    process makes them between epochs. The factors are the same bits either
    way.
    """
    if g < 1:
        raise ValueError(f"g must be at least 1, got {g}")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    t = split.train_columns
    n = len(t)
    if not n:
        raise ValueError("cannot train on an empty split")
    rng = np.random.default_rng(seed)
    n_users, n_items = len(split.users), len(split.items)
    P = rng.uniform(-0.05, 0.05, size=(n_users, g))
    Q = rng.uniform(-0.05, 0.05, size=(n_items, g))
    # A level holds each user and item at most once, so no level is longer
    # than the smaller table. Each level's rows are gathered into these
    # buffers and its updates computed in place, with the operations of
    # pu + eta*(e*qi - lam*pu) in the same order, so every bit is unchanged.
    rows = min(n_users, n_items)
    pu, qi, err, step, decay = (np.empty((rows, g)) for _ in range(5))
    cpus = forked.spare_cpus() if n * (epochs - 1) >= _PRODUCER_MIN_RATINGS else []
    made = forked.fill_ahead(_epoch_fill(t, rng), epochs, _epoch_bytes(n),
                             cpus[0] if cpus else None)
    epoch_rmse = []
    # divergence is detected below; closing reaps the producer on any error
    with np.errstate(over="ignore", invalid="ignore"), closing(made):
        for epoch, buffer in enumerate(made):
            uo, io, vo, tail = _epoch_views(buffer, n)
            bounds = tail[1:1 + tail[0]].tolist()
            sq_err = 0.0
            for lo, hi in zip(bounds, bounds[1:]):
                m = hi - lo
                u, i = uo[lo:hi], io[lo:hi]
                p, q, ec, d, w = pu[:m], qi[:m], err[:m], step[:m], decay[:m]
                P.take(u, axis=0, out=p, mode="clip")
                Q.take(i, axis=0, out=q, mode="clip")
                e = vo[lo:hi] - _row_dots(p, q)
                # e spread once over the row, so both e*q and e*p are plain
                # multiplies, cheaper than two broadcasts and with the same bits
                ec[...] = e[:, None]
                np.multiply(ec, q, out=d)
                np.multiply(lam, p, out=w)
                np.subtract(d, w, out=d)
                np.multiply(eta, d, out=d)
                np.add(p, d, out=d)
                P[u] = d
                np.multiply(ec, p, out=d)
                np.multiply(lam, q, out=w)
                np.subtract(d, w, out=d)
                np.multiply(eta, d, out=d)
                np.add(q, d, out=d)
                Q[i] = d
                sq_err += float(e @ e)
            if not (np.isfinite(P).all() and np.isfinite(Q).all()):
                raise TrainingDivergenceError(f"non-finite factors at epoch {epoch + 1}")
            epoch_rmse.append(math.sqrt(sq_err / n))
    return MFModel(split.users, split.items, P, Q, g, float(t.values.mean()),
                   tuple(epoch_rmse))


_RMSE_BLOCK = 2048


def rmse(model: MFModel, ratings) -> float:
    """Root mean squared error of raw predictions over :class:`RatingColumns`
    or a sequence of ratings.

    Pairs with a user or item unknown to the model predict the global train
    mean.
    """
    if not isinstance(ratings, RatingColumns):
        ratings = RatingColumns.from_ratings(ratings)
    n = len(ratings)
    if not n:
        raise ValueError("rmse over an empty rating list")
    u, i = ratings.recode(model.user_index, model.item_index)
    vals = ratings.values
    pred = np.full(n, model.global_mean)
    known = np.flatnonzero((u >= 0) & (i >= 0))
    # Rows are gathered block by block into two reused buffers: cache-sized,
    # off peak RSS, and not a fresh MB-sized allocation per block, which
    # malloc may serve by mmap, faulting in every page. The indices are valid,
    # and take's default mode="raise" would copy through a temporary.
    block = max(1, min(_RMSE_BLOCK, len(known)))
    pu, qi = np.empty((block, model.g)), np.empty((block, model.g))
    for lo in range(0, len(known), block):
        k = known[lo:lo + block]
        m = len(k)
        np.take(model.user_factors, u[k], axis=0, out=pu[:m], mode="clip")
        np.take(model.item_factors, i[k], axis=0, out=qi[:m], mode="clip")
        pred[k] = _row_dots(pu[:m], qi[:m])
    # not err @ err: a BLAS dot this long starts threads that keep spinning after it returns
    return math.sqrt(float(np.square(vals - pred).sum()) / n)


class MatrixScorer:
    """Accuracy scores held as one matrix over the split's users and items."""

    def __init__(self, split: SplitDataset, scores: np.ndarray):
        self.split = split
        self._scores = scores

    def score(self, user, item) -> float:
        try:
            u = self.split.user_index[user]
            i = self.split.item_index[item]
        except KeyError:
            raise UnknownIdError(f"({user!r}, {item!r}) not in split") from None
        return float(self._scores[u, i])

    def score_vector(self, user) -> np.ndarray:
        return self._scores[self.split.user_index[user]]

    def add_accuracy(self, gains: np.ndarray, codes: np.ndarray, weights: np.ndarray) -> None:
        """``gains[r] += weights[r] * score_vector(users[codes[r]])`` for every row r."""
        rows = np.take(self._scores, codes, axis=0)
        np.multiply(weights[:, None], rows, out=rows)
        np.add(gains, rows, out=gains)


def mf_accuracy_scorer(model: MFModel, split: SplitDataset) -> MatrixScorer:
    """Per-user min-max normalized raw predictions over unseen train items;
    train items score 0, and so does every item of a user whose unseen items
    all predict alike or who has none."""
    for u in split.users:
        if u not in model.user_index:
            raise UnknownIdError(f"user {u!r} not in model")
    for i in split.items:
        if i not in model.item_index:
            raise UnknownIdError(f"item {i!r} not in model")
    urows = np.array([model.user_index[u] for u in split.users])
    irows = np.array([model.item_index[i] for i in split.items])
    scores = model.user_factors[urows] @ model.item_factors[irows].T
    t = split.train_columns
    train = t.user_codes, t.item_codes
    # a train entry at +inf drops out of the row min and at -inf out of the
    # row max; a row with no candidate keeps lo = inf and hi = -inf
    scores[train] = np.inf
    lo = scores.min(axis=1, keepdims=True)
    scores[train] = -np.inf
    hi = scores.max(axis=1, keepdims=True)
    # (x - lo) / (hi - lo) in place; rows without hi > lo (constant, or with
    # no candidate at all) divide by zero or inf, and are zeroed below
    with np.errstate(divide="ignore", invalid="ignore"):
        scores -= lo
        scores /= hi - lo
    scores[train] = 0.0
    scores[~(hi > lo)[:, 0]] = 0.0
    return MatrixScorer(split, scores)


def load_external_scores(path, split: SplitDataset) -> MatrixScorer:
    """Read a ``user,item,score`` CSV into an accuracy scorer, normalized per user.

    Ids are read against the split's id tables. Every score must be a
    finite number. Pairs absent from the file score 0; rows for users or
    items outside the split are ignored; duplicate pairs keep the last
    occurrence.
    """
    rows = []
    for line, (user, item, raw) in read_table(path, ("user", "item", "score")):
        try:
            score = float(raw)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ParseError(f"{path}:{line}: bad score {raw!r}")
        rows.append((user.strip(), item.strip(), score))
    users = resolve_ids([r[0] for r in rows], split.users)
    items = resolve_ids([r[1] for r in rows], split.items)
    per_user: dict = {}
    for u, i, (_, _, v) in zip(users, items, rows):
        if u in split.user_index and i in split.item_index:
            per_user.setdefault(u, {})[i] = v
    scores = np.zeros((len(split.users), len(split.items)))
    for user, pairs in per_user.items():
        vals = np.array(list(pairs.values()), dtype=float)
        lo, hi = vals.min(), vals.max()
        norm = (vals - lo) / (hi - lo) if hi > lo else np.zeros_like(vals)
        u = split.user_index[user]
        for item, nv in zip(pairs, norm):
            scores[u, split.item_index[item]] = nv
    return MatrixScorer(split, scores)


class StaticCoverage:
    """Coverage scores fixed for a whole run, one per item of the split."""

    def __init__(self, split: SplitDataset, scores: np.ndarray):
        self.split = split
        self._scores = scores

    def score(self, item) -> float:
        return float(self._scores[self.split.item_index[item]])

    def score_vector(self) -> np.ndarray:
        return self._scores


def stat_coverage(stats: ItemStats, split: SplitDataset) -> StaticCoverage:
    """Constant coverage scores 1/sqrt(train popularity + 1)."""
    pops = np.array([stats.popularity[i] for i in split.items], dtype=float)
    return StaticCoverage(split, 1.0 / np.sqrt(pops + 1.0))


def rand_coverage(seed: int, split: SplitDataset) -> StaticCoverage:
    """Uniform [0, 1) coverage scores, drawn once per item and stable in a run."""
    return StaticCoverage(split, np.random.default_rng(seed).random(len(split.items)))


def pop_scorer(split: SplitDataset, stats: ItemStats, n: int) -> PopScorer:
    return PopScorer(split, stats, n)


# the arrays of mf_model.npz, in the order load_mf_model unpacks them
_MF_ARRAYS = ("users", "items", "P", "Q", "global_mean")


def save_mf_model(model: MFModel, directory, manifest: dict | None = None) -> None:
    """Persist factors as an uncompressed npz dump plus a JSON manifest.

    Random doubles shrink by ~6 % under zlib, not worth ~25x the write time.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    np.savez(
        d / "mf_model.npz",
        users=np.array([str(u) for u in model.users]),
        items=np.array([str(i) for i in model.items]),
        P=model.user_factors,
        Q=model.item_factors,
        global_mean=np.array([model.global_mean]),
    )
    payload = dict(manifest or {})
    payload.update(g=model.g)
    write_json(d / "mf.json", payload)


def load_mf_model(directory) -> tuple[MFModel, dict]:
    """The model and manifest :func:`save_mf_model` wrote; ParseError naming
    mf_model.npz when it cannot be read or its arrays do not form a model."""
    d = Path(directory)
    path = d / "mf_model.npz"
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a bare array, not an npz archive")
        with data:
            arrays = [data[k] for k in _MF_ARRAYS]
    except NPZ_ERRORS as exc:
        raise ParseError(f"{path}: not a readable model file ({exc})") from None
    users, items, P, Q, global_mean = arrays
    if not (users.ndim == items.ndim == 1 and P.ndim == Q.ndim == 2
            and P.dtype == Q.dtype == global_mean.dtype == np.float64
            and P.shape[0] == len(users) and Q.shape[0] == len(items)
            and P.shape[1] == Q.shape[1] and global_mean.size == 1):
        raise ParseError(f"{path}: arrays do not form a model: " + ", ".join(
            f"{k} {a.dtype}{a.shape}" for k, a in zip(_MF_ARRAYS, arrays)))
    manifest = read_json(d / "mf.json")
    model = MFModel(tuple(canonical_ids(list(users))), tuple(canonical_ids(list(items))),
                    P, Q, int(P.shape[1]), float(global_mean.item()))
    return model, manifest
