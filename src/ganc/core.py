"""Greedy top-N assignment under blended accuracy/coverage value functions.

The value of a set for a user is (1-theta)*sum(a) + theta*sum(c). With the
dynamic coverage scorer the assignment couples users, so collections are
built by a locally greedy pass over users; the sampling variant runs the
sequential pass over a KDE-drawn subset sorted by rising theta and finishes
the remaining users, a block at a time, each against the coverage state
after its nearest sampled user, read from the sequential pass as it runs.
The greedy passes work on codes (positions in the split's sorted tables)
and write their picks into one (users, n) item-code matrix, whose id
lists a :class:`TopNCollection` builds only when read.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import SplitDataset, csr_positions, resolve_ids
from .errors import ContractViolationError, InfeasibleError, ParseError
from .io_utils import canonical_ids, read_table, write_table
from .preference import PreferenceVector

PROTOCOLS = ("all_unrated", "rated_test_items")
TOPN_HEADER = ("user", "rank", "item")

# Users scored together by the blocked greedy; 32-64 rows scored fastest at
# ML-100K shape, and a (BLOCK, |I|) float64 buffer stays small at ML-1M shape.
BLOCK = 64


class TopNCollection:
    """Ordered list of exactly n recommended items per user.

    Built from ``lists`` (user id -> tuple of item ids), or by the greedy
    algorithms with :meth:`from_codes`: row r of an ``(users, n)`` matrix of
    positions in ``split.items`` is the list of user ``split.users[user_codes[r]]``.
    A coded collection derives ``lists`` on first use, in row order.
    """

    def __init__(self, n: int, lists: dict | None = None):
        self.n = n
        self._lists = lists
        self._coded = None  # (split, user codes, item code matrix)

    @classmethod
    def from_codes(cls, n: int, split: SplitDataset, user_codes: np.ndarray,
                   item_codes: np.ndarray) -> "TopNCollection":
        coll = cls(n)
        coll._coded = split, user_codes, item_codes
        return coll

    @property
    def lists(self) -> dict:
        if self._lists is None:
            split, users, items = self._coded
            self._lists = {split.users[u]: tuple(map(split.items.__getitem__, row))
                           for u, row in zip(users.tolist(), items.tolist())}
        return self._lists

    def codes(self, split: SplitDataset):
        """(user codes, item code matrix) when coded over ``split``, else None."""
        return self._coded[1:] if self._coded and self._coded[0] is split else None

    def validate(self, split: SplitDataset) -> None:
        universe = set(split.items)
        for user, items in self.lists.items():
            if len(items) != self.n or len(set(items)) != self.n:
                raise ContractViolationError(f"user {user!r}: list is not {self.n} distinct items")
            seen = split.per_user_train_index.get(user)
            if seen is None:
                raise ContractViolationError(f"user {user!r} not in split")
            for i in items:
                if i not in universe:
                    raise ContractViolationError(f"user {user!r}: item {i!r} outside train universe")
                if i in seen:
                    raise ContractViolationError(f"user {user!r}: item {i!r} already rated in train")

    def truncated(self, n: int) -> "TopNCollection":
        """The first n items of every list, for n in [1, self.n]."""
        if n == self.n:
            return self
        if not 1 <= n < self.n:
            raise ValueError(f"n must be in [1, {self.n}], got {n}")
        if self._coded is None:
            return TopNCollection(n, {u: items[:n] for u, items in self.lists.items()})
        split, users, items = self._coded
        return TopNCollection.from_codes(n, split, users, items[:, :n])


class SnapshotStore:
    """The thetas of OSLG's sampled users, in rising order.

    Snapshot k is the coverage state after the first k + 1 sampled lists
    are counted. Phase two reads the snapshots from phase one's live
    coverage vector, so the store keeps only the thetas and the rule that
    maps a query theta to its snapshot.
    """

    def __init__(self, thetas):
        self._thetas = np.asarray(thetas, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._thetas)

    def nearest_rows(self, thetas) -> np.ndarray:
        """Position of the snapshot nearest each query theta.

        Equidistant snapshots resolve to the first of them (the lower
        theta, or the earlier of equal thetas). Queries are looked up BLOCK
        at a time, so no more than a (BLOCK, len(self)) gap matrix exists.
        """
        queries = np.asarray(thetas, dtype=np.float64)
        rows = np.empty(len(queries), dtype=np.intp)
        gaps = np.empty((min(BLOCK, len(queries)), len(self._thetas)))
        for b in range(0, len(queries), BLOCK):
            g = gaps[:len(queries) - b]
            np.subtract(self._thetas, queries[b:b + BLOCK, None], out=g)
            np.abs(g, out=g)
            g.argmin(axis=1, out=rows[b:b + BLOCK])
        return rows

    def nearest(self, theta: float) -> int:
        """Position of the snapshot whose theta is closest, by the tie rule
        of :meth:`nearest_rows`."""
        return int(self.nearest_rows([theta])[0])


def _top_n(gains: np.ndarray, n: int) -> list:
    """Indices of n successive argmaxes of ``gains``, each pick set to -inf;
    ties resolve to the lowest index. Consumes ``gains``."""
    picked = []
    for _ in range(n):
        k = int(gains.argmax())
        picked.append(k)
        gains[k] = -np.inf
    return picked


def eligible_users(split: SplitDataset, n: int, protocol: str) -> list:
    """Users that get a top-n list under a ranking protocol.

    all_unrated keeps every user; rated_test_items drops users with fewer
    than n test items, and raises InfeasibleError when that leaves none.
    """
    return [split.users[k] for k in _eligible_codes(split, n, protocol).tolist()]


def _eligible_codes(split: SplitDataset, n: int, protocol: str) -> np.ndarray:
    """Indices into ``split.users`` of :func:`eligible_users`."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if protocol == "all_unrated":
        return np.arange(len(split.users))
    codes = np.flatnonzero(split.user_test_counts >= n)
    if not len(codes):
        raise InfeasibleError(
            f"no user has at least n={n} test items under protocol {protocol!r}")
    return codes


def candidate_pool_sizes(split: SplitDataset, n: int, protocol: str) -> np.ndarray:
    """Candidate count of each eligible user, in :func:`eligible_users` order:
    the unseen train items under all_unrated, the user's test items under
    rated_test_items."""
    return _pool_sizes(split, _eligible_codes(split, n, protocol), protocol)


def _pool_sizes(split: SplitDataset, codes: np.ndarray, protocol: str) -> np.ndarray:
    if protocol == "all_unrated":
        return len(split.items) - split.user_train_counts[codes]
    return split.user_test_counts[codes]


def _check_feasible(split: SplitDataset, codes: np.ndarray, n: int, protocol: str) -> None:
    """Raise InfeasibleError for the first of the users ``codes`` with fewer
    than n candidates."""
    pools = _pool_sizes(split, codes, protocol)
    short = np.flatnonzero(pools < n)
    if len(short):
        k = int(short[0])
        raise InfeasibleError(
            f"user {split.users[codes[k]]!r}: {int(pools[k])} candidates for top-{n}")


def _exclude(gains: np.ndarray, at, protocol: str) -> None:
    """Set the non-candidates of ``gains`` to -inf: the entries ``at`` (the
    train items) under all_unrated, all but them (the test items) under
    rated_test_items."""
    if protocol == "all_unrated":
        gains[at] = -np.inf
    else:
        kept = gains[at]
        gains.fill(-np.inf)
        gains[at] = kept


def _rated(split: SplitDataset, protocol: str) -> tuple:
    """The CSR (indptr, item indices) of what :func:`_exclude` reads: the
    train items under all_unrated, the test items under rated_test_items."""
    return split.train_csr if protocol == "all_unrated" else split.test_csr


def _spans(csr: tuple, codes: np.ndarray) -> tuple:
    """(row, item index) of every CSR entry of the users ``codes``, row r
    holding user ``codes[r]``'s entries, for fancy indexing a block."""
    indptr, items = csr
    rows, at = csr_positions(indptr, codes)
    return rows, items[at]


def _coverage(counts: np.ndarray) -> np.ndarray:
    """Dynamic coverage 1/sqrt(f + 1) of recommendation counts."""
    return 1.0 / np.sqrt(counts + 1.0)


def _add_accuracy(split: SplitDataset, arec, gains: np.ndarray, codes: np.ndarray,
                  weights: np.ndarray) -> None:
    """``gains[r] += weights[r] * a(users[codes[r]])`` for every row r.

    Scorers with an ``add_accuracy`` hook add their scores themselves (Pop
    only at each user's top items); any other scorer is read one user at a
    time through ``score_vector``.
    """
    add = getattr(arec, "add_accuracy", None)
    if add is not None:
        add(gains, codes, weights)
        return
    for r, k in enumerate(codes.tolist()):
        gains[r] += weights[r] * arec.score_vector(split.users[k])


def _thetas(split: SplitDataset, theta: PreferenceVector, codes: np.ndarray) -> np.ndarray:
    """Theta of each of the users ``codes``, as float64."""
    users = split.users
    return np.array([theta.theta[users[k]] for k in codes.tolist()], dtype=np.float64)


def _sequential_greedy(split: SplitDataset, codes: np.ndarray, thetas: np.ndarray, arec,
                       n: int, protocol: str, picks: np.ndarray):
    """Locally greedy pass with dynamic coverage, one user after another.

    User ``codes[k]`` with theta ``thetas[k]`` writes its picked item indices
    to ``picks[k]``, which are then counted into the live coverage vector.
    A generator: its k-th step yields that vector at snapshot k, which the
    next step updates in place; nothing runs until the first step.
    Each user's gains theta*c + (1-theta)*a go through one reused buffer,
    non-candidates set to -inf from the CSR. The sums are those of
    (1-theta)*a + theta*c, as addition commutes, and where a is 0 adding
    nothing leaves theta*c, which compares equal to 0.0 + theta*c. Only the
    n counted entries of the coverage vector are recomputed, through one
    index array; elementwise sqrt and divide give the same bits on a subset
    as on the whole vector.
    """
    _check_feasible(split, codes, n, protocol)
    m = len(split.items)
    counts = np.zeros(m, dtype=np.int64)
    cov = _coverage(counts)
    gains = np.empty((1, m))
    weights = 1.0 - thetas
    indptr, rated = _rated(split, protocol)
    bounds = indptr.tolist()
    for k, c in enumerate(codes.tolist()):
        np.multiply(thetas[k], cov, out=gains[0])
        _add_accuracy(split, arec, gains, codes[k:k + 1], weights[k:k + 1])
        _exclude(gains[0], rated[bounds[c]:bounds[c + 1]], protocol)
        picks[k] = _top_n(gains[0], n)
        idx = picks[k]
        counts[idx] += 1
        cov[idx] = _coverage(counts[idx])
        yield cov


def _pick_block(split: SplitDataset, codes: np.ndarray, weights: np.ndarray, arec, n: int,
                protocol: str, gains: np.ndarray, out: np.ndarray) -> None:
    """Greedy top-n of the independent users ``codes``, row r of ``gains``
    holding theta*c for user ``codes[r]``, whose accuracy weight 1 - theta
    is ``weights[r]``; writes the user's picks to ``out[r]`` and consumes
    ``gains``.

    The gains theta*c + (1-theta)*a are elementwise, so each row picks what
    the per-user pass of :func:`_sequential_greedy` would, and n rounds of a
    row-wise argmax (the first maximum wins) pick what the per-user steps
    pick.
    """
    _add_accuracy(split, arec, gains, codes, weights)
    _exclude(gains, _spans(_rated(split, protocol), codes), protocol)
    every = np.arange(len(codes))
    for j in range(n):
        gains.argmax(axis=1, out=out[:, j])
        gains[every, out[:, j]] = -np.inf


def _snapshot_blocks(split: SplitDataset, codes: np.ndarray, thetas: np.ndarray, arec,
                     n: int, protocol: str, rows: np.ndarray, cov: np.ndarray, snapshots,
                     picks: np.ndarray) -> None:
    """OSLG's phase two: greedy top-n of the feasible users ``codes``, BLOCK at a time.

    User ``codes[k]`` with theta ``thetas[k]`` is scored against snapshot
    ``rows[k]`` of the coverage vector ``cov``, which holds snapshot 0 and
    which each step of ``snapshots`` moves to the next, and writes its picks
    to ``picks[k]``. A user's picks depend on its theta, its accuracy and its
    snapshot alone, so the users are scored in stable order of their
    snapshots, theta*c written from ``cov`` into each run of block rows that
    share one.
    """
    order = np.argsort(rows, kind="stable")
    codes, thetas = codes[order], thetas[order]
    steps = np.diff(rows[order], prepend=0)  # snapshots from the previous user's to this one's
    # every block start, and every start of a run of users sharing a snapshot
    cuts = {*range(BLOCK, len(codes), BLOCK), *(np.flatnonzero(steps[1:]) + 1).tolist()}
    bounds = [0, *sorted(cuts), len(codes)]
    gains_buf = np.empty((min(BLOCK, len(codes)), len(split.items)))
    out = np.empty((len(codes), n), dtype=np.intp)
    for lo, hi in zip(bounds, bounds[1:]):
        for _ in range(steps[lo]):
            cov = next(snapshots)
        b = lo - lo % BLOCK
        np.multiply(thetas[lo:hi, None], cov, out=gains_buf[lo - b:hi - b])
        if hi - b == BLOCK or hi == len(codes):  # the block is full
            _pick_block(split, codes[b:hi], 1.0 - thetas[b:hi], arec, n, protocol,
                        gains_buf[:hi - b], out[b:hi])
    picks[order] = out


def locally_greedy_full(split: SplitDataset, theta: PreferenceVector, arec,
                        n: int, user_order: str = "arbitrary",
                        protocol: str = "all_unrated") -> TopNCollection:
    """Fully sequential greedy baseline over all users with dynamic coverage.

    Visits users one at a time (input order, or rising theta), builds each
    top-n greedily against the live frequency state, then counts the
    assignment into the state.
    """
    codes = _eligible_codes(split, n, protocol)
    thetas = _thetas(split, theta, codes)
    if user_order == "increasing_theta":
        order = np.argsort(thetas, kind="stable")  # codes ascend, so ties go by id
        codes, thetas = codes[order], thetas[order]
    elif user_order != "arbitrary":
        raise ValueError(f"unknown user_order {user_order!r}")
    picks = np.empty((len(codes), n), dtype=np.intp)
    for _ in _sequential_greedy(split, codes, thetas, arec, n, protocol, picks):
        pass
    return TopNCollection.from_codes(n, split, codes, picks)


def kde_sample(theta: PreferenceVector, s: int, seed: int, users=None) -> list:
    """Draw s distinct users from a Gaussian KDE over the theta values.

    Bandwidth is Silverman's 1.06 * std * n^(-1/5), floored at 1e-3. Each
    draw maps to the closest not-yet-selected user by |theta_u - draw|.
    Returns the sample sorted by non-decreasing theta (ties by id), so a
    sample of the whole pool is the sorted pool, whatever the seed.
    """
    pool = sorted(theta.theta if users is None else users,
                  key=lambda u: (theta.theta[u], u))
    return [pool[k] for k in _kde_rows(np.array([theta.theta[u] for u in pool]), s, seed)]


def _kde_rows(th: np.ndarray, s: int, seed: int) -> np.ndarray:
    """Positions into ``th`` of :func:`kde_sample`'s sample of the pool whose
    thetas ``th`` are, in its order: rising theta, ties by position, so a
    pool listed in id order breaks ties by id."""
    n = len(th)
    if not 0 < s <= n:
        raise ValueError(f"sample size must be in [1, {n}], got {s}")
    order = np.argsort(th, kind="stable")  # -0.0 == 0.0, so equal thetas keep id order
    if s == n:
        return order
    th = th[order]
    sd = float(np.std(th, ddof=1)) if n > 1 else 0.0
    h = max(1.06 * sd * n ** (-0.2), 1e-3)
    rng = np.random.default_rng(seed)
    taken = np.zeros(n, dtype=bool)
    free = th.copy()  # a taken user's theta becomes inf, so its gap is inf
    gaps = np.empty(n)
    for _ in range(s):
        draw = th[int(rng.integers(n))] + h * float(rng.standard_normal())
        np.subtract(free, draw, out=gaps)
        k = int(np.abs(gaps, out=gaps).argmin())
        free[k] = np.inf
        taken[k] = True
    return order[taken]


@dataclass(frozen=True)
class OslgRun:
    """An OSLG result: the collection, the sample, per-phase wall clock and
    how many distinct snapshots phase two read."""

    collection: TopNCollection
    sampled_users: tuple
    phase_seconds: dict
    snapshots_used: int

    @property
    def phase2_users(self) -> int:
        return len(self.collection.lists) - len(self.sampled_users)


def oslg(split: SplitDataset, theta: PreferenceVector, arec, n: int, s: int,
         seed: int, workers: int = 1, protocol: str = "all_unrated",
         phase4_order=None) -> OslgRun:
    """Ordered sampling-based locally greedy assignment with dynamic coverage.

    Phase one runs the sequential greedy over a KDE sample sorted by rising
    theta; snapshot k is the coverage state after its k-th sampled user.
    Phase two assigns every remaining user independently against the
    snapshot whose theta is nearest, read from phase one's live coverage,
    scoring the users in blocks, so its outcome does not depend on the order
    the users are visited in (``phase4_order`` exists to exercise exactly
    that contract). ``workers`` is accepted for compatibility and ignored:
    phase two runs in the calling thread, and the output never depended on
    it.
    """
    users = _eligible_codes(split, n, protocol)  # ascending, so in id order
    thetas = _thetas(split, theta, users)
    drawn = _kde_rows(thetas, s, seed)
    sample = users[drawn]
    picks = np.empty((len(users), n), dtype=np.intp)  # sample rows, then the rest

    t0 = time.perf_counter()
    store = SnapshotStore(thetas[drawn])
    spent = [0.0]  # seconds inside phase one's pass
    snapshots = _timed(_sequential_greedy(split, sample, thetas[drawn], arec, n, protocol,
                                          picks[:len(sample)]), spent)
    cov = next(snapshots)  # phase one checks its users before anything else can fail

    left = np.ones(len(users), dtype=bool)
    left[drawn] = False
    rest, thetas = users[left], thetas[left]
    if phase4_order is not None:
        if sorted(phase4_order) != [split.users[k] for k in rest.tolist()]:
            raise ValueError("phase4_order must permute the non-sampled users")
        rest = np.array([split.user_index[u] for u in phase4_order], dtype=np.intp)
        thetas = _thetas(split, theta, rest)

    rows = store.nearest_rows(thetas)
    if len(rest):
        _check_feasible(split, rest, n, protocol)
        _snapshot_blocks(split, rest, thetas, arec, n, protocol, rows, cov, snapshots,
                         picks[len(sample):])
    for _ in snapshots:  # the sampled users after the last snapshot phase two read
        pass
    wall = time.perf_counter() - t0

    return OslgRun(
        TopNCollection.from_codes(n, split, np.concatenate([sample, rest]), picks),
        tuple(map(split.users.__getitem__, sample.tolist())),
        {"sequential": spent[0], "parallel": wall - spent[0]},  # names kept for run.json
        snapshots_used=int(np.count_nonzero(np.bincount(rows, minlength=len(store)))),
    )


def _timed(steps, spent: list):
    """Yield from ``steps``, adding the seconds spent inside it to ``spent[0]``."""
    t = time.perf_counter()
    for step in steps:
        spent[0] += time.perf_counter() - t
        yield step
        t = time.perf_counter()
    spent[0] += time.perf_counter() - t


def independent_greedy(split: SplitDataset, theta: PreferenceVector, arec, crec,
                       n: int, protocol: str = "all_unrated") -> TopNCollection:
    """Per-user greedy with a static coverage scorer; users are independent."""
    users = _eligible_codes(split, n, protocol)
    _check_feasible(split, users, n, protocol)
    thetas = _thetas(split, theta, users)
    cov = np.asarray(crec.score_vector(), dtype=np.float64)  # snapshot 0 of every user
    picks = np.empty((len(users), n), dtype=np.intp)
    _snapshot_blocks(split, users, thetas, arec, n, protocol, np.zeros(len(users), dtype=np.intp),
                     cov, iter(()), picks)
    return TopNCollection.from_codes(n, split, users, picks)


def save_collection(coll: TopNCollection, directory) -> None:
    """Persist a collection as ``user,rank,item`` rows (rank 1..n)."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_table(d / "topn.csv", TOPN_HEADER,
                ((user, rank, item) for user in sorted(coll.lists)
                 for rank, item in enumerate(coll.lists[user], start=1)))


def load_collection(directory, split: SplitDataset | None = None) -> TopNCollection:
    """Read ``topn.csv`` back into a collection.

    Each user's ranks must run 1..k over the user's k rows, in any order.
    Given the split, ids are read against its id tables (see
    :func:`~ganc.dataset.resolve_ids`); without it each id column is
    canonicalized on its own.
    """
    path = Path(directory) / "topn.csv"
    rows = {}  # (user, rank) -> item, in file order
    top = {}  # user -> (rank, its line, as written) of the user's highest rank
    for line, (user, rank, item) in read_table(path, TOPN_HEADER):
        try:
            r = int(rank)
        except ValueError:
            r = 0
        if r < 1:
            raise ParseError(f"{path}:{line}: bad rank {rank!r}")
        if (user, r) in rows:
            raise ParseError(f"{path}:{line}: bad rank {rank!r}: user {user!r} has rank {r} twice")
        rows[user, r] = item
        if r > top.get(user, (0,))[0]:
            top[user] = r, line, rank
    counts = Counter(u for u, _ in rows)
    for user, (r, line, rank) in top.items():
        if r > counts[user]:  # distinct ranks, so a gap leaves the highest above k
            raise ParseError(f"{path}:{line}: bad rank {rank!r}: "
                             f"user {user!r} has {counts[user]} rows")
    users, items = [u for u, _ in rows], list(rows.values())
    if split is None:
        users, items = canonical_ids(users), canonical_ids(items)
    else:
        users, items = resolve_ids(users, split.users), resolve_ids(items, split.items)
    lists: dict = {}
    for u, i, (_, rank) in zip(users, items, rows):
        lists.setdefault(u, []).append((rank, i))
    n = max((len(v) for v in lists.values()), default=0)
    return TopNCollection(
        n, {u: tuple(i for _, i in sorted(v)) for u, v in lists.items()})
