"""Evaluation metrics over top-N collections.

Rank accuracy (precision, recall, F-measure against highly rated test
items), long-tail promotion (long-tail share of recommended slots,
popularity-discounted stratified recall), and catalog coverage (distinct
item share and the Gini coefficient of recommendation frequencies).
All of them read a collection as item codes over the split's tables (see
``_encode`` and ``_hits``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import PROTOCOLS, TopNCollection
from .dataset import ItemStats, SplitDataset
from .errors import ContractViolationError, UndefinedMetricError, UnknownIdError
from .io_utils import read_json, write_json, write_table


@dataclass(frozen=True)
class EvalReport:
    n: int
    protocol: str
    precision: float
    recall: float
    f_measure: float
    lt_accuracy: float
    strat_recall: float
    coverage: float
    gini: float
    per_user: dict | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        """The metrics in field order, without the per-user breakdown."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_user"}

    @staticmethod
    def from_dict(payload: dict) -> "EvalReport":
        return EvalReport(**payload)

    def save(self, directory) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        report = self.to_dict()
        write_json(d / "report.json", report)
        write_table(d / "report.csv", tuple(report), [report.values()])
        if self.per_user is not None:
            write_table(d / "per_user.csv", ("user", "precision", "recall"),
                        ((u, *map(repr, self.per_user[u])) for u in sorted(self.per_user)))

    @staticmethod
    def load(directory) -> "EvalReport":
        return EvalReport.from_dict(read_json(Path(directory) / "report.json"))


def _encode(coll: TopNCollection, split: SplitDataset) -> tuple:
    """(user codes, (users, n) item code matrix) of ``coll``, rows in list
    order. A dict collection is encoded through the split's id tables; an id
    the split lacks raises UnknownIdError."""
    coded = coll.codes(split)
    if coded is not None:
        return coded
    lists = coll.lists
    users = _positions(split.user_index, lists, "user")
    short = next((u for u, items in lists.items() if len(items) != coll.n), None)
    if short is not None:
        raise ContractViolationError(f"user {short!r}: list is not {coll.n} items")
    items = _positions(split.item_index, (i for v in lists.values() for i in v), "item")
    return users, items.reshape(len(users), coll.n)


def _positions(index: dict, ids, what: str) -> np.ndarray:
    try:
        return np.array([index[x] for x in ids], dtype=np.intp)
    except KeyError as exc:
        raise UnknownIdError(f"unknown {what} {exc.args[0]!r}") from None


def _hits(split: SplitDataset, threshold: float, users: np.ndarray,
          items: np.ndarray) -> tuple:
    """(per slot, is its item relevant to its row's user; hits per row;
    relevant items per row): one ``searchsorted`` of the slots'
    ``user * |I| + item`` keys in :meth:`SplitDataset.relevant_keys`."""
    keys = split.relevant_keys(threshold)
    slot_keys = users[:, None] * len(split.items) + items
    hit = keys[np.searchsorted(keys, slot_keys)] == slot_keys
    indptr = split.relevant_csr(threshold)[0]
    return hit, np.count_nonzero(hit, axis=1), indptr[users + 1] - indptr[users]


def precision_recall_at_n(coll: TopNCollection, split: SplitDataset,
                          threshold: float = 4.0):
    """Mean precision, recall and F-measure against highly rated test items.

    Users without any relevant test item contribute zero recall and stay in
    the denominator.
    """
    _, hits, relevant = _hits(split, threshold, *_encode(coll, split))
    return _precision_recall(hits, relevant, coll.n)


def _precision_recall(hits: np.ndarray, relevant: np.ndarray, n: int):
    """From per-user hit and relevant counts; recall sums in list order."""
    recall_sum = 0.0
    for share in (hits[relevant > 0] / relevant[relevant > 0]).tolist():
        recall_sum += share
    precision = int(hits.sum()) / (n * len(hits))
    recall = recall_sum / len(hits)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def lt_accuracy_at_n(coll: TopNCollection, stats: ItemStats) -> float:
    """Share of recommended slots filled by long-tail items."""
    lt = stats.long_tail
    total = sum(len(lt.intersection(items)) for items in coll.lists.values())
    return total / (coll.n * len(coll.lists))


def check_beta_threshold(beta: float, threshold: float) -> None:
    """Raise ValueError unless beta is finite and >= 0 and threshold finite."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def strat_recall_at_n(coll: TopNCollection, split: SplitDataset,
                      beta: float = 0.5, threshold: float = 4.0) -> float:
    """Recall with every relevant item down-weighted by popularity^beta.

    Items with zero train popularity (possible only for hand-built inputs)
    weigh as popularity one.
    """
    check_beta_threshold(beta, threshold)
    users, items = _encode(coll, split)
    hit = _hits(split, threshold, users, items)[0]
    return _strat_recall(split, beta, threshold, users, items[hit])


def _strat_recall(split: SplitDataset, beta: float, threshold: float, users: np.ndarray,
                  hit_items: np.ndarray) -> float:
    """Strat recall of the users ``users`` (codes) given their hit item codes.

    The weights come from the split's table for ``beta``; the denominator
    gathers them over the users' relevant items in CSR order, or is the
    split's cached total when every user is evaluated. fsum is exactly
    rounded, so neither sum depends on the order of its terms.
    """
    weights = split.popularity_weights(beta)
    indptr, relevant = split.relevant_csr(threshold)
    if len(users) < len(split.users):  # only the given users' items count
        keep = np.zeros(len(split.users), dtype=bool)
        keep[users] = True
        relevant = relevant[np.repeat(keep, np.diff(indptr))]
        den = math.fsum(weights[relevant].tolist())
    else:
        den = split.relevant_weight_total(beta, threshold)
    if den == 0:
        if len(relevant):
            raise UndefinedMetricError(
                f"the popularity weights pop^-beta of all {len(relevant)} relevant test "
                f"items underflow to 0 at beta={beta!r}")
        raise UndefinedMetricError("no relevant test items anywhere")
    return math.fsum(weights[hit_items].tolist()) / den


def coverage_at_n(coll: TopNCollection, split: SplitDataset) -> float:
    """Distinct recommended items over the recommendable (train) universe."""
    items, m = _encode(coll, split)[1], len(split.items)
    return int(np.count_nonzero(np.bincount(items.ravel(), minlength=m))) / m


def gini(frequencies) -> float:
    """Gini coefficient of a frequency vector (0 means perfectly even)."""
    f = np.sort(np.asarray(frequencies, dtype=float))
    total = f.sum()
    if total <= 0:
        raise UndefinedMetricError("gini of an all-zero frequency vector")
    m = len(f)
    j = np.arange(1, m + 1)
    return float((m + 1 - 2 * ((m + 1 - j) * f).sum() / total) / m)


def evaluate(coll: TopNCollection, split: SplitDataset, stats: ItemStats,
             protocol: str = "all_unrated", n: int | None = None,
             beta: float = 0.5, threshold: float = 4.0,
             declared_protocol: str | None = None,
             per_user: bool = False) -> EvalReport:
    """Bundle all metrics for a collection under one ranking protocol.

    The collection must have been generated under the same protocol; pass
    the generating run's ``declared_protocol`` to enforce that. Under
    rated_test_items, users with fewer than n test items are dropped from
    every average. ``n`` below the collection size evaluates truncated
    lists.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    check_beta_threshold(beta, threshold)
    if declared_protocol is not None and declared_protocol != protocol:
        raise ContractViolationError(
            f"collection was generated under {declared_protocol!r}, "
            f"evaluation requested {protocol!r}")
    n = coll.n if n is None else n
    work = coll.truncated(n)
    users, items = _encode(work, split)
    if protocol == "rated_test_items":
        keep = split.user_test_counts[users] >= n
        users, items = users[keep], items[keep]
    if not len(users):
        raise UndefinedMetricError("no users to evaluate")
    hit, hits, relevant = _hits(split, threshold, users, items)
    precision, recall, f_measure = _precision_recall(hits, relevant, n)
    freq = np.bincount(items.ravel(), minlength=len(split.items))
    breakdown = None
    if per_user:
        breakdown = {split.users[k]: (h / n, h / r if r else 0.0)
                     for k, h, r in zip(users.tolist(), hits.tolist(), relevant.tolist())}
    long_tail = np.fromiter((i in stats.long_tail for i in split.items), dtype=bool,
                            count=len(split.items))
    return EvalReport(
        n=n,
        protocol=protocol,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        lt_accuracy=int(np.count_nonzero(long_tail[items])) / (n * len(users)),
        strat_recall=_strat_recall(split, beta, threshold, users, items[hit]),
        coverage=int(np.count_nonzero(freq)) / len(split.items),
        gini=gini(freq),
        per_user=breakdown,
    )
