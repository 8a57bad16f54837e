"""Evaluation metrics over top-N collections.

Rank accuracy (precision, recall, F-measure against highly rated test
items), long-tail promotion (long-tail share of recommended slots,
popularity-discounted stratified recall), and catalog coverage (distinct
item share and the Gini coefficient of recommendation frequencies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import PROTOCOLS, TopNCollection
from .dataset import ItemStats, SplitDataset, relevant_test_items
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


def _relevant_retrieved(coll: TopNCollection, split: SplitDataset, threshold: float) -> list:
    """(relevant test items, those in the list) per user of ``coll``, in its order."""
    relevant = [relevant_test_items(split, u, threshold) for u in coll.lists]
    return [(rel, rel & set(items)) for rel, items in zip(relevant, coll.lists.values())]


def precision_recall_at_n(coll: TopNCollection, split: SplitDataset,
                          threshold: float = 4.0):
    """Mean precision, recall and F-measure against highly rated test items.

    Users without any relevant test item contribute zero recall and stay in
    the denominator.
    """
    return _precision_recall(_relevant_retrieved(coll, split, threshold), coll.n)


def _precision_recall(sets: list, n: int):
    hit_share = 0.0
    recall_sum = 0.0
    for rel, retrieved in sets:
        hits = len(retrieved)
        hit_share += hits
        if rel:
            recall_sum += hits / len(rel)
    precision = hit_share / (n * len(sets))
    recall = recall_sum / len(sets)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def lt_accuracy_at_n(coll: TopNCollection, stats: ItemStats) -> float:
    """Share of recommended slots filled by long-tail items."""
    lt = stats.long_tail
    total = sum(len(lt.intersection(items)) for items in coll.lists.values())
    return total / (coll.n * len(coll.lists))


def _check_beta_threshold(beta: float, threshold: float) -> None:
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
    _check_beta_threshold(beta, threshold)
    return _strat_recall(_relevant_retrieved(coll, split, threshold), coll.lists, split,
                         beta, threshold)


def _strat_recall(sets: list, users, split: SplitDataset, beta: float,
                  threshold: float) -> float:
    """Strat recall of ``users`` given their (relevant, retrieved) ``sets``.

    The weights come from the split's table for ``beta``; the denominator
    gathers them over the users' relevant items in CSR order. fsum is
    exactly rounded, so neither sum depends on the order of its terms.
    """
    weights = split.popularity_weights(beta)
    indptr, relevant = split.relevant_csr(threshold)
    codes = [split.user_index[u] for u in users]
    if len(codes) < len(split.users):  # only the given users' items count
        keep = np.zeros(len(split.users), dtype=bool)
        keep[codes] = True
        relevant = relevant[np.repeat(keep, np.diff(indptr))]
    den = math.fsum(weights[relevant].tolist())
    if den == 0:
        raise UndefinedMetricError("no relevant test items anywhere")
    idx = split.item_index
    hits = [idx[i] for _, retrieved in sets for i in retrieved]
    return math.fsum(weights[hits].tolist()) / den


def coverage_at_n(coll: TopNCollection, split: SplitDataset) -> float:
    """Distinct recommended items over the recommendable (train) universe."""
    distinct = set()
    for items in coll.lists.values():
        distinct.update(items)
    return len(distinct) / len(split.items)


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
    _check_beta_threshold(beta, threshold)
    if declared_protocol is not None and declared_protocol != protocol:
        raise ContractViolationError(
            f"collection was generated under {declared_protocol!r}, "
            f"evaluation requested {protocol!r}")
    n = coll.n if n is None else n
    work = coll.truncated(n)
    if protocol == "rated_test_items":
        for u in work.lists:
            if u not in split.user_index:
                raise UnknownIdError(f"unknown user {u!r}")
        uidx, test_counts = split.user_index, split.user_test_counts
        work = TopNCollection(n, {
            u: items for u, items in work.lists.items() if test_counts[uidx[u]] >= n
        })
    if not work.lists:
        raise UndefinedMetricError("no users to evaluate")
    sets = _relevant_retrieved(work, split, threshold)
    precision, recall, f_measure = _precision_recall(sets, n)
    idx = split.item_index
    freq = np.bincount([idx[i] for items in work.lists.values() for i in items],
                       minlength=len(split.items))
    breakdown = None
    if per_user:
        breakdown = {u: (len(hit) / n, len(hit) / len(rel) if rel else 0.0)
                     for u, (rel, hit) in zip(work.lists, sets)}
    return EvalReport(
        n=n,
        protocol=protocol,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        lt_accuracy=lt_accuracy_at_n(work, stats),
        strat_recall=_strat_recall(sets, work.lists, split, beta, threshold),
        coverage=coverage_at_n(work, split),
        gini=gini(freq),
        per_user=breakdown,
    )
