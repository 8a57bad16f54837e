"""Evaluation metrics over top-N collections.

Rank accuracy (precision, recall, F-measure against highly rated test
items), long-tail promotion (long-tail share of recommended slots,
popularity-discounted stratified recall), and catalog coverage (distinct
item share and the Gini coefficient of recommendation frequencies).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import PROTOCOLS, TopNCollection
from .dataset import ItemStats, SplitDataset, relevant_test_items
from .errors import ContractViolationError, UndefinedMetricError, UnknownIdError


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
        return {
            "n": self.n,
            "protocol": self.protocol,
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "lt_accuracy": self.lt_accuracy,
            "strat_recall": self.strat_recall,
            "coverage": self.coverage,
            "gini": self.gini,
        }

    @staticmethod
    def from_dict(payload: dict) -> "EvalReport":
        return EvalReport(**payload)

    def save(self, directory) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        (d / "report.json").write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        fields = list(self.to_dict())
        with open(d / "report.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(fields)
            w.writerow([self.to_dict()[k] for k in fields])
        if self.per_user is not None:
            with open(d / "per_user.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["user", "precision", "recall"])
                for u in sorted(self.per_user):
                    p, r = self.per_user[u]
                    w.writerow([u, repr(p), repr(r)])

    @staticmethod
    def load(directory) -> "EvalReport":
        return EvalReport.from_dict(json.loads((Path(directory) / "report.json").read_text()))


def precision_recall_at_n(coll: TopNCollection, split: SplitDataset,
                          threshold: float = 4.0):
    """Mean precision, recall and F-measure against highly rated test items.

    Users without any relevant test item contribute zero recall and stay in
    the denominator.
    """
    relevant = {u: relevant_test_items(split, u, threshold) for u in coll.lists}
    n = coll.n
    hit_share = 0.0
    recall_sum = 0.0
    for u, items in coll.lists.items():
        rel = relevant[u]
        hits = len(rel & set(items))
        hit_share += hits
        if rel:
            recall_sum += hits / len(rel)
    precision = hit_share / (n * len(coll.lists))
    recall = recall_sum / len(coll.lists)
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
    relevant = {u: relevant_test_items(split, u, threshold) for u in coll.lists}
    idx, counts = split.item_index, split.item_train_counts.tolist()
    weight = {i: ((counts[idx[i]] if i in idx else 0) or 1) ** (-beta)
              for i in frozenset().union(*relevant.values())}
    num = 0.0
    den = 0.0
    for u, items in coll.lists.items():
        retrieved = relevant[u] & set(items)
        num += sum(map(weight.__getitem__, retrieved))
        den += sum(map(weight.__getitem__, relevant[u]))
    if den == 0:
        raise UndefinedMetricError("no relevant test items anywhere")
    return num / den


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
    precision, recall, f_measure = precision_recall_at_n(work, split, threshold)
    idx = split.item_index
    freq = np.bincount([idx[i] for items in work.lists.values() for i in items],
                       minlength=len(split.items))
    breakdown = None
    if per_user:
        breakdown = {}
        relevant = {u: relevant_test_items(split, u, threshold) for u in work.lists}
        for u, items in work.lists.items():
            rel = relevant[u]
            hits = len(rel & set(items))
            breakdown[u] = (hits / n, hits / len(rel) if rel else 0.0)
    return EvalReport(
        n=n,
        protocol=protocol,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        lt_accuracy=lt_accuracy_at_n(work, stats),
        strat_recall=strat_recall_at_n(work, split, beta, threshold),
        coverage=coverage_at_n(work, split),
        gini=gini(freq),
        per_user=breakdown,
    )
