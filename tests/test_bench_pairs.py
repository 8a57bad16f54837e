"""scripts/bench_pairs.py: the summary and verdicts of canned pairs, and
the reading of one run from a stand-in runner; no benchmark runs."""

import importlib.util
import json
import os
import statistics
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "pipeline_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]


def _pairs(parent: dict, change: dict) -> list:
    """One pair per position of the value lists, with the runner's counts."""
    n = len(next(iter(parent.values())))
    return [{"seed": k, "first": "parent" if k % 2 == 0 else "change",
             **{side: {"correct": True, "attempted": 30, "failed": 0,
                       **{name: float(v[k]) for name, v in values.items()}}
                for side, values in (("parent", parent), ("change", change))}}
            for k in range(n)]


def test_summary_holds_medians_parent_quartiles_and_wins():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]
    change = [v - 0.5 for v in parent[:8]] + [3.0, 3.1]
    stats = bench_pairs.summary(_pairs({"pipeline_s": parent, "raw_sweep_s": parent},
                                       {"pipeline_s": change, "raw_sweep_s": change}))
    assert set(stats) == {"pipeline_s", "raw_sweep_s"}  # the counts are not metrics
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert stats["pipeline_s"] == {
        "parent_median": statistics.median(parent), "change_median": statistics.median(change),
        "parent_quartiles": [q1, q3], "change_lower_in": 8, "pairs": 10}


@pytest.mark.parametrize("shift, wins, claim, bound", [
    (-1.0, 10, True, True),     # better everywhere, far past the spread
    (-0.01, 10, False, True),   # better everywhere, inside the parent's spread
    (+0.1, 0, False, True),     # worse, within a quarter of the median
    (+3.0, 0, False, False),    # worse by more than a quarter of the median
])
def test_verdicts_on_a_lower_is_better_metric(shift, wins, claim, bound):
    parent = [10.0 + 0.1 * k for k in range(10)]
    pairs = _pairs({"pipeline_s": parent}, {"pipeline_s": [v + shift for v in parent]})
    stats = bench_pairs.summary(pairs)
    assert stats["pipeline_s"]["change_lower_in"] == wins
    assert bench_pairs.verdicts(pairs, stats, END_TO_END)["pipeline_s"] == (claim, bound)


def test_a_claim_needs_nine_of_ten_pairs():
    parent = [10.0] * 10
    for losses, claim in ((1, True), (2, False)):
        change = [5.0] * (10 - losses) + [11.0] * losses
        pairs = _pairs({"peak_rss_mb": parent}, {"peak_rss_mb": change})
        stats = bench_pairs.summary(pairs)
        assert bench_pairs.verdicts(pairs, stats, END_TO_END)["peak_rss_mb"] == (claim, True)


def test_a_metric_missing_from_a_run_is_unresolved():
    pairs = _pairs({"pipeline_s": [1.0, 2.0, 3.0], "peak_rss_mb": [50.0, 50.0, 50.0]},
                   {"pipeline_s": [1.0, 2.0, 3.0], "peak_rss_mb": [50.0, 50.0, 50.0]})
    del pairs[1]["change"]["pipeline_s"]  # a run whose passes all failed reports no metric
    stats = bench_pairs.summary(pairs)
    assert set(stats) == {"peak_rss_mb"}
    checks = bench_pairs.verdicts(pairs, stats, END_TO_END)
    assert checks == {"pipeline_s": (False, False), "peak_rss_mb": (False, True)}
    text = bench_pairs.report("w", pairs, stats, checks)
    assert "pipeline_s   unresolved: missing from 1 of 6 runs" in text
    assert "peak_rss_mb" in text and "bound kept" in text


def _faster(n: int = 10) -> list:
    """Pairs where the change is lower everywhere, by far more than the spread."""
    parent = [10.0 + 0.1 * k for k in range(n)]
    return _pairs({"pipeline_s": parent}, {"pipeline_s": [v - 5.0 for v in parent]})


def test_more_failed_ops_on_the_change_void_both_verdicts():
    pairs = _faster()
    stats = bench_pairs.summary(pairs)
    assert bench_pairs.verdicts(pairs, stats, END_TO_END)["pipeline_s"] == (True, True)
    pairs[3]["parent"]["failed"] = 1
    pairs[4]["change"]["failed"] = 1  # as many as the parent: still sound
    assert bench_pairs.verdicts(pairs, stats, END_TO_END)["pipeline_s"] == (True, True)
    pairs[5]["change"]["failed"] = 2
    assert bench_pairs.verdicts(pairs, stats, END_TO_END)["pipeline_s"] == (False, False)
    text = bench_pairs.report("w", pairs, stats, bench_pairs.verdicts(pairs, stats, END_TO_END))
    assert text.splitlines()[0] == (
        "w  failed ops parent 1 change 3  runs not correct 0  (no verdict holds)")


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_run_that_is_not_correct_voids_both_verdicts(side):
    pairs = _faster()
    pairs[2][side]["correct"] = False
    stats = bench_pairs.summary(pairs)
    assert bench_pairs.verdicts(pairs, stats, END_TO_END)["pipeline_s"] == (False, False)
    assert "runs not correct 1  (no verdict holds)" in bench_pairs.report(
        "w", pairs, stats, bench_pairs.verdicts(pairs, stats, END_TO_END))


def _checkout(tmp_path: Path, line: dict, results: dict = None) -> Path:
    """A checkout whose bench/run_bench.py prints ``line`` and, given
    ``results``, writes them as its seed-1 trace0 results file."""
    (tmp_path / "bench").mkdir()
    (tmp_path / ".bench_results").mkdir()
    write = "" if results is None else (
        "open('.bench_results/w-small-seed1-trace0.json', 'w').write("
        f"json.dumps({results!r}))\n")
    (tmp_path / "bench" / "run_bench.py").write_text(
        f"import json\n{write}print(json.dumps({line!r}))\n")
    return tmp_path


RESULTS = {"end_to_end": {"raw.pipeline_s": {"value": 2.5, "unit": "s"},
                          "raw.note": {"value": 3.0, "unit": "count"},
                          "pipeline_s": {"value": 2.0, "unit": "s"}}}


def test_run_once_reads_the_results_file_its_run_wrote(tmp_path):
    line = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"pipeline_s": {"value": 2.0, "unit": "s"}}}
    row = bench_pairs.run_once(_checkout(tmp_path, line, RESULTS), "w", 1)
    assert row == {"correct": True, "attempted": 3, "failed": 0, "pipeline_s": 2.0,
                   "raw_pipeline_s": 2.5}


def test_run_once_ignores_an_older_results_file(tmp_path):
    line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}  # set-up failed
    checkout = _checkout(tmp_path, line)
    stale = checkout / ".bench_results" / "w-small-seed1-trace0.json"
    stale.write_text(json.dumps(RESULTS))
    an_hour_ago = time.time() - 3600
    os.utime(stale, (an_hour_ago, an_hour_ago))
    row = bench_pairs.run_once(checkout, "w", 1)
    assert row == {"correct": False, "attempted": 1, "failed": 1}


def test_seed_ranges():
    assert bench_pairs.seed_range("30101-30104") == [30101, 30102, 30103, 30104]
