"""Smoke check of the benchmark itself at a tiny shape (60 users x 120 items).

Runs every workload's command sequence once untraced and once traced, and
checks the result line against BENCHMARK.json. Run with::

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run_bench import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_only_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run_bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--shape", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.split()[:2] == ["failed_ops", "0"] for line in lines)
    if trace:
        spans = [json.loads(line) for line in (ROOT / ".bench_results" /
                 f"{workload}-tiny-seed3-spans.jsonl").read_text().splitlines()]
        roots = {s["name"] for s in spans if s["parent"] is None}
        assert {"cli.split", "cli.prefs", "cli.startup"} <= roots
        names = {s["name"] for s in spans}
        assert {"dataset.load_split", "core.oslg", "metrics.evaluate"} <= names
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values()
                   if m["unit"] in ("s", "MB", "users/s"))


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "ml100k-sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
