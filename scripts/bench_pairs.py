#!/usr/bin/env python3
"""Run the benchmark as alternating parent/change pairs and write a BENCH_*.json.

For each workload and seed, runs ``python3 bench/run_bench.py --workload W
--seed S --seconds 30`` once from each checkout, in that checkout, the
parent first in even-numbered pairs and the change first in odd-numbered
ones. A run is read from its last standard-output line (the runner's JSON
result: ``correct``, ``attempted``, ``failed`` and the gated end-to-end
metrics) and from ``.bench_results/<workload>-<shape>-seed<S>-trace0.json``
in its checkout, for the unscaled ``raw.*`` seconds; a results file older
than the run is another run's and is not read. The record holds, per
metric, both medians, the parent's quartiles (``statistics.quantiles(n=4)``),
the count of pairs whose change value is lower and the pair count, then
each run's failed operations and every pair::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ml100k-rsvd --workload ml100k-sweep --seeds 30101-30110 \\
        --out BENCH_30.json

Two verdicts are printed for each end-to-end metric of the change's
``BENCHMARK.json``, all of which are lower-is-better. ``claim`` holds when
the change is lower in at least nine of ten pairs and its median beats the
parent's by more than the parent's quartile spread. ``bound`` holds when
the change's median is higher than the parent's by no more than the
metric's bound, read as a fraction of the parent's median. Neither holds
when a run is not ``correct``, when the change fails more operations than
the parent, or for a metric missing from some run, which is printed as
unresolved. Standard library only.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
CLAIM_SHARE = 0.9  # a claim needs the change lower in this share of the pairs
RUN_SECONDS = 30  # each run's --seconds, as in BENCH_26.json, BENCH_27.json and BENCH_30.json


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One runner result: its JSON line's counts and metric values, plus
    every raw.* seconds value of the results file it wrote as raw_<name>."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run_bench.py exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    row = {key: last[key] for key in ("correct", "attempted", "failed")}
    row |= {name: m["value"] for name, m in last["metrics"].items()}
    # a run that fails in set-up writes no results file; an older one is another run's
    written = [p for p in (checkout / ".bench_results").glob(
        f"{workload}-*-seed{seed}-trace0.json") if p.stat().st_mtime >= started]
    stored = max(written, key=lambda p: p.stat().st_mtime, default=None)
    if stored is not None:
        for name, m in json.loads(stored.read_text())["end_to_end"].items():
            if name.startswith("raw.") and m["unit"] == "s":
                row["raw_" + name[4:]] = m["value"]
    return row


def run_pairs(checkouts: dict, workload: str, seeds: list) -> list:
    pairs = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], workload, seed)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} pipeline_s {pair[side].get('pipeline_s', math.nan):.3f} "
            f"failed {pair[side]['failed']}" for side in SIDES), file=sys.stderr)
        pairs.append(pair)
    return pairs


def summary(pairs: list) -> dict:
    """Per metric present on both sides of every pair (two pairs at least):
    medians, the parent's quartiles, the pairs where the change is lower and
    the pair count."""
    names = [name for name, value in pairs[0]["parent"].items()
             if isinstance(value, float) and all(
                 name in p[side] for p in pairs for side in SIDES)]
    out = {}
    for name in names:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": [q1, q3],
            "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def failed_ops(pairs: list) -> dict:
    """side -> its runs' failed operations, summed."""
    return {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}


def sound(pairs: list) -> bool:
    """Every run correct, and the change failing no more operations than the parent."""
    failed = failed_ops(pairs)
    return (all(p[side]["correct"] for p in pairs for side in SIDES)
            and failed["change"] <= failed["parent"])


def verdicts(pairs: list, stats: dict, end_to_end: list) -> dict:
    """metric -> (claim holds, within bound) for each of ``end_to_end`` (the
    entries of BENCHMARK.json); both are false for a metric ``stats`` lacks
    and for every metric when the pairs are not ``sound``."""
    out, ok = {}, sound(pairs)
    for metric in end_to_end:
        s = stats.get(metric["name"])
        if s is None or not ok:
            out[metric["name"]] = (False, False)
            continue
        gain = s["parent_median"] - s["change_median"]  # > 0: the change is lower
        spread = s["parent_quartiles"][1] - s["parent_quartiles"][0]
        claim = s["change_lower_in"] >= math.ceil(CLAIM_SHARE * s["pairs"]) and gain > spread
        bound = -gain <= metric["bound"] * abs(s["parent_median"])
        out[metric["name"]] = (claim, bound)
    return out


def report(workload: str, pairs: list, stats: dict, checks: dict) -> str:
    failed = failed_ops(pairs)
    wrong = sum(not p[side]["correct"] for p in pairs for side in SIDES)
    lines = [f"{workload}  failed ops parent {failed['parent']} change {failed['change']}"
             f"  runs not correct {wrong}" + ("" if sound(pairs) else "  (no verdict holds)")]
    for name, (claim, bound) in checks.items():
        s = stats.get(name)
        if s is None:
            missing = sum(name not in p[side] for p in pairs for side in SIDES)
            lines.append(f"  {name:12s} unresolved: missing from {missing} of "
                         f"{2 * len(pairs)} runs")
            continue
        lines.append(f"  {name:12s} {s['parent_median']:10.4f} -> {s['change_median']:10.4f}"
                     f"  lower in {s['change_lower_in']}/{s['pairs']}"
                     f"  claim {'holds' if claim else 'not met'}"
                     f"  bound {'kept' if bound else 'EXCEEDED'}")
    return "\n".join(lines)


def host() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((line.split(":", 1)[1].strip() for line in lines
                  if line.startswith("model name")), None)
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy, "cpu_model": model}


def seed_range(text: str) -> list:
    """``"A-B"`` as the list of seeds A to B inclusive."""
    lo, hi = map(int, text.split("-"))
    return list(range(lo, hi + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent commit's checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="A-B, inclusive; one pair per seed")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds must name two seeds at least, for the parent's quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    if any(m["better"] != "lower" for m in bench["end_to_end"]):
        raise SystemExit("bench_pairs.py reads every end-to-end metric as lower-is-better")
    record = {
        "command": f"python3 bench/run_bench.py --workload W --seed S --seconds {RUN_SECONDS}",
        "method": "alternating pairs run by scripts/bench_pairs.py: the parent commit and "
                  "the change, each from its own checkout; 'first' names the side that ran "
                  "first. Metrics are the runner's end-to-end values (times scaled by "
                  "bench/probe.py); raw_* are its unscaled raw.* seconds. Quartiles are "
                  "statistics.quantiles(n=4); change_lower_in counts pairs where the "
                  "change is lower.",
        "host": host(),
        "claim": None,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = run_pairs(checkouts, workload, args.seeds)
        stats = summary(pairs)
        record["workloads"][workload] = {
            "summary": stats,
            "failed_ops": {side: [p[side]["failed"] for p in pairs] for side in SIDES},
            "pairs": pairs,
        }
        print(report(workload, pairs, stats, verdicts(pairs, stats, bench["end_to_end"])))
        args.out.write_text(json.dumps(record, indent=1) + "\n")  # kept as each workload ends
    return 0


if __name__ == "__main__":
    sys.exit(main())
