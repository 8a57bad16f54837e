"""End-to-end and per-layer benchmark of the ganc CLI pipeline.

Usage (from the root of a checkout)::

    python3 bench/run_bench.py --workload ml1m-pop --seed 1 --seconds 30 --trace 0

Set-up generates the workload's ratings with ``ganc.synthetic`` from
``--seed`` and writes them as CSV. The measurement is a closed loop with one
client: the workload's ``ganc`` commands run one at a time as child
processes, and the whole sequence repeats until ``--seconds`` is used up
(at least once). Every command's outputs are checked; see bench/README.md
for the workloads, the metrics and the checks.

With ``--trace 1`` the loop alternates an untraced pass with a pass whose
commands run under ``bench/tracer.py``, and the per-layer metrics come from
the traced passes' spans. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, set-up included
# Wall time of bench/probe.py on the reference host speed that every
# reported time is scaled to (see scale).
PROBE_REF_S = 0.25

# (users, items, mean ratings per user) handed to generate_ratings.
SHAPES = {
    "ml1m": (6040, 3706, 165.0),
    "ml100k": (943, 1682, 106.0),
    "tiny": (60, 120, 40.0),
}

SPLIT = ["split", "--dataset", "ratings.csv", "--format", "csv",
         "--kappa", "0.5", "--tau", "20", "--seed", "0", "--out", "split"]
PREFS = ["prefs", "--split", "split", "--model", "generalized", "--out", "prefs"]
EVALUATE = ["evaluate", "--split", "split", "--topn", "rec", "--out", "eval"]


def recommend(*flags: str) -> list:
    # --n is always passed: --arec pop without it crashes the CLI.
    return ["recommend", "--split", "split", "--prefs", "prefs", "--crec", "dyn",
            "--n", "5", "--run-seed", "0", *flags, "--out", "rec"]


@dataclass(frozen=True)
class Workload:
    shape: str
    commands: tuple
    why: str


# ml1m-pop is not in BENCHMARK.json: only one of its ~30 s passes fits in a
# run, and one pass is not steady enough (bench/README.md).
WORKLOADS = {
    "ml1m-pop": Workload("ml1m", (
        SPLIT, PREFS, recommend("--arec", "pop", "--s", "2000"), EVALUATE,
    ), "catalog-scale I/O: loading the split dominates every command; "
       "OSLG has 3706-item pools and 2000 snapshots; RSVD does not run"),
    "ml100k-rsvd": Workload("ml100k", (
        SPLIT, PREFS, ["train-rsvd", "--split", "split", "--out", "mf"],
        recommend("--arec", "rsvd", "--mf", "mf", "--s", "500",
                  "--protocol", "rated_test_items"),
        EVALUATE,
    ), "the per-rating SGD loop dominates; dense MF scorer; the only "
       "workload on the rated_test_items protocol"),
    "ml100k-sweep": Workload("ml100k", (
        SPLIT, PREFS,
        ["sweep", "--split", "split", "--prefs", "prefs", "--arec", "pop",
         "--n", "5", "--run-seed", "0", "--out", "sweep"],
    ), "the paper's sample-size sweep: 40 OSLG runs and 40 evaluations "
       "against one loaded split"),
}

REPORT_KEYS = ("precision", "recall", "f_measure", "lt_accuracy",
               "strat_recall", "coverage", "gini")
QUALITY_KEYS = ("f_measure", "coverage", "lt_accuracy", "gini")
SWEEP_S_VALUES = (100, 500, 1000, 2000)
SWEEP_REPS = 10
DIGESTED = {"split": ("split/train.csv", "split/test.csv"), "prefs": ("prefs/theta.csv",),
            "recommend": ("rec/topn.csv",), "sweep": ("sweep/sweep.csv",)}


class CheckFailed(Exception):
    """A command's outputs are wrong."""


@dataclass
class CommandResult:
    name: str
    wall_s: float
    rss_mb: float
    launched: float
    ok: bool = True
    note: str = ""


@dataclass
class Pass:
    """One run of the workload's whole command sequence."""

    traced: bool
    commands: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    lists: int = 0
    rmse_test: float | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.commands)

    def seconds(self, name: str | None = None, raw: bool = False) -> float | None:
        """Scaled (or raw wall) seconds of one command, or of the whole pass."""
        times = [c.wall_s for c in self.commands if name is None or c.name == name]
        if not times:
            return None
        return sum(times) * (1.0 if raw else scale(self.probes))


def scale(probes: list) -> float:
    """Factor from wall time to time on a host where the probe takes PROBE_REF_S.

    The host's speed drifts by tens of percent over seconds to minutes;
    dividing by the median probe time around the same commands cancels
    most of that drift.
    """
    return PROBE_REF_S / statistics.median(probes)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ganc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def write_ratings(shape: str, seed: int, path: Path) -> None:
    from ganc.synthetic import generate_ratings

    users, items, activity = SHAPES[shape]
    ratings = generate_ratings(users, items, seed=seed, mean_activity=activity)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "item", "rating"])
        w.writerows((r.user_id, r.item_id, r.value) for r in ratings)


def probe(work: Path) -> float:
    """Wall time of one run of the fixed reference work in bench/probe.py."""
    result = launch("probe", [sys.executable, str(BENCH / "probe.py")], work,
                    work / "probe.log", 60.0)
    if not result.ok:
        raise CheckFailed(f"bench/probe.py failed: {result.note}")
    return result.wall_s


def set_up(shape: str, seed: int, work: Path) -> tuple[Pass, str]:
    """Write the ratings file SETUP_REPEATS times; all copies must agree.

    Returned as a pass of SETUP_REPEATS "setup" commands with their probes.
    """
    setup, digests = Pass(traced=False), set()
    setup.probes.append(probe(work))
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        write_ratings(shape, seed, work / "ratings.csv")
        setup.commands.append(CommandResult("setup", time.perf_counter() - t0, 0.0, t0))
        setup.probes.append(probe(work))
        digests.add(sha256(work / "ratings.csv"))
    if len(digests) != 1:
        raise CheckFailed("generate_ratings is not deterministic for a fixed seed")
    return setup, digests.pop()


def launch(name: str, argv: list, work: Path, log: Path, timeout: float) -> CommandResult:
    """Run one child to completion; its wall time and its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w") as out:
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - launched
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = CommandResult(name, wall, usage.ru_maxrss / 1024.0, launched)
    if proc.returncode != 0:
        result.ok = False
        result.note = f"exit code {proc.returncode}" + (" (timed out)" if wall >= timeout else "")
    return result


def _read_rows(path: Path):
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        yield from rows


class SplitView:
    """A saved split parsed with ``csv`` alone, independently of ganc.dataset.

    Carries the two attributes ``TopNCollection.validate`` reads, plus each
    user's test items and relevant (rating >= 4) test items.
    """

    def __init__(self, directory: Path):
        self.per_user_train_index: dict = {}
        for user, item, *_ in _read_rows(directory / "train.csv"):
            self.per_user_train_index.setdefault(int(user), set()).add(int(item))
        self.items = tuple(sorted(set().union(*self.per_user_train_index.values())))
        self.test: dict = {}
        self.relevant: dict = {}
        for user, item, value, *_ in _read_rows(directory / "test.csv"):
            self.test.setdefault(int(user), set()).add(int(item))
            if float(value) >= 4.0:
                self.relevant.setdefault(int(user), set()).add(int(item))


class Checker:
    """Checks each command's outputs; CheckFailed marks the command failed."""

    def __init__(self, work: Path):
        self.work = work
        self.view: SplitView | None = None
        self.view_digest = ""
        self.collection = None
        self.digests: dict = {}

    def after(self, name: str, p: Pass) -> None:
        for rel in DIGESTED.get(name, ()):
            self.digests[rel] = sha256(self.work / rel)
        getattr(self, "_" + name.replace("-", "_"))(p)

    def _split(self, p: Pass) -> None:
        manifest = json.loads((self.work / "split" / "split.json").read_text())
        if self.digests["split/train.csv"] + self.digests["split/test.csv"] != self.view_digest:
            self.view = SplitView(self.work / "split")
            self.view_digest = self.digests["split/train.csv"] + self.digests["split/test.csv"]
        if len(self.view.per_user_train_index) != manifest["n_users"] or not self.view.items:
            raise CheckFailed("split.json user count differs from train.csv")

    def _prefs(self, p: Pass) -> None:
        rows = list(_read_rows(self.work / "prefs" / "theta.csv"))
        if {int(u) for u, _ in rows} != set(self.view.per_user_train_index):
            raise CheckFailed("theta.csv does not cover exactly the split's users")
        if not all(0.0 <= float(v) <= 1.0 for _, v in rows):
            raise CheckFailed("theta outside [0, 1]")

    def _train_rsvd(self, p: Pass) -> None:
        rmse = json.loads((self.work / "mf" / "mf.json").read_text())["rmse_test"]
        if rmse is None or not 0.0 < rmse < 4.0:
            raise CheckFailed(f"rmse_test {rmse!r} outside (0, 4)")
        p.rmse_test = rmse

    def _recommend(self, p: Pass) -> None:
        from ganc.core import load_collection
        from ganc.errors import ContractViolationError

        coll = load_collection(self.work / "rec")
        try:
            coll.validate(self.view)
        except ContractViolationError as exc:
            raise CheckFailed(f"topn.csv: {exc}") from None
        run = json.loads((self.work / "rec" / "run.json").read_text())
        if run["protocol"] == "all_unrated":
            eligible = set(self.view.per_user_train_index)
        else:
            eligible = {u for u, items in self.view.test.items() if len(items) >= coll.n}
            if any(not set(items) <= self.view.test[u] for u, items in coll.lists.items()):
                raise CheckFailed("topn.csv recommends items outside a user's test items")
        if coll.n != 5 or set(coll.lists) != eligible:
            raise CheckFailed("topn.csv does not hold 5 items for exactly the eligible users")
        self.collection = coll
        p.lists = len(coll.lists)

    def _evaluate(self, p: Pass) -> None:
        report = json.loads((self.work / "eval" / "report.json").read_text())
        bad = [k for k in REPORT_KEYS if not 0.0 <= report[k] <= 1.0]
        if bad:
            raise CheckFailed(f"report.json values outside [0, 1]: {bad}")
        coll, view = self.collection, self.view
        hits = sum(len(view.relevant.get(u, set()) & set(items))
                   for u, items in coll.lists.items())
        recomputed = {
            "precision": hits / (coll.n * len(coll.lists)),
            "coverage": len({i for items in coll.lists.values() for i in items}) / len(view.items),
        }
        for key, value in recomputed.items():
            if not math.isclose(report[key], value, rel_tol=1e-9, abs_tol=1e-12):
                raise CheckFailed(f"report {key} {report[key]!r} != recomputed {value!r}")
        p.quality = {k: report[k] for k in QUALITY_KEYS}

    def _sweep(self, p: Pass) -> None:
        with open(self.work / "sweep" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if tuple(int(r["s"]) for r in rows) != SWEEP_S_VALUES:
            raise CheckFailed("sweep.csv does not list the default sample sizes")
        if not all(0.0 <= float(r[k]) <= 1.0 for r in rows for k in QUALITY_KEYS):
            raise CheckFailed("sweep.csv values outside [0, 1]")
        # The sweep's aggregates, not the single recommend run, are this
        # workload's quality figures.
        p.quality = {k: statistics.fmean(float(r[k]) for r in rows) for k in QUALITY_KEYS}
        p.lists = len(SWEEP_S_VALUES) * SWEEP_REPS * len(self.view.per_user_train_index)


def _load_spans(path: Path, launched: float) -> list:
    """A traced command's spans, each given its self time and parent's name."""
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        s["self_s"] = s["end"] - s["start"]
    for s in spans:
        parent = by_id.get(s["parent"])
        s["parent_name"] = parent["name"] if parent else None
        if parent:
            parent["self_s"] -= s["end"] - s["start"]
    root = next(s for s in spans if s["parent"] is None)
    startup = root["start"] - launched
    spans.append({"trace": root["trace"], "command": root["command"], "name": "cli.startup",
                  "start": launched, "end": root["start"], "self_s": startup,
                  "parent": None, "parent_name": None})
    return spans


def run_pass(workload: Workload, work: Path, checker: Checker, traced: bool,
             trace_id: str, deadline: float) -> Pass:
    p = Pass(traced)
    p.probes.append(probe(work))
    for k, argv in enumerate(workload.commands):
        name = argv[0]
        spans = work / f"spans-{k}.jsonl"
        if traced:
            child = [sys.executable, str(BENCH / "tracer.py"), str(spans), trace_id, "--", *argv]
        else:
            child = [sys.executable, "-m", "ganc.cli", *argv]
        log = work / f"{k}-{name}.log"
        result = launch(name, child, work, log, deadline - time.perf_counter())
        p.probes.append(probe(work))
        p.commands.append(result)
        if result.ok:
            try:
                checker.after(name, p)
                if traced:
                    p.spans.extend(_load_spans(spans, result.launched))
            except (CheckFailed, OSError, KeyError, ValueError, StopIteration) as exc:
                result.ok, result.note = False, f"output check: {exc!r}"
        if not result.ok:
            print(f"FAILED {name}: {result.note}\n{log.read_text()[-2000:]}", file=sys.stderr)
            p.commands.extend(CommandResult(rest[0], 0.0, 0.0, 0.0, False, "not run")
                              for rest in workload.commands[k + 1:])
            break
    return p


def check_digests(p: Pass, digests: dict, reference: dict) -> None:
    """Fail the command whose output differs from the reference run's."""
    for name, paths in DIGESTED.items():
        for rel in paths:
            if rel in reference and digests.get(rel) != reference[rel]:
                for c in p.commands:
                    if c.name == name and c.ok:
                        c.ok, c.note = False, f"{rel} differs from the first run with this seed"
                        print(f"FAILED {name}: {c.note}", file=sys.stderr)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


COMMANDS = ("split", "prefs", "train-rsvd", "recommend", "evaluate", "sweep")
# Measured on every workload and steady across seeds; BENCHMARK.json lists
# exactly these. The other metrics are printed and stored (bench/README.md).
END_TO_END = ("setup_s", "pipeline_s", "peak_rss_mb")


def end_to_end(passes: list, setup: Pass, raw: bool = False) -> dict:
    """Medians over passes of the user-visible metrics, as name -> (value, unit).

    Times are scaled to the reference host speed unless ``raw``.
    """
    setup_s = statistics.median(c.wall_s for c in setup.commands)
    m = {"setup_s": (setup_s * (1.0 if raw else scale(setup.probes)), "s"),
         "pipeline_s": (median(p.seconds(raw=raw) for p in passes), "s")}
    for command in COMMANDS:
        value = median(p.seconds(command, raw) for p in passes)
        if value is not None:
            m[command.replace("-", "_") + "_s"] = (value, "s")
    producer = "sweep" if "sweep_s" in m else "recommend"
    m["users_per_s"] = (median(p.lists / p.seconds(producer, raw) for p in passes), "users/s")
    m["peak_rss_mb"] = (median(max(c.rss_mb for c in p.commands) for p in passes), "MB")
    for key in QUALITY_KEYS:
        m[key] = (median(p.quality[key] for p in passes), "ratio")
    if passes[0].rmse_test is not None:
        m["rmse_test"] = (median(p.rmse_test for p in passes), "rating")
    return m


def layer_metrics(spans: list) -> dict:
    """Per-layer totals over one traced pass: name -> (value, unit)."""
    agg: dict = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                       "rss_growth_mb": 0.0})
        a["s"] += s["end"] - s["start"]
        a["self_s"] += s["self_s"]
        a["calls"] += 1
        a["rss_growth_mb"] = max(a["rss_growth_mb"], s.get("rss_growth_mb", 0.0))
        for key, value in s.get("counts", {}).items():
            # Computed sizes are per call, so keep the largest; counts add up.
            if key.endswith("_computed"):
                a[key] = max(a.get(key, 0), value)
            else:
                a[key] = a.get(key, 0) + value
    kde_in_oslg = sum(s["end"] - s["start"] for s in spans
                      if s["name"] == "core.kde_sample" and s["parent_name"] == "core.oslg")

    def get(name, stat="s"):
        return agg.get(name, {}).get(stat, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    mib = float(1 << 20)
    m = {}
    for name, stat, unit in (
        ("dataset.load_ratings", "s", "s"), ("dataset.load_ratings", "calls", "count"),
        ("dataset.load_ratings", "rows", "count"),
        ("dataset.load_split", "s", "s"), ("dataset.load_split", "self_s", "s"),
        ("dataset.load_split", "rss_growth_mb", "MB"),
        ("dataset.split_per_user", "s", "s"), ("dataset.split_per_user", "rss_growth_mb", "MB"),
        ("dataset.save_split", "s", "s"), ("dataset.save_split", "bytes", "bytes"),
        ("dataset.compute_item_stats", "s", "s"),
        ("preference.theta_generalized", "s", "s"),
        ("preference.theta_generalized", "iterations", "count"),
        ("preference.load_prefs", "s", "s"), ("preference.save_prefs", "s", "s"),
        ("recommenders.rsvd_train", "s", "s"), ("recommenders.rsvd_train", "rss_growth_mb", "MB"),
        ("recommenders.rmse", "s", "s"), ("recommenders.rmse", "calls", "count"),
        ("recommenders.mf_accuracy_scorer", "s", "s"), ("recommenders.load_mf_model", "s", "s"),
        ("recommenders.pop_scorer", "s", "s"),
        ("recommenders.PopScorer.top_items", "s", "s"),
        ("recommenders.PopScorer.top_items", "calls", "count"),
        ("core.oslg", "s", "s"), ("core.oslg", "self_s", "s"), ("core.oslg", "calls", "count"),
        ("core.oslg", "phase1_s", "s"), ("core.oslg", "phase2_s", "s"),
        ("core.oslg", "sampled_users", "count"), ("core.oslg", "phase2_users", "count"),
        ("core.oslg", "candidates_scored", "count"),
        ("core.kde_sample", "s", "s"),
        ("core.SnapshotStore.nearest", "s", "s"), ("core.SnapshotStore.nearest", "calls", "count"),
        ("core.save_collection", "s", "s"), ("core.load_collection", "s", "s"),
        ("core.TopNCollection.validate", "s", "s"),
        ("metrics.evaluate", "s", "s"), ("metrics.evaluate", "self_s", "s"),
        ("metrics.evaluate", "calls", "count"), ("metrics.evaluate", "users", "count"),
        ("io_utils.split_hash", "s", "s"), ("io_utils.split_hash", "calls", "count"),
    ):
        m[f"{name}.{stat}"] = (get(name, stat), unit)
    rsvd_s = get("recommenders.rsvd_train")
    m["recommenders.rsvd_train.epoch_s"] = (
        ratio(rsvd_s, get("recommenders.rsvd_train", "epochs")), "s")
    m["recommenders.rsvd_train.ratings_per_s"] = (
        ratio(get("recommenders.rsvd_train", "updates"), rsvd_s), "1/s")
    m["recommenders.mf_accuracy_scorer.dense_mb"] = (
        get("recommenders.mf_accuracy_scorer", "dense_bytes_computed") / mib, "MB_computed")
    m["core.oslg.eligible_s"] = (get("core.oslg") - kde_in_oslg
                                 - get("core.oslg", "phase1_s") - get("core.oslg", "phase2_s"), "s")
    m["core.oslg.snapshot_mb"] = (get("core.oslg", "snapshot_bytes_computed") / mib, "MB_computed")
    m["core.oslg.useful_ratio"] = (
        ratio(get("core.oslg", "useful_slots"), get("core.oslg", "candidates_scored")), "ratio")
    m["cli.startup_s"] = (get("cli.startup"), "s")
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = (get(f"cli.{command}", "self_s"), "s")
    return m


def measure(args, workload: Workload, shape: str, work: Path) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup, ratings_digest = set_up(shape, args.seed, work)
    checker = Checker(work)
    passes: list = []
    reference: dict = {}
    loop_start = time.perf_counter()
    while True:
        # In trace mode passes alternate untraced, traced, untraced, ...
        traced = bool(args.trace) and len(passes) % 2 == 1
        trace_id = f"{args.workload}/{shape}/seed{args.seed}/pass{len(passes)}"
        pass_start = time.perf_counter()
        p = run_pass(workload, work, checker, traced, trace_id, deadline)
        passes.append(p)
        if p.ok:
            check_digests(p, checker.digests, reference or checker.digests)
            reference = reference or dict(checker.digests)
        if not p.ok:
            break
        now = time.perf_counter()
        pass_s = now - pass_start
        if now + 1.5 * pass_s > deadline:
            break
        need_traced = args.trace and not any(q.traced for q in passes)
        if not need_traced and now - loop_start + pass_s > args.seconds:
            break
    return {"setup": setup, "ratings_sha256": ratings_digest,
            "passes": passes, "digests": reference}


def stored_reference(key: str, digests: dict) -> dict:
    """Digests of the first complete run of this workload, shape, seed and source."""
    path = RESULTS / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    if digests and key not in store:
        store[key] = digests
        path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return store.get(key, {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=sorted(SHAPES),
                    help="override the workload's data shape (tiny is for the smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "ganc" / "cli.py").is_file():
        print(f"error: {SRC / 'ganc'} not found; run from a ganc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    shape = args.shape or workload.shape
    env = environment(args.seed)
    tag = f"{args.workload}-{shape}-seed{args.seed}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        run = measure(args, workload, shape, work)
    except CheckFailed as exc:  # set-up or the probe itself failed
        print(f"FAILED set-up: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    passes = run["passes"]
    key = f"{args.workload}|{shape}|seed={args.seed}|src={source_digest()}"
    complete = [p for p in passes if p.ok]
    if complete:
        check_digests(complete[-1], run["digests"], stored_reference(key, run["digests"]))
    attempted = sum(len(p.commands) for p in passes)
    failed = sum(not c.ok for p in passes for c in p.commands)
    untraced = [p for p in passes if p.ok and not p.traced]
    traced = [p for p in passes if p.ok and p.traced]

    shown: dict = {}
    if untraced:
        shown = end_to_end(untraced, run["setup"])
        shown["failed_ops"] = (failed / attempted, "ratio")
        shown |= {f"raw.{name}": value for name, value in
                  end_to_end(untraced, run["setup"], raw=True).items() if value[1] == "s"}
    reported = {}
    if args.trace and traced and untraced:
        per_pass = [layer_metrics(p.spans) for p in traced]
        reported = {name: (median(m[name][0] for m in per_pass), unit)
                    for name, (_, unit) in per_pass[0].items()}
        reported["trace.overhead_s"] = (
            median(p.seconds() for p in traced) - shown["pipeline_s"][0], "s")
    elif not args.trace and untraced:
        reported = {name: shown[name] for name in END_TO_END}

    results = {
        "workload": args.workload, "shape": shape, "why": workload.why,
        "trace": args.trace, "seconds": args.seconds, "environment": env,
        "setup": {"wall_s": [c.wall_s for c in run["setup"].commands],
                  "probe_s": run["setup"].probes},
        "ratings_sha256": run["ratings_sha256"],
        "output_sha256": run["digests"],
        "passes": [{"traced": p.traced, "probe_s": p.probes,
                    "commands": [vars(c) for c in p.commands]} for p in passes],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(results, indent=1) + "\n")
    if traced:
        with open(RESULTS / f"{tag}-spans.jsonl", "w") as fh:
            for p in traced:
                fh.writelines(json.dumps(s) + "\n" for s in p.spans)

    print(f"{args.workload} ({shape}, seed {args.seed}): {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {attempted} commands, {failed} failed")
    for name, (value, unit) in (shown | reported).items():
        print(f"  {name:42s} {value:>14.6g} {unit}")
    ok = failed == 0 and bool(reported)
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
