"""Run one ganc CLI command in-process with its layer functions timed.

Usage::

    python3 bench/tracer.py SPANS_JSONL TRACE_ID -- <ganc arguments...>

The checkout's ``src`` directory must be on ``PYTHONPATH`` (``run_bench.py``
sets it). The tracer wraps the public functions named in ``TARGETS`` from
outside the program, replacing every binding of each one in every loaded
``ganc`` module (``cli`` imports ``split_hash`` by name, for example), and
then calls ``ganc.cli.main(argv)`` under a root span ``cli.<command>``.

Each call records a span in memory: name, id, parent id, start and end on
the monotonic clock the benchmark also reads, plus counters taken from the
call's arguments and return value. The spans are written as JSON lines
when the command returns, so file writes never land inside a span.

Only the functions below are wrapped. A hot helper such as
``relevant_test_items`` (tens of thousands of calls per sweep) would
inflate its caller's time, and ``tracemalloc`` would slow ``load_split``
several-fold, so neither is used.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from pathlib import Path

TARGETS = (
    ("dataset", "load_ratings"),
    ("dataset", "load_split"),
    ("dataset", "split_per_user"),
    ("dataset", "save_split"),
    ("dataset", "compute_item_stats"),
    ("preference", "theta_generalized"),
    ("preference", "load_prefs"),
    ("preference", "save_prefs"),
    ("recommenders", "rsvd_train"),
    ("recommenders", "rmse"),
    ("recommenders", "mf_accuracy_scorer"),
    ("recommenders", "load_mf_model"),
    ("recommenders", "pop_scorer"),
    ("recommenders", "PopScorer.top_items"),
    ("core", "oslg"),
    ("core", "kde_sample"),
    ("core", "SnapshotStore.nearest"),
    ("core", "save_collection"),
    ("core", "load_collection"),
    ("core", "TopNCollection.validate"),
    ("metrics", "evaluate"),
    ("io_utils", "split_hash"),
)

# Spans whose growth of the process's peak RSS is recorded.
RSS_SPANS = frozenset({
    "dataset.load_split", "dataset.split_per_user", "recommenders.rsvd_train",
})


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _directory_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def _oslg_counts(run, split, theta, arec, n, s, seed, workers=1,
                 protocol="all_unrated", phase4_order=None):
    sampled = len(run.sampled_users)
    users = run.collection.lists
    if protocol == "all_unrated":
        pools = sum(len(split.items) - len(split.per_user_train_index[u]) for u in users)
    else:
        pools = sum(len(split.per_user_test_index[u]) for u in users)
    return {
        "sampled_users": sampled,
        "phase2_users": len(users) - sampled,
        "phase1_s": run.phase_seconds["sequential"],
        "phase2_s": run.phase_seconds["parallel"],
        "snapshot_bytes_computed": sampled * len(split.items) * 8,
        "candidates_scored": pools,
        "useful_slots": n * len(users),
    }


# Counters read at a boundary: (return value, bound arguments) -> dict.
COUNTERS = {
    "dataset.load_ratings": lambda out, a: {"rows": len(out)},
    "dataset.save_split": lambda out, a: {"bytes": _directory_bytes(a["directory"])},
    "preference.theta_generalized": lambda out, a: {"iterations": out.iterations or 0},
    "recommenders.rsvd_train": lambda out, a: {
        "epochs": a["epochs"], "updates": a["epochs"] * len(a["split"].train)},
    "recommenders.mf_accuracy_scorer": lambda out, a: {
        "dense_bytes_computed": len(a["split"].users) * len(a["split"].items) * 8},
    "core.oslg": lambda out, a: _oslg_counts(out, **a),
    "metrics.evaluate": lambda out, a: {"users": len(a["coll"].lists)},
}


class Tracer:
    """In-memory span recorder; spans nest by the call stack."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        track_rss = name in RSS_SPANS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "id": len(spans), "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            rss0 = _max_rss_mb() if track_rss else 0.0
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if track_rss:
                    span["rss_growth_mb"] = _max_rss_mb() - rss0
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(out, bound.arguments)
            return out

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in the loaded ganc modules."""
        import ganc  # noqa: F401  (imports every submodule the CLI uses)
        import ganc.cli  # noqa: F401

        modules = [m for name, m in list(sys.modules.items())
                   if name == "ganc" or name.startswith("ganc.")]
        for module_name, qualname in TARGETS:
            module = sys.modules[f"ganc.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, vars(cls)[method]))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def dump(self, path, command: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"trace": self.trace_id, "command": command, **span}) + "\n")


def main(argv) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSONL TRACE_ID -- <ganc arguments...>", file=sys.stderr)
        return 1
    spans_path, trace_id, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(trace_id)
    tracer.install()
    import ganc.cli

    command = cli_argv[0]
    code = tracer.wrap(f"cli.{command}", ganc.cli.main)(cli_argv)
    tracer.dump(spans_path, command)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
