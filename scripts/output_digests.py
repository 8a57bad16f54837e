#!/usr/bin/env python3
"""Print one sha256 per artifact of a full ganc pipeline on generated ratings.

Generates an ML-100K-shaped ratings file and a score file for
``--arec external``, then runs split, prefs (the default model and
normalized_longtail) and train-rsvd; recommend with Pop, with RSVD and with
the external scores under both ranking protocols; evaluate on each
collection, with --per-user and at n = 3; recommend with Pop under static
and random coverage, and with RSVD under static coverage and
rated_test_items; one Pop sweep per protocol; and stats. The standard output of
split and stats, which report the long-tail share, is kept as
``split.stdout`` and ``stats.stdout``. Then split and stats run again on a
small generated CSV whose user and item ids need CSV quotes, so the
quoted path of the split writer is hashed too.
Every command runs in this process through ``ganc.cli.main``, so the
``ganc`` on ``PYTHONPATH`` is the one measured. Standard output holds the
digests only: save it from one checkout, and pass it to a run in another
with ``--against`` to show that a change keeps the artifacts
byte-identical. That run prints its own digests, then names on standard
error each artifact whose digest differs, that is missing from its run, or
that is new in it, and exits 1 if there is any::

    PYTHONPATH=src python3 scripts/output_digests.py --work /tmp/digests > parent.txt
    PYTHONPATH=src python3 scripts/output_digests.py --work /tmp/digests --against parent.txt

``phase_seconds`` (wall-clock times) is dropped from run.json and
sweep.json before hashing; every other byte counts.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
from pathlib import Path

from ganc.cli import main as ganc
from ganc.io_utils import write_table
from ganc.synthetic import generate_ratings

TIMED = ("run.json", "sweep.json")  # manifests that record phase_seconds


def run(*argv: str, keep: bool = False) -> None:
    """Run one ganc command; with ``keep``, save its standard output as
    ``<command>.stdout``."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):  # stdout carries the digests only
        code = ganc(list(argv))
    sys.stderr.write(printed.getvalue())
    if keep:
        Path(f"{argv[0]}.stdout").write_text(printed.getvalue())
    if code != 0:
        raise SystemExit(f"ganc {argv[0]} exited {code}")


def write_quoted_ratings(path: str, seed: int) -> None:
    """A small ratings CSV whose ids hold ``,``, ``"``, ``\n`` or ``\r``
    between plain ones: 12 users with 25 of 40 items each."""
    rng = random.Random(seed)
    marks = (",", '"', "\n", "\r", "")
    users = [f"u{marks[k % 5]}{k}" for k in range(12)]
    items = [f"i{marks[k % 5]}{k}" for k in range(40)]
    write_table(path, ("user", "item", "rating"),
                ((u, i, rng.randint(1, 5)) for u in users for i in rng.sample(items, 25)))


def write_external_scores(path: str, users: list, items: list, seed: int) -> None:
    """A ``user,item,score`` file over half the items (at most 100) of every
    user but the first, which gets no pair. Scores are drawn on a grid of
    0.25 from [-1, 4], so a user's scores tie. The first pair comes again
    with another score, and one row names a user and one an item that the
    ratings lack."""
    rng = random.Random(seed)
    rows = [(u, i, rng.randint(-4, 16) / 4)
            for u in users[1:] for i in rng.sample(items, min(len(items) // 2, 100))]
    rows += [(rows[0][0], rows[0][1], 9.5), ("nobody", items[0], 1.0),
             (users[1], "nothing", 2.0)]
    write_table(path, ("user", "item", "score"), rows)


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in TIMED:
        manifest = json.loads(data)
        manifest.pop("phase_seconds", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", required=True, help="scratch directory, emptied first")
    ap.add_argument("--users", type=int, default=943)
    ap.add_argument("--items", type=int, default=1682)
    ap.add_argument("--activity", type=float, default=106.0)
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--epochs", type=int, default=5, help="train-rsvd epochs")
    ap.add_argument("--against", type=Path,
                    help="saved standard output of another run to compare with")
    args = ap.parse_args()
    theirs = None
    if args.against is not None:  # read before the pipeline runs, and before the chdir
        theirs = {}
        for line in args.against.read_text().splitlines():
            if line.strip():
                sha, _, path = line.partition("  ")
                theirs[path] = sha

    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)  # relative paths, so split.json's "source" is the same in any --work
    ratings = generate_ratings(args.users, args.items, seed=args.seed,
                               mean_activity=args.activity)
    write_table("ratings.csv", ("user", "item", "rating"),
                ((r.user_id, r.item_id, r.value) for r in ratings))

    write_external_scores("scores.csv", sorted({r.user_id for r in ratings}),
                          sorted({r.item_id for r in ratings}), args.seed)

    run("split", "--dataset", "ratings.csv", "--format", "csv", "--out", "split", keep=True)
    run("prefs", "--split", "split", "--out", "prefs")
    run("prefs", "--split", "split", "--model", "normalized_longtail", "--out", "prefs-nl")
    run("train-rsvd", "--split", "split", "--g", "20", "--epochs", str(args.epochs),
        "--out", "mf")
    for arec in ("pop", "rsvd", "external"):
        for protocol in ("all_unrated", "rated_test_items"):
            rec = f"rec-{arec}-{protocol}"
            run("recommend", "--split", "split", "--prefs", "prefs", "--arec", arec,
                "--mf", "mf", "--external-scores", "scores.csv", "--n", "5", "--s", "300",
                "--protocol", protocol, "--out", rec)
            run("evaluate", "--split", "split", "--topn", rec, "--per-user",
                "--out", f"eval-{arec}-{protocol}")
            run("evaluate", "--split", "split", "--topn", rec, "--n", "3",
                "--out", f"eval3-{arec}-{protocol}")
    for crec in ("stat", "rand"):
        run("recommend", "--split", "split", "--prefs", "prefs-nl", "--arec", "pop",
            "--crec", crec, "--n", "5", "--out", f"rec-pop-{crec}")
    run("recommend", "--split", "split", "--prefs", "prefs", "--arec", "rsvd", "--mf", "mf",
        "--crec", "stat", "--n", "5", "--protocol", "rated_test_items",
        "--out", "rec-rsvd-stat-rated_test_items")
    for protocol in ("all_unrated", "rated_test_items"):
        run("sweep", "--split", "split", "--prefs", "prefs", "--arec", "pop",
            "--n", "5", "--s-values", "100,500,1000,2000", "--reps", "3",
            "--protocol", protocol, "--out", f"sweep-{protocol}")
    run("stats", "--split", "split", "--out", "stats", keep=True)
    write_quoted_ratings("quoted.csv", args.seed)
    run("split", "--dataset", "quoted.csv", "--format", "csv", "--out", "split-quoted")
    run("stats", "--split", "split-quoted", "--out", "stats-quoted")

    ours = {str(path): digest(path) for path in sorted(p for p in Path().rglob("*")
                                                           if p.is_file())}
    for path, sha in ours.items():
        print(f"{sha}  {path}")
    if theirs is None:
        return 0
    changed = [f"differs: {p}" for p in ours if p in theirs and ours[p] != theirs[p]]
    changed += [f"missing: {p}" for p in theirs if p not in ours]
    changed += [f"new: {p}" for p in ours if p not in theirs]
    for line in changed:
        print(line, file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
