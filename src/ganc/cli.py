"""Command-line pipeline: split, prefs, train-rsvd, recommend, evaluate, sweep, stats.

Options can also come from a flat ``key = value`` config file passed with
``--config``: each key is an option's full name and is read as a flag placed
before the command line's own, so explicit flags win. Artifacts chain by
content hash, so a downstream command refuses inputs produced from a
different split. Exit codes: 0 success, 1 usage, 2 data error, 3 numerical
or contract error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import core, dataset, forked, metrics, preference, recommenders
from .errors import (
    EmptyDatasetError,
    GancError,
    ParseError,
    StaleArtifactError,
    UnknownIdError,
)
from .io_utils import read_json, sha256_file, write_json, write_table

THETA_SYMBOL = {
    "activity": "theta^A",
    "normalized_longtail": "theta^N",
    "tfidf": "theta^T",
    "generalized": "theta^G",
    "constant": "theta^C",
    "random": "theta^R",
}
AREC_NAME = {"pop": "Pop", "rsvd": "RSVD", "external": "External"}
CREC_NAME = {"dyn": "Dyn", "stat": "Stat", "rand": "Rand"}

USAGE_EXIT, DATA_EXIT, COMPUTE_EXIT = 1, 2, 3


def parse_config(path) -> list:
    """A flat ``key = value`` file as the flags ``--key=value``; '#' starts a
    comment, and underscores in a key read as dashes."""
    flags = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, value = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _check_split_hash(manifest: dict, split_sha256: str, split_dir, what: str) -> None:
    """Refuse an artifact whose recorded split hash is not ``split_sha256``,
    the hash of the split loaded from ``split_dir``."""
    recorded = manifest.get("split_sha256")
    if recorded is not None and recorded != split_sha256:
        raise StaleArtifactError(
            f"{what} was produced from a different split than {split_dir}")


def _check_seed(flag: str, seed: int) -> None:
    """numpy's generators take seeds >= 0 only; refuse others by the flag's name."""
    if seed < 0:
        raise ValueError(f"{flag} must be >= 0, got {seed}")


def _load_split(args: argparse.Namespace):
    """(split, its split hash) of ``--split``."""
    split, manifest = dataset.load_split(args.split)
    return split, manifest["split_sha256"]


def _load_theta(args: argparse.Namespace, split, split_sha256: str):
    """Theta of ``--prefs``, which must hold a value for every user of the split."""
    pv, manifest = preference.load_prefs(args.prefs, split)
    _check_split_hash(manifest, split_sha256, args.split, f"prefs at {args.prefs}")
    missing = next((u for u in split.users if u not in pv.theta), None)
    if missing is not None:
        raise UnknownIdError(
            f"{Path(args.prefs) / 'theta.csv'}: no theta for user {missing!r} of the split")
    return pv


def _build_arec(args: argparse.Namespace, split, split_sha256: str, stats):
    if args.arec == "pop":
        flag, n = ("--n", args.n) if args.pop_n is None else ("--pop-n", args.pop_n)
        if not 0 < n <= len(split.items):
            raise ValueError(f"{flag} must be in [1, {len(split.items)}], got {n}")
        return recommenders.pop_scorer(split, stats, n)
    if args.arec == "rsvd":
        if not args.mf:
            raise ValueError("--mf is required with arec=rsvd")
        model, manifest = recommenders.load_mf_model(args.mf)
        _check_split_hash(manifest, split_sha256, args.split, f"model at {args.mf}")
        return recommenders.mf_accuracy_scorer(model, split)
    if args.arec == "external":
        if not args.external_scores:
            raise ValueError("--external-scores is required with arec=external")
        return recommenders.load_external_scores(args.external_scores, split)
    raise ValueError(f"unknown arec {args.arec!r}")


def cmd_split(args: argparse.Namespace) -> int:
    if not args.dataset:
        raise ValueError("--dataset is required")
    ratings = dataset.load_columns(args.dataset, args.format)
    n_users, n_items = len(ratings.users), len(ratings.items)
    split = dataset.split_per_user(ratings, args.kappa, args.tau, args.seed)
    stats = dataset.compute_item_stats(split)
    dataset.save_split(split, args.out, manifest={
        "kappa": args.kappa, "tau": args.tau, "seed": args.seed,
        "format": args.format, "source": str(args.dataset),
    })
    density = 100.0 * len(ratings) / (n_users * n_items)
    lt_share = 100.0 * len(stats.long_tail) / len(split.items)
    print(f"|D|={len(ratings)} |U|={n_users} |I|={n_items} "
          f"density={density:.2f}% longtail={lt_share:.2f}% "
          f"(train: {len(split.train_columns)} ratings, {len(split.users)} users, "
          f"{len(split.items)} items)")
    return 0


def cmd_prefs(args: argparse.Namespace) -> int:
    _check_seed("--theta-seed", args.theta_seed)
    split, split_sha256 = _load_split(args)
    if args.model == "activity":
        pv = preference.theta_activity(split)
    elif args.model == "normalized_longtail":
        pv = preference.theta_normalized_longtail(split, dataset.compute_item_stats(split))
    elif args.model == "tfidf":
        pv = preference.theta_tfidf(split)
    elif args.model == "generalized":
        pv = preference.theta_generalized(split, args.lambda1, args.tol, args.max_iters)
    elif args.model == "constant":
        pv = preference.theta_baseline(split.users, "constant", c=args.constant)
    elif args.model == "random":
        pv = preference.theta_baseline(split.users, "random", seed=args.theta_seed)
    else:
        raise ValueError(f"unknown preference model {args.model!r}")
    preference.save_prefs(pv, args.out, manifest={
        "split_sha256": split_sha256,
        "lambda1": args.lambda1, "tol": args.tol, "max_iters": args.max_iters,
        "constant": args.constant, "theta_seed": args.theta_seed,
    })
    values = np.array(list(pv.theta.values()))
    hist, _ = np.histogram(values, bins=10, range=(0.0, 1.0))
    print(f"model={pv.model} users={len(values)} mean={values.mean():.4f} "
          f"var={values.var():.4f} iterations={pv.iterations} converged={pv.converged}")
    print("histogram[0,1]: " + " ".join(str(int(h)) for h in hist))
    return 0


def cmd_train_rsvd(args: argparse.Namespace) -> int:
    _check_seed("--mf-seed", args.mf_seed)
    split, split_sha256 = _load_split(args)
    model = recommenders.rsvd_train(split, args.g, args.lam, args.eta,
                                    args.epochs, args.mf_seed)
    rmse_train = recommenders.rmse(model, split.train_columns)
    rmse_test = recommenders.rmse(model, split.test_columns) if len(split.test_columns) else None
    recommenders.save_mf_model(model, args.out, manifest={
        "split_sha256": split_sha256,
        "lam": args.lam, "eta": args.eta, "epochs": args.epochs,
        "seed": args.mf_seed, "rmse_train": rmse_train, "rmse_test": rmse_test,
        "epoch_rmse": list(model.epoch_rmse),
    })
    print(f"g={args.g} epochs={args.epochs} rmse_train={rmse_train:.4f} "
          f"rmse_test={'n/a' if rmse_test is None else f'{rmse_test:.4f}'}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    _check_seed("--run-seed", args.run_seed)
    split, split_sha256 = _load_split(args)
    stats = dataset.compute_item_stats(split)
    pv = _load_theta(args, split, split_sha256)
    arec = _build_arec(args, split, split_sha256, stats)
    phase_seconds = sampled = phase2_users = snapshots_used = None
    if args.crec == "dyn":
        # the sample is drawn from the users the protocol keeps
        s = min(args.s, len(core.eligible_users(split, args.n, args.protocol)))
        run = core.oslg(split, pv, arec, args.n, s, args.run_seed, protocol=args.protocol)
        coll = run.collection
        phase_seconds = run.phase_seconds
        sampled = len(run.sampled_users)
        phase2_users = run.phase2_users
        snapshots_used = run.snapshots_used
    elif args.crec in ("stat", "rand"):
        crec = (recommenders.stat_coverage(stats, split) if args.crec == "stat"
                else recommenders.rand_coverage(args.run_seed, split))
        coll = core.independent_greedy(split, pv, arec, crec, args.n, protocol=args.protocol)
    else:
        raise ValueError(f"unknown crec {args.crec!r}")
    coll.validate(split)
    core.save_collection(coll, args.out)
    pools = core.candidate_pool_sizes(split, args.n, args.protocol)
    template = (f"GANC({AREC_NAME[args.arec]}, {THETA_SYMBOL[pv.model]}, "
                f"{CREC_NAME[args.crec]})")
    write_json(Path(args.out) / "run.json", {
        "template": template,
        "n": args.n, "s": args.s if args.crec == "dyn" else None,
        "sampled": sampled,
        "phase2_users": phase2_users,
        "snapshots_used": snapshots_used,
        "candidate_pool": {"total": int(pools.sum()), "min": int(pools.min()),
                           "max": int(pools.max())},
        "seed": args.run_seed, "theta_model": pv.model,
        "arec": args.arec, "crec": args.crec, "protocol": args.protocol,
        "phase_seconds": phase_seconds,
        "split_sha256": split_sha256,
        "theta_sha256": sha256_file(Path(args.prefs) / "theta.csv"),
    })
    print(f"{template} n={args.n} users={len(coll.lists)} -> {args.out}/topn.csv")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    split, split_sha256 = _load_split(args)
    stats = dataset.compute_item_stats(split)
    run_manifest = read_json(Path(args.topn) / "run.json")
    _check_split_hash(run_manifest, split_sha256, args.split, f"collection at {args.topn}")
    declared = run_manifest.get("protocol")
    if declared is not None and declared not in core.PROTOCOLS:
        raise ParseError(f"{Path(args.topn) / 'run.json'}: protocol must be one of "
                         f"{', '.join(core.PROTOCOLS)}, got {declared!r}")
    coll = core.load_collection(args.topn, split)
    coll.validate(split)
    report = metrics.evaluate(
        coll, split, stats, protocol=args.protocol or declared or "all_unrated", n=args.n,
        beta=args.beta, threshold=args.threshold, declared_protocol=declared,
        per_user=args.per_user,
    )
    report.save(args.out)
    print(f"n={report.n} protocol={report.protocol} "
          f"precision={report.precision:.4f} recall={report.recall:.4f} "
          f"f_measure={report.f_measure:.4f} lt_accuracy={report.lt_accuracy:.4f} "
          f"strat_recall={report.strat_recall:.4f} coverage={report.coverage:.4f} "
          f"gini={report.gini:.4f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # every value is checked before the first OSLG run
    try:
        s_values = [int(v) for v in args.s_values.split(",") if v.strip()]
    except ValueError:
        s_values = []
    if not s_values or min(s_values) < 1:
        raise ValueError(f"--s-values must be comma-separated sample sizes >= 1, "
                         f"got {args.s_values!r}")
    if args.reps < 1:
        raise ValueError(f"reps must be at least 1, got {args.reps}")
    _check_seed("--run-seed", args.run_seed)
    metrics.check_beta_threshold(args.beta, args.threshold)
    split, split_sha256 = _load_split(args)
    stats = dataset.compute_item_stats(split)
    pv = _load_theta(args, split, split_sha256)
    arec = _build_arec(args, split, split_sha256, stats)
    eligible = len(core.eligible_users(split, args.n, args.protocol))
    # (sample size, seed) per s-value and rep; the sample cannot exceed the
    # eligible user count. A sample of every eligible user is the whole pool
    # in theta order, whatever the seed, so that run is made once and reused.
    grid = [[(min(s, eligible), args.run_seed + (rep if s < eligible else 0))
             for rep in range(args.reps)] for s in s_values]
    keys = list(dict.fromkeys(key for row in grid for key in row))

    def make(key):
        run = core.oslg(split, pv, arec, args.n, *key, protocol=args.protocol)
        return run.phase_seconds, metrics.evaluate(run.collection, split, stats,
                                                   protocol=args.protocol,
                                                   beta=args.beta, threshold=args.threshold)

    # the split's lazy caches are filled once, before the runs share them
    split.train_csr
    split.relevant_keys(args.threshold)
    split.relevant_weight_total(args.beta, args.threshold)
    processes = min(forked.usable_cpus(), len(keys))
    made = dict(zip(keys, forked.fork_map(make, keys, processes)))
    phase_seconds = {"sequential": 0.0, "parallel": 0.0}  # summed over the runs made
    for seconds, _ in made.values():
        for phase, value in seconds.items():
            phase_seconds[phase] += value
    rows = [(s, *(float(np.mean([getattr(made[key][1], name) for key in row]))
                  for name in ("f_measure", "coverage", "gini", "lt_accuracy")))
            for s, row in zip(s_values, grid)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "sweep.csv", ("s", "f_measure", "coverage", "gini", "lt_accuracy"),
                ((s, *map(repr, values)) for s, *values in rows))
    total = len(s_values) * args.reps
    reused = total - len(keys)
    write_json(out / "sweep.json", {
        "arec": args.arec, "protocol": args.protocol, "n": args.n,
        "pop_n": arec.n if args.arec == "pop" else None,
        "s_values": s_values, "reps": args.reps, "run_seed": args.run_seed,
        "beta": args.beta, "threshold": args.threshold, "eligible": eligible,
        "runs": {"made": len(keys), "reused": reused},
        "phase_seconds": phase_seconds,
        "split_sha256": split_sha256,
        "theta_sha256": sha256_file(Path(args.prefs) / "theta.csv"),
    })
    for row in rows:
        print(f"s={row[0]} f_measure={row[1]:.4f} coverage={row[2]:.4f} "
              f"gini={row[3]:.4f} lt_accuracy={row[4]:.4f}")
    print(f"oslg runs: {len(keys)} made, {reused} reused, of {total} "
          f"(eligible users: {eligible}) in {processes} "
          f"process{'es' if processes > 1 else ''}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    split, _ = dataset.load_split(args.split)
    stats = dataset.compute_item_stats(split)
    profile = dataset.activity_popularity_profile(split, args.bins)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "profile.csv", ("bin_center", "mean_avg_popularity"),
                (map(repr, row) for row in profile))
    lt_share = 100.0 * len(stats.long_tail) / len(split.items)
    print(f"train: {len(split.train_columns)} ratings, {len(split.users)} users, "
          f"{len(split.items)} items, longtail={lt_share:.2f}% "
          f"(profile: {len(profile)} occupied bins)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ganc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}  # subcommand -> the function that runs it

    def add(name, func, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.add_argument("--config", help="flat key = value file of flags; flags given here win")
        p.add_argument("--out", required=True)
        commands[name] = func
        return p

    p = add("split", cmd_split, help="split a rating file into train/test")
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=dataset.FORMATS, default="tab_separated")
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--tau", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("prefs", cmd_prefs, help="estimate per-user long-tail preferences")
    p.add_argument("--split", required=True)
    p.add_argument("--model", choices=preference.MODELS, default="generalized")
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--constant", type=float, default=0.5)
    p.add_argument("--theta-seed", type=int, default=0)

    p = add("train-rsvd", cmd_train_rsvd, help="train the SGD factor model")
    p.add_argument("--split", required=True)
    p.add_argument("--g", type=int, default=100)
    p.add_argument("--lam", type=float, default=0.05)
    p.add_argument("--eta", type=float, default=0.03)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--mf-seed", type=int, default=0)

    # the options recommend and sweep share: the GANC(arec, theta, .) inputs
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shared.add_argument("--split", required=True)
    shared.add_argument("--prefs", required=True)
    shared.add_argument("--arec", choices=sorted(AREC_NAME), default="pop")
    shared.add_argument("--mf", help="model directory for arec=rsvd")
    shared.add_argument("--external-scores", help="user,item,score CSV for arec=external")
    shared.add_argument("--pop-n", type=int, help="cutoff for the Pop scorer (default: n)")
    shared.add_argument("--n", type=int, default=5)
    shared.add_argument("--run-seed", type=int, default=0)
    shared.add_argument("--protocol", choices=core.PROTOCOLS, default="all_unrated")

    p = add("recommend", cmd_recommend, parents=[shared], help="build top-N collections")
    p.add_argument("--crec", choices=sorted(CREC_NAME), default="dyn")
    p.add_argument("--s", type=int, default=500)

    p = add("evaluate", cmd_evaluate, help="score a collection")
    p.add_argument("--split", required=True)
    p.add_argument("--topn", required=True)
    # unset, n is the collection's size and the protocol is run.json's
    p.add_argument("--protocol", choices=core.PROTOCOLS)
    p.add_argument("--n", type=int)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=4.0)
    p.add_argument("--per-user", action="store_true")

    p = add("sweep", cmd_sweep, parents=[shared],
            help="recommend+evaluate across sample sizes")
    p.add_argument("--s-values", default="100,500,1000,2000")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=4.0)

    p = add("stats", cmd_stats, help="dataset statistics and activity profile")
    p.add_argument("--split", required=True)
    p.add_argument("--bins", type=int, default=20)

    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        known, _ = pre.parse_known_args(argv)
        if known.config:
            command = next((k for k, a in enumerate(argv) if not a.startswith("-")), None)
            if command is None or argv[command] not in commands:
                raise ValueError("--config requires a known subcommand")
            # the file's flags go first, so the command line's own win
            argv[command + 1:command + 1] = parse_config(known.config)
        args = parser.parse_args(argv)
        return commands[args.command](args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else USAGE_EXIT
        return USAGE_EXIT if code != 0 else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, EmptyDatasetError, StaleArtifactError,
            UnknownIdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except GancError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_EXIT


if __name__ == "__main__":
    sys.exit(main())
