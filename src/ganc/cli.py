"""Command-line pipeline: split, prefs, train-rsvd, recommend, evaluate, sweep, stats.

Every option can also come from a flat ``key = value`` config file passed
with ``--config``; explicit flags win. Artifacts chain by content hash, so a
downstream command refuses inputs produced from a different split. Exit
codes: 0 success, 1 usage, 2 data error, 3 numerical or contract error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import core, dataset, metrics, preference, recommenders
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


@dataclass(frozen=True)
class RunConfig:
    """Full pipeline configuration; each command reads the slice it needs.

    Numeric domains are enforced by the operations the values feed.
    """

    # ingestion and split
    dataset: str | None = None
    format: str = "tab_separated"
    kappa: float = 0.5
    tau: int = 20
    seed: int = 0
    # preference model
    model: str = "generalized"
    lambda1: float = 1.0
    tol: float = 1e-6
    max_iters: int = 100
    constant: float = 0.5
    theta_seed: int = 0
    # factor model
    g: int = 100
    lam: float = 0.05
    eta: float = 0.03
    epochs: int = 30
    mf_seed: int = 0
    # recommendation
    arec: str = "pop"
    crec: str = "dyn"
    pop_n: int | None = None
    external_scores: str | None = None
    # recommend/sweep default to 5; evaluate defaults to the collection's size
    n: int | None = None
    s: int = 500
    run_seed: int = 0
    protocol: str | None = None  # None lets evaluate inherit the run manifest
    # evaluation and sweeps
    beta: float = 0.5
    threshold: float = 4.0
    s_values: str = "100,500,1000,2000"
    reps: int = 10
    bins: int = 20
    per_user: bool = False
    # artifact directories
    split: str | None = None
    prefs: str | None = None
    mf: str | None = None
    topn: str | None = None
    out: str | None = None


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Overlay parsed flag/config values on the RunConfig defaults."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return RunConfig(**overrides)


def parse_config(path) -> dict:
    """Flat ``key = value`` file; '#' starts a comment, dashes equal underscores."""
    out = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _check_split_hash(manifest: dict, split_sha256: str, split_dir, what: str) -> None:
    """Refuse an artifact whose recorded split hash is not ``split_sha256``,
    the hash of the split loaded from ``split_dir``."""
    recorded = manifest.get("split_sha256")
    if recorded is not None and recorded != split_sha256:
        raise StaleArtifactError(
            f"{what} was produced from a different split than {split_dir}")


def _load_split(cfg: RunConfig):
    """(split, its split hash) of ``--split``."""
    split, manifest = dataset.load_split(cfg.split)
    return split, manifest["split_sha256"]


def _load_theta(cfg: RunConfig, split, split_sha256: str):
    """Theta of ``--prefs``, which must hold a value for every user of the split."""
    pv, manifest = preference.load_prefs(cfg.prefs)
    _check_split_hash(manifest, split_sha256, cfg.split, f"prefs at {cfg.prefs}")
    missing = next((u for u in split.users if u not in pv.theta), None)
    if missing is not None:
        raise UnknownIdError(
            f"{Path(cfg.prefs) / 'theta.csv'}: no theta for user {missing!r} of the split")
    return pv


def _build_arec(cfg: RunConfig, split, split_sha256: str, stats, n: int):
    if cfg.arec == "pop":
        return recommenders.pop_scorer(split, stats, n if cfg.pop_n is None else cfg.pop_n)
    if cfg.arec == "rsvd":
        if not cfg.mf:
            raise ValueError("--mf is required with arec=rsvd")
        model, manifest = recommenders.load_mf_model(cfg.mf)
        _check_split_hash(manifest, split_sha256, cfg.split, f"model at {cfg.mf}")
        return recommenders.mf_accuracy_scorer(model, split)
    if cfg.arec == "external":
        if not cfg.external_scores:
            raise ValueError("--external-scores is required with arec=external")
        return recommenders.load_external_scores(cfg.external_scores, split)
    raise ValueError(f"unknown arec {cfg.arec!r}")


def cmd_split(cfg: RunConfig) -> int:
    if not cfg.dataset:
        raise ValueError("--dataset is required")
    ratings = dataset.load_columns(cfg.dataset, cfg.format)
    n_users, n_items = len(ratings.users), len(ratings.items)
    split = dataset.split_per_user(ratings, cfg.kappa, cfg.tau, cfg.seed)
    stats = dataset.compute_item_stats(split)
    dataset.save_split(split, cfg.out, manifest={
        "kappa": cfg.kappa, "tau": cfg.tau, "seed": cfg.seed,
        "format": cfg.format, "source": str(cfg.dataset),
    })
    density = 100.0 * len(ratings) / (n_users * n_items)
    lt_share = 100.0 * len(stats.long_tail) / len(split.items)
    print(f"|D|={len(ratings)} |U|={n_users} |I|={n_items} "
          f"density={density:.2f}% longtail={lt_share:.2f}% "
          f"(train: {len(split.train_columns)} ratings, {len(split.users)} users, "
          f"{len(split.items)} items)")
    return 0


def cmd_prefs(cfg: RunConfig) -> int:
    split, split_sha256 = _load_split(cfg)
    if cfg.model == "activity":
        pv = preference.theta_activity(split)
    elif cfg.model == "normalized_longtail":
        pv = preference.theta_normalized_longtail(split, dataset.compute_item_stats(split))
    elif cfg.model == "tfidf":
        pv = preference.theta_tfidf(split)
    elif cfg.model == "generalized":
        pv = preference.theta_generalized(split, cfg.lambda1, cfg.tol, cfg.max_iters)
    elif cfg.model == "constant":
        pv = preference.theta_baseline(split.users, "constant", c=cfg.constant)
    elif cfg.model == "random":
        pv = preference.theta_baseline(split.users, "random", seed=cfg.theta_seed)
    else:
        raise ValueError(f"unknown preference model {cfg.model!r}")
    preference.save_prefs(pv, cfg.out, manifest={
        "split_sha256": split_sha256,
        "lambda1": cfg.lambda1, "tol": cfg.tol, "max_iters": cfg.max_iters,
        "constant": cfg.constant, "theta_seed": cfg.theta_seed,
    })
    values = np.array(list(pv.theta.values()))
    hist, _ = np.histogram(values, bins=10, range=(0.0, 1.0))
    print(f"model={pv.model} users={len(values)} mean={values.mean():.4f} "
          f"var={values.var():.4f} iterations={pv.iterations} converged={pv.converged}")
    print("histogram[0,1]: " + " ".join(str(int(h)) for h in hist))
    return 0


def cmd_train_rsvd(cfg: RunConfig) -> int:
    split, split_sha256 = _load_split(cfg)
    model = recommenders.rsvd_train(split, cfg.g, cfg.lam, cfg.eta,
                                    cfg.epochs, cfg.mf_seed)
    rmse_train = recommenders.rmse(model, split.train_columns)
    rmse_test = recommenders.rmse(model, split.test_columns) if len(split.test_columns) else None
    recommenders.save_mf_model(model, cfg.out, manifest={
        "split_sha256": split_sha256,
        "lam": cfg.lam, "eta": cfg.eta, "epochs": cfg.epochs,
        "seed": cfg.mf_seed, "rmse_train": rmse_train, "rmse_test": rmse_test,
        "epoch_rmse": list(model.epoch_rmse),
    })
    print(f"g={cfg.g} epochs={cfg.epochs} rmse_train={rmse_train:.4f} "
          f"rmse_test={'n/a' if rmse_test is None else f'{rmse_test:.4f}'}")
    return 0


def cmd_recommend(cfg: RunConfig) -> int:
    split, split_sha256 = _load_split(cfg)
    stats = dataset.compute_item_stats(split)
    pv = _load_theta(cfg, split, split_sha256)
    n = 5 if cfg.n is None else cfg.n
    arec = _build_arec(cfg, split, split_sha256, stats, n)
    protocol = cfg.protocol or "all_unrated"
    phase_seconds = None
    sampled = phase2_users = snapshots_used = snapshot_bytes = None
    if cfg.crec == "dyn":
        # the sample is drawn from the users the protocol keeps
        s = min(cfg.s, len(core.eligible_users(split, n, protocol)))
        run = core.oslg(split, pv, arec, n, s, cfg.run_seed, protocol=protocol)
        coll = run.collection
        phase_seconds = run.phase_seconds
        sampled = len(run.sampled_users)
        phase2_users = run.phase2_users
        snapshots_used = run.snapshots_used
        snapshot_bytes = run.snapshot_bytes
    elif cfg.crec in ("stat", "rand"):
        crec = (recommenders.stat_coverage(stats, split) if cfg.crec == "stat"
                else recommenders.rand_coverage(cfg.run_seed, split))
        coll = core.independent_greedy(split, pv, arec, crec, n, protocol=protocol)
    else:
        raise ValueError(f"unknown crec {cfg.crec!r}")
    coll.validate(split)
    core.save_collection(coll, cfg.out)
    pools = core.candidate_pool_sizes(split, n, protocol)
    template = (f"GANC({AREC_NAME[cfg.arec]}, {THETA_SYMBOL[pv.model]}, "
                f"{CREC_NAME[cfg.crec]})")
    write_json(Path(cfg.out) / "run.json", {
        "template": template,
        "n": n, "s": cfg.s if cfg.crec == "dyn" else None,
        "sampled": sampled,
        "phase2_users": phase2_users,
        "snapshots_used": snapshots_used,
        "snapshot_bytes": snapshot_bytes,
        "candidate_pool": {"total": int(pools.sum()), "min": int(pools.min()),
                           "max": int(pools.max())},
        "seed": cfg.run_seed, "theta_model": pv.model,
        "arec": cfg.arec, "crec": cfg.crec, "protocol": protocol,
        "phase_seconds": phase_seconds,
        "split_sha256": split_sha256,
        "theta_sha256": sha256_file(Path(cfg.prefs) / "theta.csv"),
    })
    print(f"{template} n={n} users={len(coll.lists)} -> {cfg.out}/topn.csv")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    split, split_sha256 = _load_split(cfg)
    stats = dataset.compute_item_stats(split)
    run_manifest = read_json(Path(cfg.topn) / "run.json")
    _check_split_hash(run_manifest, split_sha256, cfg.split, f"collection at {cfg.topn}")
    declared = run_manifest.get("protocol")
    if declared is not None and declared not in core.PROTOCOLS:
        raise ParseError(f"{Path(cfg.topn) / 'run.json'}: protocol must be one of "
                         f"{', '.join(core.PROTOCOLS)}, got {declared!r}")
    coll = core.load_collection(cfg.topn, split)
    coll.validate(split)
    report = metrics.evaluate(
        coll, split, stats, protocol=cfg.protocol or declared or "all_unrated", n=cfg.n,
        beta=cfg.beta, threshold=cfg.threshold, declared_protocol=declared,
        per_user=cfg.per_user,
    )
    report.save(cfg.out)
    print(f"n={report.n} protocol={report.protocol} "
          f"precision={report.precision:.4f} recall={report.recall:.4f} "
          f"f_measure={report.f_measure:.4f} lt_accuracy={report.lt_accuracy:.4f} "
          f"strat_recall={report.strat_recall:.4f} coverage={report.coverage:.4f} "
          f"gini={report.gini:.4f}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    split, split_sha256 = _load_split(cfg)
    stats = dataset.compute_item_stats(split)
    pv = _load_theta(cfg, split, split_sha256)
    n = 5 if cfg.n is None else cfg.n
    arec = _build_arec(cfg, split, split_sha256, stats, n)
    protocol = cfg.protocol or "all_unrated"
    s_values = [int(v) for v in str(cfg.s_values).split(",") if v.strip()]
    if not s_values:
        raise ValueError("s_values must name at least one sample size")
    if cfg.reps < 1:
        raise ValueError(f"reps must be at least 1, got {cfg.reps}")
    eligible = len(core.eligible_users(split, n, protocol))
    rows = []
    # A sample of every eligible user is the whole pool in theta order,
    # whatever the seed, so that run is made once and its report reused.
    reports: dict = {}
    for s in s_values:
        effective = min(s, eligible)  # sample cannot exceed the eligible user count
        agg = {"f_measure": [], "coverage": [], "gini": [], "lt_accuracy": []}
        for rep in range(cfg.reps):
            seed = cfg.run_seed + rep
            key = (effective,) if effective == eligible else (effective, seed)
            if key not in reports:
                run = core.oslg(split, pv, arec, n, effective, seed, protocol=protocol)
                reports[key] = metrics.evaluate(run.collection, split, stats,
                                                protocol=protocol,
                                                beta=cfg.beta, threshold=cfg.threshold)
            for name in agg:
                agg[name].append(getattr(reports[key], name))
        rows.append((s, *(float(np.mean(agg[k])) for k in
                          ("f_measure", "coverage", "gini", "lt_accuracy"))))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "sweep.csv", ("s", "f_measure", "coverage", "gini", "lt_accuracy"),
                ((s, *map(repr, values)) for s, *values in rows))
    for row in rows:
        print(f"s={row[0]} f_measure={row[1]:.4f} coverage={row[2]:.4f} "
              f"gini={row[3]:.4f} lt_accuracy={row[4]:.4f}")
    total = len(s_values) * cfg.reps
    print(f"oslg runs: {len(reports)} made, {total - len(reports)} reused, "
          f"of {total} (eligible users: {eligible})")
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    split, _ = dataset.load_split(cfg.split)
    stats = dataset.compute_item_stats(split)
    profile = dataset.activity_popularity_profile(split, cfg.bins)
    out = Path(cfg.out)
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
    subparsers = {}

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="flat key = value defaults file")
        p.set_defaults(func=func)
        subparsers[name] = p
        return p

    p = add("split", cmd_split, help="split a rating file into train/test")
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=dataset.FORMATS)
    p.add_argument("--kappa", type=float)
    p.add_argument("--tau", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = add("prefs", cmd_prefs, help="estimate per-user long-tail preferences")
    p.add_argument("--split", required=True)
    p.add_argument("--model", choices=preference.MODELS)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--constant", type=float)
    p.add_argument("--theta-seed", type=int)
    p.add_argument("--out", required=True)

    p = add("train-rsvd", cmd_train_rsvd, help="train the SGD factor model")
    p.add_argument("--split", required=True)
    p.add_argument("--g", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--mf-seed", type=int)
    p.add_argument("--out", required=True)

    p = add("recommend", cmd_recommend, help="build top-N collections")
    p.add_argument("--split", required=True)
    p.add_argument("--prefs", required=True)
    p.add_argument("--arec", choices=sorted(AREC_NAME))
    p.add_argument("--mf", help="model directory for arec=rsvd")
    p.add_argument("--external-scores", help="user,item,score CSV for arec=external")
    p.add_argument("--pop-n", type=int, help="cutoff for the Pop scorer (default: n)")
    p.add_argument("--crec", choices=sorted(CREC_NAME))
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--run-seed", type=int)
    p.add_argument("--protocol", choices=core.PROTOCOLS)
    p.add_argument("--out", required=True)

    p = add("evaluate", cmd_evaluate, help="score a collection")
    p.add_argument("--split", required=True)
    p.add_argument("--topn", required=True)
    p.add_argument("--protocol", choices=core.PROTOCOLS)
    p.add_argument("--n", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--per-user", action="store_true", default=None)
    p.add_argument("--out", required=True)

    p = add("sweep", cmd_sweep, help="recommend+evaluate across sample sizes")
    p.add_argument("--split", required=True)
    p.add_argument("--prefs", required=True)
    p.add_argument("--arec", choices=sorted(AREC_NAME))
    p.add_argument("--mf")
    p.add_argument("--external-scores")
    p.add_argument("--pop-n", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--s-values")
    p.add_argument("--reps", type=int)
    p.add_argument("--run-seed", type=int)
    p.add_argument("--protocol", choices=core.PROTOCOLS)
    p.add_argument("--beta", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True)

    p = add("stats", cmd_stats, help="dataset statistics and activity profile")
    p.add_argument("--split", required=True)
    p.add_argument("--bins", type=int)
    p.add_argument("--out", required=True)

    return parser, subparsers


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        known, _ = pre.parse_known_args(argv)
        if known.config:
            config = parse_config(known.config)
            command = next((a for a in argv if not a.startswith("-")), None)
            if command not in subparsers:
                raise ValueError("--config requires a known subcommand")
            target = subparsers[command]
            valid = {a.dest for a in target._actions}
            unknown = set(config) - valid
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            for action in target._actions:
                if action.dest in config:
                    if isinstance(action, argparse._StoreTrueAction):
                        raise ValueError(
                            f"config key {action.dest!r} is a flag-only switch")
                    action.required = False  # the config value satisfies it
            target.set_defaults(**config)
        args = parser.parse_args(argv)
        return args.func(config_from_args(args))
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
