"""End-to-end CLI runs over a small synthetic dataset."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import ganc
import ganc.io_utils
from ganc.cli import main
from ganc.core import PROTOCOLS, eligible_users, load_collection, oslg
from ganc.dataset import compute_item_stats, load_split, save_split
from ganc.errors import InfeasibleError
from ganc.io_utils import read_json, sha256_file
from ganc.metrics import evaluate
from ganc.preference import load_prefs
from ganc.recommenders import load_external_scores, load_mf_model, pop_scorer
from ganc.synthetic import generate_ratings

from conftest import a_usable_cpu, assert_no_child_left, build_split
from oracles import unseen_items


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ratings.csv"
    ratings = generate_ratings(n_users=80, n_items=160, seed=21)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "item", "rating"])
        for r in ratings:
            w.writerow([r.user_id, r.item_id, r.value])
    return path


@pytest.fixture(scope="module")
def split_dir(dataset_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "split"
    code = main(["split", "--dataset", str(dataset_csv), "--format", "csv",
                 "--kappa", "0.5", "--tau", "20", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def prefs_dir(split_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "prefs"
    code = main(["prefs", "--split", str(split_dir), "--model", "generalized",
                 "--out", str(out)])
    assert code == 0
    return out


class TestSplit:
    def test_artifacts_exist(self, split_dir):
        assert (split_dir / "train.csv").exists()
        assert (split_dir / "test.csv").exists()
        manifest = read_json(split_dir / "split.json")
        assert manifest["kappa"] == 0.5 and manifest["tau"] == 20

    def test_rerun_is_byte_identical(self, dataset_csv, split_dir, tmp_path):
        out = tmp_path / "again"
        assert main(["split", "--dataset", str(dataset_csv), "--format", "csv",
                     "--kappa", "0.5", "--tau", "20", "--seed", "0",
                     "--out", str(out)]) == 0
        assert (out / "train.csv").read_bytes() == (split_dir / "train.csv").read_bytes()
        assert (out / "test.csv").read_bytes() == (split_dir / "test.csv").read_bytes()

    def test_missing_file_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "never"
        code = main(["split", "--dataset", str(tmp_path / "nope.csv"),
                     "--format", "csv", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_bad_kappa_exits_1(self, dataset_csv, tmp_path):
        code = main(["split", "--dataset", str(dataset_csv), "--format", "csv",
                     "--kappa", "1.5", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_timestamp_outside_int64_exits_2(self, tmp_path, capsys):
        data = tmp_path / "ratings.csv"
        data.write_text("user,item,rating,timestamp\n1,a,3,9223372036854775807\n"
                        "2,b,4,9223372036854775808\n")
        out = tmp_path / "split"
        assert main(["split", "--dataset", str(data), "--format", "csv",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {data}:3: bad timestamp '9223372036854775808'\n"
        assert not out.exists()


class TestPrefs:
    def test_generalized_converges(self, prefs_dir):
        manifest = read_json(prefs_dir / "prefs.json")
        assert manifest["converged"] is True
        assert manifest["iterations"] <= 100
        assert (prefs_dir / "weights.csv").exists()

    def test_constant_writes_constant(self, split_dir, tmp_path):
        out = tmp_path / "const"
        assert main(["prefs", "--split", str(split_dir), "--model", "constant",
                     "--constant", "0.5", "--out", str(out)]) == 0
        with open(out / "theta.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(float(v) == 0.5 for _, v in rows)

    def test_tfidf_equals_generalized_zero_iters(self, split_dir, tmp_path):
        a = tmp_path / "tfidf"
        b = tmp_path / "gen0"
        assert main(["prefs", "--split", str(split_dir), "--model", "tfidf",
                     "--out", str(a)]) == 0
        assert main(["prefs", "--split", str(split_dir), "--model", "generalized",
                     "--max-iters", "0", "--out", str(b)]) == 0
        assert (a / "theta.csv").read_bytes() == (b / "theta.csv").read_bytes()

    def test_manifest_records_theta_deltas(self, prefs_dir):
        manifest = read_json(prefs_dir / "prefs.json")
        deltas = manifest["theta_deltas"]
        assert len(deltas) == manifest["iterations"] > 0
        assert manifest["converged"] and deltas[-1] < manifest["tol"]
        assert all(d >= 0 for d in deltas)

    def test_unknown_model_exits_1(self, split_dir, tmp_path):
        assert main(["prefs", "--split", str(split_dir), "--model", "psychic",
                     "--out", str(tmp_path / "x")]) == 1

    def test_weights_past_the_float_range_exit_3(self, split_dir, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "prefs"
        assert main(["prefs", "--split", str(split_dir), "--lambda1", "1e308",
                     "--out", str(out)]) == 3
        assert "lambda1 is too far from 1" in _one_error_line(capsys)
        assert not (out / "prefs.json").exists()


@pytest.fixture(scope="module")
def rec_dir(split_dir, prefs_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "rec"
    code = main(["recommend", "--split", str(split_dir), "--prefs",
                 str(prefs_dir), "--arec", "pop", "--crec", "dyn",
                 "--n", "5", "--s", "30", "--run-seed", "0",
                 "--out", str(out)])
    assert code == 0
    return out


def _rated_cutoffs(split_dir):
    """(n keeping some but not all users, n keeping none) under rated_test_items."""
    split, _ = load_split(split_dir)
    counts = sorted(len(split.per_user_test_index[u]) for u in split.users)
    n_some = counts[len(counts) // 2]
    eligible = sum(c >= n_some for c in counts)
    assert 0 < eligible < len(counts)
    return n_some, eligible, counts[-1] + 1


class TestRecommendEvaluate:
    def test_manifest_records_template(self, split_dir, rec_dir):
        manifest = read_json(rec_dir / "run.json")
        assert manifest["template"] == "GANC(Pop, theta^G, Dyn)"
        assert manifest["phase_seconds"] is not None
        assert manifest["split_sha256"]
        assert manifest["sampled"] == 30
        assert manifest["phase2_users"] == 80 - 30  # every user is eligible
        assert 1 <= manifest["snapshots_used"] <= 30
        split, _ = load_split(split_dir)
        assert "snapshot_bytes" not in manifest  # phase two holds no coverage of its own
        pools = [len(unseen_items(split, u)) for u in split.users]
        assert manifest["candidate_pool"] == {
            "total": sum(pools), "min": min(pools), "max": max(pools)}

    def test_determinism_across_reruns(self, split_dir, prefs_dir, rec_dir, tmp_path):
        out = tmp_path / "again"
        assert main(["recommend", "--split", str(split_dir), "--prefs",
                     str(prefs_dir), "--arec", "pop", "--crec", "dyn",
                     "--n", "5", "--s", "30", "--run-seed", "0",
                     "--out", str(out)]) == 0
        assert (out / "topn.csv").read_bytes() == (rec_dir / "topn.csv").read_bytes()
        assert "workers" not in read_json(out / "run.json")

    def test_rsvd_without_model_dir_exits_1(self, split_dir, prefs_dir, tmp_path):
        assert main(["recommend", "--split", str(split_dir), "--prefs",
                     str(prefs_dir), "--arec", "rsvd", "--crec", "stat",
                     "--n", "5", "--out", str(tmp_path / "x")]) == 1

    def test_stat_crec_with_zero_theta_matches_pop(self, split_dir, tmp_path):
        prefs = tmp_path / "zero"
        assert main(["prefs", "--split", str(split_dir), "--model", "constant",
                     "--constant", "0.0", "--out", str(prefs)]) == 0
        out = tmp_path / "rec"
        assert main(["recommend", "--split", str(split_dir), "--prefs", str(prefs),
                     "--arec", "pop", "--crec", "stat", "--n", "5",
                     "--out", str(out)]) == 0
        report_dir = tmp_path / "eval"
        assert main(["evaluate", "--split", str(split_dir), "--topn", str(out),
                     "--out", str(report_dir)]) == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert report["lt_accuracy"] <= 0.2  # popular items dominate

    def test_evaluate_writes_report(self, split_dir, rec_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", "--split", str(split_dir), "--topn", str(rec_dir),
                     "--per-user", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"n", "protocol", "precision", "recall", "f_measure",
                               "lt_accuracy", "strat_recall", "coverage", "gini"}
        assert (out / "per_user.csv").exists()

    def test_stale_split_rejected(self, dataset_csv, rec_dir, tmp_path):
        other_split = tmp_path / "split2"
        assert main(["split", "--dataset", str(dataset_csv), "--format", "csv",
                     "--kappa", "0.5", "--tau", "20", "--seed", "9",
                     "--out", str(other_split)]) == 0
        code = main(["evaluate", "--split", str(other_split), "--topn",
                     str(rec_dir), "--out", str(tmp_path / "eval")])
        assert code == 2

    def test_tampered_collection_rejected(self, split_dir, rec_dir, tmp_path):
        bad = tmp_path / "bad-rec"
        bad.mkdir()
        rows = (rec_dir / "topn.csv").read_text().splitlines()
        rows[1] = rows[1].rsplit(",", 1)[0] + ",bogus-item"
        (bad / "topn.csv").write_text("\n".join(rows) + "\n")
        (bad / "run.json").write_text((rec_dir / "run.json").read_text())
        code = main(["evaluate", "--split", str(split_dir), "--topn", str(bad),
                     "--out", str(tmp_path / "eval")])
        assert code == 3

    def test_protocol_mismatch_rejected(self, split_dir, rec_dir, tmp_path):
        code = main(["evaluate", "--split", str(split_dir), "--topn", str(rec_dir),
                     "--protocol", "rated_test_items",
                     "--out", str(tmp_path / "eval")])
        assert code == 3

    def test_rsvd_pipeline(self, split_dir, prefs_dir, tmp_path):
        mf = tmp_path / "mf"
        assert main(["train-rsvd", "--split", str(split_dir), "--g", "8",
                     "--lam", "0.05", "--eta", "0.03", "--epochs", "4",
                     "--out", str(mf)]) == 0
        manifest = read_json(mf / "mf.json")
        assert manifest["rmse_test"] is not None
        assert len(manifest["epoch_rmse"]) == 4
        assert all(v > 0 for v in manifest["epoch_rmse"])
        out = tmp_path / "rec"
        assert main(["recommend", "--split", str(split_dir), "--prefs",
                     str(prefs_dir), "--arec", "rsvd", "--mf", str(mf),
                     "--crec", "rand", "--n", "5", "--out", str(out)]) == 0
        manifest = read_json(out / "run.json")
        assert manifest["template"] == "GANC(RSVD, theta^G, Rand)"

    def test_rated_protocol_clips_sample_to_eligible_users(self, split_dir, prefs_dir,
                                                            tmp_path):
        n, eligible, _ = _rated_cutoffs(split_dir)
        out = tmp_path / "rec"
        assert main(["recommend", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--n", str(n), "--s", "5000",
                     "--protocol", "rated_test_items", "--out", str(out)]) == 0
        manifest = read_json(out / "run.json")
        assert manifest["sampled"] == eligible
        assert manifest["phase2_users"] == 0
        split, _ = load_split(split_dir)
        pools = [len(split.per_user_test_index[u]) for u in split.users
                 if len(split.per_user_test_index[u]) >= n]
        assert manifest["candidate_pool"] == {
            "total": sum(pools), "min": min(pools), "max": max(pools)}
        with open(out / "topn.csv") as fh:
            assert len({row[0] for row in list(csv.reader(fh))[1:]}) == eligible

    def test_rated_protocol_without_eligible_users_exits_3(self, split_dir, prefs_dir,
                                                           tmp_path, capsys):
        _, _, n_none = _rated_cutoffs(split_dir)
        assert main(["recommend", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--n", str(n_none), "--pop-n", "5",
                     "--protocol", "rated_test_items", "--out", str(tmp_path / "rec")]) == 3
        err = capsys.readouterr().err
        assert f"n={n_none}" in err and "rated_test_items" in err

    def test_pop_without_n_uses_default(self, split_dir, prefs_dir, tmp_path):
        out = tmp_path / "rec"
        assert main(["recommend", "--split", str(split_dir), "--prefs",
                     str(prefs_dir), "--arec", "pop", "--crec", "dyn",
                     "--s", "30", "--out", str(out)]) == 0
        assert read_json(out / "run.json")["n"] == 5

    def test_ids_with_leading_zeros_and_letters(self, tmp_path):
        # "007" must reload as "007", not 7, in every artifact
        data = tmp_path / "ratings.csv"
        users = ["007", "abc", "010", "u9"]
        items = ["001", "002", "x3", "04", "5", "i6"]
        rows = [f"{u},{i},{1 + (k + j) % 5}"
                for k, u in enumerate(users) for j, i in enumerate(items)]
        data.write_text("user,item,rating\n" + "\n".join(rows) + "\n")
        split, prefs, rec = tmp_path / "split", tmp_path / "prefs", tmp_path / "rec"
        assert main(["split", "--dataset", str(data), "--format", "csv",
                     "--tau", "2", "--out", str(split)]) == 0
        assert main(["prefs", "--split", str(split), "--out", str(prefs)]) == 0
        assert main(["recommend", "--split", str(split), "--prefs", str(prefs),
                     "--arec", "pop", "--n", "1", "--s", "2",
                     "--out", str(rec)]) == 0
        with open(rec / "topn.csv") as fh:
            listed = {row[0] for row in list(csv.reader(fh))[1:]}
        assert listed == set(users)

    def test_zero_padded_and_plain_ids_stay_distinct(self, tmp_path):
        # "007" and "7" are two users through split, prefs, recommend and
        # evaluate; no rating of either is merged away
        data = tmp_path / "ratings.csv"
        users, items = ["007", "7", "8"], [str(i) for i in range(1, 9)]
        rows = [f"{u},{i},{1 + (k + j) % 5}"
                for k, u in enumerate(users) for j, i in enumerate(items)]
        data.write_text("user,item,rating\n" + "\n".join(rows) + "\n")
        split, prefs, rec = tmp_path / "split", tmp_path / "prefs", tmp_path / "rec"
        assert main(["split", "--dataset", str(data), "--format", "csv",
                     "--tau", "2", "--out", str(split)]) == 0
        manifest = read_json(split / "split.json")
        assert manifest["n_users"] == 3
        assert manifest["n_train"] + manifest["n_test"] == len(rows)
        assert main(["prefs", "--split", str(split), "--out", str(prefs)]) == 0
        with open(prefs / "theta.csv") as fh:
            assert {row[0] for row in list(csv.reader(fh))[1:]} == set(users)
        assert main(["recommend", "--split", str(split), "--prefs", str(prefs),
                     "--arec", "pop", "--n", "1", "--s", "2",
                     "--out", str(rec)]) == 0
        with open(rec / "topn.csv") as fh:
            assert {row[0] for row in list(csv.reader(fh))[1:]} == set(users)
        assert main(["evaluate", "--split", str(split), "--topn", str(rec),
                     "--out", str(tmp_path / "eval")]) == 0

    def test_evaluate_reads_int_like_items_of_a_mixed_column(self, tmp_path):
        # items "x0", "1" ... "39" are all string ids; every user rated "x0"
        # in train, so the valid topn.csv lists only int-like items
        train = [(u, "x0", 3) for u in range(1, 11)]
        train += [(u, str(i), 1 + (u + i) % 5)
                  for u in range(1, 11) for i in range(1, 40) if (u + i) % 3 == 0]
        test = [(u, str(i), 1 + (u * i) % 5)
                for u in range(1, 11) for i in range(1, 40) if (u + i) % 3 == 1]
        split, prefs, rec = tmp_path / "split", tmp_path / "prefs", tmp_path / "rec"
        save_split(build_split(train, test), split)
        assert main(["prefs", "--split", str(split), "--out", str(prefs)]) == 0
        assert main(["recommend", "--split", str(split), "--prefs", str(prefs),
                     "--arec", "pop", "--crec", "stat", "--n", "2",
                     "--out", str(rec)]) == 0
        with open(rec / "topn.csv") as fh:
            assert all(row[2].isdigit() for row in list(csv.reader(fh))[1:])
        assert main(["evaluate", "--split", str(split), "--topn", str(rec),
                     "--out", str(tmp_path / "eval")]) == 0

    def test_external_scores_pipeline(self, split_dir, prefs_dir, tmp_path):
        scores = tmp_path / "scores.csv"
        with open(split_dir / "train.csv") as fh:
            users = sorted({row[0] for row in list(csv.reader(fh))[1:]})
        with open(split_dir / "train.csv") as fh:
            items = sorted({row[1] for row in list(csv.reader(fh))[1:]})
        with open(scores, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user", "item", "score"])
            for k, u in enumerate(users):
                for j, i in enumerate(items[:10]):
                    w.writerow([u, i, (k * 7 + j * 3) % 11])
        out = tmp_path / "rec"
        assert main(["recommend", "--split", str(split_dir), "--prefs",
                     str(prefs_dir), "--arec", "external",
                     "--external-scores", str(scores), "--crec", "stat",
                     "--n", "3", "--out", str(out)]) == 0


class TestSweep:
    def test_rows_and_clamping(self, split_dir, prefs_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--n", "5", "--s-values", "10,40,5000",
                     "--reps", "2", "--run-seed", "0", "--out", str(out)])
        assert code == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "f_measure", "coverage", "gini", "lt_accuracy"]
        assert [r[0] for r in rows[1:]] == ["10", "40", "5000"]

    def test_rated_protocol_clips_sample_to_eligible_users(self, split_dir, prefs_dir,
                                                            tmp_path):
        n, eligible, n_none = _rated_cutoffs(split_dir)
        out = tmp_path / "sweep"
        assert main(["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--n", str(n), "--s-values", f"{eligible},5000",
                     "--reps", "1", "--protocol", "rated_test_items",
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == [str(eligible), "5000"]
        assert rows[0][1:] == rows[1][1:]  # both run the full eligible sample
        assert main(["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--n", str(n_none), "--pop-n", "5",
                     "--s-values", "10", "--reps", "1", "--protocol", "rated_test_items",
                     "--out", str(tmp_path / "none")]) == 3

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_matches_one_run_per_sample_size_and_rep(self, split_dir, prefs_dir, tmp_path,
                                                     capsys, protocol):
        # s below, equal to and above the eligible count; the last two clip
        # to the same full sample, which sweep makes once and reuses
        n = 5 if protocol == "all_unrated" else _rated_cutoffs(split_dir)[0]
        split, _ = load_split(split_dir)
        stats = compute_item_stats(split)
        theta, _ = load_prefs(prefs_dir)
        arec = pop_scorer(split, stats, n)
        eligible = len(eligible_users(split, n, protocol))
        s_values, reps, run_seed = [eligible // 2, eligible, eligible + 7], 3, 4
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "f_measure", "coverage", "gini", "lt_accuracy"])
            for s in s_values:
                reports = [evaluate(oslg(split, theta, arec, n, min(s, eligible),
                                         run_seed + rep, protocol=protocol).collection,
                                    split, stats, protocol=protocol)
                           for rep in range(reps)]
                w.writerow([s] + [repr(float(np.mean([getattr(r, k) for r in reports])))
                                  for k in ("f_measure", "coverage", "gini", "lt_accuracy")])
        capsys.readouterr()
        out = tmp_path / "sweep"
        assert main(["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--n", str(n),
                     "--s-values", ",".join(map(str, s_values)), "--reps", str(reps),
                     "--run-seed", str(run_seed), "--protocol", protocol,
                     "--out", str(out)]) == 0
        assert (out / "sweep.csv").read_bytes() == want.read_bytes()
        assert (f"oslg runs: {reps + 1} made, {2 * reps - 1} reused, of {3 * reps} "
                f"(eligible users: {eligible})") in capsys.readouterr().out
        manifest = read_json(out / "sweep.json")
        phases = manifest.pop("phase_seconds")
        assert sorted(phases) == ["parallel", "sequential"]
        assert all(v >= 0 for v in phases.values())
        assert manifest == {
            "arec": "pop", "pop_n": n, "protocol": protocol, "n": n, "s_values": s_values,
            "reps": reps, "run_seed": run_seed, "beta": 0.5, "threshold": 4.0,
            "eligible": eligible, "runs": {"made": reps + 1, "reused": 2 * reps - 1},
            "split_sha256": load_split(split_dir)[1]["split_sha256"],
            "theta_sha256": sha256_file(prefs_dir / "theta.csv"),
        }

    def test_pop_without_n_uses_default(self, split_dir, prefs_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--s-values", "10", "--reps", "1",
                     "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_single_value_matches_manual_average(self, split_dir, prefs_dir, tmp_path):
        out = tmp_path / "sweep1"
        assert main(["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--n", "5", "--s-values", "20",
                     "--reps", "1", "--run-seed", "3", "--out", str(out)]) == 0
        rec = tmp_path / "rec"
        assert main(["recommend", "--split", str(split_dir), "--prefs",
                     str(prefs_dir), "--arec", "pop", "--crec", "dyn",
                     "--n", "5", "--s", "20", "--run-seed", "3",
                     "--out", str(rec)]) == 0
        ev = tmp_path / "eval"
        assert main(["evaluate", "--split", str(split_dir), "--topn", str(rec),
                     "--out", str(ev)]) == 0
        report = json.loads((ev / "report.json").read_text())
        with open(out / "sweep.csv") as fh:
            row = list(csv.reader(fh))[1]
        assert float(row[2]) == pytest.approx(report["coverage"])
        assert float(row[1]) == pytest.approx(report["f_measure"])


def _run_cli(argv):
    """Run ``python -m ganc.cli`` in a child process, as a user would."""
    env = {**os.environ, "PYTHONPATH": str(Path(ganc.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "ganc.cli", *argv],
                          capture_output=True, text=True, env=env)


# --n below 1 under each scorer and protocol: before --n was checked first,
# these wrote a header-only topn.csv, and the sweeps died in evaluate
_N_BELOW_ONE = [
    ("recommend", ["--arec", "rsvd", "--n", "0"]),
    ("recommend", ["--arec", "pop", "--pop-n", "3", "--n", "0"]),
    ("recommend", ["--arec", "rsvd", "--crec", "stat", "--n", "0"]),
    ("recommend", ["--arec", "rsvd", "--protocol", "rated_test_items", "--n", "0"]),
    ("recommend", ["--arec", "rsvd", "--n", "-1"]),
    ("sweep", ["--arec", "rsvd", "--n", "0"]),
    ("sweep", ["--arec", "pop", "--pop-n", "3", "--n", "0"]),
]
_N_BELOW_ONE_IDS = ["recommend-rsvd-n0", "recommend-pop-n3-n0", "recommend-rsvd-stat-n0",
                    "recommend-rsvd-rated-n0", "recommend-rsvd-n-1", "sweep-rsvd-n0",
                    "sweep-pop-n3-n0"]


class TestRejectedValues:
    @staticmethod
    def _argv(split_dir, prefs_dir, rec_dir, mf_dir, out, command, extra):
        inputs = {
            "evaluate": ["--topn", str(rec_dir)],
            "sweep": ["--prefs", str(prefs_dir), "--mf", str(mf_dir), "--s-values", "10"],
            "recommend": ["--prefs", str(prefs_dir), "--mf", str(mf_dir)],
        }
        return [command, "--split", str(split_dir), "--out", str(out),
                *inputs.get(command, []), *extra]

    @pytest.mark.parametrize("command, extra", [
        *_N_BELOW_ONE,
        ("evaluate", ["--n", "0"]),
        ("evaluate", ["--n", "-1"]),
        ("evaluate", ["--n", "6"]),
        ("sweep", ["--reps", "0"]),
        ("train-rsvd", ["--epochs", "-1"]),
        ("train-rsvd", ["--g", "0"]),
        ("recommend", ["--pop-n", "0"]),
        ("recommend", ["--workers", "4"]),
        ("sweep", ["--workers", "4"]),
        ("prefs", ["--lambda1", "nan"]),
        ("prefs", ["--lambda1", "inf"]),
        ("prefs", ["--tol", "nan"]),
        ("prefs", ["--tol", "-inf"]),
        ("evaluate", ["--beta", "nan"]),
        ("evaluate", ["--beta", "inf"]),
        ("evaluate", ["--threshold", "nan"]),
        ("sweep", ["--beta", "nan"]),
        ("sweep", ["--threshold", "inf"]),
        ("train-rsvd", ["--eta", "nan"]),
        ("train-rsvd", ["--eta", "0"]),
        ("train-rsvd", ["--lam", "inf"]),
        ("train-rsvd", ["--lam", "-0.1"]),
        ("recommend", ["--run-seed", "-5"]),
        ("sweep", ["--run-seed", "-5"]),
        ("train-rsvd", ["--mf-seed", "-1"]),
        ("prefs", ["--theta-seed", "-1"]),
    ], ids=[*_N_BELOW_ONE_IDS,
            "evaluate-n0", "evaluate-n-1", "evaluate-n-above-list", "sweep-reps0",
            "train-rsvd-epochs-1", "train-rsvd-g0", "recommend-pop-n0", "recommend-workers",
            "sweep-workers", "prefs-lambda1-nan", "prefs-lambda1-inf", "prefs-tol-nan",
            "prefs-tol-minus-inf", "evaluate-beta-nan", "evaluate-beta-inf",
            "evaluate-threshold-nan", "sweep-beta-nan", "sweep-threshold-inf",
            "train-rsvd-eta-nan", "train-rsvd-eta0", "train-rsvd-lam-inf",
            "train-rsvd-lam-negative", "recommend-run-seed-negative",
            "sweep-run-seed-negative", "train-rsvd-mf-seed-negative",
            "prefs-theta-seed-negative"])
    def test_exit_1_without_traceback(self, split_dir, prefs_dir, rec_dir, mf_dir, tmp_path,
                                      command, extra):
        proc = _run_cli(self._argv(split_dir, prefs_dir, rec_dir, mf_dir, tmp_path / "out",
                                   command, extra))
        assert proc.returncode == 1
        assert proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, extra", _N_BELOW_ONE, ids=_N_BELOW_ONE_IDS)
    def test_n_below_one_names_its_flag_before_any_input_is_read(
            self, split_dir, prefs_dir, rec_dir, mf_dir, tmp_path, capsys, command, extra):
        argv = self._argv(split_dir, prefs_dir, rec_dir, mf_dir, tmp_path / "out", command,
                          extra)
        capsys.readouterr()
        with mock.patch("ganc.dataset.load_split", side_effect=AssertionError("input read")):
            assert main(argv) == 1
        n = extra[extra.index("--n") + 1]
        assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"
        assert not (tmp_path / "out").exists()


class TestSweepFailsFast:
    """Bad sweep values exit 1 with one error line before any OSLG run."""

    @pytest.mark.parametrize("extra, message", [
        (["--beta", "-1"], "error: beta must be finite and >= 0, got -1.0"),
        (["--threshold", "nan"], "error: threshold must be finite, got nan"),
        (["--s-values", "1e3"], "error: --s-values must be comma-separated sample sizes "
                                ">= 1, got '1e3'"),
        (["--s-values", "10,abc"], "error: --s-values must be comma-separated sample sizes "
                                   ">= 1, got '10,abc'"),
        (["--s-values", "10,0"], "error: --s-values must be comma-separated sample sizes "
                                 ">= 1, got '10,0'"),
        (["--reps", "0"], "error: --reps must be >= 1, got 0"),
    ], ids=["beta-1", "threshold-nan", "s-values-1e3", "s-values-abc", "s-values-0",
            "reps-0"])
    def test_exit_1_before_the_first_run(self, split_dir, prefs_dir, tmp_path, capsys,
                                         extra, message):
        capsys.readouterr()
        argv = ["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                "--out", str(tmp_path / "out"), *extra]
        with mock.patch("ganc.core.oslg", side_effect=AssertionError("an OSLG run was made")):
            assert main(argv) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out").exists()


def _planted_oslg(failing):
    """core.oslg that raises for each (s, seed) in ``failing``."""
    def planted(split, theta, arec, n, s, seed, **kwargs):
        if (s, seed) in failing:
            raise InfeasibleError(f"planted failure at s={s} seed={seed}")
        return oslg(split, theta, arec, n, s, seed, **kwargs)
    return planted


class TestSweepWorkerErrors:
    """A run that fails inside a child or inside the parent's own share ends
    the sweep as it would in one process: the first failing run in run order
    names the one error line, no output is written and no child is left."""

    # s-values 10,20 with 3 reps make the runs (10, 0..2) then (20, 0..2);
    # with 2 processes the parent makes runs 0, 2, 4, with 3 it makes 0 and 3
    @pytest.mark.parametrize("failing, first", [
        ({(10, 1)}, (10, 1)),
        ({(10, 0)}, (10, 0)),
        ({(10, 1), (20, 1)}, (10, 1)),
        ({(10, 0), (20, 0)}, (10, 0)),
        ({(20, 2)}, (20, 2)),
    ], ids=["child", "parent", "child-then-parent", "parent-then-child", "last-run"])
    def test_same_error_as_one_process(self, split_dir, prefs_dir, tmp_path, capsys,
                                       failing, first):
        outcomes = []
        for processes in (1, 2, 3):
            out = tmp_path / f"sweep{processes}"
            capsys.readouterr()
            with mock.patch("ganc.forked.usable_cpus", return_value=processes), \
                    mock.patch("ganc.core.oslg", _planted_oslg(failing)):
                code = main(["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                             "--arec", "pop", "--n", "5", "--s-values", "10,20",
                             "--reps", "3", "--run-seed", "0", "--out", str(out)])
            outcomes.append((code, *capsys.readouterr()))
            assert not out.exists()
            assert_no_child_left()
        s, seed = first
        assert outcomes == [(3, "", f"error: planted failure at s={s} seed={seed}\n")] * 3

    DRIVER = """
import sys
from unittest import mock
import ganc.core
from ganc.cli import main
from ganc.errors import InfeasibleError
real = ganc.core.oslg
def planted(split, theta, arec, n, s, seed, **kwargs):
    if seed in FAILING:
        raise InfeasibleError(f"planted failure at seed {seed}")
    return real(split, theta, arec, n, s, seed, **kwargs)
print("before the sweep")  # held in the buffer of a piped stdout
with mock.patch("ganc.forked.usable_cpus", return_value=PROCESSES), \\
        mock.patch("ganc.core.oslg", planted):
    code = main(sys.argv[1:])
print("after the sweep")
sys.exit(code)
"""

    @pytest.mark.parametrize("failing", [(), (1,), (0,)], ids=["none", "child", "parent"])
    def test_stdout_is_not_written_twice(self, split_dir, prefs_dir, tmp_path, failing):
        env = {**os.environ, "PYTHONPATH": str(Path(ganc.__file__).resolve().parents[1])}
        procs = {}
        for processes in (1, 3):
            script = self.DRIVER.replace("FAILING", repr(failing)).replace(
                "PROCESSES", str(processes))
            procs[processes] = subprocess.run(
                [sys.executable, "-c", script, "sweep", "--split", str(split_dir),
                 "--prefs", str(prefs_dir), "--arec", "pop", "--n", "5",
                 "--s-values", "10,20", "--reps", "2",
                 "--out", str(tmp_path / f"sweep{processes}")],
                capture_output=True, text=True, env=env, timeout=300)
        one, three = procs[1], procs[3]
        assert three.returncode == one.returncode == (3 if failing else 0)
        assert three.stderr == one.stderr
        assert three.stdout.replace(" in 3 processes\n", " in 1 process\n") == one.stdout
        lines = three.stdout.splitlines()
        assert lines[0] == "before the sweep" and lines[-1] == "after the sweep"
        assert len(lines) == (2 if failing else 5)
        if failing:
            assert three.stderr == f"error: planted failure at seed {failing[0]}\n"


# Each flag string is a valid value half of the time; otherwise a number, a
# near-number or text without decimal digits (a digit string could ask for
# an unbounded number of runs).
_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4)
_ODD_REAL = (st.sampled_from(["-0", "1e400", "NaN", "5_0", " 1 ", "0x1p3"])
             | st.floats().map(repr) | _TEXT)
_LAMBDA1 = (st.floats(1e-3, 1e3).map(repr) | st.sampled_from(["1e308", "5e-324", "1e-300"])
            | _ODD_REAL)
_TOL = st.floats(1e-12, 1.0).map(repr) | _ODD_REAL
_MAX_ITERS = st.integers(0, 200).map(str) | (st.integers(-2, 3).map(str)
                                             | st.sampled_from(["", "1.0", "+2", "1e3"]) | _TEXT)
_N = st.integers(1, 5).map(str) | (st.integers(-2, 8).map(str)
                                   | st.sampled_from(["", "2.0", "+3"]) | _TEXT)
# train-rsvd: per flag, (extreme or plain valid values, bad values). Factor
# counts and epochs stay small, so a valid draw trains in milliseconds; the
# rates reach overflow and underflow.
_RSVD_FLAGS = {
    "g": (st.integers(1, 24).map(str) | st.just("400"),
          st.integers(-2, 0).map(str) | st.sampled_from(["", "2.0", "1e3"]) | _TEXT),
    "lam": (st.floats(0.0, 1.0).map(repr) | st.sampled_from(["-0.0", "1e308", "5e-324"]),
            st.sampled_from(["-1", "inf", "nan"]) | _ODD_REAL),
    "eta": (st.floats(1e-4, 0.3).map(repr) | st.sampled_from(["50", "1e308", "5e-324"]),
            st.sampled_from(["0", "-0.03", "-inf"]) | _ODD_REAL),
    "epochs": (st.integers(1, 3).map(str) | st.just("+2"),
               st.integers(-2, 0).map(str) | st.sampled_from(["", "2.0", "1e1"]) | _TEXT),
    "mf-seed": (st.integers(0, 2**64).map(str),
                st.sampled_from(["-1", "", "1.5", "1e3", "0x10"]) | _TEXT),
}


# recommend and sweep, on the 80-user, 160-item split: the flags they share,
# then recommend's own. Pop and RSVD each run; n and the Pop cutoff reach
# past the items, and n past the test items of every user.
_SHARED_FLAGS = {
    "arec": (st.sampled_from(["pop", "rsvd"]), st.sampled_from(["", "Pop", "external"])),
    "n": (st.integers(1, 5).map(str) | st.sampled_from(["12", "+3"]),
          st.sampled_from(["0", "-1", "161", "", "2.0"]) | _TEXT),
    "pop-n": (st.none() | st.integers(1, 160).map(str),
              st.integers(-1, 0).map(str) | st.sampled_from(["161", "", "1.5"]) | _TEXT),
    "run-seed": (st.integers(0, 2**64).map(str),
                 st.sampled_from(["-1", "", "1.5", "0x10"]) | _TEXT),
    "protocol": (st.sampled_from(PROTOCOLS), st.sampled_from(["", "all", "rated"]) | _TEXT),
}
_SWEEP_FLAGS = {
    **_SHARED_FLAGS,
    "s-values": (st.lists(st.integers(1, 120).map(str), min_size=1, max_size=3).map(",".join),
                 st.lists(st.integers(-2, 120).map(str)
                          | st.sampled_from(["", " 7", "1e3", "0x10", "+5", "٣", "3.0"]),
                          max_size=4).map(",".join) | _TEXT),
    "reps": (st.integers(1, 3).map(str),
             st.integers(-1, 3).map(str) | st.sampled_from(["", "1.0", "+2", " 2 "]) | _TEXT),
    "beta": (st.floats(0.0, 4.0).map(repr), _ODD_REAL),
    "threshold": (st.floats(-1.0, 6.0).map(repr), _ODD_REAL),
}
_BETA = st.one_of(*_SWEEP_FLAGS["beta"])
_THRESHOLD = st.one_of(*_SWEEP_FLAGS["threshold"])
_RECOMMEND_FLAGS = {
    **_SHARED_FLAGS,
    "s": (st.integers(1, 80).map(str) | st.just("5000"),
          st.integers(-2, 0).map(str) | st.sampled_from(["", "1.5", "1e3"]) | _TEXT),
    "crec": (st.sampled_from(["dyn", "stat", "rand"]),
             st.sampled_from(["", "Dyn", "static"]) | _TEXT),
}


@st.composite
def _flags(draw, table: dict) -> list:
    """Flags of ``table``: every one valid, or one of them bad. A flag whose
    value is None is left out."""
    flags = {name: draw(valid) for name, (valid, _) in table.items()}
    bad = draw(st.sampled_from([None, *table]))
    if bad:
        flags[bad] = draw(table[bad][1])
    return [f"--{name}={value}" for name, value in flags.items() if value is not None]


def _documented_exit(argv) -> int:
    """Run ``main`` on ``argv``; its exit code is documented, and it wrote
    one error line, and no traceback, exactly when that code is not 0."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert sum("error:" in line for line in err.getvalue().splitlines()) == (code != 0)
    assert "Traceback" not in err.getvalue()
    return code


def _finite_json(path):
    """The JSON file ``path``, which holds no NaN or infinity."""
    def refuse(token):
        raise AssertionError(f"{path} holds {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestSweepFlagValues:
    @settings(max_examples=100, deadline=None)
    @given(flags=_flags(_SWEEP_FLAGS))
    @example(flags=["--arec=rsvd", "--n=0", "--s-values=10", "--reps=1", "--beta=0.5",
                    "--threshold=4.0"])  # died in evaluate before --n was checked first
    def test_documented_exit_and_one_error_line(self, split_dir, prefs_dir, mf_dir,
                                                tmp_path_factory, flags):
        out = tmp_path_factory.mktemp("sweep") / "out"
        code = _documented_exit(["sweep", "--split", str(split_dir), "--prefs", str(prefs_dir),
                                 "--mf", str(mf_dir), *flags, "--out", str(out)])
        assert (out / "sweep.csv").exists() == (code == 0)
        if code == 0:
            rows = (out / "sweep.csv").read_text().splitlines()[1:]
            assert len(rows) == len(_finite_json(out / "sweep.json")["s_values"])
        assert_no_child_left()


class TestRecommendFlagValues:
    @settings(max_examples=150, deadline=None)
    @given(flags=_flags(_RECOMMEND_FLAGS))
    @example(flags=["--arec=rsvd", "--n=0"])  # wrote no list before --n was checked first
    def test_documented_exit_and_n_items_per_eligible_user(self, split_dir, prefs_dir, mf_dir,
                                                           tmp_path_factory, flags):
        out = tmp_path_factory.mktemp("rec") / "out"
        code = _documented_exit(["recommend", "--split", str(split_dir), "--prefs",
                                 str(prefs_dir), "--mf", str(mf_dir), *flags,
                                 "--out", str(out)])
        assert (out / "topn.csv").exists() == (code == 0)
        if code == 0:
            run = _finite_json(out / "run.json")
            split, _ = load_split(split_dir)
            lists = load_collection(out, split).lists
            assert sorted(lists) == eligible_users(split, run["n"], run["protocol"])
            assert {len(items) for items in lists.values()} == {run["n"]}
        assert_no_child_left()


class TestPrefsAndEvaluateFlagValues:
    """Extreme and bad values end in a documented exit code with one error
    line, and a run that exits 0 writes finite artifacts."""

    @pytest.mark.parametrize("lambda1", ["1e-320", "1e-310"])
    def test_prefs_refuses_subnormal_item_weights(self, split_dir, tmp_path, capsys, lambda1):
        # theta does not depend on lambda1, but a subnormal weight lambda1 / eps
        # keeps too few bits for the weighted means to hold it
        capsys.readouterr()
        out = tmp_path / "prefs"
        assert main(["prefs", "--split", str(split_dir), f"--lambda1={lambda1}",
                     "--out", str(out)]) == 3
        assert "below the normal float range; lambda1 is too far from 1" in (
            _one_error_line(capsys))
        assert not (out / "prefs.json").exists()

    @settings(max_examples=60, deadline=None)
    @given(lambda1=_LAMBDA1, tol=_TOL, max_iters=_MAX_ITERS)
    def test_prefs(self, split_dir, tmp_path_factory, lambda1, tol, max_iters):
        out = tmp_path_factory.mktemp("prefs") / "out"
        code = _documented_exit(["prefs", "--split", str(split_dir), f"--lambda1={lambda1}",
                                 f"--tol={tol}", f"--max-iters={max_iters}", "--out", str(out)])
        assert (out / "prefs.json").exists() == (code == 0)
        if code == 0:
            _finite_json(out / "prefs.json")
            with open(out / "theta.csv", newline="") as fh:
                assert all(np.isfinite(float(v)) for _, v in list(csv.reader(fh))[1:])

    @settings(max_examples=60, deadline=None)
    @given(beta=_BETA, threshold=_THRESHOLD, n=_N)
    def test_evaluate(self, split_dir, rec_dir, tmp_path_factory, beta, threshold, n):
        out = tmp_path_factory.mktemp("evaluate") / "out"
        code = _documented_exit(["evaluate", "--split", str(split_dir), "--topn", str(rec_dir),
                                 f"--beta={beta}", f"--threshold={threshold}", f"--n={n}",
                                 "--out", str(out)])
        assert (out / "report.json").exists() == (code == 0)
        if code == 0:
            report = _finite_json(out / "report.json")
            assert all(np.isfinite(v) for v in report.values() if not isinstance(v, str))


class TestTrainRsvdFlagValues:
    @settings(max_examples=60, deadline=None)
    @given(flags=_flags(_RSVD_FLAGS))
    def test_documented_exit_and_finite_model(self, split_dir, tmp_path_factory, flags):
        out = tmp_path_factory.mktemp("mf") / "out"
        # the schedule producer runs at this size too, on any CPU count
        with mock.patch("ganc.recommenders._PRODUCER_MIN_RATINGS", 0), \
                mock.patch("ganc.forked.spare_cpus", return_value=[a_usable_cpu()]):
            code = _documented_exit(["train-rsvd", "--split", str(split_dir), *flags,
                                     "--out", str(out)])
        assert_no_child_left()
        assert (out / "mf.json").exists() == (code == 0)
        if code == 0:
            _finite_json(out / "mf.json")
            model, _ = load_mf_model(out)
            assert np.isfinite(model.user_factors).all()
            assert np.isfinite(model.item_factors).all()


class TestPopSizeNamesItsFlag:
    @pytest.mark.parametrize("extra, flag, value", [
        (["--pop-n", "0"], "--pop-n", 0),
        (["--n", "2000"], "--n", 2000),
    ], ids=["pop-n", "n"])
    @pytest.mark.parametrize("command", ["recommend", "sweep"])
    def test_error_names_the_flag_the_size_came_from(self, split_dir, prefs_dir, tmp_path,
                                                     capsys, extra, flag, value, command):
        items = len(load_split(split_dir)[0].items)
        assert items < 2000
        capsys.readouterr()
        assert main([command, "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "pop", "--out", str(tmp_path / "out"), *extra]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be in [1, {items}], got {value}\n"


class TestSeedFlagsNameThemselves:
    @pytest.mark.parametrize("command, flag", [
        ("recommend", "--run-seed"),
        ("sweep", "--run-seed"),
        ("train-rsvd", "--mf-seed"),
        ("prefs", "--theta-seed"),
    ], ids=["recommend", "sweep", "train-rsvd", "prefs"])
    def test_negative_seed_names_its_flag(self, split_dir, prefs_dir, tmp_path, capsys,
                                          command, flag):
        inputs = ["--prefs", str(prefs_dir)] if command in ("recommend", "sweep") else []
        capsys.readouterr()
        assert main([command, "--split", str(split_dir), *inputs, flag, "-3",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("crec", ["dyn", "stat", "rand"])
    @pytest.mark.parametrize("s", [0, -2])
    def test_sample_size_below_one_names_its_flag(self, tmp_path, capsys, crec, s):
        # the inputs do not exist, so the flag is refused before any is read
        capsys.readouterr()
        assert main(["recommend", "--split", str(tmp_path / "no-split"),
                     "--prefs", str(tmp_path / "no-prefs"), "--crec", crec, "--s", str(s),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: --s must be >= 1, got {s}\n"
        assert not (tmp_path / "out").exists()


def _truncate_last_line(path):
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][:lines[-1].index(",") + 2]  # "user,i": two fields
    path.write_text("\n".join(lines))
    return len(lines)


def _header_only(path):
    path.write_text(path.read_text().splitlines()[0] + "\n")
    return None


def _bad_rating(path):
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:2] + ["four", ""])
    path.write_text("\n".join(lines) + "\n")
    return 2


class TestDamagedSplitFiles:
    @pytest.mark.parametrize("file, damage, message", [
        ("train.csv", _truncate_last_line, "expected 3 or 4 fields, got 2"),
        ("train.csv", _header_only, "no ratings parsed"),
        ("test.csv", _bad_rating, "bad rating 'four'"),
    ])
    @pytest.mark.parametrize("command", ["prefs", "train-rsvd", "stats"])
    def test_exit_2_naming_the_line(self, split_dir, tmp_path, capsys, file, damage,
                                    message, command):
        split = tmp_path / "split"
        split.mkdir()
        for name in ("train.csv", "test.csv", "split.json"):
            (split / name).write_bytes((split_dir / name).read_bytes())
        line = damage(split / file)
        argv = [command, "--split", str(split), "--out", str(tmp_path / "out")]
        if command == "train-rsvd":
            argv += ["--g", "2", "--epochs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        where = f"{split / file}:{line}:" if line else f"{split / file}:"
        assert err == f"error: {where} {message}\n"


@pytest.mark.parametrize("format, text", [
    ("csv", b"user,item,rating\n1,1,4\n1,\xff,3\n"),
    ("tab_separated", b"1\t1\t4\n1\t\xff\t3\n"),
], ids=["csv", "tab_separated"])
def test_ratings_file_that_is_not_utf8_exits_2(tmp_path, capsys, format, text):
    # the codec's error used to escape as a usage error naming no file
    path = tmp_path / "ratings"
    path.write_bytes(text)
    assert main(["split", "--dataset", str(path), "--format", format,
                 "--out", str(tmp_path / "split")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not ") and err.endswith(" text\n")


LONG_ID = "x" * 140_000  # longer than csv.field_size_limit() allows by default


def _overlong_field(path, line: int) -> int:
    """Replace the first field of ``line`` (1-based) with LONG_ID."""
    lines = path.read_text().splitlines()
    lines[line - 1] = LONG_ID + "," + lines[line - 1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    return line


class TestOverlongCsvField:
    """A field past csv.field_size_limit() exits 2 naming its file and line."""

    @staticmethod
    def _error(path, line):
        return f"error: {path}:{line}: field larger than field limit ({csv.field_size_limit()})\n"

    def test_split(self, tmp_path, capsys):
        data = tmp_path / "ratings.csv"
        data.write_text("user,item,rating\n1,a,3\n2,b,4\n3,c,5\n")
        line = _overlong_field(data, 3)
        out = tmp_path / "split"
        assert main(["split", "--dataset", str(data), "--format", "csv",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == self._error(data, line)
        assert not out.exists()

    def test_split_files(self, split_dir, tmp_path, capsys):
        split = tmp_path / "split"
        split.mkdir()
        for name in ("train.csv", "test.csv", "split.json", "split.npz"):
            (split / name).write_bytes((split_dir / name).read_bytes())
        line = _overlong_field(split / "test.csv", 4)
        assert main(["stats", "--split", str(split), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == self._error(split / "test.csv", line)

    def test_evaluate_on_a_tampered_topn(self, split_dir, rec_dir, tmp_path, capsys):
        bad = tmp_path / "bad-rec"
        bad.mkdir()
        (bad / "run.json").write_text((rec_dir / "run.json").read_text())
        (bad / "topn.csv").write_text((rec_dir / "topn.csv").read_text())
        line = _overlong_field(bad / "topn.csv", 3)
        assert main(["evaluate", "--split", str(split_dir), "--topn", str(bad),
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == self._error(bad / "topn.csv", line)

    def test_recommend_on_a_tampered_theta(self, split_dir, prefs_dir, tmp_path, capsys):
        prefs = tmp_path / "prefs"
        prefs.mkdir()
        for name in ("theta.csv", "weights.csv", "prefs.json"):
            (prefs / name).write_bytes((prefs_dir / name).read_bytes())
        line = _overlong_field(prefs / "theta.csv", 2)
        assert main(["recommend", "--split", str(split_dir), "--prefs", str(prefs),
                     "--arec", "pop", "--crec", "stat", "--n", "3",
                     "--out", str(tmp_path / "rec")]) == 2
        assert capsys.readouterr().err == self._error(prefs / "theta.csv", line)

    def test_recommend_on_external_scores(self, split_dir, prefs_dir, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("user,item,score\n1,1,0.5\n1,2,0.25\n")
        line = _overlong_field(scores, 3)
        assert main(["recommend", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "external", "--external-scores", str(scores),
                     "--crec", "stat", "--n", "3", "--out", str(tmp_path / "rec")]) == 2
        assert capsys.readouterr().err == self._error(scores, line)


class TestMalformedRows:
    """A row of the wrong width or with an unreadable number exits 2 naming
    its file and line."""

    @staticmethod
    def _copy(src, dst, names):
        dst.mkdir()
        for name in names:
            (dst / name).write_bytes((src / name).read_bytes())
        return dst

    @staticmethod
    def _replace_line(path, line: int, text: str) -> None:
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")

    def _evaluate(self, split_dir, rec_dir, tmp_path, line_text):
        bad = self._copy(rec_dir, tmp_path / "bad-rec", ("run.json", "topn.csv"))
        self._replace_line(bad / "topn.csv", 3, line_text)
        code = main(["evaluate", "--split", str(split_dir), "--topn", str(bad),
                     "--out", str(tmp_path / "eval")])
        return code, bad / "topn.csv"

    def test_topn_row_with_two_fields(self, split_dir, rec_dir, tmp_path, capsys):
        code, path = self._evaluate(split_dir, rec_dir, tmp_path, "1,2")
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:3: expected 3 fields\n"

    def test_topn_rank_not_an_integer(self, split_dir, rec_dir, tmp_path, capsys):
        code, path = self._evaluate(split_dir, rec_dir, tmp_path, "1,first,2")
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:3: bad rank 'first'\n"

    def test_empty_topn(self, split_dir, rec_dir, tmp_path, capsys):
        bad = self._copy(rec_dir, tmp_path / "bad-rec", ("run.json", "topn.csv"))
        (bad / "topn.csv").write_text("")
        assert main(["evaluate", "--split", str(split_dir), "--topn", str(bad),
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == f"error: {bad / 'topn.csv'}: empty file\n"

    def _recommend(self, split_dir, prefs_dir, tmp_path, name, line_text):
        prefs = self._copy(prefs_dir, tmp_path / "prefs",
                           ("theta.csv", "weights.csv", "prefs.json"))
        self._replace_line(prefs / name, 2, line_text)
        code = main(["recommend", "--split", str(split_dir), "--prefs", str(prefs),
                     "--arec", "pop", "--crec", "stat", "--n", "3",
                     "--out", str(tmp_path / "rec")])
        return code, prefs / name

    def test_theta_value_not_a_number(self, split_dir, prefs_dir, tmp_path, capsys):
        code, path = self._recommend(split_dir, prefs_dir, tmp_path, "theta.csv", "1,abc")
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:2: bad value 'abc'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "7.5", "-0.25"])
    def test_theta_outside_the_unit_interval(self, split_dir, prefs_dir, tmp_path, capsys,
                                             value):
        code, path = self._recommend(split_dir, prefs_dir, tmp_path, "theta.csv",
                                     f"1,{value}")
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {path}:2: value {value!r} outside [0, 1]\n"

    @pytest.mark.parametrize("command", ["recommend", "sweep"])
    def test_theta_missing_a_user_of_the_split(self, split_dir, prefs_dir, tmp_path, capsys,
                                               command):
        prefs = self._copy(prefs_dir, tmp_path / "prefs",
                           ("theta.csv", "weights.csv", "prefs.json"))
        lines = (prefs / "theta.csv").read_text().splitlines()
        missing = lines.pop(3).split(",")[0]
        (prefs / "theta.csv").write_text("\n".join(lines) + "\n")
        extra = (["--crec", "dyn", "--s", "10"] if command == "recommend"
                 else ["--s-values", "10", "--reps", "1"])
        assert main([command, "--split", str(split_dir), "--prefs", str(prefs),
                     "--arec", "pop", "--n", "3", *extra,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {prefs / 'theta.csv'}: no theta for user {int(missing)!r} of the split\n")

    def test_weights_row_with_three_fields(self, split_dir, prefs_dir, tmp_path, capsys):
        code, path = self._recommend(split_dir, prefs_dir, tmp_path, "weights.csv",
                                     "1,0.5,0.5")
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}:2: expected 2 fields\n"


@pytest.fixture(scope="module")
def mf_dir(split_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "mf"
    assert main(["train-rsvd", "--split", str(split_dir), "--g", "2", "--epochs", "1",
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("models", [["Pop"], ["Pop", "RSVD"]], ids=["pop", "pop-rsvd"])
def test_compare_models_prints_one_row_per_model(split_dir, mf_dir, models):
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_models.py"
    mf = ["--mf", str(mf_dir)] if "RSVD" in models else []
    env = {**os.environ, "PYTHONPATH": str(Path(ganc.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(script), "--split", str(split_dir),
                           "--s", "10", "--reps", "1", *mf],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:6] == ["model", "f_measu", "strat_r", "lt_accu", "coverag", "gini"]
    cells = [row.rsplit(maxsplit=5) for row in rows]
    assert [name for name, *_ in cells] == [
        variant for m in models for variant in
        (m, *(f"GANC({m}, theta^G, {crec})" for crec in ("Dyn", "Stat", "Rand")))]
    assert all(math.isfinite(float(v)) for _, *values in cells for v in values)


def _copy_dir(src, dst):
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def _rewrite_npz(path, **changes):
    """Rewrite an npz file with some arrays replaced (None drops one)."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays.update(changes)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})


class TestDamagedArtifacts:
    """A damaged model file or manifest exits 2 with one error line naming it."""

    @pytest.mark.parametrize("damage, message", [
        (lambda p: p.write_bytes(p.read_bytes()[:5000]), "not a readable model file"),
        (lambda p: _rewrite_npz(p, P=None), "not a readable model file"),
        (lambda p: _rewrite_npz(p, P=np.load(p)["P"][:10]), "arrays do not form a model"),
        (lambda p: _rewrite_npz(p, Q=np.load(p)["Q"][:, :1]), "arrays do not form a model"),
        (lambda p: _rewrite_npz(p, P=np.load(p)["P"].astype(np.float32)),
         "arrays do not form a model"),
        (lambda p: _rewrite_npz(p, users=np.load(p)["users"][None]),
         "arrays do not form a model"),
        (lambda p: _rewrite_npz(p, global_mean=np.zeros(2)), "arrays do not form a model"),
    ], ids=["truncated", "no-P", "P-short", "g-differs", "P-float32", "users-2d",
            "two-means"])
    def test_model_file(self, split_dir, prefs_dir, mf_dir, tmp_path, capsys, damage,
                        message):
        mf = _copy_dir(mf_dir, tmp_path / "mf")
        damage(mf / "mf_model.npz")
        assert main(["recommend", "--split", str(split_dir), "--prefs", str(prefs_dir),
                     "--arec", "rsvd", "--mf", str(mf), "--crec", "stat", "--n", "3",
                     "--out", str(tmp_path / "rec")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mf / 'mf_model.npz'}: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]\n", "expected a JSON object, got list"),
        ('"split"\n', "expected a JSON object, got str"),
        ("{not json\n", "not valid JSON"),
        ("", "not valid JSON"),
    ], ids=["list", "string", "bad-json", "empty"])
    @pytest.mark.parametrize("name", ["split.json", "prefs.json", "run.json"])
    def test_manifest_that_is_not_a_json_object(self, split_dir, prefs_dir, rec_dir,
                                                tmp_path, capsys, name, text, message):
        split = _copy_dir(split_dir, tmp_path / "split")
        prefs = _copy_dir(prefs_dir, tmp_path / "prefs")
        rec = _copy_dir(rec_dir, tmp_path / "rec")
        path = {"split.json": split, "prefs.json": prefs, "run.json": rec}[name] / name
        path.write_text(text)
        argv = (["evaluate", "--topn", str(rec)] if name == "run.json" else
                ["recommend", "--prefs", str(prefs), "--arec", "pop", "--crec", "stat",
                 "--n", "3"])
        assert main([*argv, "--split", str(split), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value, message", [
        ("model", None, "model must be one of activity, "),
        ("model", "psychic", "model must be one of activity, "),
        ("model", 3, "model must be one of activity, "),
        ("theta_deltas", 5, "theta_deltas must be a list, got 5"),
    ], ids=["no-model", "unknown-model", "int-model", "int-deltas"])
    def test_prefs_manifest_with_a_bad_field(self, split_dir, prefs_dir, tmp_path, capsys,
                                             key, value, message):
        prefs = _copy_dir(prefs_dir, tmp_path / "prefs")
        manifest = read_json(prefs / "prefs.json")
        del manifest[key]
        if value is not None:
            manifest[key] = value
        (prefs / "prefs.json").write_text(json.dumps(manifest))
        assert main(["recommend", "--split", str(split_dir), "--prefs", str(prefs),
                     "--arec", "pop", "--crec", "stat", "--n", "3",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {prefs / 'prefs.json'}: {message}")


def _edit_lines(path, edit) -> None:
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestTableRules:
    """theta.csv, weights.csv, topn.csv and external score files share one
    table rule (header, blank records, record width), and each adds its own
    value rule; a breach exits 2 with one error line naming path[:line]."""

    @staticmethod
    def _evaluate(split_dir, rec_dir, tmp_path, edit):
        rec = _copy_dir(rec_dir, tmp_path / "rec")
        _edit_lines(rec / "topn.csv", edit)
        code = main(["evaluate", "--split", str(split_dir), "--topn", str(rec),
                     "--out", str(tmp_path / "eval")])
        return code, rec / "topn.csv"

    @staticmethod
    def _recommend(split_dir, prefs, tmp_path, extra=()):
        return main(["recommend", "--split", str(split_dir), "--prefs", str(prefs),
                     "--arec", "pop", "--crec", "stat", "--n", "3", *extra,
                     "--out", str(tmp_path / "rec")])

    def _recommend_edited(self, split_dir, prefs_dir, tmp_path, name, edit):
        prefs = _copy_dir(prefs_dir, tmp_path / "prefs")
        _edit_lines(prefs / name, edit)
        return self._recommend(split_dir, prefs, tmp_path), prefs / name

    @staticmethod
    def _scores(tmp_path, text):
        scores = tmp_path / "scores.csv"
        scores.write_text(text)
        return scores, ["--arec", "external", "--external-scores", str(scores)]

    def test_topn_header(self, split_dir, rec_dir, tmp_path, capsys):
        code, path = self._evaluate(split_dir, rec_dir, tmp_path,
                                    lambda lines: lines.__setitem__(0, "user,position,item"))
        assert code == 2
        assert _one_error_line(capsys) == f"error: {path}:1: expected header user,rank,item\n"

    @pytest.mark.parametrize("name, header, want", [
        ("theta.csv", "id,theta", "user,theta"),
        ("weights.csv", "item,weight,x", "item,weight"),
    ])
    def test_prefs_header(self, split_dir, prefs_dir, tmp_path, capsys, name, header, want):
        code, path = self._recommend_edited(split_dir, prefs_dir, tmp_path, name,
                                            lambda lines: lines.__setitem__(0, header))
        assert code == 2
        assert _one_error_line(capsys) == f"error: {path}:1: expected header {want}\n"

    def test_external_scores_header(self, split_dir, prefs_dir, tmp_path, capsys):
        # a fourth header column used to pass unseen
        scores, extra = self._scores(tmp_path, "user,item,score,x\n1,1,0.5\n")
        assert self._recommend(split_dir, prefs_dir, tmp_path, extra) == 2
        assert _one_error_line(capsys) == \
            f"error: {scores}:1: expected header user,item,score\n"

    def test_blank_records_in_topn_are_skipped(self, split_dir, rec_dir, tmp_path):
        assert main(["evaluate", "--split", str(split_dir), "--topn", str(rec_dir),
                     "--out", str(tmp_path / "want")]) == 0

        def blanks(lines):
            lines.insert(3, "")
            lines.insert(1, "  ")
        code, _ = self._evaluate(split_dir, rec_dir, tmp_path, blanks)
        assert code == 0
        assert (tmp_path / "eval" / "report.json").read_bytes() == \
            (tmp_path / "want" / "report.json").read_bytes()

    def test_blank_records_in_theta_and_weights_are_skipped(self, split_dir, prefs_dir,
                                                            tmp_path):
        assert self._recommend(split_dir, prefs_dir, tmp_path / "want") == 0
        prefs = _copy_dir(prefs_dir, tmp_path / "prefs")
        for name in ("theta.csv", "weights.csv"):
            _edit_lines(prefs / name, lambda lines: lines.insert(2, ""))
        assert self._recommend(split_dir, prefs, tmp_path) == 0
        assert (tmp_path / "rec" / "topn.csv").read_bytes() == \
            (tmp_path / "want" / "rec" / "topn.csv").read_bytes()

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan", "1e999"])
    def test_external_score_that_is_not_finite(self, split_dir, prefs_dir, tmp_path, capsys,
                                               score):
        scores, extra = self._scores(tmp_path, f"user,item,score\n1,1,0.5\n1,2,{score}\n")
        assert self._recommend(split_dir, prefs_dir, tmp_path, extra) == 2
        assert _one_error_line(capsys) == f"error: {scores}:3: bad score {score!r}\n"

    @pytest.mark.parametrize("rank", ["0", "-7"])
    def test_topn_rank_below_1(self, split_dir, rec_dir, tmp_path, capsys, rank):
        def set_rank(lines):
            user, _, item = lines[2].split(",")
            lines[2] = f"{user},{rank},{item}"
        code, path = self._evaluate(split_dir, rec_dir, tmp_path, set_rank)
        assert code == 2
        assert _one_error_line(capsys) == f"error: {path}:3: bad rank {rank!r}\n"

    def test_topn_repeated_rank(self, split_dir, rec_dir, tmp_path, capsys):
        user, rank, _ = (rec_dir / "topn.csv").read_text().splitlines()[2].split(",")
        code, path = self._evaluate(split_dir, rec_dir, tmp_path,
                                    lambda lines: lines.insert(3, lines[2]))
        assert code == 2
        assert _one_error_line(capsys) == (
            f"error: {path}:4: bad rank {rank!r}: user {user!r} has rank {rank} twice\n")

    def test_topn_ranks_with_a_gap(self, split_dir, rec_dir, tmp_path, capsys):
        # ranks 1, 2, 3, 4, 9 used to read as a valid 5-item list
        lines = (rec_dir / "topn.csv").read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.split(",")[1] == "5")
        user, _, item = lines[k].split(",")
        code, path = self._evaluate(split_dir, rec_dir, tmp_path,
                                    lambda lines: lines.__setitem__(k, f"{user},9,{item}"))
        assert code == 2
        assert _one_error_line(capsys) == \
            f"error: {path}:{k + 1}: bad rank '9': user {user!r} has 5 rows\n"

    def test_theta_row_of_an_unknown_user_hides_no_user(self, split_dir, prefs_dir, tmp_path):
        # one row "x,0.5" used to turn every id into a string, so that user 1
        # of the split had no theta
        assert self._recommend(split_dir, prefs_dir, tmp_path / "want") == 0
        code, _ = self._recommend_edited(split_dir, prefs_dir, tmp_path, "theta.csv",
                                         lambda lines: lines.append("x,0.5"))
        assert code == 0
        assert (tmp_path / "rec" / "topn.csv").read_bytes() == \
            (tmp_path / "want" / "rec" / "topn.csv").read_bytes()

    @pytest.mark.parametrize("name, kind", [("theta.csv", "user"), ("weights.csv", "item")])
    def test_id_listed_twice(self, split_dir, prefs_dir, tmp_path, capsys, name, kind):
        # the last row used to win silently
        def repeat_first(lines):
            lines.append(lines[1].split(",")[0] + ",0.5")
        code, path = self._recommend_edited(split_dir, prefs_dir, tmp_path, name, repeat_first)
        lines = path.read_text().splitlines()
        assert code == 2
        assert _one_error_line(capsys) == (
            f"error: {path}:{len(lines)}: {kind} {lines[1].split(',')[0]!r} listed twice\n")

    @pytest.mark.parametrize("protocol", ["bogus", 5])
    def test_run_manifest_with_an_unknown_protocol(self, split_dir, rec_dir, tmp_path, capsys,
                                                   protocol):
        rec = _copy_dir(rec_dir, tmp_path / "rec")
        manifest = read_json(rec / "run.json")
        manifest["protocol"] = protocol
        (rec / "run.json").write_text(json.dumps(manifest))
        assert main(["evaluate", "--split", str(split_dir), "--topn", str(rec),
                     "--out", str(tmp_path / "eval")]) == 2
        assert _one_error_line(capsys) == (
            f"error: {rec / 'run.json'}: protocol must be one of all_unrated, "
            f"rated_test_items, got {protocol!r}\n")


# Bytes that CSV, numbers and UTF-8 give a meaning to, then any byte.
_TAMPER_BYTES = (st.sampled_from([bytes([b]) for b in b',\n\r" \x00\xff\xc3-+.019enai'])
                 | st.binary(min_size=1, max_size=3))
_TAMPER_EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete", "cut"]),
                                   st.integers(0, 1 << 20), _TAMPER_BYTES),
                         min_size=1, max_size=4)


def _tamper(path, edits) -> None:
    data = bytearray(path.read_bytes())
    for op, at, chunk in edits:
        k = at % (len(data) + 1)
        if op == "replace":
            data[k:k + len(chunk)] = chunk
        elif op == "insert":
            data[k:k] = chunk
        elif op == "delete":
            del data[k:k + len(chunk)]
        else:
            del data[k:]
    path.write_bytes(bytes(data))


class TestTamperedTables:
    """Random byte edits of theta.csv or topn.csv end in a documented exit
    code, with at most one error line and never a traceback."""

    @staticmethod
    def _run(argv) -> None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @settings(max_examples=60, deadline=None)
    @given(edits=_TAMPER_EDITS)
    def test_theta(self, split_dir, prefs_dir, tmp_path_factory, edits):
        d = tmp_path_factory.mktemp("tampered")
        prefs = _copy_dir(prefs_dir, d / "prefs")
        _tamper(prefs / "theta.csv", edits)
        self._run(["recommend", "--split", str(split_dir), "--prefs", str(prefs),
                   "--arec", "pop", "--crec", "dyn", "--n", "3", "--s", "10",
                   "--out", str(d / "rec")])

    @settings(max_examples=60, deadline=None)
    @given(edits=_TAMPER_EDITS)
    def test_topn(self, split_dir, rec_dir, tmp_path_factory, edits):
        d = tmp_path_factory.mktemp("tampered")
        rec = _copy_dir(rec_dir, d / "rec")
        _tamper(rec / "topn.csv", edits)
        self._run(["evaluate", "--split", str(split_dir), "--topn", str(rec),
                   "--per-user", "--out", str(d / "eval")])


# Edits land anywhere, near the start (local headers, the npy header of the
# first array) or near the end (the zip central directory).
_ARTIFACT_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete", "cut"]),
              st.integers(0, 1 << 20) | st.integers(0, 600) | st.integers(-600, -1),
              _TAMPER_BYTES),
    min_size=1, max_size=4)


def _last_zip_entry(path, offset: int, value: int) -> None:
    """Set the 2-byte field at ``offset`` of an archive's last central
    directory entry (8 flags, 10 compression method), which the zip reader
    trusts over the local header."""
    data = bytearray(path.read_bytes())
    k = data.rfind(b"PK\x01\x02") + offset
    data[k:k + 2] = value.to_bytes(2, "little")
    path.write_bytes(bytes(data))


class TestTamperedArtifacts:
    """A truncated or byte-edited split.npz, mf_model.npz or split.json ends
    in a documented exit code, with at most one error line and never a
    traceback, and the command's outcome is the same with split.npz deleted."""

    @staticmethod
    def _outcome(argv, out):
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        topn = (out / "topn.csv").read_bytes() if code == 0 else None
        return code, stdout.getvalue(), err.getvalue(), topn

    def _check(self, split_dir, prefs_dir, mf_dir, d, name, damage):
        split, mf = _copy_dir(split_dir, d / "split"), _copy_dir(mf_dir, d / "mf")
        damage((mf if name == "mf_model.npz" else split) / name)
        out = d / "rec"
        argv = ["recommend", "--split", str(split), "--prefs", str(prefs_dir),
                "--arec", "rsvd", "--mf", str(mf), "--crec", "dyn", "--n", "3", "--s", "10",
                "--out", str(out)]
        first = self._outcome(argv, out)
        for path in out.glob("*"):
            path.unlink()
        (split / "split.npz").unlink()
        assert self._outcome(argv, out) == first
        return first

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["split.npz", "mf_model.npz", "split.json"]),
           edits=_ARTIFACT_EDITS)
    def test_random_edits(self, split_dir, prefs_dir, mf_dir, tmp_path_factory, name, edits):
        self._check(split_dir, prefs_dir, mf_dir, tmp_path_factory.mktemp("tampered"), name,
                    lambda path: _tamper(path, edits))

    # these raised NotImplementedError or RuntimeError out of np.load
    @pytest.mark.parametrize("offset, value", [(10, 1), (10, 12), (8, 1), (8, 0x41)],
                             ids=["method-1", "method-bzip2", "encrypted", "strong-encryption"])
    @pytest.mark.parametrize("name", ["split.npz", "mf_model.npz"])
    def test_zip_flags_the_reader_cannot_honour(self, split_dir, prefs_dir, mf_dir, tmp_path,
                                                name, offset, value):
        code, _, err, _ = self._check(split_dir, prefs_dir, mf_dir, tmp_path, name,
                                      lambda path: _last_zip_entry(path, offset, value))
        if name == "split.npz":
            assert code == 0
        else:
            assert code == 2 and "mf_model.npz: not a readable model file" in err


# An int id respelled: zero-padded, space-padded, float-spelled, or one the split lacks.
_RESPELL = {"zero": "00{}".format, "space": " {} ".format, "float": "{}.0".format,
            "stranger": "ghost{}".format}


def _respellings(columns: tuple):
    """(row, column, spelling, everywhere) edits of an id table: the id in
    that row and column (the row taken modulo the table's rows) is respelled
    there, or in every row of the column where it appears."""
    return st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(columns),
                              st.sampled_from(sorted(_RESPELL)), st.booleans()), max_size=4)


def _respell_ids(path, edits) -> None:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    for row, column, how, everywhere in edits:
        old = rows[row % len(rows)][column]
        for cells in rows if everywhere else [rows[row % len(rows)]]:
            if cells[column] == old:
                cells[column] = _RESPELL[how](old)
    ganc.io_utils.write_table(path, header, rows)


def _at_most_one_line_exit(argv) -> int:
    """Run ``main`` on ``argv``: a documented exit code, at most one line on
    standard error, an ``error:`` line when the code is not 0, and no
    traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3) and len(lines) <= 1
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert len(lines) == 1 and lines[0].startswith("error:")
    return code


class TestIdSpellings:
    """Ids of an int-id pipeline respelled in theta.csv and topn.csv: recommend
    and evaluate end in a documented exit with at most one error line, and a
    report written on exit 0 holds only finite numbers."""

    @settings(max_examples=60, deadline=None)
    @given(theta_edits=_respellings((0,)), topn_edits=_respellings((0, 2)))
    def test_documented_exit_and_finite_report(self, split_dir, prefs_dir, rec_dir,
                                               tmp_path_factory, theta_edits, topn_edits):
        work = tmp_path_factory.mktemp("ids")
        prefs, topn = _copy_dir(prefs_dir, work / "prefs"), _copy_dir(rec_dir, work / "topn")
        _respell_ids(prefs / "theta.csv", theta_edits)
        _respell_ids(topn / "topn.csv", topn_edits)
        collections = [topn]
        if _at_most_one_line_exit(["recommend", "--split", str(split_dir), "--prefs", str(prefs),
                                   "--n", "5", "--s", "30", "--out", str(work / "rec")]) == 0:
            _finite_json(work / "rec" / "run.json")
            collections.append(work / "rec")
        for k, coll in enumerate(collections):
            out = work / f"eval{k}"
            code = _at_most_one_line_exit(["evaluate", "--split", str(split_dir),
                                           "--topn", str(coll), "--out", str(out)])
            assert (out / "report.json").exists() == (code == 0)
            if code == 0:
                report = _finite_json(out / "report.json")
                assert all(np.isfinite(v) for v in report.values() if not isinstance(v, str))


class TestMixedIdSpellings:
    """One ratings file whose user and item columns both mix ``7``, ``07``,
    ``7.0`` and ``u31`` with plain ints: every column reads as strings, so
    ``7`` and ``07`` stay two ids from split through evaluate."""

    SPELLINGS = ("7", "07", "7.0", "u31")

    @staticmethod
    def _column(path, name):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [row[name] for row in rows]

    def test_pipeline_keeps_each_spelling(self, tmp_path):
        users = [*self.SPELLINGS, "1", "2", "3", "4"]
        items = [*self.SPELLINGS, "5", "6", "8", "9", "10", "11"]
        with open(tmp_path / "ratings.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user", "item", "rating"])
            w.writerows((u, i, 1 + (3 * a + b) % 5) for a, u in enumerate(users)
                        for b, i in enumerate(items))
        # 7 and 07 score in opposite orders, so reading one as the other shows
        (tmp_path / "scores.csv").write_text("user,item,score\n" + "".join(
            f"{u},{i},{b if u == '7' else -b}\n" for u in users for b, i in enumerate(items)))
        d = str(tmp_path)
        steps = [
            ["split", "--dataset", f"{d}/ratings.csv", "--format", "csv", "--kappa", "0.5",
             "--tau", "1", "--out", f"{d}/split"],
            ["prefs", "--split", f"{d}/split", "--out", f"{d}/prefs"],
            ["train-rsvd", "--split", f"{d}/split", "--g", "2", "--epochs", "2",
             "--out", f"{d}/mf"],
        ]
        for arec, protocol in (("rsvd", "rated_test_items"), ("rsvd", "all_unrated"),
                               ("external", "all_unrated")):
            rec = f"{d}/rec-{arec}-{protocol}"
            steps.append(["recommend", "--split", f"{d}/split", "--prefs", f"{d}/prefs",
                          "--arec", arec, "--mf", f"{d}/mf",
                          "--external-scores", f"{d}/scores.csv", "--n", "2", "--s", "3",
                          "--protocol", protocol, "--out", rec])
            steps.append(["evaluate", "--split", f"{d}/split", "--topn", rec, "--per-user",
                          "--out", f"{d}/eval-{arec}-{protocol}"])
        for argv in steps:
            assert main(argv) == 0, argv

        train = tmp_path / "split" / "train.csv"
        assert set(self._column(train, "user")) == set(users)
        assert set(self._column(train, "item")) == set(items)
        theta_users = self._column(tmp_path / "prefs" / "theta.csv", "user")
        assert sorted(theta_users) == sorted(users)
        split, _ = load_split(tmp_path / "split")
        assert set(split.users) == set(users) and set(split.items) == set(items)
        pv = load_prefs(tmp_path / "prefs", split)[0]
        assert set(pv.theta) == set(users)
        for arec, protocol in (("rsvd", "rated_test_items"), ("rsvd", "all_unrated"),
                               ("external", "all_unrated")):
            topn = tmp_path / f"rec-{arec}-{protocol}" / "topn.csv"
            assert set(self._column(topn, "user")) == set(users)
            assert set(self._column(topn, "item")) <= set(items)
            per_user = tmp_path / f"eval-{arec}-{protocol}" / "per_user.csv"
            assert set(self._column(per_user, "user")) == set(users)
        # user 7 scores the items by position and user 07 against it
        scorer = load_external_scores(tmp_path / "scores.csv", split)
        score = {u: dict(zip(split.items, scorer.score_vector(u).tolist())) for u in ("7", "07")}
        assert (score["7"]["11"], score["07"]["11"]) == (1.0, 0.0)
        assert (score["7"]["7"], score["07"]["7"]) == (0.0, 1.0)
        assert score["7"]["07"] == 1 / 9 and score["7"]["7.0"] == 2 / 9


class TestUserWhoRatedEveryTrainItem:
    """User 1 has rated every train item, so no candidate is left for them."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("full-user")
        split = build_split([(1, "a", 4), (1, "b", 3), (2, "a", 5), (3, "b", 2)],
                            [(2, "b", 5), (3, "a", 4)])
        save_split(split, d / "split")
        assert main(["prefs", "--split", str(d / "split"), "--model", "constant",
                     "--constant", "0.5", "--out", str(d / "prefs")]) == 0
        assert main(["train-rsvd", "--split", str(d / "split"), "--g", "2",
                     "--epochs", "2", "--out", str(d / "mf")]) == 0
        return d

    # rated_test_items: user 1 has no test rating and is not eligible;
    # all_unrated: user 1 is eligible and has 0 candidates, a contract error
    @pytest.mark.parametrize("protocol,code", [("rated_test_items", 0), ("all_unrated", 3)])
    def test_rsvd_exits_as_pop_does(self, run_dir, protocol, code, capsys):
        got = {}
        for arec, extra in (("pop", []), ("rsvd", ["--mf", str(run_dir / "mf")])):
            out = run_dir / f"rec-{arec}-{protocol}"
            capsys.readouterr()
            exit_code = main(["recommend", "--split", str(run_dir / "split"),
                              "--prefs", str(run_dir / "prefs"), "--arec", arec, *extra,
                              "--crec", "stat", "--n", "1", "--s", "3",
                              "--protocol", protocol, "--out", str(out)])
            users = None
            if exit_code == 0:
                with open(out / "topn.csv", newline="") as fh:
                    users = sorted(row[0] for row in list(csv.reader(fh))[1:])
            got[arec] = (exit_code, capsys.readouterr().err, users)
        assert got["rsvd"] == got["pop"]
        assert got["pop"][0] == code
        if code == 3:
            assert got["pop"][1] == "error: user 1: 0 candidates for top-1\n"
        else:
            assert got["pop"][2] == ["2", "3"]


class TestSplitSidecar:
    def test_split_writes_the_sidecar(self, split_dir):
        assert (split_dir / "split.npz").is_file()

    @pytest.mark.parametrize("command", ["prefs", "train-rsvd", "recommend", "evaluate"])
    def test_each_split_file_is_hashed_once(self, split_dir, prefs_dir, rec_dir, tmp_path,
                                            command):
        argv = {
            "prefs": [],
            "train-rsvd": ["--g", "2", "--epochs", "1"],
            "recommend": ["--prefs", str(prefs_dir), "--s", "10"],
            "evaluate": ["--topn", str(rec_dir)],
        }[command]
        hashed = []

        def sha256_file(path):
            hashed.append(Path(path).name)
            return real(path)

        real = ganc.io_utils.sha256_file
        with mock.patch.object(ganc.dataset, "sha256_file", sha256_file), \
                mock.patch.object(ganc.io_utils, "sha256_file", sha256_file), \
                mock.patch.object(ganc.dataset, "_parse", side_effect=AssertionError("parsed")):
            assert main([command, "--split", str(split_dir), "--out", str(tmp_path / "out"),
                         *argv]) == 0
        assert sorted(n for n in hashed if n.endswith(".csv") and n != "theta.csv") == \
            ["test.csv", "train.csv"]

    @pytest.mark.parametrize("file, damage, message", [
        ("train.csv", _truncate_last_line, "expected 3 or 4 fields, got 2"),
        ("test.csv", _bad_rating, "bad rating 'four'"),
    ])
    def test_damaged_csv_beside_a_valid_sidecar_exits_2(self, split_dir, tmp_path, capsys,
                                                        file, damage, message):
        split = tmp_path / "split"
        split.mkdir()
        for name in ("train.csv", "test.csv", "split.json", "split.npz"):
            (split / name).write_bytes((split_dir / name).read_bytes())
        line = damage(split / file)
        assert main(["prefs", "--split", str(split), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {split / file}:{line}: {message}\n"

    def test_garbage_sidecar_does_not_change_the_outputs(self, split_dir, prefs_dir,
                                                         tmp_path):
        split = tmp_path / "split"
        split.mkdir()
        for name in ("train.csv", "test.csv", "split.json"):
            (split / name).write_bytes((split_dir / name).read_bytes())
        (split / "split.npz").write_bytes(b"PK\x03\x04 damaged")
        assert main(["prefs", "--split", str(split), "--model", "generalized",
                     "--out", str(tmp_path / "prefs")]) == 0
        for name in ("theta.csv", "weights.csv"):
            assert (tmp_path / "prefs" / name).read_bytes() == (prefs_dir / name).read_bytes()
        assert read_json(tmp_path / "prefs" / "prefs.json")["split_sha256"] == \
            read_json(prefs_dir / "prefs.json")["split_sha256"]


def test_evaluate_does_not_depend_on_the_hash_seed(tmp_path):
    # string item ids hash differently in each process; strat_recall used to
    # sum their weights in set order and move in its last digits
    ratings = tmp_path / "ratings.csv"
    with open(ratings, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "item", "rating"])
        for r in generate_ratings(n_users=200, n_items=400, seed=21):
            w.writerow([r.user_id, f"i{r.item_id}", r.value])
    d = {name: str(tmp_path / name) for name in ("split", "prefs", "rec")}
    assert main(["split", "--dataset", str(ratings), "--format", "csv",
                 "--out", d["split"]]) == 0
    assert main(["prefs", "--split", d["split"], "--out", d["prefs"]]) == 0
    assert main(["recommend", "--split", d["split"], "--prefs", d["prefs"],
                 "--s", "30", "--out", d["rec"]]) == 0
    reports = []
    for seed in ("1", "3"):
        out = tmp_path / f"eval-{seed}"
        with mock.patch.dict(os.environ, PYTHONHASHSEED=seed):
            proc = _run_cli(["evaluate", "--split", d["split"], "--topn", d["rec"],
                             "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


class TestStatsCommand:
    def test_profile_written(self, split_dir, tmp_path):
        out = tmp_path / "stats"
        assert main(["stats", "--split", str(split_dir), "--bins", "10",
                     "--out", str(out)]) == 0
        with open(out / "profile.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_center", "mean_avg_popularity"]
        assert len(rows) > 1


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, dataset_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = {dataset_csv}\n"
            "format = csv\n"
            "kappa = 0.5\n"
            "tau = 20\n"
            "seed = 5  # trailing comment\n"
            f"out = {tmp_path / 'cfg-out'}\n"
        )
        assert main(["split", "--config", str(cfg)]) == 0
        manifest = read_json(tmp_path / "cfg-out" / "split.json")
        assert manifest["seed"] == 5
        assert main(["split", "--config", str(cfg), "--seed", "7",
                     "--out", str(tmp_path / "cfg-out2")]) == 0
        assert read_json(tmp_path / "cfg-out2" / "split.json")["seed"] == 7

    def test_unknown_config_key_exits_1(self, dataset_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset = x\nwibble = 3\n")
        assert main(["split", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_workers_key_exits_1(self, split_dir, prefs_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 4\n")
        assert main(["recommend", "--config", str(cfg), "--split", str(split_dir),
                     "--prefs", str(prefs_dir), "--out", str(tmp_path / "x")]) == 1

    def test_usage_error_exit_code(self):
        assert main(["split"]) == 1
        assert main(["not-a-command"]) == 1

    def test_switch_key_exits_1(self, split_dir, rec_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("per_user = true\n")
        proc = _run_cli(["evaluate", "--config", str(cfg), "--split", str(split_dir),
                         "--topn", str(rec_dir), "--out", str(tmp_path / "x")])
        assert proc.returncode == 1
        assert proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "x").exists()

    def test_names_must_be_spelled_in_full(self, split_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max = 3\n")
        out = str(tmp_path / "x")
        assert main(["prefs", "--config", str(cfg), "--split", str(split_dir),
                     "--out", out]) == 1
        assert main(["prefs", "--split", str(split_dir), "--max", "3", "--out", out]) == 1
        assert not (tmp_path / "x").exists()

    def test_config_satisfies_required_flags(self, split_dir, prefs_dir, rec_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"split = {split_dir}\nout = {tmp_path / 'rec'}\n"
                       "arec = pop\ncrec = dyn\nn = 5\ns = 30\nrun-seed = 0\n")
        assert main(["recommend", "--config", str(cfg), "--prefs", str(prefs_dir)]) == 0
        assert (tmp_path / "rec" / "topn.csv").read_bytes() == \
            (rec_dir / "topn.csv").read_bytes()

    def test_value_outside_the_choices_exits_1(self, dataset_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {dataset_csv}\nformat = bogus\n")
        assert main(["split", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert not (tmp_path / "x").exists()

    def test_readme_example_runs_as_written(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        opening = "cat > run.cfg <<EOF\n"
        config, rest = readme[readme.index(opening) + len(opening):].split("EOF\n", 1)
        command = rest.splitlines()[0].split()
        keys = dict(line.split(" = ") for line in config.splitlines())
        monkeypatch.chdir(tmp_path)
        data = Path(keys["dataset"])
        data.parent.mkdir(parents=True)
        rows = generate_ratings(n_users=80, n_items=160, seed=21)
        data.write_text("".join(f"{r.user_id}\t{r.item_id}\t{int(r.value)}\t0\n"
                                for r in rows))
        Path("run.cfg").write_text(config)
        assert command[:2] == ["ganc", "split"]
        assert main(command[1:]) == 0
        assert read_json(Path(keys["out"]) / "split.json")["seed"] == int(command[-1])
