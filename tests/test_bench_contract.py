"""The names and signatures the benchmark tracer (``bench/tracer.py``) binds to.

The tracer wraps library functions from outside and reads counters from
their arguments and results; if one of these drifts, a traced benchmark run
loses spans or fails without any library test noticing.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from ganc import core
from ganc.dataset import save_split
from ganc.errors import ContractViolationError
from ganc.preference import theta_generalized
from ganc.recommenders import pop_scorer
from ganc.synthetic import generate_ratings

from conftest import random_instance

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("ganc_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for module_name, qualname in tracer.TARGETS:
        obj = importlib.import_module(f"ganc.{module_name}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{qualname}"


def test_oslg_parameters_bind_to_the_counter(tracer):
    # a new oslg parameter would make the counter's bind fail mid-run
    params = inspect.signature(core.oslg).parameters
    inspect.signature(tracer._oslg_counts).bind(None, **{name: None for name in params})


def test_traced_oslg_records_its_counters(tracer):
    split, theta, arec = random_instance(np.random.default_rng(5), n_users=4, n_items=8)
    run = core.oslg(split, theta, arec, 2, 2, 0)
    assert set(run.phase_seconds) == {"sequential", "parallel"}
    t = tracer.Tracer("contract")
    again = t.wrap("core.oslg", core.oslg)(split, theta, arec, 2, 2, seed=0)
    assert again.collection.lists == run.collection.lists
    (span,) = t.spans
    counts = span["counts"]
    assert counts["sampled_users"] == 2
    assert counts["phase2_users"] == len(split.users) - 2 == again.phase2_users
    assert counts["phase1_s"] >= 0 and counts["phase2_s"] >= 0



# What the benchmark runner and tracer read from the library's data types.

RUNNER_PATH = TRACER_PATH.with_name("run_bench.py")


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location("ganc_bench_runner", RUNNER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_validate_accepts_a_duck_typed_split_view(runner, synth_split, synth_stats, tmp_path):
    # the runner checks topn.csv against its own SplitView, which has only
    # items and per_user_train_index
    save_split(synth_split, tmp_path)
    view = runner.SplitView(tmp_path)
    run = core.oslg(synth_split, theta_generalized(synth_split),
                    pop_scorer(synth_split, synth_stats, 5), 5, 20, 0)
    run.collection.validate(view)
    user = synth_split.users[0]
    seen = next(iter(view.per_user_train_index[user]))
    with pytest.raises(ContractViolationError):
        core.TopNCollection(1, {user: (seen,)}).validate(view)


def test_generated_ratings_expose_row_fields():
    # run_bench.write_ratings reads these three attributes of every row
    r = generate_ratings(n_users=3, n_items=30, seed=0)[0]
    assert (type(r.user_id), type(r.item_id), type(r.value)) == (int, int, float)


def test_split_offers_what_the_counters_read(tracer, synth_split, synth_stats):
    counts = tracer.COUNTERS["recommenders.rsvd_train"](None, {"split": synth_split, "epochs": 3})
    assert counts == {"epochs": 3, "updates": 3 * len(synth_split.train_columns)}
    for u in synth_split.users:
        assert len(synth_split.per_user_train_index[u]) == synth_split.user_train_counts[
            synth_split.user_index[u]]
        assert len(synth_split.per_user_test_index[u]) == synth_split.user_test_counts[
            synth_split.user_index[u]]
    pv = theta_generalized(synth_split)
    arec = pop_scorer(synth_split, synth_stats, 5)
    for protocol in core.PROTOCOLS:
        run = core.oslg(synth_split, pv, arec, 5, 10, 0, protocol=protocol)
        counts = tracer._oslg_counts(run, synth_split, pv, arec, 5, 10, 0, protocol=protocol)
        assert counts["sampled_users"] == 10
        assert counts["candidates_scored"] > 0
