"""The names and signatures the benchmark tracer (``bench/tracer.py``) binds to.

The tracer wraps library functions from outside and reads counters from
their arguments and results; if one of these drifts, a traced benchmark run
loses spans or fails without any library test noticing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from ganc import core

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

