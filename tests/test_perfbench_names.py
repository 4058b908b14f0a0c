"""The benchmark (``perfbench/``) reaches into the library by name: the
tracer (``spans.py``) wraps functions and methods, and the worker
(``worker.py``) reads run results and audit reports.  Both files are loaded
unchanged here, so a rename or an API change in ``src`` fails in tier-1
instead of silently breaking ``perfbench/run.py``."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved  # the worker puts src/ and perfbench/ on the path
    return module


spans = _load("spans")


@pytest.mark.parametrize("mod,name", [(m, f) for m, f, *_ in spans.FUNCTIONS + spans.COUNTED])
def test_traced_function_exists(mod, name):
    assert callable(getattr(importlib.import_module(f"dyntrust.{mod}"), name))


@pytest.mark.parametrize("mod,cls,meth", [(m, c, f) for m, c, f, *_ in spans.METHODS])
def test_traced_method_exists(mod, cls, meth):
    # spans.py looks the method up in the class dict, not via inheritance
    assert callable(vars(getattr(importlib.import_module(f"dyntrust.{mod}"), cls))[meth])


def test_traced_run_checks_its_start_point_once():
    from dyntrust import InexactOracle, TrConfig, driver, make_problem

    tracer = spans.Tracer()
    oracle = InexactOracle(make_problem("rosenbrock"), policy="adversarial", seed=1)
    with spans.instrumented(tracer):  # rebinds names inside dyntrust modules
        result = driver.run(oracle, TrConfig.with_defaults((1e-2,)),
                            x0=np.array([0.5, 0.5]))
    summary = tracer.summary()
    assert result.terminated
    assert summary["solve.driver.run.calls"] == 1
    assert summary["solve.model.as_vector.calls"] == 1


def test_worker_pass_reads_every_result_attribute():
    worker = _load("worker")
    # one order3 case too: an audit verdict the reference flips fails here
    cases = worker.WORKLOADS["audit_corpus"][:2] + worker.WORKLOADS["order3"][:1]
    assert cases[-1].q == 3 and cases[-1].check_termination
    out = worker.run_pass(cases, 0)
    assert out["failures"] == []
    assert out["iterations"] > 0 and out["evals_f"] > 0 and out["evals_deriv"] > 0
    assert len(out["fingerprints"]) == len(cases)
    for case, fp in zip(cases, out["fingerprints"]):
        assert len(fp) == len(worker.FINGERPRINT_FIELDS)
        assert all(type(v) is int and v >= 0 for v in fp[:-1])
        x_eps = ast.literal_eval(fp[-1])
        assert len(x_eps) == case.params["dim"] and all(type(v) is float for v in x_eps)


def test_order3_pass_reproduces_the_recorded_fingerprints():
    # iterations, evaluation counts, i_zeta and x_eps of every order-3 case
    # at seed 0 equal the copy the benchmark recorded
    worker = _load("worker")
    out = worker.run_pass(worker.WORKLOADS["order3"], 0)
    assert out["failures"] == []
    assert out["fingerprints"] == worker.recorded_fingerprints("order3", 0)
