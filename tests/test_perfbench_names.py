"""The bench tracer (``perfbench/spans.py``) wraps library functions and
methods by name.  Every name it lists must exist, or a rename in ``src``
silently breaks ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


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
