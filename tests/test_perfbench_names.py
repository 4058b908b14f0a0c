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


# check_history(...).summary() of every order3 case at seed 0, one list of
# lines per case; each phi_3 is the largest cell bound of phi3_decide's pass
ORDER3_SEED0_AUDITS = [
    [
        "[PASS] decrease_floor: min exact decrease 4.680e-06 vs floor 2.204e-32 (0 violations)",
        "[PASS] radius_floor: min Delta 7.812e-03 vs floor 7.171e-08",
        "[PASS] iteration_bound: 13 iterations vs bound 35.73",
        "[PASS] success_bound: 6 successes vs bound 19140967027421185306615085006848.00",
        "[PASS] f_eval_bound: 26 objective evaluations vs bound 76563868109684741226460340027392.00",
        "[PASS] deriv_round_bound: 17 derivative rounds vs bound 19140967027421185306615085006848.00",
        "[PASS] deriv_round_count: 17 derivative rounds vs counting bound 25",
        "[PASS] i_zeta_bound: i_zeta 10 vs bound 18",
        "[PASS] zeta_floor: min requested zeta 1.000e-11 vs floor 2.334e-21",
        "[PASS] step_no_absolute: 0 absolute outcomes in step certification",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=1.349e-07<=1.563e-04 certified, "
         "phi_2=1.863e-11<=1.221e-06 certified, phi_3=1.863e-11<=6.358e-09 certified, "
         "|grad|=8.632e-06"),
        ("L_f = max(1, L_j) = 13.41: L_1=8.649 sampled (1,500 pairs x 1.5), "
         "L_2=13.41 sampled (1,500 pairs x 1.5), L_3=9 sampled (1,500 pairs x 1.5)"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 4.230e-06 vs floor 2.118e-32 (0 violations)",
        "[PASS] radius_floor: min Delta 7.812e-03 vs floor 7.100e-08",
        "[PASS] iteration_bound: 13 iterations vs bound 35.75",
        "[PASS] success_bound: 6 successes vs bound 19921241223825822725478276923392.00",
        "[PASS] f_eval_bound: 26 objective evaluations vs bound 79684964895303290901913107693568.00",
        "[PASS] deriv_round_bound: 17 derivative rounds vs bound 19921241223825822725478276923392.00",
        "[PASS] deriv_round_count: 17 derivative rounds vs counting bound 25",
        "[PASS] i_zeta_bound: i_zeta 10 vs bound 18",
        "[PASS] zeta_floor: min requested zeta 1.000e-11 vs floor 2.288e-21",
        "[PASS] step_no_absolute: 0 absolute outcomes in step certification",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=1.334e-07<=1.563e-04 certified, "
         "phi_2=1.823e-11<=1.221e-06 certified, phi_3=1.823e-11<=6.358e-09 certified, "
         "|grad|=8.540e-06"),
        ("L_f = max(1, L_j) = 13.55: L_1=8.846 sampled (1,500 pairs x 1.5), "
         "L_2=13.55 sampled (1,500 pairs x 1.5), L_3=9 sampled (1,500 pairs x 1.5)"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 4.475e-06 vs floor 2.117e-32 (0 violations)",
        "[PASS] radius_floor: min Delta 7.812e-03 vs floor 7.100e-08",
        "[PASS] iteration_bound: 13 iterations vs bound 35.75",
        "[PASS] success_bound: 6 successes vs bound 19925181561946403957319527301120.00",
        "[PASS] f_eval_bound: 26 objective evaluations vs bound 79700726247785615829278109204480.00",
        "[PASS] deriv_round_bound: 17 derivative rounds vs bound 19925181561946403957319527301120.00",
        "[PASS] deriv_round_count: 17 derivative rounds vs counting bound 25",
        "[PASS] i_zeta_bound: i_zeta 10 vs bound 18",
        "[PASS] zeta_floor: min requested zeta 1.000e-11 vs floor 2.288e-21",
        "[PASS] step_no_absolute: 0 absolute outcomes in step certification",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=1.264e-07<=1.563e-04 certified, "
         "phi_2=1.636e-11<=1.221e-06 certified, phi_3=1.636e-11<=6.358e-09 certified, "
         "|grad|=8.090e-06"),
        ("L_f = max(1, L_j) = 13.55: L_1=8.847 sampled (1,500 pairs x 1.5), "
         "L_2=13.55 sampled (1,500 pairs x 1.5), L_3=9 sampled (1,500 pairs x 1.5)"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 3.338e-13 vs floor 8.833e-36 (0 violations)",
        "[PASS] radius_floor: min Delta 4.883e-04 vs floor 1.015e-08",
        "[PASS] iteration_bound: 26 iterations vs bound 52.55",
        "[PASS] success_bound: 13 successes vs bound 57729557355302147403107441045405696.00",
        "[PASS] f_eval_bound: 49 objective evaluations vs bound 230918229421208589612429764181622784.00",
        "[PASS] deriv_round_bound: 27 derivative rounds vs bound 57729557355302147403107441045405696.00",
        "[PASS] deriv_round_count: 27 derivative rounds vs counting bound 35",
        "[PASS] i_zeta_bound: i_zeta 13 vs bound 21",
        "[PASS] zeta_floor: min requested zeta 1.000e-14 vs floor 4.672e-24",
        "[PASS] step_no_absolute: 0 absolute outcomes in step certification",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=4.913e-15<=1.953e-06 certified, "
         "phi_2=8.195e-25<=1.907e-09 certified, phi_3=1.582e-24<=1.242e-12 certified, "
         "|grad|=2.515e-12"),
        ("L_f = max(1, L_j) = 23.91: L_1=15.3 sampled (1,500 pairs x 1.5), "
         "L_2=23.91 sampled (1,500 pairs x 1.5), L_3=18 sampled (1,500 pairs x 1.5)"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 4.222e-08 vs floor 8.875e-36 (0 violations)",
        "[PASS] radius_floor: min Delta 4.883e-04 vs floor 1.016e-08",
        "[PASS] iteration_bound: 26 iterations vs bound 52.55",
        "[PASS] success_bound: 13 successes vs bound 57450912977382088302719877047648256.00",
        "[PASS] f_eval_bound: 49 objective evaluations vs bound 229803651909528353210879508190593024.00",
        "[PASS] deriv_round_bound: 27 derivative rounds vs bound 57450912977382088302719877047648256.00",
        "[PASS] deriv_round_count: 27 derivative rounds vs counting bound 35",
        "[PASS] i_zeta_bound: i_zeta 13 vs bound 21",
        "[PASS] zeta_floor: min requested zeta 1.000e-14 vs floor 4.684e-24",
        "[PASS] step_no_absolute: 0 absolute outcomes in step certification",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=2.570e-10<=9.766e-07 certified, "
         "phi_2=1.226e-14<=4.768e-10 certified, phi_3=1.731e-14<=1.552e-13 certified, "
         "|grad|=2.631e-07"),
        ("L_f = max(1, L_j) = 23.88: L_1=15.26 sampled (1,500 pairs x 1.5), "
         "L_2=23.88 sampled (1,500 pairs x 1.5), L_3=18 sampled (1,500 pairs x 1.5)"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 9.929e-06 vs floor 1.012e-32 (0 violations)",
        "[PASS] radius_floor: min Delta 1.562e-02 vs floor 5.904e-08",
        "[PASS] iteration_bound: 15 iterations vs bound 40.01",
        "[PASS] success_bound: 8 successes vs bound 138922517826022494169552979492864.00",
        "[PASS] f_eval_bound: 28 objective evaluations vs bound 555690071304089976678211917971456.00",
        "[PASS] deriv_round_bound: 18 derivative rounds vs bound 138922517826022494169552979492864.00",
        "[PASS] deriv_round_count: 18 derivative rounds vs counting bound 28",
        "[PASS] i_zeta_bound: i_zeta 9 vs bound 19",
        "[PASS] zeta_floor: min requested zeta 1.000e-10 vs floor 1.582e-21",
        "[PASS] step_no_absolute: 0 absolute outcomes in step certification",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("L_f = max(1, L_j) = 9: L_1=4.911 sampled (1,500 pairs x 1.5), "
         "L_2=7.311 sampled (1,500 pairs x 1.5), L_3=9 sampled (1,500 pairs x 1.5)"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 2.105e-07 vs floor 9.731e-28 (0 violations)",
        "[PASS] radius_floor: min Delta 7.812e-03 vs floor 1.040e-06",
        "[PASS] iteration_bound: 13 iterations vs bound 31.88",
        "[PASS] success_bound: 6 successes vs bound 734940750925558488124882944.00",
        "[PASS] f_eval_bound: 26 objective evaluations vs bound 2939763003702233952499531776.00",
        "[PASS] deriv_round_bound: 19 derivative rounds vs bound 734940750925558488124882944.00",
        "[PASS] deriv_round_count: 19 derivative rounds vs counting bound 24",
        "[PASS] i_zeta_bound: i_zeta 12 vs bound 17",
        "[PASS] zeta_floor: min requested zeta 1.000e-13 vs floor 4.904e-20",
        "[PASS] step_no_absolute: 0 absolute outcomes in step certification",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=2.074e-09<=1.563e-05 certified, "
         "phi_2=3.184e-14<=1.221e-07 certified, phi_3=4.105e-14<=6.358e-10 certified, "
         "|grad|=1.327e-07"),
        ("L_f = max(1, L_j) = 1.035: L_1=0.5053 sampled (1,500 pairs x 1.5), "
         "L_2=0.2488 sampled (1,500 pairs x 1.5), L_3=1.035 sampled (1,500 pairs x 1.5)"),
    ],
]


def test_order3_pass_reproduces_the_recorded_fingerprints(monkeypatch):
    # iterations, evaluation counts, i_zeta and x_eps of every order-3 case
    # at seed 0 equal the copy the benchmark recorded, and every audit,
    # phi_3 from the order-3 decision included, reads as recorded above
    from dyntrust import driver

    worker = _load("worker")
    audits = []
    check_history = driver.check_history

    def recording(*args, **kwargs):
        report = check_history(*args, **kwargs)
        audits.append(report.summary().split("\n"))
        return report

    monkeypatch.setattr(driver, "check_history", recording)  # the worker's lookup
    out = worker.run_pass(worker.WORKLOADS["order3"], 0)
    assert out["failures"] == []
    assert out["fingerprints"] == worker.recorded_fingerprints("order3", 0)
    assert audits == ORDER3_SEED0_AUDITS


def test_audit_corpus_pass_reproduces_the_recorded_fingerprints():
    # pins the none, gaussian and truncate perturbation arithmetic, which the
    # order3 cases (adversarial and subsample only) do not reach
    worker = _load("worker")
    out = worker.run_pass(worker.WORKLOADS["audit_corpus"], 0)
    assert out["failures"] == []
    assert out["fingerprints"] == worker.recorded_fingerprints("audit_corpus", 0)


def test_long_run_pass_reproduces_the_recorded_fingerprints():
    # pins the orders-1/2 solve loop, whose speed-ups must not move a count
    # or a final iterate
    worker = _load("worker")
    out = worker.run_pass(worker.WORKLOADS["long_run"], 0)
    recorded = worker.recorded_fingerprints("long_run", 0)
    assert out["failures"] == []
    assert len(out["fingerprints"]) == len(recorded) == 6
    for i, (got, want) in enumerate(zip(out["fingerprints"], recorded)):
        assert got[:-1] == want[:-1], i  # every count exact
        if i in (4, 5):
            # The order-2 solver clips its step to the ball, which moved the
            # final iterate of these two q=2 cases by 1 ulp after the copy
            # was recorded; perfbench/fingerprints.json is re-recorded only
            # with a change to the benchmark itself.
            np.testing.assert_array_max_ulp(np.array(ast.literal_eval(got[-1])),
                                            np.array(ast.literal_eval(want[-1])), 1)
        else:
            assert got[-1] == want[-1], i


def test_wide_n100_pass_reproduces_the_recorded_fingerprints():
    worker = _load("worker")
    out = worker.run_pass(worker.WORKLOADS["wide_n100"], 0)
    assert out["failures"] == []
    assert out["fingerprints"] == worker.recorded_fingerprints("wide_n100", 0)
