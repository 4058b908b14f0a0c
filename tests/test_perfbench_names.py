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
        "[PASS] decrease_floor: min exact decrease 4.680e-06 vs floor 1.380e-30 (0 violations)",
        "[PASS] radius_floor: min Delta 7.812e-03 vs floor 2.017e-07",
        "[PASS] iteration_bound: 13 iterations vs bound 34.24",
        "[PASS] success_bound: 6 successes vs bound 305681446923168492288286392320.00",
        "[PASS] f_eval_bound: 26 objective evaluations vs bound 1222725787692673969153145569280.00",
        "[PASS] deriv_round_bound: 17 derivative rounds vs bound 305681446923168492288286392320.00",
        "[PASS] deriv_round_count: 17 derivative rounds vs counting bound 24",
        "[PASS] i_zeta_bound: i_zeta 10 vs bound 17",
        "[PASS] zeta_floor: min requested zeta 1.000e-11 vs floor 1.847e-20",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=1.349e-07<=1.563e-04 certified, "
         "phi_2=1.863e-11<=1.221e-06 certified, phi_3=1.863e-11<=6.358e-09 certified, "
         "|grad|=8.632e-06"),
        ("L_f = max(1, L_j) = 9.535: L_1=6.577 certified on box, "
         "L_2=9.535 certified on box, L_3=6 certified on box"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 4.230e-06 vs floor 1.377e-30 (0 violations)",
        "[PASS] radius_floor: min Delta 7.812e-03 vs floor 2.016e-07",
        "[PASS] iteration_bound: 13 iterations vs bound 34.24",
        "[PASS] success_bound: 6 successes vs bound 306459486586707571196930555904.00",
        "[PASS] f_eval_bound: 26 objective evaluations vs bound 1225837946346830284787722223616.00",
        "[PASS] deriv_round_bound: 17 derivative rounds vs bound 306459486586707571196930555904.00",
        "[PASS] deriv_round_count: 17 derivative rounds vs counting bound 24",
        "[PASS] i_zeta_bound: i_zeta 10 vs bound 17",
        "[PASS] zeta_floor: min requested zeta 1.000e-11 vs floor 1.845e-20",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=1.334e-07<=1.563e-04 certified, "
         "phi_2=1.823e-11<=1.221e-06 certified, phi_3=1.823e-11<=6.358e-09 certified, "
         "|grad|=8.540e-06"),
        ("L_f = max(1, L_j) = 9.541: L_1=6.586 certified on box, "
         "L_2=9.541 certified on box, L_3=6 certified on box"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 4.475e-06 vs floor 1.379e-30 (0 violations)",
        "[PASS] radius_floor: min Delta 7.812e-03 vs floor 2.017e-07",
        "[PASS] iteration_bound: 13 iterations vs bound 34.24",
        "[PASS] success_bound: 6 successes vs bound 305959557829383313904178823168.00",
        "[PASS] f_eval_bound: 26 objective evaluations vs bound 1223838231317533255616715292672.00",
        "[PASS] deriv_round_bound: 17 derivative rounds vs bound 305959557829383313904178823168.00",
        "[PASS] deriv_round_count: 17 derivative rounds vs counting bound 24",
        "[PASS] i_zeta_bound: i_zeta 10 vs bound 17",
        "[PASS] zeta_floor: min requested zeta 1.000e-11 vs floor 1.846e-20",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=1.264e-07<=1.563e-04 certified, "
         "phi_2=1.636e-11<=1.221e-06 certified, phi_3=1.636e-11<=6.358e-09 certified, "
         "|grad|=8.090e-06"),
        ("L_f = max(1, L_j) = 9.537: L_1=6.58 certified on box, "
         "L_2=9.537 certified on box, L_3=6 certified on box"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 3.338e-13 vs floor 1.508e-34 (0 violations)",
        "[PASS] radius_floor: min Delta 4.883e-04 vs floor 2.062e-08",
        "[PASS] iteration_bound: 26 iterations vs bound 51.53",
        "[PASS] success_bound: 13 successes vs bound 3382166725312167432467084249923584.00",
        "[PASS] f_eval_bound: 49 objective evaluations vs bound 13528666901248669729868336999694336.00",
        "[PASS] deriv_round_bound: 27 derivative rounds vs bound 3382166725312167432467084249923584.00",
        "[PASS] deriv_round_count: 27 derivative rounds vs counting bound 34",
        "[PASS] i_zeta_bound: i_zeta 13 vs bound 20",
        "[PASS] zeta_floor: min requested zeta 1.000e-14 vs floor 1.930e-23",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=4.913e-15<=1.953e-06 certified, "
         "phi_2=8.195e-25<=1.907e-09 certified, phi_3=1.582e-24<=1.242e-12 certified, "
         "|grad|=2.515e-12"),
        ("L_f = max(1, L_j) = 23.52: L_1=21.05 certified on box, "
         "L_2=23.52 certified on box, L_3=12 certified on box"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 4.222e-08 vs floor 1.512e-34 (0 violations)",
        "[PASS] radius_floor: min Delta 4.883e-04 vs floor 2.064e-08",
        "[PASS] iteration_bound: 26 iterations vs bound 51.53",
        "[PASS] success_bound: 13 successes vs bound 3371519198078933086652612279795712.00",
        "[PASS] f_eval_bound: 49 objective evaluations vs bound 13486076792315732346610449119182848.00",
        "[PASS] deriv_round_bound: 27 derivative rounds vs bound 3371519198078933086652612279795712.00",
        "[PASS] deriv_round_count: 27 derivative rounds vs counting bound 34",
        "[PASS] i_zeta_bound: i_zeta 13 vs bound 20",
        "[PASS] zeta_floor: min requested zeta 1.000e-14 vs floor 1.933e-23",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=2.570e-10<=9.766e-07 certified, "
         "phi_2=1.226e-14<=4.768e-10 certified, phi_3=1.731e-14<=1.552e-13 certified, "
         "|grad|=2.631e-07"),
        ("L_f = max(1, L_j) = 23.5: L_1=21.02 certified on box, "
         "L_2=23.5 certified on box, L_3=12 certified on box"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 9.929e-06 vs floor 5.553e-32 (0 violations)",
        "[PASS] radius_floor: min Delta 1.562e-02 vs floor 9.035e-08",
        "[PASS] iteration_bound: 15 iterations vs bound 39.40",
        "[PASS] success_bound: 8 successes vs bound 25324991927207056066719470583808.00",
        "[PASS] f_eval_bound: 28 objective evaluations vs bound 101299967708828224266877882335232.00",
        "[PASS] deriv_round_bound: 18 derivative rounds vs bound 25324991927207056066719470583808.00",
        "[PASS] deriv_round_count: 18 derivative rounds vs counting bound 27",
        "[PASS] i_zeta_bound: i_zeta 9 vs bound 18",
        "[PASS] zeta_floor: min requested zeta 1.000e-10 vs floor 3.705e-21",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("L_f = max(1, L_j) = 11.76: L_1=10.53 certified on box, "
         "L_2=11.76 certified on box, L_3=6 certified on box"),
    ],
    [
        "[PASS] decrease_floor: min exact decrease 2.105e-07 vs floor 3.046e-28 (0 violations)",
        "[PASS] radius_floor: min Delta 7.812e-03 vs floor 7.776e-07",
        "[PASS] iteration_bound: 13 iterations vs bound 32.29",
        "[PASS] success_bound: 6 successes vs bound 2347574095669203564561956864.00",
        "[PASS] f_eval_bound: 26 objective evaluations vs bound 9390296382676814258247827456.00",
        "[PASS] deriv_round_bound: 19 derivative rounds vs bound 2347574095669203564561956864.00",
        "[PASS] deriv_round_count: 19 derivative rounds vs counting bound 24",
        "[PASS] i_zeta_bound: i_zeta 12 vs bound 17",
        "[PASS] zeta_floor: min requested zeta 1.000e-13 vs floor 2.744e-20",
        "[PASS] step_tighten_cap: 0 iterations exceeded the step tightening cap",
        "[PASS] f_accuracy_contract: 0 iterations broke the objective accuracy contract (worst overshoot 0.000e+00)",
        "[PASS] step_within_radius: max |s|/Delta 1.000000000000000",
        ("[PASS] termination_soundness: phi_1=2.074e-09<=1.563e-05 certified, "
         "phi_2=3.184e-14<=1.221e-07 certified, phi_3=4.105e-14<=6.358e-10 certified, "
         "|grad|=1.327e-07"),
        ("L_f = max(1, L_j) = 2.768: L_1=0.8791 declared, "
         "L_2=0.7429 declared, L_3=2.768 declared"),
    ],
]


def test_order3_pass_reproduces_the_recorded_fingerprints(monkeypatch):
    # iterations, evaluation counts, i_zeta and x_eps of every order-3 case
    # at seeds 0-2 equal the copy the benchmark recorded, and every audit at
    # seed 0, phi_3 from the order-3 decision included, reads as recorded above
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
    for seed in (1, 2):  # other adversaries and start samples, same copy
        out = worker.run_pass(worker.WORKLOADS["order3"], seed)
        assert out["failures"] == []
        assert out["fingerprints"] == worker.recorded_fingerprints("order3", seed), seed


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
