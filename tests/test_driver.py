import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from dyntrust import optimality
from dyntrust.driver import ConfigError, TrConfig, check_history, run
from dyntrust.optimality import CertificationError
from dyntrust.oracle import InexactOracle, NonFiniteEvaluation, Problem
from dyntrust.problems import make_problem
from dyntrust.reference import phi_reference
from dyntrust.verify import VerifyOutcome


@pytest.mark.parametrize("overrides,fragment", [
    ({"eta1": 0.5, "omega": 0.3}, "omega"),
    ({"vartheta": 2.0}, "vartheta"),
    ({"vartheta": 1e-9}, "vartheta"),
    ({"Delta0": 200.0}, "radii"),
    ({"eta1": 0.9, "eta2": 0.5}, "eta"),
    ({"gamma2": 1.5}, "gamma"),
    ({"gamma3": 0.5}, "gamma"),
    ({"varsigma": 0.0}, "varsigma"),
    ({"gamma_zeta": 1.0}, "gamma_zeta"),
    ({"zeta0": 0.5}, "zeta0"),
    ({"max_iterations": 0}, "max_iterations"),
])
def test_config_violations_name_the_constraint(overrides, fragment):
    with pytest.raises(ConfigError) as err:
        TrConfig.with_defaults((1e-3,), **overrides)
    assert fragment.lower() in str(err.value).lower()


def test_config_rejects_initial_accuracy_above_kappa():
    # AccuracyLedger.fresh trusts the config, so the config owns this check
    for zeta0 in (0.5, (0.05, 0.5)):
        with pytest.raises(ConfigError, match="zeta0"):
            TrConfig.with_defaults((1e-3, 1e-3), zeta0=zeta0, gamma_zeta=0.5)


def test_config_rejects_bad_eps():
    with pytest.raises(ConfigError):
        TrConfig.with_defaults((1.5,))
    with pytest.raises(ConfigError):
        TrConfig.with_defaults((1e-3,) * 4)  # order above the dense-tensor cap


def test_config_names_an_empty_eps():
    with pytest.raises(ConfigError, match=r"criticality order q=0 outside the supported 1\.\.3"):
        TrConfig.with_defaults(())


def test_run_names_a_non_finite_start_point():
    o = InexactOracle(make_problem("rosenbrock"), policy="none", seed=0)
    with pytest.raises(ConfigError, match=r"start point x0 = \[1\.0, nan\] is not finite"):
        run(o, TrConfig.with_defaults((1e-2,)), x0=np.array([1.0, np.nan]))


def test_config_defaults_satisfy_constraints():
    cfg = TrConfig.with_defaults((1e-3, 1e-3))
    assert cfg.q == 2
    assert cfg.vartheta == 0.5
    assert cfg.omega < min(0.5 * cfg.eta1, 0.25 * (1 - cfg.eta2))


def test_run_1d_quadratic_reaches_gradient_target():
    p = make_problem("quadratic", dim=1, cond=1.0)  # f = x^2 / 2
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-4,)), x0=np.array([1.0]))
    assert res.terminated
    assert abs(res.x_eps[0]) <= 1e-4


def test_run_saddle_well_escapes_saddle():
    p = make_problem("saddle_well")
    o = InexactOracle(p, policy="adversarial", seed=1)
    res = run(o, TrConfig.with_defaults((1e-3, 1e-3)), x0=np.array([0.05, 1e-4]))
    assert res.terminated
    phi2 = phi_reference(p, res.x_eps, 2, res.delta_eps)
    assert phi2 <= 1e-3 * res.delta_eps**2 / 2 * (1 + 1e-9)
    assert abs(abs(res.x_eps[1]) - 1.0) < 0.1  # settled in a well, not the saddle


@pytest.mark.parametrize("seed", range(10))
def test_run_rosenbrock_adversarial_terminates(seed):
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="adversarial", seed=seed)
    res = run(o, TrConfig.with_defaults((1e-2, 1e-2)))
    assert res.terminated
    gnorm = np.linalg.norm(p.exact_deriv(res.x_eps, 1))
    assert gnorm <= 1e-2 + 1e-8


def test_cap_exhaustion_reported_not_raised():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-6,), max_iterations=5))
    assert not res.terminated
    assert res.n_iterations == 5


def test_certification_trap_names_the_iteration(monkeypatch):
    # certification works for 10 calls, then never again
    calls = []

    def verify_then_fail(*args):
        calls.append(args)
        if len(calls) > 10:
            return VerifyOutcome.INSUFFICIENT
        return real_verify(*args)

    real_verify = optimality.verify
    monkeypatch.setattr(optimality, "verify", verify_then_fail)
    records = []
    o = InexactOracle(make_problem("rosenbrock"), policy="adversarial", seed=0)
    with pytest.raises(CertificationError) as err:
        run(o, TrConfig.with_defaults((1e-3,)), sink=records.append)
    e = err.value
    assert e.k == len(records) > 0 and e.j == 1
    np.testing.assert_array_equal(e.x, records[-1].x_trial if records[-1].successful
                                  else records[-1].x)
    assert f"(implementation bug): iteration {e.k}, order 1, radius " in str(e)


def test_first_f_evaluation_happens_after_first_derivative():
    p = make_problem("quadratic", dim=2, cond=5)
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-3,)))
    kinds = [e.kind for e in res.eval_ledger.entries]
    assert kinds[0] == "deriv"
    assert "f" in kinds


def test_objective_value_reuse_rule():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="adversarial", seed=2)
    res = run(o, TrConfig.with_defaults((1e-2,)))
    hist = res.history
    assert any(not r.f_recomputed for r in hist)  # reuse does happen
    assert hist[0].f_recomputed                   # first iteration must compute f(x0)
    # whenever the old value was reused, its stored accuracy was sufficient:
    # the previous iteration's budget is at most the current one
    prev_acc = None
    for r in hist:
        budget = res.cfg.omega * r.dT_s
        if not r.f_recomputed:
            assert prev_acc is not None and prev_acc <= budget * (1 + 1e-12)
        # value carried forward has the tighter of the two accuracies
        prev_acc = budget if (r.successful or r.f_recomputed) else min(prev_acc, budget)
    # evaluation count: one new point per iteration plus recomputations
    assert res.eval_ledger.n_f == len(hist) + sum(r.f_recomputed for r in hist)


def test_rho_uses_certified_decrement_and_radius_update_is_deterministic():
    p = make_problem("quadratic", dim=2, cond=30)
    o = InexactOracle(p, policy="adversarial", seed=3)
    cfg = TrConfig.with_defaults((1e-3,))
    res = run(o, cfg)
    for a, b in zip(res.history[:-1], res.history[1:]):
        if a.rho < cfg.eta1:
            assert b.Delta == pytest.approx(cfg.gamma2 * a.Delta)
        elif a.rho < cfg.eta2:
            assert b.Delta == pytest.approx(a.Delta)
        else:
            assert b.Delta == pytest.approx(min(cfg.Delta_max, cfg.gamma3 * a.Delta))
        assert a.delta == pytest.approx(min(a.Delta, cfg.vartheta))
        assert a.dT_s > 0


def test_step1_skipped_after_rejection_with_large_radius():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="adversarial", seed=5)
    cfg = TrConfig.with_defaults((1e-2,))
    res = run(o, cfg)
    hist = res.history
    skipped = 0
    for a, b in zip(hist[:-1], hist[1:]):
        if not a.successful and b.Delta >= cfg.vartheta:
            # derivative counts unchanged by the next Step-1 phase: order-1
            # evaluations only move when accuracy tightened or iterate moved
            if a.i_zeta == b.i_zeta:
                assert b.n_d1 == a.n_d1
                skipped += 1
    assert skipped > 0


def test_exact_mode_audit_quadratic_exact_lipschitz():
    p = make_problem("quadratic", dim=2, cond=30)
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-4,)))
    assert res.terminated
    report = check_history(res, p)  # exact L from the problem metadata
    assert report.ok, report.violations
    assert report.lipschitz_used == max(1.0, 30.0)


def test_audit_rosenbrock_boxed_lipschitz():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-2, 1e-2)))
    report = check_history(res, p)
    assert report.ok, report.violations


def test_audit_summary_names_each_lipschitz_source():
    # declared constants are exact; sampled ones are a heuristic and say so
    p = make_problem("quadratic", dim=2, cond=30)
    res = run(InexactOracle(p, policy="none", seed=0), TrConfig.with_defaults((1e-2, 1e-2)))
    report = check_history(res, p)
    assert report.lipschitz_orders == ((30.0, "declared"), (0.0, "declared"))
    assert report.summary().splitlines()[-1] == (
        "L_f = max(1, L_j) = 30: L_1=30 declared, L_2=0 declared")

    p = make_problem("rosenbrock")
    res = run(InexactOracle(p, policy="none", seed=0), TrConfig.with_defaults((1e-2, 1e-2)))
    report = check_history(res, p)
    assert type(report.lipschitz_used) is float
    (l1, s1), (l2, s2) = report.lipschitz_orders
    assert s1 == s2 == "sampled (1,500 pairs x 1.5)"
    assert report.lipschitz_used == max(1.0, l1, l2)
    assert report.summary().splitlines()[-1] == (
        f"L_f = max(1, L_j) = {max(l1, l2):.4g}: L_1={l1:.4g} sampled (1,500 pairs x 1.5), "
        f"L_2={l2:.4g} sampled (1,500 pairs x 1.5)")


@pytest.mark.parametrize("seed", range(10))
def test_audit_adversarial_seeds(seed):
    p = make_problem("quadratic", dim=3, cond=12)
    o = InexactOracle(p, policy="adversarial", seed=seed)
    res = run(o, TrConfig.with_defaults((1e-3,)))
    report = check_history(res, p)
    assert report.checks["decrease_floor"].ok, report.checks["decrease_floor"].detail
    assert report.checks["radius_floor"].ok, report.checks["radius_floor"].detail
    assert report.ok, report.violations


def test_omega_near_its_cap_still_audits_clean():
    p = make_problem("quadratic", dim=2, cond=8)
    eta1, eta2 = 0.05, 0.9
    omega = 0.999 * min(0.5 * eta1, 0.25 * (1 - eta2))
    o = InexactOracle(p, policy="adversarial", seed=7)
    res = run(o, TrConfig.with_defaults((1e-3,), omega=omega))
    assert res.terminated
    report = check_history(res, p)
    assert report.ok, report.violations


def test_sink_receives_every_record():
    p = make_problem("quadratic", dim=2, cond=5)
    o = InexactOracle(p, policy="adversarial", seed=0)
    seen = []
    res = run(o, TrConfig.with_defaults((1e-3,)), sink=seen.append)
    assert seen == res.history


def test_run_rosenbrock_tight_q2_all_seeds():
    # ten adversarial seeds at the tight target; the final point always
    # carries an exact gradient under the first-order threshold
    p = make_problem("rosenbrock")
    for seed in range(10):
        o = InexactOracle(p, policy="adversarial", seed=seed)
        res = run(o, TrConfig.with_defaults((1e-3, 1e-3)))
        assert res.terminated
        gnorm = np.linalg.norm(p.exact_deriv(res.x_eps, 1))
        assert gnorm <= 1e-3 + 1e-8


def test_run_order3_smoke():
    # third-order mode: heuristic subproblem, looser targets; the run must
    # terminate cleanly and land first-order flat
    p = make_problem("quartic", dim=2)
    o = InexactOracle(p, policy="adversarial", seed=0)
    res = run(o, TrConfig.with_defaults((1e-1, 1e-1, 1e-1)))
    assert res.terminated
    assert any(r.j >= 2 for r in res.history) or res.n_iterations == 0
    gnorm = np.linalg.norm(p.exact_deriv(res.x_eps, 1))
    assert gnorm <= 1e-1 + 1e-8


def test_audit_order3_checks_termination_at_every_order():
    p = make_problem("quartic", dim=3)
    res = run(InexactOracle(p, policy="adversarial", seed=0), TrConfig.with_defaults((1e-2,) * 3))
    assert res.terminated
    report = check_history(res, p)
    assert report.ok, report.violations
    assert "phi_3=" in report.checks["termination_soundness"].detail


def test_audit_accuracy_floor_skips_exact_orders():
    # exact orders request zeta = 0 by design; the floor covers the rest
    p = make_problem("quadratic", dim=2, cond=10)
    o = InexactOracle(p, policy="adversarial", seed=0, exact_orders=(1,))
    res = run(o, TrConfig.with_defaults((1e-3,)))
    assert res.terminated
    report = check_history(res, p)
    assert report.checks["zeta_floor"].ok, report.checks["zeta_floor"].detail
    assert report.ok, report.violations


def test_audit_flags_a_step_beyond_the_radius():
    p = make_problem("quadratic", dim=2, cond=10)
    res = run(InexactOracle(p, policy="adversarial", seed=0), TrConfig.with_defaults((1e-3,)))
    assert check_history(res, p).checks["step_within_radius"].ok
    rec = res.history[3]
    res.history[3] = rec._replace(step_norm=rec.Delta * (1 + 1e-10))
    check = check_history(res, p).checks["step_within_radius"]
    assert not check.ok, check.detail


def test_records_are_immutable():
    from dyntrust.optimality import CertifiedDecrement
    from dyntrust.step import StepResult

    res = run(InexactOracle(make_problem("rosenbrock"), policy="adversarial", seed=0),
              TrConfig.with_defaults((1e-2,)))
    records = [res.history[0], res.eval_ledger.entries[0],
               CertifiedDecrement(1, np.ones(2), 1.0, VerifyOutcome.RELATIVE, 0),
               StepResult(np.ones(2), 1.0, 0, 0.1, 0)]
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
    assert not res.history[0].x.flags.writeable


def test_bounds_for_run_helper():
    from dyntrust.driver import bounds_for_run
    p = make_problem("quadratic", dim=2, cond=10)
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-3,)))
    bc, L = bounds_for_run(res, p)
    assert L == 10.0
    assert bc.eval_bound_f > res.eval_ledger.n_f


def test_run_third_order_step_engaged():
    # degenerate stationary point: zero gradient, zero curvature, live third
    # derivative; only an order-3 step can leave it
    from dyntrust.oracle import Problem

    def fun(x):
        return float(x[0] ** 4 / 4 + x[0] ** 3 / 3)

    def deriv(x, order):
        u = x[..., 0]
        if order == 1:
            return (u**3 + u**2)[..., None]
        if order == 2:
            return (3 * u**2 + 2 * u)[..., None, None]
        return (6 * u + 2)[..., None, None, None]

    p = Problem(name="degenerate_cubic", dim=1, fun=fun, deriv=deriv,
                f_low=-1 / 12, x0=np.zeros(1))
    o = InexactOracle(p, policy="adversarial", seed=0)
    res = run(o, TrConfig.with_defaults((1e-2, 1e-2, 1e-2)))
    assert res.terminated
    assert any(r.j == 3 for r in res.history)
    # the run must have escaped to the genuine minimizer at -1
    assert res.x_eps[0] == pytest.approx(-1.0, abs=0.05)


def test_records_hold_each_point_once_read_only():
    p = make_problem("rosenbrock")
    res = run(InexactOracle(p, policy="adversarial", seed=2), TrConfig.with_defaults((1e-2,)))
    assert res.n_success > 0 and res.n_success < res.n_iterations
    current = res.x0
    for r in res.history:
        assert r.x is current  # the previous accepted x_trial, or the start point
        for arr in (r.x, r.x_trial):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        if r.successful:
            current = r.x_trial
    np.testing.assert_array_equal(res.x_eps, current)


def test_audit_evaluates_the_objective_once_per_trial_point():
    base = make_problem("rosenbrock")
    calls = []

    def fun(x):
        calls.append(1)
        return base.fun(x)

    p = Problem(name="counted_rosenbrock", dim=2, fun=fun, deriv=base.deriv,
                f_low=base.f_low, x0=base.x0, lipschitz=base.lipschitz)
    res = run(InexactOracle(p, policy="adversarial", seed=1), TrConfig.with_defaults((1e-2,)))
    calls.clear()
    report = check_history(res, p)
    assert report.ok, report.violations
    assert 0 < len(calls) <= res.n_iterations + 3


def test_audit_refuses_a_nonfinite_exact_objective():
    # The audit's exact values go through the same check as the solver's: a
    # NaN f at a recorded trial point used to fail no comparison, so the
    # replay counted 0 violations.
    base = make_problem("finite_sum_logistic", dim=3, terms=32)
    res = run(InexactOracle(base, policy="subsample"), TrConfig.with_defaults((1e-2,)))
    target = res.history[len(res.history) // 2].x_trial

    def fun(x):
        return math.nan if np.array_equal(x, target) else base.fun(x)

    p = dataclasses.replace(base, fun=fun)
    with pytest.raises(NonFiniteEvaluation,
                       match=re.escape(f"objective value nan at x = {target.tolist()} "
                                       "is not finite")):
        check_history(res, p)


def test_retained_memory_per_iteration_is_bounded():
    # Each record keeps its trial point once; x aliases the previous one.
    p = make_problem("quadratic", dim=100, cond=1e4)
    oracle = InexactOracle(p, policy="adversarial", seed=1)
    cfg = TrConfig.with_defaults((1e-4,), max_iterations=2000)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run(oracle, cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.n_iterations == 2000
    assert retained / res.n_iterations < 2500
