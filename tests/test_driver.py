import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from checkers import pointwise_replay
from dyntrust import driver, optimality, reference, step
from dyntrust.driver import ConfigError, RunTrace, TrConfig, check_history, lipschitz_f, run
from dyntrust.optimality import CertificationError
from dyntrust.oracle import InexactOracle, NonFiniteEvaluation, Problem
from dyntrust.problems import list_problems, make_problem
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
    ({"max_iterations": 2.5}, "max_iterations"),
    ({"kappa_zeta": math.inf}, "kappa_zeta"),
    ({"kappa_zeta": math.nan}, "kappa_zeta"),
    ({"zeta0": (0.1, 0.1)}, "zeta0 must be scalar or one value per order"),
])
def test_config_violations_name_the_constraint(overrides, fragment):
    with pytest.raises(ConfigError) as err:
        TrConfig.with_defaults((1e-3,), **overrides)
    assert fragment.lower() in str(err.value).lower()


def test_config_rejects_initial_accuracy_above_kappa():
    # AccuracyLedger trusts the config, so the config owns this check
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


@pytest.mark.parametrize("x0,message", [
    (np.array([]), "[] is not a nonempty 1-D point"),
    (np.ones((1, 2)), "[[1.0, 1.0]] is not a nonempty 1-D point"),
])
def test_run_refuses_a_malformed_start_point(x0, message):
    o = InexactOracle(make_problem("rosenbrock"), policy="none", seed=0)
    with pytest.raises(ConfigError, match=re.escape(f"start point x0 = {message}")):
        run(o, TrConfig.with_defaults((1e-2,)), x0=x0)


def test_run_refuses_a_start_point_of_another_dimension():
    o = InexactOracle(make_problem("rosenbrock"), policy="none", seed=0)
    with pytest.raises(ConfigError, match="start point dimension does not match the problem"):
        run(o, TrConfig.with_defaults((1e-2,)), x0=np.ones(3))


def test_a_trace_refuses_trial_points_that_do_not_match_its_rows():
    trace = RunTrace(np.zeros(2))
    row = np.zeros(1, RunTrace.dtype).tobytes()
    for x_trial in (np.zeros((1, 3)), np.zeros((2, 2)), np.zeros(0)):
        with pytest.raises(ValueError, match="one trial point of x0's size per row"):
            trace.extend(row, x_trial)
    assert len(trace) == 0


@pytest.mark.parametrize("bad,calls,phase,what", [
    ("fun", 8, "objective", "objective value nan"),
    ("deriv", 5, "termination", "order-1 derivative"),
], ids=["objective", "derivative"])
def test_non_finite_problem_output_names_the_iteration_and_phase(bad, calls, phase, what):
    # the problem door's text, led by the iteration and the phase
    base = make_problem("quadratic", dim=2)
    seen = []

    def nan_from_call(f):
        def wrapped(x, *args):
            seen.append(bad)
            return f(x, *args) * (math.nan if len(seen) >= calls else 1.0)
        return wrapped

    p = dataclasses.replace(base, **{bad: nan_from_call(getattr(base, bad))})
    records = []
    with pytest.raises(NonFiniteEvaluation) as err:
        run(InexactOracle(p, policy="adversarial", seed=0), TrConfig.with_defaults((1e-3,)),
            sink=records.append)
    assert records
    assert re.fullmatch(rf"iteration {len(records)}, {phase} phase: {what} at x = \[.+\] "
                        "is not finite", str(err.value))


def test_config_defaults_satisfy_constraints():
    cfg = TrConfig.with_defaults((1e-3, 1e-3))
    assert cfg.q == 2
    assert cfg.vartheta == 0.5
    assert cfg.omega < min(0.5 * cfg.eta1, 0.25 * (1 - cfg.eta2))


@pytest.mark.parametrize("eps", [(1e-3,), (0.7,), (1e-2, 0.6), (1e-3, 1e-3, 0.9)])
@pytest.mark.parametrize("overrides", [
    {}, {"eta1": 0.01}, {"eta2": 0.99}, {"eta1": 0.2, "eta2": 0.3},
    {"vartheta": 0.95}, {"omega": 1e-3}, {"zeta0": 0.05, "seed": 3}])
def test_plain_config_equals_with_defaults(eps, overrides):
    assert TrConfig(eps=eps, **overrides) == TrConfig.with_defaults(eps, **overrides)


def test_plain_config_derives_vartheta_and_omega():
    assert TrConfig(eps=(0.7,)).vartheta == 0.7
    assert TrConfig(eps=(1e-3,), eta1=0.01).omega == 0.9 * min(0.5 * 0.01, 0.25 * 0.1)
    assert TrConfig.with_defaults(1e-3) == TrConfig(eps=(1e-3,))


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None])
def test_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match=re.escape(
            f"seed must be a non-negative integer, got {seed!r}")):
        TrConfig.with_defaults((1e-3,), seed=seed)
    assert TrConfig.with_defaults((1e-3,), seed=np.int64(3)).seed == 3


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
    records = []
    with monkeypatch.context() as m, pytest.raises(CertificationError) as err:
        m.setattr(optimality, "verify", verify_then_fail)
        o = InexactOracle(make_problem("rosenbrock"), policy="adversarial", seed=0)
        run(o, TrConfig.with_defaults((1e-3,)), sink=records.append)
    e = err.value
    assert e.k == len(records) > 0 and e.j == 1
    # the trapped iteration starts where the same run, unpatched and capped
    # after the e.k iterations before it, ends
    o = InexactOracle(make_problem("rosenbrock"), policy="adversarial", seed=0)
    capped = run(o, TrConfig.with_defaults((1e-3,), max_iterations=e.k))
    assert capped.n_iterations == e.k and not capped.terminated
    np.testing.assert_array_equal(e.x, capped.x_eps, strict=True)
    assert f"(implementation bug): iteration {e.k}, order 1, radius " in str(e)


def test_first_f_evaluation_happens_after_first_derivative():
    p = make_problem("quadratic", dim=2, cond=5)
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-3,)))
    orders = [e.order for e in res.eval_ledger.entries]
    assert orders[0] > 0
    assert 0 in orders


def test_objective_value_reuse_rule():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="adversarial", seed=2)
    res = run(o, TrConfig.with_defaults((1e-2,)))
    hist = res.history
    recomputed = hist.column("f_recomputed")
    assert not recomputed.all()  # reuse does happen
    assert recomputed[0]         # first iteration must compute f(x0)
    # whenever the old value was reused, its stored accuracy was sufficient:
    # the previous iteration's budget is at most the current one
    prev_acc = None
    for recomp, successful, dT_s in zip(recomputed.tolist(), hist.column("successful").tolist(),
                                        hist.column("dT_s").tolist()):
        budget = res.cfg.omega * dT_s
        if not recomp:
            assert prev_acc is not None and prev_acc <= budget * (1 + 1e-12)
        # value carried forward has the tighter of the two accuracies
        prev_acc = budget if (successful or recomp) else min(prev_acc, budget)
    # evaluation count: one new point per iteration plus recomputations
    assert res.eval_ledger.n_f == len(hist) + np.count_nonzero(recomputed)


def test_rho_uses_certified_decrement_and_radius_update_is_deterministic():
    p = make_problem("quadratic", dim=2, cond=30)
    o = InexactOracle(p, policy="adversarial", seed=3)
    cfg = TrConfig.with_defaults((1e-3,))
    res = run(o, cfg)
    rho, Delta = res.history.column("rho"), res.history.column("Delta")
    next_Delta = np.where(rho < cfg.eta1, cfg.gamma2 * Delta,
                          np.where(rho < cfg.eta2, Delta,
                                   np.minimum(cfg.Delta_max, cfg.gamma3 * Delta)))
    assert Delta[1:] == pytest.approx(next_Delta[:-1])
    assert res.history.column("delta") == pytest.approx(np.minimum(Delta, cfg.vartheta))
    assert (res.history.column("dT_s") > 0).all()


def test_step1_skipped_after_rejection_with_large_radius():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="adversarial", seed=5)
    cfg = TrConfig.with_defaults((1e-2,))
    res = run(o, cfg)
    hist = res.history
    i_zeta, n_d1 = hist.column("i_zeta"), hist.column("n_d1")
    # a rejection followed by a radius still at vartheta, with no tightening
    # in between: the next Step-1 phase is skipped, so the order-1 count holds
    # (it moves only when accuracy tightened or the iterate moved)
    skipped = (~hist.column("successful")[:-1] & (hist.column("Delta")[1:] >= cfg.vartheta)
               & (i_zeta[:-1] == i_zeta[1:]))
    np.testing.assert_array_equal(n_d1[1:][skipped], n_d1[:-1][skipped])
    assert skipped.any()


def test_exact_mode_audit_quadratic_exact_lipschitz():
    p = make_problem("quadratic", dim=2, cond=30)
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-4,)))
    assert res.terminated
    report = check_history(res, p)  # exact L from the problem metadata
    assert report.ok, report.violations
    assert lipschitz_f(report.lipschitz_orders) == max(1.0, 30.0)


def test_audit_rosenbrock_boxed_lipschitz():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-2, 1e-2)))
    report = check_history(res, p)
    assert report.ok, report.violations


def test_audit_summary_names_each_lipschitz_source():
    # declared constants are exact, certified ones hold on the iterate box,
    # and sampled ones are a heuristic and say so
    p = make_problem("quadratic", dim=2, cond=30)
    res = run(InexactOracle(p, policy="none", seed=0), TrConfig.with_defaults((1e-2, 1e-2)))
    report = check_history(res, p)
    assert report.lipschitz_orders == ((30.0, "declared"), (0.0, "declared"))
    assert report.summary().splitlines()[-1] == (
        "L_f = max(1, L_j) = 30: L_1=30 declared, L_2=0 declared")

    p = make_problem("rosenbrock")
    res = run(InexactOracle(p, policy="none", seed=0), TrConfig.with_defaults((1e-2, 1e-2)))
    report = check_history(res, p)
    (l1, s1), (l2, s2) = report.lipschitz_orders
    assert s1 == s2 == "certified on box"
    assert report.summary().splitlines()[-1] == (
        f"L_f = max(1, L_j) = {max(l1, l2):.4g}: L_1={l1:.4g} certified on box, "
        f"L_2={l2:.4g} certified on box")

    p = dataclasses.replace(p, lipschitz=None)  # a user problem that states nothing
    report = check_history(res, p)
    assert type(lipschitz_f(report.lipschitz_orders)) is float
    (l1, s1), (l2, s2) = report.lipschitz_orders
    assert s1 == s2 == "sampled (1,500 pairs x 1.5)"
    assert lipschitz_f(report.lipschitz_orders) == max(1.0, l1, l2)
    assert report.summary().splitlines()[-1] == (
        f"L_f = max(1, L_j) = {max(l1, l2):.4g}: L_1={l1:.4g} sampled (1,500 pairs x 1.5), "
        f"L_2={l2:.4g} sampled (1,500 pairs x 1.5)")


@pytest.mark.parametrize("bad", [math.nan, -5.0, math.inf])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("form", ["declared", "certified on box"])
def test_audit_refuses_a_nonfinite_or_negative_lipschitz_constant(form, order, bad):
    # max(1, L_j) used to drop a NaN L_j, and a negative one fell under the
    # 1: the audit passed with L_f = 1 where the true L_1 is 30
    base = make_problem("quadratic", dim=2, cond=30)
    res = run(InexactOracle(base, policy="none"), TrConfig.with_defaults((1e-2, 1e-2)))
    stated = (bad, 0.0) if order == 1 else (30.0, bad)
    p = dataclasses.replace(base, lipschitz=stated if form == "declared"
                            else lambda lo, hi: stated)
    with pytest.raises(ValueError, match=re.escape(
            f"{base.name}: Lipschitz constant L_{order} must be finite and non-negative, "
            f"got {bad!r}")):
        check_history(res, p)


def test_auditing_a_registered_problem_samples_nothing(monkeypatch):
    # every registered problem states its constants in closed form
    calls = []
    monkeypatch.setattr(reference, "lipschitz_estimate",
                        lambda *args, **kwargs: calls.append(args) or 1.0)
    params = {"quadratic": {"dim": 2}, "quartic": {"dim": 2},
              "finite_sum_logistic": {"dim": 2, "terms": 8}}
    for name in list_problems():
        p = make_problem(name, **params.get(name, {}))
        res = run(InexactOracle(p, policy="adversarial", seed=1),
                  TrConfig.with_defaults((1e-1,) * 3, max_iterations=5))
        report = check_history(res, p, check_termination=False)
        assert [source for _, source in report.lipschitz_orders] == (
            ["certified on box"] * 3 if callable(p.lipschitz) else ["declared"] * 3), name
    assert calls == []
    # a problem that states nothing is sampled, on its own box
    check_history(res, dataclasses.replace(p, lipschitz=None), check_termination=False)
    assert len(calls) == 3


def test_the_iterate_box_is_built_only_when_an_order_needs_it(monkeypatch):
    built = []
    iterate_box = driver._iterate_box
    monkeypatch.setattr(driver, "_iterate_box",
                        lambda result: built.append(1) or iterate_box(result))
    cfg = TrConfig.with_defaults((1e-1, 1e-1), max_iterations=20)
    for p in (make_problem("quadratic", dim=2), make_problem("finite_sum_logistic", dim=2)):
        check_history(run(InexactOracle(p, policy="adversarial", seed=1), cfg), p)
    assert built == []  # global constants only
    p = make_problem("rosenbrock")
    res = run(InexactOracle(p, policy="adversarial", seed=1), cfg)
    check_history(res, p)
    assert len(built) == 1
    # certified L_1 and sampled L_2 share one box
    check_history(res, dataclasses.replace(p, lipschitz=lambda lo, hi: (1e4, None)))
    assert len(built) == 2


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
    assert len(seen) == len(res.history) > 0
    rows = np.array(seen, dtype=RunTrace.dtype)
    for name in RunTrace.dtype.names:
        np.testing.assert_array_equal(rows[name], res.history.column(name), strict=True,
                                      err_msg=name)


def test_run_sets_the_phase_before_each_phase(monkeypatch):
    from dyntrust import driver
    from dyntrust.oracle import PHASE_OBJECTIVE, PHASE_STEP, PHASE_TERMINATION

    seen = []

    def spy(fn, phase):
        def wrapped(*args, **kwargs):
            seen.append(phase)
            assert kwargs.get("acc", args[-1]).ledger.phase == phase
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(driver, "termination_test", spy(driver.termination_test, PHASE_TERMINATION))
    monkeypatch.setattr(driver, "compute_step", spy(driver.compute_step, PHASE_STEP))
    res = run(InexactOracle(make_problem("rosenbrock"), policy="adversarial", seed=0),
              TrConfig.with_defaults((1e-2, 1e-2)))
    assert {PHASE_TERMINATION, PHASE_STEP} <= set(seen)
    # objective values are logged under the objective phase, and only they are
    assert all((e.order == 0) == (e.phase == PHASE_OBJECTIVE) for e in res.eval_ledger.entries)


def test_every_phase_reads_its_constants_from_the_run_config(monkeypatch):
    # run passes no constants: every verify call sees the config's omega,
    # the termination test's xi its varsigma and eps_j, and every ball
    # search its seed, at each order up to q = 3
    cfg = TrConfig.with_defaults((1e-2, 2e-2, 3e-2), omega=0.015, varsigma=0.9, seed=7)
    seen = {"termination": [], "step": [], "max_decrement": []}

    def spy_verify(phase, fn):
        def wrapped(delta, decrement, zetas, xi, omega):
            seen[phase].append((len(zetas), xi, omega))
            return fn(delta, decrement, zetas, xi, omega)
        return wrapped

    def spy_max_decrement(fn):
        def wrapped(b, j, delta, seed=0):
            seen["max_decrement"].append((j, seed))
            return fn(b, j, delta, seed=seed)
        return wrapped

    monkeypatch.setattr(optimality, "verify", spy_verify("termination", optimality.verify))
    monkeypatch.setattr(step, "verify", spy_verify("step", step.verify))
    for module in (optimality, step):
        monkeypatch.setattr(module, "max_decrement", spy_max_decrement(module.max_decrement))
    res = run(InexactOracle(make_problem("quartic", dim=3), policy="adversarial", seed=0), cfg)
    assert res.cfg is cfg and all(seen.values())
    assert {omega for phase in ("termination", "step") for *_, omega in seen[phase]} == {0.015}
    # varsigma = 0.9 lies under every order's solver guarantee
    assert {(j, xi) for j, xi, _ in seen["termination"]} == {
        (j, 0.5 * 0.9 * cfg.eps[j - 1]) for j in (1, 2, 3)}
    assert {seed for _, seed in seen["max_decrement"]} == {7}
    assert {j for j, _ in seen["max_decrement"]} == {1, 2, 3}


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
    assert (res.history.column("j") >= 2).any() or res.n_iterations == 0
    gnorm = np.linalg.norm(p.exact_deriv(res.x_eps, 1))
    assert gnorm <= 1e-1 + 1e-8


def test_audit_order3_checks_termination_at_every_order():
    p = make_problem("quartic", dim=3)
    res = run(InexactOracle(p, policy="adversarial", seed=0), TrConfig.with_defaults((1e-2,) * 3))
    assert res.terminated
    report = check_history(res, p)
    assert report.ok, report.violations
    assert "phi_3=" in report.checks["termination_soundness"].detail


def test_audit_names_a_failing_order_as_failing():
    # at the saddle (0, 0) phi_2 is over its bound; its detail used to read
    # "<= ... certified" like a pass
    p = make_problem("saddle_well")
    res = run(InexactOracle(p, policy="none", seed=0), TrConfig.with_defaults((1e-3, 1e-3)))
    check = check_history(dataclasses.replace(res, x_eps=np.zeros(2)), p).checks[
        "termination_soundness"]
    assert not check.ok
    assert check.detail == ("phi_1=0.000e+00<=4.883e-07 certified, "
                            "phi_2=2.384e-07>1.192e-10, |grad|=0.000e+00")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect, ROADMAP open item 2 and the CHANGES.md FOUND line on "
    "optimality._max_cubic_on_ball: the order-3 ascent misses an interior "
    "maximum, so the run terminates at a point that is not a third-order minimizer"))
def test_audit_rosenbrock_q3_terminates_at_a_third_order_minimizer():
    p = make_problem("rosenbrock")
    res = run(InexactOracle(p, policy="none"), TrConfig.with_defaults((1e-2,) * 3))
    assert res.terminated
    report = check_history(res, p)
    assert report.ok, report.violations


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
    trace = res.history
    table = np.rec.fromarrays([trace.column(f) for f in RunTrace.dtype.names],
                              dtype=RunTrace.dtype)
    table.step_norm[3] = table.Delta[3] * (1 + 1e-10)
    moved = dataclasses.replace(res, history=RunTrace(trace.x0, table.tobytes(), trace.x_trial))
    assert len(moved.history) == len(trace)
    assert moved.history.column("step_norm")[3] > trace.column("step_norm")[3]
    check = check_history(moved, p).checks["step_within_radius"]
    assert not check.ok, check.detail


def test_records_are_immutable():
    from dyntrust.optimality import CertifiedDecrement
    from dyntrust.step import StepResult

    res = run(InexactOracle(make_problem("rosenbrock"), policy="adversarial", seed=0),
              TrConfig.with_defaults((1e-2,)))
    records = [res.eval_ledger.entries[0],
               CertifiedDecrement(1, np.ones(2), 1.0, VerifyOutcome.RELATIVE),
               StepResult(np.ones(2), 1.0, 0, 0.1)]
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
    # the trace's columns, trial-point block and start point are read-only
    for arr in (res.history.column("Delta"), res.history.x_trial, res.history.x0):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("q", [1, 2, 3])
def test_the_audit_evaluates_the_exact_derivatives_at_x_eps_once(q, monkeypatch):
    # termination soundness reads one bundle (T_1, ..., T_q) at x_eps: phi_1
    # and phi_2 from its prefixes, phi_3 from the whole and |grad| from T_1
    # (at q = 3 it used to make 7 calls: T_1 four times, T_2 twice)
    p = make_problem("quartic", dim=3)
    res = run(InexactOracle(p, policy="adversarial", seed=0), TrConfig.with_defaults((1e-2,) * q))
    assert res.terminated and res.n_success > 0
    orders = []
    exact_deriv = Problem.exact_deriv

    def spy(self, x, order):
        if np.shape(x) == res.x_eps.shape and np.array_equal(x, res.x_eps):
            orders.append(order)
        return exact_deriv(self, x, order)

    monkeypatch.setattr(Problem, "exact_deriv", spy)
    report = check_history(res, p)
    assert report.checks["termination_soundness"].ok
    assert orders == list(range(1, q + 1))


def test_the_audit_evaluates_the_objective_at_x0_once(monkeypatch):
    # the bounds (f0 - f_low) and the replay (f at the rows before the first
    # success) read one exact_f(x0)
    p = make_problem("rosenbrock")
    res = run(InexactOracle(p, policy="adversarial", seed=0), TrConfig.with_defaults((1e-2,)))
    calls = []
    exact_f = Problem.exact_f

    def spy(self, x):
        if np.shape(x) == res.history.x0.shape and np.array_equal(x, res.history.x0):
            calls.append(x)
        return exact_f(self, x)

    monkeypatch.setattr(Problem, "exact_f", spy)
    assert check_history(res, p).ok
    assert len(calls) == 1


def test_bounds_for_run_helper():
    from dyntrust.driver import bounds_for_run
    p = make_problem("quadratic", dim=2, cond=10)
    o = InexactOracle(p, policy="none", seed=0)
    res = run(o, TrConfig.with_defaults((1e-3,)))
    bc, lipschitz = bounds_for_run(res, p)
    assert lipschitz == ((10.0, "declared"),)
    assert bc.eval_bound_f > res.eval_ledger.n_f
    assert check_history(res, p).bounds == bc


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
    assert (res.history.column("j") == 3).any()
    # the run must have escaped to the genuine minimizer at -1
    assert res.x_eps[0] == pytest.approx(-1.0, abs=0.05)


def test_records_hold_each_point_once_read_only():
    p = make_problem("rosenbrock")
    res = run(InexactOracle(p, policy="adversarial", seed=2), TrConfig.with_defaults((1e-2,)))
    assert res.n_success > 0 and res.n_success < res.n_iterations
    block = res.history.x_trial  # one row per iteration
    assert block.shape == (res.n_iterations, 2)
    with pytest.raises(ValueError):
        block[0, 0] = 0.0
    x = res.history.starts()
    current = res.history.x0
    for k, successful in enumerate(res.history.column("successful").tolist()):
        # x is the start point, or the previous accepted x_trial
        np.testing.assert_array_equal(x[k], current, strict=True)
        if successful:
            current = block[k]
    np.testing.assert_array_equal(res.x_eps, current)


def test_audit_evaluates_the_objective_once_per_trial_point():
    base = make_problem("rosenbrock")
    calls = []

    def fun(x):
        calls.extend([1] * (x.size // x.shape[-1]))  # one per point of a stack
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
    target = res.history.x_trial[len(res.history) // 2]

    def fun(x):
        return np.where((x == target).all(axis=-1), math.nan, base.fun(x))

    p = dataclasses.replace(base, fun=fun)
    with pytest.raises(NonFiniteEvaluation,
                       match=re.escape(f"objective value nan at x = {target.tolist()} "
                                       "is not finite")):
        check_history(res, p)


@pytest.mark.parametrize("case", ["zero_iterations", "over_two_blocks"])
def test_blocked_audit_equals_a_pointwise_replay(case):
    # the stacked blocks, the per-order cap table and the in-place Lipschitz
    # box report what a one-point-at-a-time replay reports, with constants
    # certified on the box and with constants sampled over it
    p = make_problem("rosenbrock")
    if case == "zero_iterations":
        res = run(InexactOracle(p, policy="none"), TrConfig.with_defaults((1e-2, 1e-2)),
                  x0=[1.0, 1.0])
        assert res.n_iterations == 0 and res.terminated
    else:
        res = run(InexactOracle(p, policy="adversarial", seed=1),
                  TrConfig.with_defaults((1e-3,), max_iterations=2 * driver._AUDIT_BLOCK + 500))
        assert res.n_iterations > 2 * driver._AUDIT_BLOCK
    for problem in (p, dataclasses.replace(p, lipschitz=None)):
        report = check_history(res, problem)
        replay = pointwise_replay(res, problem, report)
        assert report.summary() == replay.summary()
        assert report.bounds == replay.bounds


def test_audit_peak_memory_is_set_by_one_block():
    # The replay's temporaries are one block of trial points at a time, so
    # the audit's traced peak stays near one block however long the trace.
    p = make_problem("quadratic", dim=100, cond=1e4)
    res = run(InexactOracle(p, policy="adversarial", seed=1),
              TrConfig.with_defaults((1e-4,), max_iterations=6 * driver._AUDIT_BLOCK))
    assert res.n_iterations == 6 * driver._AUDIT_BLOCK
    block_bytes = driver._AUDIT_BLOCK * p.dim * 8
    gc.collect()
    tracemalloc.start()
    try:
        check_history(res, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.history.x_trial.nbytes == 6 * block_bytes
    assert peak <= 2 * block_bytes, peak


def test_retained_memory_per_iteration_is_bounded():
    # A finished run keeps 8 (n + 64) bytes per iteration at most: its trial
    # point, its scalar fields and its oracle calls, with no Python object
    # per iteration or per call.
    for p in (make_problem("quadratic", dim=100, cond=1e4), make_problem("rosenbrock")):
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
        assert retained / res.n_iterations <= 8 * (p.dim + 64), (p.name, retained)
