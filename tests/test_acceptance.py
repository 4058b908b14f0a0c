"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 3-6 and 9 share a corpus of >= 100 audited runs across problems,
corruption policies, orders, and seeds (module-scoped fixture).
"""

import time
from dataclasses import dataclass
from math import factorial

import numpy as np
import pytest

from dyntrust.driver import TrConfig, check_history, run
from dyntrust.harness import RunSpec, eps_scaling_study, execute_run
from dyntrust.model import make_bundle, sym_tensor, taylor_decrement
from dyntrust.optimality import AccuracyLedger, certified_decrement
from dyntrust.oracle import InexactOracle
from dyntrust.problems import make_problem
from dyntrust.reference import phi_reference
from dyntrust.verify import VerifyOutcome

from checkers import check_verify_guarantees

REL_SLACK = 1.0 + 1e-9  # rounding in the reference and the certified decrement


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --------------------------------------------------------------------------
# shared corpus


@dataclass
class CorpusRun:
    spec: RunSpec
    result: object
    problem: object
    audit: object


def _corpus_specs():
    specs = []

    def add(problem, params, eps, policies, seeds, **cfg):
        for policy in policies:
            for seed in seeds:
                specs.append(RunSpec(problem=problem, problem_params=dict(params),
                                     eps=eps, policy=policy, seed=seed,
                                     cfg_overrides=dict(cfg)))

    add("quadratic", {"dim": 2, "cond": 10}, (1e-3,),
        ("adversarial", "gaussian", "truncate", "none"), range(6))      # 24
    add("quadratic", {"dim": 1, "cond": 1}, (1e-4,), ("adversarial",), range(6))   # 6
    add("quadratic", {"dim": 4, "cond": 100}, (1e-3,), ("adversarial",), range(6))  # 6
    add("quadratic", {"dim": 2, "cond": 10}, (1e-2, 1e-2), ("adversarial",), range(6))  # 6
    add("rosenbrock", {}, (1e-2,), ("adversarial", "gaussian"), range(6))  # 12
    add("rosenbrock", {}, (3e-3,), ("adversarial",), range(4))             # 4
    add("rosenbrock", {}, (1e-2, 1e-2), ("adversarial",), range(4))        # 4
    add("saddle_well", {}, (1e-3, 1e-3), ("adversarial",), range(8))       # 8
    add("saddle_well", {}, (1e-3, 1e-3), ("gaussian",), range(6))          # 6
    add("quartic", {"dim": 3}, (1e-2, 1e-2), ("adversarial",), range(6))   # 6
    add("quartic", {"dim": 2}, (1e-2,), ("adversarial",), range(6))        # 6
    add("quartic", {"dim": 3}, (1e-2,) * 3, ("adversarial",), range(3))    # 3
    add("saddle_well", {}, (1e-3,) * 3, ("adversarial", "gaussian"), range(3))  # 6
    add("finite_sum_logistic", {"dim": 3, "terms": 32}, (1e-2,),
        ("subsample", "truncate"), range(6))                               # 12
    return specs


@pytest.fixture(scope="module")
def corpus():
    runs = []
    for spec in _corpus_specs():
        result, _ = execute_run(spec, write=False)
        problem = result.acc.oracle.problem
        assert result.terminated, f"corpus run failed to terminate: {spec.run_key()}"
        audit = check_history(result, problem)
        runs.append(CorpusRun(spec=spec, result=result, problem=problem, audit=audit))
    assert len(runs) >= 100
    return runs


# --------------------------------------------------------------------------
# criterion 1: certification-guarantee suite


def _verify_instance(rng):
    n = int(rng.integers(1, 5))
    r = int(rng.integers(1, 3))
    delta = float(rng.uniform(0.05, 1.0))
    exact_tensors = [sym_tensor(rng.standard_normal((n,) * i)) for i in range(1, r + 1)]
    zetas = 10.0 ** rng.uniform(-6, 0, size=r)
    inexact_tensors = []
    for i, t in enumerate(exact_tensors, start=1):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        p = u.copy()
        for _ in range(i - 1):
            p = np.multiply.outer(p, u)
        inexact_tensors.append(
            sym_tensor(t + rng.uniform(0, 0.999) * zetas[i - 1] * p,
                       already_symmetric=True))
    rng.standard_normal(n)  # a base point, drawn to keep the instance stream
    exact = make_bundle(exact_tensors)
    inexact = make_bundle(inexact_tensors)
    if rng.random() < 0.3:
        v = np.zeros(n)
    else:
        g = inexact_tensors[0]
        scale = rng.uniform(1e-3, 1.0)
        v = -scale * delta * g / max(np.linalg.norm(g), 1e-12)
        if taylor_decrement(inexact, v, r) < 0:
            v = np.zeros(n)
    omega = float(rng.uniform(0.01, 1.0))
    xi = float(10.0 ** rng.uniform(-3, 1))
    return exact, inexact, zetas, delta, v, omega, xi


def test_criterion_1_verify_guarantee_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    outcomes = {o: 0 for o in VerifyOutcome}
    violations = []
    for trial in range(200):
        exact, inexact, zetas, delta, v, omega, xi = _verify_instance(rng)
        rep = check_verify_guarantees(exact, inexact, zetas, delta, v, omega, xi,
                                      n_samples=100, seed=trial)
        outcomes[rep.outcome] += 1
        violations.extend(rep.violations)
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 10.0 and all(outcomes[o] > 0 for o in VerifyOutcome)
    report("criterion 1 (certification guarantees, 200 instances)", ok,
           f"{len(violations)} violations, outcomes {{rel: {outcomes[VerifyOutcome.RELATIVE]}, "
           f"abs: {outcomes[VerifyOutcome.ABSOLUTE]}, insuf: {outcomes[VerifyOutcome.INSUFFICIENT]}}}, "
           f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 2: certified-decrement soundness


def test_criterion_2_certified_decrement_soundness():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    problems = [make_problem("quadratic", dim=2, cond=8), make_problem("rosenbrock"),
                make_problem("saddle_well"), make_problem("quartic", dim=2)]
    stationary = {0: np.zeros(2), 1: np.array([1.0, 1.0]),
                  2: np.array([0.0, 1.0]), 3: np.array([1.0, -1.0])}
    n_abs = n_rel = 0
    violations = []
    for trial in range(50):
        p_idx = trial % len(problems)
        problem = problems[p_idx]
        j = 1 + (trial // len(problems)) % 2
        near = trial % 2 == 0
        x = stationary[p_idx] + (0.0 if near else rng.standard_normal(2))
        delta = float(rng.uniform(0.1, 1.0))
        eps_j = float(rng.choice([1e-2, 1e-3]))
        omega = 0.02
        oracle = InexactOracle(problem, policy="adversarial", seed=trial)
        acc = AccuracyLedger(TrConfig.with_defaults((eps_j,) * j, omega=omega), oracle, x)
        cert = certified_decrement(j, delta, acc)
        phi = phi_reference(problem, x, j, delta)
        if cert.outcome is VerifyOutcome.ABSOLUTE:
            n_abs += 1
            if phi > eps_j * delta**j / factorial(j) * REL_SLACK:
                violations.append(f"trial {trial}: absolute but phi={phi:.3e}")
        else:
            n_rel += 1
            if not ((1 - omega) * cert.dT <= phi * REL_SLACK
                    and phi <= (1 + omega) * cert.dT * REL_SLACK):
                violations.append(f"trial {trial}: relative bracket broken phi={phi:.3e} "
                                  f"dT={cert.dT:.3e}")
    elapsed = time.monotonic() - t0
    ok = not violations and n_abs > 0 and n_rel > 0 and elapsed < 30.0
    report("criterion 2 (certified decrement soundness, 50 configs)", ok,
           f"{len(violations)} violations, {n_abs} absolute / {n_rel} relative, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criteria over the shared corpus


def test_criterion_3_step_never_absolute(corpus):
    # an absolute outcome in the step loop raises CertificationError, so
    # every corpus run that completed saw none
    n_runs = len(corpus)
    step_loops = sum(int(np.count_nonzero(c.result.history.column("Delta")
                                          > c.result.cfg.vartheta)) for c in corpus)
    cap_ok = all(c.audit.checks["step_tighten_cap"].ok for c in corpus)
    ok = cap_ok and n_runs >= 100 and step_loops > 0
    report("criterion 3 (step certification never absolute)", ok,
           f"{n_runs} runs completed, {step_loops} step-loop iterations, tighten caps "
           f"{'respected' if cap_ok else 'EXCEEDED'}")


def test_criterion_4_termination_soundness(corpus):
    checks = [(c, c.audit.checks["termination_soundness"]) for c in corpus]
    violations = [f"{c.spec.run_key()}: {check.detail}" for c, check in checks if not check.ok]
    checked = sum(c.result.cfg.q for c in corpus)
    report("criterion 4 (termination soundness, every order j <= q)", not violations,
           f"{checked} measure checks over {len(corpus)} runs, "
           f"{len(violations)} violations")


def test_criterion_5_decrease_floor(corpus):
    audited = [c for c in corpus
               if c.spec.problem in ("quadratic", "rosenbrock")]
    bad = [c.spec.run_key() for c in audited
           if not c.audit.checks["decrease_floor"].ok]
    n_success = sum(c.result.n_success for c in audited)
    report("criterion 5 (per-iteration decrease floor)", not bad,
           f"{len(audited)} runs, {n_success} successful iterations, "
           f"{len(bad)} violations")


def test_criterion_6_radius_iteration_and_evaluation_bounds(corpus):
    names = ("radius_floor", "iteration_bound", "success_bound", "f_eval_bound",
             "deriv_round_bound", "deriv_round_count", "i_zeta_bound")
    bad = []
    for c in corpus:
        for name in names:
            if not c.audit.checks[name].ok:
                bad.append(f"{c.spec.run_key()}:{name}")
    report("criterion 6 (radius floor, iteration and evaluation bounds)", not bad,
           f"{len(corpus)} runs x {len(names)} bounds, {len(bad)} violations")


def test_criterion_9_accuracy_floor(corpus):
    bad = [c.spec.run_key() for c in corpus if not c.audit.checks["zeta_floor"].ok]
    lowest = min(c.result.eval_ledger.min_acc((1, 2, 3)) for c in corpus)
    report("criterion 9 (no inordinate accuracy requested)", not bad,
           f"{len(corpus)} runs, lowest requested accuracy {lowest:.2e}, "
           f"{len(bad)} violations")


# --------------------------------------------------------------------------
# criterion 7: accuracy-target scaling


def test_criterion_7_eps_scaling():
    t0 = time.monotonic()
    grid = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    rosen = eps_scaling_study(RunSpec(problem="rosenbrock", eps=(grid[0],),
                                      policy="adversarial"), grid, seeds=(0, 1, 2, 3, 4))
    saddle = eps_scaling_study(RunSpec(problem="saddle_well", eps=(grid[0],) * 2,
                                       policy="adversarial"), grid, seeds=(0, 1, 2, 3, 4))
    elapsed = time.monotonic() - t0
    ok = (rosen.passed and saddle.passed and rosen.excluded == 0
          and saddle.excluded == 0 and elapsed < 300.0)
    report("criterion 7 (evaluation-count scaling in the accuracy target)", ok,
           f"rosenbrock q=1 slope {rosen.slope:.2f} <= {rosen.slope_limit:.2f}, "
           f"saddle q=2 slope {saddle.slope:.2f} <= {saddle.slope_limit:.2f}, "
           f"{elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 8: exact-mode regression against an independent classical loop


def classical_tr_first_order(a_diag, x0, eps1, cfg, n_iter):
    """Independently coded exact trust-region steepest-descent loop."""
    x = np.asarray(x0, dtype=float).copy()
    radius = cfg.Delta0
    iterates = []

    def f(p):
        return 0.5 * float(p @ (a_diag * p))

    for _ in range(n_iter):
        g = a_diag * x
        ng = float(np.linalg.norm(g))
        if ng * 1.0 <= eps1 / (1.0 + cfg.omega):
            break
        s = -radius * g / ng
        decrement = radius * ng
        rho = (f(x) - f(x + s)) / decrement
        if rho >= cfg.eta1:
            x = x + s
        if rho < cfg.eta1:
            radius = cfg.gamma2 * radius
        elif rho >= cfg.eta2:
            radius = min(cfg.Delta_max, cfg.gamma3 * radius)
        iterates.append(x.copy())
    return iterates


def test_criterion_8_exact_mode_regression():
    cond = 100.0
    p = make_problem("quadratic", dim=2, cond=cond)
    cfg = TrConfig.with_defaults((1e-6,), zeta0=1e-14)
    oracle = InexactOracle(p, policy="none", seed=0)
    res = run(oracle, cfg, x0=np.array([1.0, 1.0]))
    assert res.terminated
    trace = res.history
    # the iterate after each iteration: its trial point if accepted, else x
    mine = np.where(trace.column("successful")[:, None], trace.x_trial, trace.x)
    a_diag = np.geomspace(1.0, cond, 2)
    twin = classical_tr_first_order(a_diag, [1.0, 1.0], 1e-6, cfg, len(mine))
    n_check = min(20, len(mine), len(twin))
    worst = max(float(np.max(np.abs(mine[k] - twin[k]))) for k in range(n_check))
    ok = n_check >= 20 and worst <= 1e-10
    report("criterion 8 (zero-noise run matches an independent exact loop)", ok,
           f"first {n_check} iterates agree to {worst:.2e}")
