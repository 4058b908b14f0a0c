import dataclasses

import numpy as np
import pytest

from dyntrust.driver import ConfigError, TrConfig, run
from dyntrust.model import make_bundle, sym_tensor, taylor_decrement
from dyntrust import optimality, step
from dyntrust.optimality import (AccuracyLedger, CertificationError, CertifiedDecrement,
                                 allowed_tightenings, certified_decrement, max_decrement,
                                 step_scale, stop_level)
from dyntrust.oracle import InexactOracle
from dyntrust.problems import make_problem
from dyntrust.reference import max_decrement_reference
from dyntrust.step import compute_step
from dyntrust.verify import VerifyOutcome, verify

from checkers import NoShrinkLedger


def state(problem, q, x, policy="none", seed=0, zeta0=0.1, vartheta=0.5):
    oracle = InexactOracle(problem, policy=policy, seed=seed)
    return AccuracyLedger(TrConfig.with_defaults(
        (1e-3,) * q, zeta0=zeta0, kappa_zeta=max(zeta0, 0.1), vartheta=vartheta,
        omega=0.02), oracle, x)


def spy_on_verify(monkeypatch):
    """The (xi, outcome) of every verify call compute_step makes."""
    calls = []

    def spy(s_norm, dt, zetas, xi, omega):
        outcome = verify(s_norm, dt, zetas, xi, omega)
        calls.append((xi, outcome))
        return outcome

    monkeypatch.setattr(step, "verify", spy)
    return calls


def fallback_decrement(cert, acc):
    """The certified displacement's decrement on the bundle the step used:
    the ledger re-evaluates nothing while the accuracies are unchanged."""
    before = len(acc.ledger)
    dt = taylor_decrement(acc.bundle(cert.j), cert.d, cert.j)
    assert len(acc.ledger) == before
    return dt


def test_pass_through_when_radius_small():
    p = make_problem("quadratic", dim=2, cond=3)
    x = np.array([1.0, -1.0])
    acc = state(p, 1, x, zeta0=1e-10, vartheta=0.1)
    cert = certified_decrement(1, 0.05, acc)
    before = len(acc.ledger)
    res = compute_step(0.05, cert, acc)
    np.testing.assert_array_equal(res.s, cert.d)
    assert res.dT == cert.dT
    assert res.tighten_count == 0
    assert len(acc.ledger) == before  # zero oracle traffic


# compute_step takes its trial step from max_decrement over the full radius,
# which may exceed the optimality radius cap of 1


def test_trial_step_order1_scaled_steepest_descent():
    b = make_bundle([sym_tensor(np.array([1.0, 0.0]))])
    s, dt, _ = max_decrement(b, 1, 3.0)
    np.testing.assert_allclose(s, [-3.0, 0.0])
    assert dt == pytest.approx(3.0)


def test_trial_step_order2_hard_case_radius2():
    b = make_bundle([sym_tensor(np.zeros(2)),
                     sym_tensor(np.diag([-2.0, 1.0]))])
    s, dt, _ = max_decrement(b, 2, 2.0)
    assert np.linalg.norm(s) == pytest.approx(2.0, rel=1e-9)
    assert abs(s[0]) == pytest.approx(2.0, rel=1e-9)
    ref = max_decrement_reference(b, 2, 2.0)
    assert dt == taylor_decrement(b, s, 2) == pytest.approx(ref, rel=1e-8)


def test_step_grows_decrement_with_radius(monkeypatch):
    p = make_problem("quadratic", dim=2, cond=6)
    x = np.array([2.0, 1.5])
    acc = state(p, 2, x, zeta0=1e-10, vartheta=1.0)
    cert = certified_decrement(2, 1.0, acc)
    calls = spy_on_verify(monkeypatch)
    res = compute_step(2.0, cert, acc)
    assert calls[-1][1] is VerifyOutcome.RELATIVE
    assert res.dT >= cert.dT
    assert res.dT >= fallback_decrement(cert, acc)
    assert np.linalg.norm(res.s) <= 2.0 * (1 + 1e-12)
    # global solution over the radius-2 ball
    ref = max_decrement_reference(acc.bundle(2), 2, 2.0)
    assert res.dT == pytest.approx(ref, rel=1e-8)


def test_degenerate_model_falls_back_to_certificate():
    # zero gradient + PSD Hessian at the trial radius: the solver yields a
    # zero decrement, so the certificate displacement must be returned
    p = make_problem("quadratic", dim=2, cond=2)
    x = np.array([1.0, 1.0])
    acc = state(p, 1, x, zeta0=1e-10)
    cert_d = np.array([-0.3, -0.3])
    dt_d = taylor_decrement(acc.bundle(1), cert_d, 1)
    fake = CertifiedDecrement(j=1, d=cert_d, dT=dt_d, outcome=VerifyOutcome.RELATIVE)
    res = compute_step(0.5, fake, acc)
    # pass-through branch: radius == vartheta
    np.testing.assert_array_equal(res.s, cert_d)


def test_adversarial_tightens_until_relative(monkeypatch):
    p = make_problem("rosenbrock")
    x = np.array([-0.5, 0.2])
    omega = 0.02
    acc = state(p, 1, x, policy="adversarial", zeta0=0.1)
    cert = certified_decrement(1, 0.5, acc)
    calls = spy_on_verify(monkeypatch)
    res = compute_step(4.0, cert, acc)
    assert calls[-1][1] is VerifyOutcome.RELATIVE
    # realized decrement error against exact tensors honors the certificate
    exact = make_bundle([p.exact_deriv(x, 1)])
    gap = abs(res.dT - taylor_decrement(exact, res.s, 1))
    assert gap <= omega * res.dT * (1 + 1e-9)


def test_xi_floor_invariant(monkeypatch):
    # the absolute argument passed to verify never falls under the closed form
    p = make_problem("quadratic", dim=2, cond=10)
    omega, eps_j, vartheta, delta_max = 0.02, 1e-3, 0.5, 100.0
    floor = eps_j / (4 * (1 + omega)) * (vartheta / max(1.0, delta_max)) ** 1
    calls = spy_on_verify(monkeypatch)
    rng = np.random.default_rng(0)
    for trial in range(10):
        x = rng.standard_normal(2) * 3
        acc = state(p, 1, x, policy="adversarial", seed=trial)
        cert = certified_decrement(1, vartheta, acc)
        radius = float(rng.uniform(0.6, 5.0))
        calls.clear()
        res = compute_step(radius, cert, acc)
        assert calls and calls[-1][1] is VerifyOutcome.RELATIVE
        assert min(xi for xi, _ in calls) >= floor
        # bit-level dominance on every return
        assert res.dT >= fallback_decrement(cert, acc)


def never_certified(*args):
    return VerifyOutcome.INSUFFICIENT


def trial_step_state(ledger_cls=AccuracyLedger, zeta0=0.1):
    p = make_problem("quadratic", dim=2, cond=6)
    x = np.array([2.0, 1.5])
    acc = state(p, 1, x, zeta0=1e-10)
    cert = certified_decrement(1, 0.5, acc)
    return cert, ledger_cls(dataclasses.replace(acc.cfg, zeta0=zeta0), acc.oracle, x)


BUDGET_TRAP = ("step certification not relative within its guaranteed tightening "
               r"budget \(implementation bug\)")


def step_budget(acc):
    """The tightenings the trial step state's step loop may make."""
    level = 0.02 * 1e-3 / (8.0 * 1.02)
    assert stop_level(1, step_scale(1e-3, 0.02), 0.5) == level
    return allowed_tightenings(0.1, level, acc.cfg.gamma_zeta)


def test_step_never_relative_trips_the_budget_trap(monkeypatch):
    cert, acc = trial_step_state()
    monkeypatch.setattr(step, "verify", never_certified)
    with pytest.raises(CertificationError, match=BUDGET_TRAP) as err:
        compute_step(2.0, cert, acc)
    e = err.value
    assert (e.j, e.radius, e.k) == (1, 2.0, None)
    np.testing.assert_array_equal(e.x, [2.0, 1.5])
    assert "order 1, radius 2.0, x = [2.0, 1.5]" in str(e)
    assert acc.i_zeta == step_budget(acc) > 0
    # the budget brings the accuracy to the level that guarantees a relative step
    assert (acc.zetas[0] <= stop_level(1, step_scale(1e-3, 0.02), 0.5)
            < acc.zetas[0] / acc.cfg.gamma_zeta)


def test_step_that_cannot_tighten_trips_the_budget_trap(monkeypatch):
    cert, acc = trial_step_state(NoShrinkLedger)
    monkeypatch.setattr(step, "verify", never_certified)
    with pytest.raises(CertificationError, match=BUDGET_TRAP):
        compute_step(2.0, cert, acc)
    assert acc.i_zeta == step_budget(acc) > 0
    assert acc.zetas == [0.1]


def test_a_zero_tightening_budget_certifies_once_and_stops(monkeypatch):
    # gamma_zeta >= 1 would loosen on every "tightening", so it is allowed
    # none; TrConfig refuses such a gamma_zeta, so no ledger carries one
    level = stop_level(1, step_scale(1e-3, 0.02), 0.5)
    assert allowed_tightenings(0.1, level, 2.0) == allowed_tightenings(0.1, level, 1.0) == 0
    assert allowed_tightenings(0.1, level, 0.1) > 0
    with pytest.raises(ConfigError, match="gamma_zeta"):
        TrConfig.with_defaults(1e-3, gamma_zeta=2.0)
    # entry accuracies already under the level are allowed none either
    cert, acc = trial_step_state(zeta0=1e-10)
    assert allowed_tightenings(1e-10, level, acc.cfg.gamma_zeta) == 0
    monkeypatch.setattr(step, "verify", never_certified)
    with pytest.raises(CertificationError, match=BUDGET_TRAP):
        compute_step(2.0, cert, acc)
    assert acc.i_zeta == 0
    assert acc.zetas == [1e-10]


@pytest.mark.parametrize("last_round", ["certifies", "insufficient"])
@pytest.mark.parametrize("phase", ["termination", "step"])
def test_certification_loop_ends_exactly_at_its_budget(monkeypatch, phase, last_round):
    # an outcome insufficient until the last round the budget allows is
    # certified there; one more insufficient round trips the one trap
    if phase == "termination":
        module, j, radius = optimality, 2, 0.5
        acc = state(make_problem("quadratic", dim=2, cond=4), 2, np.array([1.0, -0.5]))
        budget = allowed_tightenings(0.1, 0.25 * 0.02 * 0.99 * 1e-3 * 0.5 / 2,
                                     acc.cfg.gamma_zeta)
        loop, args = certified_decrement, (j, radius, acc)
    else:
        module, j, radius = step, 1, 2.0
        cert, acc = trial_step_state()
        budget = step_budget(acc)
        loop, args = compute_step, (radius, cert, acc)
    assert budget > 0
    n_insufficient = budget + (last_round == "insufficient")
    outcomes = [VerifyOutcome.INSUFFICIENT] * n_insufficient + [VerifyOutcome.RELATIVE]
    monkeypatch.setattr(module, "verify", lambda *_: outcomes.pop(0))
    if last_round == "certifies":
        res = loop(*args)
        if phase == "step":
            assert res.tighten_count == budget
        assert outcomes == []
    else:
        with pytest.raises(CertificationError, match="within its guaranteed tightening "
                                                     r"budget \(implementation bug\)") as err:
            loop(*args)
        assert (err.value.j, err.value.radius) == (j, radius)
        assert outcomes == [VerifyOutcome.RELATIVE]
    assert acc.i_zeta == budget


def test_absolute_step_outcome_stops_the_run(monkeypatch):
    # the theory excludes an absolute outcome in the step loop; forcing one
    # once a first trial step was certified stops the run at the next
    # iteration whose radius exceeds vartheta
    certified_steps = []

    def absolute_after_one_step(*args):
        outcome = VerifyOutcome.ABSOLUTE if certified_steps else verify(*args)
        if outcome is VerifyOutcome.RELATIVE:
            certified_steps.append(args)
        return outcome

    p = make_problem("quadratic", dim=2, cond=6)
    cfg = TrConfig.with_defaults(1e-3)
    trace = run(InexactOracle(p, policy="adversarial", seed=0), cfg).history
    k = int(np.flatnonzero(trace.column("Delta") > cfg.vartheta)[1])
    monkeypatch.setattr(step, "verify", absolute_after_one_step)
    with pytest.raises(CertificationError, match="absolute outcome") as err:
        run(InexactOracle(p, policy="adversarial", seed=0), cfg)
    e, x = err.value, trace.x[k]
    assert k > 0 and (e.k, e.j, e.radius) == (k, trace.column("j")[k], trace.column("Delta")[k])
    np.testing.assert_array_equal(e.x, x)
    assert (f"(implementation bug): iteration {k}, order {e.j}, radius {e.radius!r}, "
            f"x = {x.tolist()}") in str(e)


def test_absolute_certificate_cannot_pass_through():
    cert, acc = trial_step_state()
    absolute = CertifiedDecrement(j=1, d=cert.d, dT=cert.dT, outcome=VerifyOutcome.ABSOLUTE)
    with pytest.raises(CertificationError, match="relatively-certified displacement"):
        compute_step(0.5, absolute, acc)


def test_zero_step_decrement_is_trapped():
    # at the minimizer every step decreases the linear model by zero
    acc = state(make_problem("quadratic", dim=2, cond=2), 1, np.zeros(2), zeta0=1e-10)
    zero = CertifiedDecrement(j=1, d=np.zeros(2), dT=0.0, outcome=VerifyOutcome.RELATIVE)
    with pytest.raises(CertificationError, match="collapsed to zero") as err:
        compute_step(2.0, zero, acc)
    assert err.value.radius == 2.0
