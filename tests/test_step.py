import numpy as np
import pytest

from dyntrust.driver import TrConfig
from dyntrust.model import make_bundle, sym_tensor, taylor_decrement
from dyntrust import step
from dyntrust.optimality import (AccuracyLedger, BundleCache, CertificationError,
                                 CertifiedDecrement, allowed_tightenings,
                                 certified_decrement, max_decrement)
from dyntrust.oracle import EvalLedger, InexactOracle
from dyntrust.problems import make_problem
from dyntrust.reference import max_decrement_reference
from dyntrust.step import compute_step
from dyntrust.verify import VerifyOutcome


def state(problem, q, x, policy="none", seed=0, zeta0=0.1):
    oracle = InexactOracle(problem, policy=policy, seed=seed)
    acc = AccuracyLedger.fresh(TrConfig.with_defaults(
        (1e-3,) * q, zeta0=zeta0, kappa_zeta=max(zeta0, 0.1)))
    return oracle, acc, BundleCache(x), EvalLedger()


def certified(j, delta, eps_j, omega, oracle, acc, cache, ledger):
    return certified_decrement(j, delta, eps_j, 0.99, omega, oracle, acc, cache, ledger)


def test_pass_through_when_radius_small():
    p = make_problem("quadratic", dim=2, cond=3)
    x = np.array([1.0, -1.0])
    oracle, acc, cache, ledger = state(p, 1, x, zeta0=1e-10)
    cert = certified(1, 0.05, 1e-3, 0.02, oracle, acc, cache, ledger)
    before = len(ledger)
    res = compute_step(0.05, 0.1, cert, 1e-3, 0.02, oracle, acc, cache, ledger)
    np.testing.assert_array_equal(res.s, cert.d)
    assert res.dT == cert.dT
    assert res.tighten_count == 0
    assert len(ledger) == before  # zero oracle traffic


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


def test_step_grows_decrement_with_radius():
    p = make_problem("quadratic", dim=2, cond=6)
    x = np.array([2.0, 1.5])
    oracle, acc, cache, ledger = state(p, 2, x, zeta0=1e-10)
    cert = certified(2, 1.0, 1e-3, 0.02, oracle, acc, cache, ledger)
    res = compute_step(2.0, 1.0, cert, 1e-3, 0.02, oracle, acc, cache, ledger)
    assert res.outcome is VerifyOutcome.RELATIVE
    assert res.dT >= cert.dT
    assert res.dT >= res.dT_fallback
    assert np.linalg.norm(res.s) <= 2.0 * (1 + 1e-12)
    # global solution over the radius-2 ball
    bundle = cache.ensure(oracle, acc, 2, ledger)
    ref = max_decrement_reference(bundle, 2, 2.0)
    assert res.dT == pytest.approx(ref, rel=1e-8)


def test_degenerate_model_falls_back_to_certificate():
    # zero gradient + PSD Hessian at the trial radius: the solver yields a
    # zero decrement, so the certificate displacement must be returned
    p = make_problem("quadratic", dim=2, cond=2)
    x = np.array([1.0, 1.0])
    oracle, acc, cache, ledger = state(p, 1, x, zeta0=1e-10)
    cert_d = np.array([-0.3, -0.3])
    fake = CertifiedDecrement(j=1, d=cert_d, dT=0.0, outcome=VerifyOutcome.RELATIVE,
                              tightenings=0)
    bundle = cache.ensure(oracle, acc, 1, ledger)
    dt_d = taylor_decrement(bundle, cert_d, 1)
    fake = CertifiedDecrement(j=1, d=cert_d, dT=dt_d, outcome=VerifyOutcome.RELATIVE,
                              tightenings=0)
    res = compute_step(0.5, 0.5, fake, 1e-3, 0.02, oracle, acc, cache, ledger)
    # pass-through branch: radius == vartheta
    np.testing.assert_array_equal(res.s, cert_d)


def test_adversarial_tightens_until_relative():
    p = make_problem("rosenbrock")
    x = np.array([-0.5, 0.2])
    omega = 0.02
    oracle, acc, cache, ledger = state(p, 1, x, policy="adversarial", zeta0=0.1)
    cert = certified(1, 0.5, 1e-3, omega, oracle, acc, cache, ledger)
    res = compute_step(4.0, 0.5, cert, 1e-3, omega, oracle, acc, cache, ledger)
    assert res.outcome is VerifyOutcome.RELATIVE
    assert res.absolute_events == 0
    # realized decrement error against exact tensors honors the certificate
    exact = make_bundle([p.exact_deriv(x, 1)])
    gap = abs(res.dT - taylor_decrement(exact, res.s, 1))
    assert gap <= omega * res.dT * (1 + 1e-9)


def test_xi_floor_invariant():
    # the absolute argument passed to verify never falls under the closed form
    p = make_problem("quadratic", dim=2, cond=10)
    omega, eps_j, vartheta, delta_max = 0.02, 1e-3, 0.5, 100.0
    rng = np.random.default_rng(0)
    for trial in range(10):
        x = rng.standard_normal(2) * 3
        oracle, acc, cache, ledger = state(p, 1, x, policy="adversarial", seed=trial)
        cert = certified(1, vartheta, eps_j, omega, oracle, acc, cache, ledger)
        radius = float(rng.uniform(0.6, 5.0))
        res = compute_step(radius, vartheta, cert, eps_j, omega, oracle, acc,
                           cache, ledger)
        floor = eps_j / (4 * (1 + omega)) * (vartheta / max(1.0, delta_max)) ** 1
        assert res.min_xi >= floor
        assert res.dT >= res.dT_fallback  # bit-level dominance on every return


def never_certified(*args):
    return VerifyOutcome.INSUFFICIENT


class NoShrinkLedger(AccuracyLedger):
    """Counts its tightenings but never lowers an accuracy."""

    def tighten(self, j):
        self.i_zeta += 1


def trial_step_state(ledger_cls=AccuracyLedger):
    p = make_problem("quadratic", dim=2, cond=6)
    x = np.array([2.0, 1.5])
    oracle, acc, cache, ledger = state(p, 1, x, zeta0=1e-10)
    cert = certified(1, 0.5, 1e-3, 0.02, oracle, acc, cache, ledger)
    acc = ledger_cls(zetas=np.array([0.1]), gamma_zeta=acc.gamma_zeta)
    return cert, oracle, acc, cache, ledger


def test_step_never_relative_trips_the_guaranteed_level_trap(monkeypatch):
    cert, oracle, acc, cache, ledger = trial_step_state()
    monkeypatch.setattr(step, "verify", never_certified)
    with pytest.raises(CertificationError, match="passed the guaranteed level") as err:
        compute_step(2.0, 0.5, cert, 1e-3, 0.02, oracle, acc, cache, ledger)
    e = err.value
    assert (e.j, e.radius, e.k) == (1, 2.0, None)
    np.testing.assert_array_equal(e.x, [2.0, 1.5])
    assert "order 1, radius 2.0, x = [2.0, 1.5]" in str(e)
    stop_level = 0.02 * 1e-3 / (8.0 * 1.02)
    assert acc.i_zeta == allowed_tightenings(0.1, stop_level, acc.gamma_zeta)


def test_step_that_cannot_tighten_trips_the_budget_trap(monkeypatch):
    cert, oracle, acc, cache, ledger = trial_step_state(NoShrinkLedger)
    monkeypatch.setattr(step, "verify", never_certified)
    with pytest.raises(CertificationError, match="step certification failed to terminate "
                       r"within its guaranteed tightening budget \(implementation bug\)"):
        compute_step(2.0, 0.5, cert, 1e-3, 0.02, oracle, acc, cache, ledger)
    stop_level = 0.02 * 1e-3 / (8.0 * 1.02)
    assert acc.i_zeta == allowed_tightenings(0.1, stop_level, acc.gamma_zeta) + 3


def test_absolute_certificate_cannot_pass_through():
    cert, oracle, acc, cache, ledger = trial_step_state()
    absolute = CertifiedDecrement(j=1, d=cert.d, dT=cert.dT, outcome=VerifyOutcome.ABSOLUTE,
                                  tightenings=0)
    with pytest.raises(CertificationError, match="relatively-certified displacement"):
        compute_step(0.5, 0.5, absolute, 1e-3, 0.02, oracle, acc, cache, ledger)


def test_zero_step_decrement_is_trapped():
    # at the minimizer every step decreases the linear model by zero
    oracle, acc, cache, ledger = state(make_problem("quadratic", dim=2, cond=2),
                                       1, np.zeros(2), zeta0=1e-10)
    zero = CertifiedDecrement(j=1, d=np.zeros(2), dT=0.0, outcome=VerifyOutcome.RELATIVE,
                              tightenings=0)
    with pytest.raises(CertificationError, match="collapsed to zero") as err:
        compute_step(2.0, 0.5, zero, 1e-3, 0.02, oracle, acc, cache, ledger)
    assert err.value.radius == 2.0
