import math
from math import factorial

import numpy as np
import pytest

from dyntrust import optimality
from dyntrust.driver import TrConfig
from dyntrust.model import make_bundle, sym_tensor
from dyntrust.optimality import (VARSIGMA_ORDER2, AccuracyLedger, BundleCache,
                                 CertificationError, allowed_tightenings,
                                 certified_decrement, max_decrement, termination_test)
from dyntrust.oracle import EvalLedger, InexactOracle
from dyntrust.problems import make_problem
from dyntrust.reference import max_decrement_reference, phi3_decide, phi_reference
from dyntrust.verify import VerifyOutcome

from checkers import sequential_max_cubic_on_ball

REL_SLACK = 1.0 + 1e-9  # rounding in the reference and the certified decrement


def fresh_state(problem, q, x, policy="none", seed=0, zeta0=0.1):
    oracle = InexactOracle(problem, policy=policy, seed=seed)
    acc = AccuracyLedger.fresh(TrConfig.with_defaults(
        (1e-3,) * q, zeta0=zeta0, kappa_zeta=max(zeta0, 0.1)))
    cache = BundleCache(x)
    return oracle, acc, cache, EvalLedger()


def test_max_decrement_order1_closed_form():
    b = make_bundle([sym_tensor(np.array([3.0, 4.0]))])
    d, dt, guar = max_decrement(b, 1, 0.5)
    assert dt == pytest.approx(2.5)
    np.testing.assert_allclose(d, [-0.3, -0.4])
    assert guar == 1.0


def test_max_decrement_order1_zero_gradient():
    b = make_bundle([sym_tensor(np.zeros(2))])
    d, dt, _ = max_decrement(b, 1, 0.5)
    assert dt == 0.0
    np.testing.assert_array_equal(d, np.zeros(2))


def test_max_decrement_order2_hard_case():
    b = make_bundle([sym_tensor(np.zeros(2)),
                     sym_tensor(np.diag([-2.0, 1.0]))])
    d, dt, _ = max_decrement(b, 2, 1.0)
    assert dt == pytest.approx(1.0, rel=1e-9)
    assert abs(d[0]) == pytest.approx(1.0, rel=1e-9)
    assert d[1] == pytest.approx(0.0, abs=1e-9)


def test_max_decrement_order2_matches_reference():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        rng.standard_normal(n)  # a base point, drawn to keep the instance stream
        b = make_bundle([sym_tensor(rng.standard_normal(n) * 3),
                         sym_tensor(rng.standard_normal((n, n)) * 3)])
        delta = float(rng.uniform(0.05, 1.0))
        _, dt, _ = max_decrement(b, 2, delta)
        ref = max_decrement_reference(b, 2, delta)
        assert VARSIGMA_ORDER2 * ref <= dt <= ref * REL_SLACK


@pytest.mark.parametrize("delta", [1e-6, 1e-8])
def test_max_decrement_order2_small_radius_inside_ball(delta):
    # the secular solver's stopping test and its step are relative to the
    # radius: the claimed fraction holds and the step stays in the ball
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        g = rng.standard_normal(n) * 10 ** rng.uniform(-3, 1)
        h = rng.standard_normal((n, n))
        b = make_bundle([sym_tensor(g), sym_tensor(h + h.T)])
        d, dt, _ = max_decrement(b, 2, delta)
        assert VARSIGMA_ORDER2 * max_decrement_reference(b, 2, delta) <= dt
        assert np.linalg.norm(d) <= delta * (1 + 1e-12)


def test_varsigma_certificate_orders_1_2():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        rng.standard_normal(n)  # a base point, drawn to keep the instance stream
        b = make_bundle([sym_tensor(rng.standard_normal(n)),
                         sym_tensor(rng.standard_normal((n, n)))])
        delta = float(rng.uniform(0.1, 1.0))
        for j, guar in ((1, 1.0), (2, 1.0 - 1e-8)):
            _, dt, _ = max_decrement(b, j, delta)
            ref = max_decrement_reference(b, j, delta)
            assert dt >= guar * ref - 1e-9


def test_max_decrement_order3_dominates_quadratic_solution():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        rng.standard_normal(n)  # a base point, drawn to keep the instance stream
        b = make_bundle([sym_tensor(rng.standard_normal(n)),
                         sym_tensor(rng.standard_normal((n, n))),
                         sym_tensor(0.5 * rng.standard_normal((n, n, n)))])
        delta = float(rng.uniform(0.1, 1.0))
        _, dt3, guar = max_decrement(b, 3, delta)
        assert guar is None
        # heuristic, but within a factor 2 of the certified maximum:
        # dt3 >= phi_3 / 2 - 1e-9
        assert phi3_decide(b, delta, 2.0 * (dt3 + 1e-9)).verdict == "pass"


def cubic_bundle(rng, n, t3_scale=1.0):
    rng.standard_normal(n)  # a base point, drawn to keep the instance stream
    return make_bundle([sym_tensor(rng.standard_normal(n)),
                        sym_tensor(rng.standard_normal((n, n))),
                        sym_tensor(t3_scale * rng.standard_normal((n, n, n)))])


@pytest.mark.parametrize("n,seed,t3_scale",
                         [(n, seed, 1.0) for n in (1, 2, 3, 4, 10) for seed in range(3)]
                         + [(3, 1, 0.0)])
def test_order3_batched_ascent_equals_one_start_at_a_time(n, seed, t3_scale):
    b = cubic_bundle(np.random.default_rng(100 * seed + n), n, t3_scale)
    for delta in (1e-6, 1e-2, 0.5, 1.0):
        d, _, _ = max_decrement(b, 3, delta, seed=seed)
        assert np.array_equal(d, sequential_max_cubic_on_ball(b, delta, seed=seed))


def test_order3_ascent_without_a_positive_start_returns_zeros():
    # no gradient, positive definite Hessian, small cubic term: every
    # nonzero step in the ball increases the model
    rng = np.random.default_rng(8)
    b = make_bundle([sym_tensor(np.zeros(3)), sym_tensor(np.eye(3)),
                     sym_tensor(0.1 * rng.standard_normal((3, 3, 3)))])
    d, dt, _ = max_decrement(b, 3, 0.1)
    assert dt == 0.0
    assert np.array_equal(d, np.zeros(3))
    assert np.array_equal(sequential_max_cubic_on_ball(b, 0.1), np.zeros(3))


def test_certified_decrement_exact_oracle_first_pass():
    p = make_problem("quadratic", dim=2, cond=4)
    x = np.array([1.0, 1.0])
    oracle, acc, cache, ledger = fresh_state(p, 1, x, zeta0=1e-12)
    cert = certified_decrement(1, 0.5, 1e-3, 0.99, 0.02, oracle, acc, cache, ledger)
    assert cert.tightenings == 0
    assert cert.outcome is VerifyOutcome.RELATIVE
    assert ledger.n_deriv(1) == 1


def test_certified_decrement_predicted_tightening_count():
    # at an exact minimizer with zero-noise oracle the decrement is 0, so the
    # loop tightens until the absolute test holds: zeta <= omega * xi
    p = make_problem("quadratic", dim=2, cond=4)
    x = np.zeros(2)
    omega, varsigma, eps_j, delta = 0.02, 0.99, 1e-3, 0.5
    zeta0, gamma = 0.1, 0.1
    oracle, acc, cache, ledger = fresh_state(p, 1, x, zeta0=zeta0)
    cert = certified_decrement(1, delta, eps_j, varsigma, omega, oracle, acc,
                               cache, ledger)
    assert cert.outcome is VerifyOutcome.ABSOLUTE
    xi = 0.5 * varsigma * eps_j
    predicted = math.ceil(math.log(zeta0 / (omega * xi)) / math.log(1 / gamma))
    assert cert.tightenings == predicted
    # and never beyond the guaranteed level
    bound = allowed_tightenings(zeta0, 0.25 * omega * varsigma * eps_j * delta**0 / 1,
                                gamma) + 1
    assert cert.tightenings <= bound


def test_certification_budget_trap_names_order_radius_and_point(monkeypatch):
    p = make_problem("quadratic", dim=2, cond=4)
    x = np.array([1.0, -0.5])
    omega, varsigma, eps_j, delta = 0.02, 0.99, 1e-3, 0.5
    oracle, acc, cache, ledger = fresh_state(p, 2, x, zeta0=0.1)
    monkeypatch.setattr(optimality, "verify", lambda *a: VerifyOutcome.INSUFFICIENT)
    with pytest.raises(CertificationError, match="guaranteed tightening budget") as err:
        certified_decrement(2, delta, eps_j, varsigma, omega, oracle, acc, cache, ledger)
    e = err.value
    assert isinstance(e, RuntimeError)
    assert (e.j, e.radius, e.k) == (2, delta, None)
    np.testing.assert_array_equal(e.x, x)
    assert str(e).endswith("(implementation bug): order 2, radius 0.5, x = [1.0, -0.5]")
    target = 0.25 * omega * varsigma * eps_j * delta / 2
    assert acc.i_zeta == allowed_tightenings(0.1, target, acc.gamma_zeta) + 3


def test_certified_absolute_implies_small_reference_phi():
    # exact second-order minimizer of a convex quadratic, adversarial noise
    p = make_problem("quadratic", dim=2, cond=8)
    x = np.zeros(2)
    eps_j, delta, omega = 1e-2, 0.5, 0.02
    for j in (1, 2):
        oracle, acc, cache, ledger = fresh_state(p, 2, x, policy="adversarial")
        cert = certified_decrement(j, delta, eps_j, 0.99, omega, oracle, acc,
                                   cache, ledger)
        assert cert.outcome is VerifyOutcome.ABSOLUTE
        phi = phi_reference(p, x, j, delta)
        assert phi <= eps_j * delta**j / factorial(j) * REL_SLACK


def test_certified_relative_two_sided_bound():
    # far from stationarity the outcome is relative and brackets the measure
    p = make_problem("quadratic", dim=2, cond=4)
    x = np.array([2.0, -1.0])
    omega = 0.02
    oracle, acc, cache, ledger = fresh_state(p, 1, x, policy="adversarial")
    cert = certified_decrement(1, 0.5, 1e-3, 0.99, omega, oracle, acc, cache, ledger)
    assert cert.outcome is VerifyOutcome.RELATIVE
    phi = phi_reference(p, x, 1, 0.5)
    assert (1 - omega) * cert.dT <= phi * REL_SLACK
    assert phi <= (1 + omega) * cert.dT * REL_SLACK


def test_certified_decrement_never_calls_eval_f():
    p = make_problem("rosenbrock")
    x = np.array([-1.2, 1.0])
    oracle, acc, cache, ledger = fresh_state(p, 2, x, policy="adversarial")
    certified_decrement(2, 0.5, 1e-3, 0.99, 0.02, oracle, acc, cache, ledger)
    assert ledger.n_f == 0


def test_cache_reuses_until_tightened():
    p = make_problem("rosenbrock")
    x = np.array([0.5, 0.5])
    oracle, acc, cache, ledger = fresh_state(p, 2, x, policy="adversarial")
    cache.ensure(oracle, acc, 2, ledger)
    cache.ensure(oracle, acc, 2, ledger)
    assert ledger.n_deriv(1) == 1 and ledger.n_deriv(2) == 1
    acc.tighten(1)  # only order 1 tightened
    cache.ensure(oracle, acc, 2, ledger)
    assert ledger.n_deriv(1) == 2 and ledger.n_deriv(2) == 1


def test_termination_test_continue_order1():
    p = make_problem("quadratic", dim=2, cond=1)  # identity Hessian
    x = np.array([0.6, -0.8])  # gradient norm exactly 1
    omega = 0.01
    oracle, acc, cache, ledger = fresh_state(p, 1, x, zeta0=1e-10)
    cert = termination_test(0.5, (1e-3,), 0.99, omega, oracle, acc, cache, ledger)
    assert cert.j == 1
    assert cert.dT == pytest.approx(0.5)
    assert cert.dT > (1e-3 / (1 + omega)) * 0.5


def test_termination_test_terminated_at_minimizer():
    p = make_problem("quadratic", dim=3, cond=5)
    x = np.zeros(3)
    oracle, acc, cache, ledger = fresh_state(p, 2, x, zeta0=1e-12)
    assert termination_test(0.5, (1e-3, 1e-3), 0.99, 0.02, oracle, acc, cache,
                            ledger) is None
    assert ledger.n_deriv(1) == 1 and ledger.n_deriv(2) == 1


def test_termination_test_saddle_continues_at_order2():
    p = make_problem("saddle_well")
    x = np.zeros(2)
    omega = 0.02
    oracle, acc, cache, ledger = fresh_state(p, 2, x, zeta0=1e-10)
    cert = termination_test(0.1, (1e-2, 1e-2), 0.99, omega, oracle, acc, cache, ledger)
    assert cert.j == 2
    # the quadratic decrement at the saddle is delta^2 along the escape axis
    assert cert.dT == pytest.approx(0.01, rel=1e-8)
    assert cert.dT > (1e-2 / (1 + omega)) * 0.01 / 2


def test_finite_tightening_invariant():
    # tightenings within one call never exceed the guaranteed count
    p = make_problem("saddle_well")
    rng = np.random.default_rng(3)
    for trial in range(10):
        x = rng.standard_normal(2) * 0.5
        delta = float(rng.uniform(0.05, 0.8))
        eps_j = float(10 ** rng.uniform(-4, -1))
        omega, varsigma, gamma, kappa = 0.02, 0.99, 0.1, 0.1
        oracle, acc, cache, ledger = fresh_state(p, 2, x, policy="adversarial",
                                                 seed=trial)
        for j in (1, 2):
            cert = certified_decrement(j, delta, eps_j, varsigma, omega,
                                       oracle, acc, cache, ledger)
            cap = math.ceil(math.log(
                (omega * varsigma * eps_j * delta ** (j - 1)) / (4 * factorial(j) * kappa)
            ) / math.log(gamma)) + 1
            assert cert.tightenings <= cap


def test_accuracy_ledger_tighten_and_exact_orders():
    acc = AccuracyLedger.fresh(TrConfig.with_defaults((1e-3,) * 3, gamma_zeta=0.5),
                               exact_orders=(2,))
    assert acc.zetas[1] == 0.0
    acc.tighten(3)
    assert acc.i_zeta == 1
    np.testing.assert_allclose(acc.zetas, [0.05, 0.0, 0.05])
    acc.tighten(1)
    np.testing.assert_allclose(acc.zetas, [0.025, 0.0, 0.05])
