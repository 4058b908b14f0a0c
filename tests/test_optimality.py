import math
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dyntrust import optimality
from dyntrust.driver import TrConfig
from dyntrust.model import make_bundle, row_norms, sym_tensor
from dyntrust.optimality import (VARSIGMA_ORDER2, AccuracyLedger, CertificationError,
                                 allowed_tightenings, certified_decrement,
                                 max_decrement, termination_test)
from dyntrust.oracle import InexactOracle
from dyntrust.problems import make_problem
from dyntrust.reference import max_decrement_reference, phi3_decide, phi_reference
from dyntrust.verify import VerifyOutcome

import checkers
from checkers import NoShrinkLedger, sequential_max_cubic_on_ball

REL_SLACK = 1.0 + 1e-9  # rounding in the reference and the certified decrement


def fresh_state(problem, q, x, policy="none", seed=0, zeta0=0.1, eps=1e-3, omega=0.02):
    oracle = InexactOracle(problem, policy=policy, seed=seed)
    return AccuracyLedger(TrConfig.with_defaults((eps,) * q, zeta0=zeta0, omega=omega),
                          oracle, x)


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


@pytest.mark.parametrize("g,h,delta,want", [
    ((0.0, 0.0), (-2.0, 1.0), 1.0, 1.0),   # hard case: the bottom eigenvector fills the ball
    ((0.0, 1.0), (0.0, 2.0), 10.0, 0.25),  # PSD-singular: the pseudo-Newton point
], ids=["hard_case", "psd_singular"])
def test_max_decrement_order2_with_a_singular_bottom_reaches_the_dual_bound(g, h, delta, want):
    # the gradient is orthogonal to the bottom eigenspace
    b = make_bundle([sym_tensor(np.array(g)), sym_tensor(np.diag(h))])
    _, dt, _ = max_decrement(b, 2, delta)
    assert dt == want == max_decrement_reference(b, 2, delta)


@pytest.mark.parametrize("j,delta,message", [
    (2, 0.5, "bundle does not carry derivatives up to the requested order"),
    (1, 0.0, "delta must be positive"),
    (1, -0.5, "delta must be positive"),
], ids=["order_past_bundle", "zero_radius", "negative_radius"])
def test_max_decrement_refuses_by_name(j, delta, message):
    b = make_bundle([sym_tensor(np.array([3.0, 4.0]))])
    with pytest.raises(ValueError, match=message):
        max_decrement(b, j, delta)


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


# the radii of the workloads' order-3 ball searches, and a spread around them
ASCENT_RADII = (1e-6, 1e-3, 2.0**-6, 1e-2, 2.0**-5, 0.5, 1.0)


@pytest.mark.parametrize("n,seed,t3_scale",
                         [(n, seed, 1.0) for n in (1, 2, 3, 4, 10) for seed in range(3)]
                         + [(3, 1, 0.0)])
def test_order3_batched_ascent_equals_one_start_at_a_time(n, seed, t3_scale):
    b = cubic_bundle(np.random.default_rng(100 * seed + n), n, t3_scale)
    for delta in ASCENT_RADII:
        d, _, _ = max_decrement(b, 3, delta, seed=seed)
        assert np.array_equal(d, sequential_max_cubic_on_ball(b, delta, seed=seed))


def rosenbrock_q3_bundle():
    # the exact bundle at rosenbrock's q = 3 termination point (policy none,
    # eps 1e-2): Hessian eigenvalues 0.40 and 1,002
    p = make_problem("rosenbrock")
    x = np.array([1.0003145935415885, 1.000630246839363])
    return tuple(p.exact_deriv(x, i) for i in (1, 2, 3))


def zero_decrement_bundle():
    # no gradient, positive definite Hessian, no cubic term: the decrement
    # is negative away from 0, so every start creeps toward 0 until its step
    # dies out, and the ascent returns zeros
    return make_bundle([np.zeros(2), np.diag([1.0, 4.0]), np.zeros((2, 2, 2))])


class AscentSpy:
    """The rows the ascent passes to ``taylor_decrement`` (the starts, then
    each round's candidates) and to ``model_gradient``."""

    def __init__(self, monkeypatch):
        self.decrement_rows, self.gradient_rows = [], []
        for name, log in (("taylor_decrement", self.decrement_rows),
                          ("model_gradient", self.gradient_rows)):
            real = getattr(optimality, name)
            monkeypatch.setattr(optimality, name,
                                lambda b, s, *a, real=real, log=log: log.append(s.copy())
                                or real(b, s, *a))

    @property
    def live_counts(self):
        return [len(c) for c in self.decrement_rows[1:]]


def on_sphere(rows, radius):
    return np.abs(row_norms(rows) - radius) <= 1e-12 * radius


# name: (bundle, radius, what the ascent's spied rows must show)
NAMED_BUNDLES = {
    # no gradient anywhere: every start stops in round 0
    "all-stop-in-round-0": (
        make_bundle([np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3, 3))]), 0.1,
        lambda spy: spy.live_counts == []),
    # starts leave in at least three different rounds
    "staggered-stops": (
        cubic_bundle(np.random.default_rng(7), 3), 0.5,
        lambda spy: len(set(spy.live_counts)) >= 3),
    # a linear model: every round projects candidates back onto the sphere,
    # and round 0 leaves others inside the ball
    "projected": (
        make_bundle([np.array([1.0, -2.0, 0.5]), np.zeros((3, 3)), np.zeros((3, 3, 3))]),
        2.0**-6,
        lambda spy: (all(on_sphere(c, 2.0**-6).any() for c in spy.decrement_rows[1:])
                     and not on_sphere(spy.decrement_rows[1], 2.0**-6).all())),
    "rosenbrock-ill-conditioned": (rosenbrock_q3_bundle(), 2.0**-5, lambda spy: True),
    "zero-decrement": (zero_decrement_bundle(), 0.5, lambda spy: True),
}


@pytest.mark.parametrize("name", NAMED_BUNDLES)
def test_order3_batched_ascent_equals_one_start_at_a_time_on_named_bundles(name, monkeypatch):
    b, radius, shows = NAMED_BUNDLES[name]
    want = sequential_max_cubic_on_ball(b, radius)
    spy = AscentSpy(monkeypatch)
    assert np.array_equal(optimality._max_cubic_on_ball(b, radius), want)
    assert len(spy.decrement_rows[0]) == 2 * b[0].size + 8
    assert all((row_norms(c) <= radius * (1 + 1e-12)).all() for c in spy.decrement_rows)
    assert shows(spy)


def reference_accepted_moves(monkeypatch, b, radius, seed, starts):
    """The moves the one-start-at-a-time reference accepts: within each
    start (found by its first point, so n >= 2, where starts differ), the
    candidates that raise its value by more than 1e-16."""
    values = []
    real = checkers.taylor_decrement
    monkeypatch.setattr(checkers, "taylor_decrement",
                        lambda bb, s, j=None: values.append((s, real(bb, s, j))) or values[-1][1])
    sequential_max_cubic_on_ball(b, radius, seed=seed)
    accepted, k, val = 0, 0, None
    for s, v in values:
        if k < len(starts) and np.array_equal(s, starts[k]):
            k, val = k + 1, v
        elif v > val + 1e-16:
            accepted, val = accepted + 1, v
    assert k == len(starts)
    return accepted


@pytest.mark.parametrize("n,radius", [(2, 2.0**-5), (3, 0.5), (4, 1e-3), (5, 1.0)])
def test_order3_ascent_evaluates_gradients_only_where_a_start_moved(n, radius, monkeypatch):
    # the gradient computation sees each start once at entry and then one
    # row per accepted move, not every live start every round
    b = cubic_bundle(np.random.default_rng(40 + n), n)
    spy = AscentSpy(monkeypatch)
    optimality._max_cubic_on_ball(b, radius, seed=n)
    monkeypatch.undo()
    starts = spy.decrement_rows[0]
    accepted = reference_accepted_moves(monkeypatch, b, radius, n, starts)
    assert 0 < accepted < sum(spy.live_counts)  # some rounds reject
    assert sum(map(len, spy.gradient_rows)) == len(starts) + accepted


@given(data=st.data(), n=st.integers(1, 4), seed=st.integers(0, 3),
       radius=st.sampled_from(ASCENT_RADII))
@settings(max_examples=40, deadline=None)
def test_order3_batched_ascent_equals_one_start_at_a_time_property(data, n, seed, radius):
    elems = st.floats(-10, 10)
    b = make_bundle([sym_tensor(data.draw(arrays(float, (n,) * i, elements=elems)))
                     for i in (1, 2, 3)])
    assert np.array_equal(optimality._max_cubic_on_ball(b, radius, seed=seed),
                          sequential_max_cubic_on_ball(b, radius, seed=seed))


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
    acc = fresh_state(p, 1, x, zeta0=1e-12)
    cert = certified_decrement(1, 0.5, acc)
    assert acc.i_zeta == 0
    assert cert.outcome is VerifyOutcome.RELATIVE
    assert acc.ledger.n_deriv(1) == 1


def test_certified_decrement_predicted_tightening_count():
    # at an exact minimizer with zero-noise oracle the decrement is 0, so the
    # loop tightens until the absolute test holds: zeta <= omega * xi
    p = make_problem("quadratic", dim=2, cond=4)
    x = np.zeros(2)
    omega, varsigma, eps_j, delta = 0.02, 0.99, 1e-3, 0.5
    zeta0, gamma = 0.1, 0.1
    acc = fresh_state(p, 1, x, zeta0=zeta0)
    cert = certified_decrement(1, delta, acc)
    assert cert.outcome is VerifyOutcome.ABSOLUTE
    xi = 0.5 * varsigma * eps_j
    predicted = math.ceil(math.log(zeta0 / (omega * xi)) / math.log(1 / gamma))
    assert acc.i_zeta == predicted
    # and never beyond the guaranteed level
    bound = allowed_tightenings(zeta0, 0.25 * omega * varsigma * eps_j * delta**0 / 1,
                                gamma) + 1
    assert acc.i_zeta <= bound


def test_certification_budget_trap_names_order_radius_and_point(monkeypatch):
    p = make_problem("quadratic", dim=2, cond=4)
    x = np.array([1.0, -0.5])
    omega, varsigma, eps_j, delta = 0.02, 0.99, 1e-3, 0.5
    acc = fresh_state(p, 2, x, zeta0=0.1)
    monkeypatch.setattr(optimality, "verify", lambda *a: VerifyOutcome.INSUFFICIENT)
    with pytest.raises(CertificationError, match="guaranteed tightening budget") as err:
        certified_decrement(2, delta, acc)
    e = err.value
    assert isinstance(e, RuntimeError)
    assert (e.j, e.radius, e.k) == (2, delta, None)
    np.testing.assert_array_equal(e.x, x)
    assert str(e).endswith("(implementation bug): order 2, radius 0.5, x = [1.0, -0.5]")
    target = 0.25 * omega * varsigma * eps_j * delta / 2
    assert acc.i_zeta == allowed_tightenings(0.1, target, acc.cfg.gamma_zeta)


@pytest.mark.parametrize("delta", [2.0, 3.0, 0.0, -0.5, math.nan])
def test_certified_decrement_refuses_a_radius_outside_0_1(delta):
    # at delta > 1 the tightening budget is no longer exact: the reproduction
    # at delta = 2 used to trip the "implementation bug" trap
    p = make_problem("quadratic", dim=2, cond=4)
    acc = fresh_state(p, 3, np.zeros(2))
    with pytest.raises(ValueError, match=r"certified_decrement: radius delta must lie in "
                                         rf"\(0, 1\], got {delta!r}"):
        certified_decrement(3, delta, acc)
    assert acc.i_zeta == 0 and len(acc.ledger) == 0


@pytest.mark.parametrize("j", [2, -1, 0, 1.5])
def test_certified_decrement_refuses_an_order_outside_1_to_q(j):
    p = make_problem("quadratic", dim=2, cond=4)
    acc = fresh_state(p, 1, np.ones(2))
    with pytest.raises(ValueError, match=r"certified_decrement: order j must be an integer "
                                         rf"in 1\.\.q = 1, got {j!r}"):
        certified_decrement(j, 0.5, acc)
    assert acc.i_zeta == 0 and len(acc.ledger) == 0


def test_a_loop_certified_in_its_first_round_works_out_no_budget(monkeypatch):
    def no_budget(*args):
        raise AssertionError("budget worked out before an insufficient round")
    monkeypatch.setattr(optimality, "allowed_tightenings", no_budget)
    p = make_problem("quadratic", dim=2, cond=4)
    acc = fresh_state(p, 1, np.ones(2), zeta0=1e-12)
    assert certified_decrement(1, 0.5, acc).outcome is VerifyOutcome.RELATIVE
    assert acc.i_zeta == 0


def test_certified_decrement_at_unit_radius_ends_within_budget_for_every_gamma(monkeypatch):
    # at x = 0 the gradient and third derivative vanish and the Hessian is
    # positive definite, so every order's decrement is 0 and only the
    # absolute test can certify: the tightest case for the budget.  The
    # ascent is stubbed with that known answer to keep the sweep fast.
    p = make_problem("quadratic", dim=2, cond=4)
    acc = fresh_state(p, 3, np.zeros(2))
    assert max_decrement(acc.bundle(3), 3, 1.0)[1] == 0.0
    monkeypatch.setattr(optimality, "max_decrement",
                        lambda b, j, delta, seed=0: (np.zeros(2), 0.0, None))
    for gamma in np.linspace(0.5, 0.98, 25).tolist():
        for j in (2, 3):
            oracle = InexactOracle(p)
            acc = AccuracyLedger(TrConfig.with_defaults(
                (1e-3,) * 3, gamma_zeta=gamma, omega=0.02), oracle, np.zeros(2))
            cert = certified_decrement(j, 1.0, acc)
            assert cert.outcome is VerifyOutcome.ABSOLUTE
            target = 0.25 * 0.02 * 0.99 * 1e-3 / factorial(j)
            assert 0 < acc.i_zeta <= allowed_tightenings(0.1, target, gamma)


def test_certified_absolute_implies_small_reference_phi():
    # exact second-order minimizer of a convex quadratic, adversarial noise
    p = make_problem("quadratic", dim=2, cond=8)
    x = np.zeros(2)
    eps_j, delta, omega = 1e-2, 0.5, 0.02
    for j in (1, 2):
        acc = fresh_state(p, 2, x, policy="adversarial", eps=eps_j, omega=omega)
        cert = certified_decrement(j, delta, acc)
        assert cert.outcome is VerifyOutcome.ABSOLUTE
        phi = phi_reference(p, x, j, delta)
        assert phi <= eps_j * delta**j / factorial(j) * REL_SLACK


def test_certified_relative_two_sided_bound():
    # far from stationarity the outcome is relative and brackets the measure
    p = make_problem("quadratic", dim=2, cond=4)
    x = np.array([2.0, -1.0])
    omega = 0.02
    acc = fresh_state(p, 1, x, policy="adversarial", omega=omega)
    cert = certified_decrement(1, 0.5, acc)
    assert cert.outcome is VerifyOutcome.RELATIVE
    phi = phi_reference(p, x, 1, 0.5)
    assert (1 - omega) * cert.dT <= phi * REL_SLACK
    assert phi <= (1 + omega) * cert.dT * REL_SLACK


def test_certified_decrement_never_calls_eval_f():
    p = make_problem("rosenbrock")
    x = np.array([-1.2, 1.0])
    acc = fresh_state(p, 2, x, policy="adversarial")
    certified_decrement(2, 0.5, acc)
    assert acc.ledger.n_f == 0


def deriv_counts(acc):
    return tuple(acc.ledger.n_deriv(i) for i in (1, 2))


def test_cache_reuses_until_tightened():
    p = make_problem("rosenbrock")
    x = np.array([0.5, 0.5])
    acc = fresh_state(p, 2, x, policy="adversarial")
    b = acc.bundle(2)
    assert acc.bundle(2)[1] is b[1] and deriv_counts(acc) == (1, 1)
    acc.tighten(1)  # re-evaluates order 1 only
    assert acc.bundle(2)[1] is b[1] and deriv_counts(acc) == (2, 1)
    acc.tighten(2)
    acc.bundle(2)
    assert deriv_counts(acc) == (3, 2)
    acc.move_to(np.array([0.4, 0.6]))  # a new iterate re-evaluates every order
    acc.bundle(2)
    assert deriv_counts(acc) == (4, 3)

    # an exact order's bound is 0 and never decreases: it is evaluated once
    acc = fresh_state(p, 2, x, policy="adversarial", zeta0=(0.1, 0.0))
    for _ in range(5):
        acc.bundle(2)
        acc.tighten(2)
    assert acc.zetas[1] == 0.0 and deriv_counts(acc) == (5, 1)

    # a ledger whose tighten leaves the bounds alone keeps its tensors
    acc = NoShrinkLedger(TrConfig.with_defaults((1e-3,) * 2),
                         InexactOracle(p, policy="adversarial"), x)
    b = acc.bundle(2)
    acc.tighten(2)
    assert all(u is v for u, v in zip(acc.bundle(2), b)) and deriv_counts(acc) == (1, 1)


def test_termination_test_continue_order1():
    p = make_problem("quadratic", dim=2, cond=1)  # identity Hessian
    x = np.array([0.6, -0.8])  # gradient norm exactly 1
    omega = 0.01
    acc = fresh_state(p, 1, x, zeta0=1e-10, omega=omega)
    cert = termination_test(0.5, acc)
    assert cert.j == 1
    assert cert.dT == pytest.approx(0.5)
    assert cert.dT > (1e-3 / (1 + omega)) * 0.5


def test_termination_test_terminated_at_minimizer():
    p = make_problem("quadratic", dim=3, cond=5)
    x = np.zeros(3)
    acc = fresh_state(p, 2, x, zeta0=1e-12)
    assert termination_test(0.5, acc) is None
    assert deriv_counts(acc) == (1, 1)


def test_termination_test_saddle_continues_at_order2():
    p = make_problem("saddle_well")
    x = np.zeros(2)
    omega = 0.02
    acc = fresh_state(p, 2, x, zeta0=1e-10, eps=1e-2, omega=omega)
    cert = termination_test(0.1, acc)
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
        omega, varsigma, gamma = 0.02, 0.99, 0.1
        acc = fresh_state(p, 2, x, policy="adversarial", seed=trial, eps=eps_j, omega=omega)
        for j in (1, 2):
            before, entry = acc.i_zeta, max(acc.zetas[:j])
            certified_decrement(j, delta, acc)
            target = 0.25 * omega * varsigma * eps_j * delta ** (j - 1) / factorial(j)
            assert acc.i_zeta - before <= allowed_tightenings(entry, target, gamma)


def test_accuracy_ledger_tighten_and_exact_orders():
    oracle = InexactOracle(make_problem("rosenbrock"))
    acc = AccuracyLedger(TrConfig.with_defaults((1e-3,) * 3, gamma_zeta=0.5,
                                                zeta0=(0.1, 0.0, 0.1)),
                         oracle, oracle.problem.x0)
    assert acc.zetas[1] == 0.0
    acc.tighten(3)
    assert acc.i_zeta == 1
    np.testing.assert_allclose(acc.zetas, [0.05, 0.0, 0.05])
    acc.tighten(1)
    np.testing.assert_allclose(acc.zetas, [0.025, 0.0, 0.05])
