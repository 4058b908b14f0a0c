import dataclasses
import math
import re

import numpy as np
import pytest

from dyntrust.driver import TrConfig, run
from dyntrust.model import operator_norm, sym_tensor
from dyntrust.oracle import EvalLedger, InexactOracle, NonFiniteEvaluation, Problem
from dyntrust.problems import REGISTRY, make_problem
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from checkers import finite_diff_check

POLICIES = ("none", "adversarial", "truncate", "gaussian")


def realized_tensor_error(problem, tensor, x, order):
    return operator_norm(tensor - problem.exact_deriv(x, order), order)


def test_policy_none_is_exact():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="none", seed=0)
    x = np.array([0.3, -0.2])
    assert o.eval_f(x, 1e-6) == p.exact_f(x)
    np.testing.assert_array_equal(o.eval_deriv(x, 1, 1e-3),
                                  p.exact_deriv(x, 1))


def test_adversarial_f_error_is_099_times_bound():
    p = make_problem("quadratic", dim=2)
    o = InexactOracle(p, policy="adversarial", seed=1)
    x = np.array([0.7, -1.1])
    for acc in (1e-2, 1e-5):
        err = abs(o.eval_f(x, acc) - p.exact_f(x))
        assert err == pytest.approx(0.99 * acc, rel=1e-9)


def test_adversarial_gradient_error_within_bound():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="adversarial", seed=2)
    x = np.array([-1.2, 1.0])
    zeta = 1e-3
    g = o.eval_deriv(x, 1, zeta)
    err = np.linalg.norm(g - p.exact_deriv(x, 1))
    assert err == pytest.approx(0.99 * zeta, rel=1e-9)
    assert err <= zeta


def test_truncate_policy_errors_within_bound():
    p = make_problem("quadratic", dim=3, cond=40)
    o = InexactOracle(p, policy="truncate", seed=0)
    x = np.array([0.913, -0.177, 0.501])
    for acc in (1e-2, 1e-4):
        assert abs(o.eval_f(x, acc) - p.exact_f(x)) <= acc
    for order in (1, 2):
        t = o.eval_deriv(x, order, 1e-3)
        assert realized_tensor_error(p, t, x, order) <= 1e-3


@pytest.mark.parametrize("policy", POLICIES)
def test_bound_honesty_all_policies(policy):
    rng = np.random.default_rng(9)
    p = make_problem("quartic", dim=3)
    o = InexactOracle(p, policy=policy, seed=5)
    for _ in range(12):
        x = rng.standard_normal(3)
        acc = 10.0 ** rng.uniform(-6, -1)
        assert abs(o.eval_f(x, acc) - p.exact_f(x)) <= acc
        for order in (1, 2, 3):
            zeta = 10.0 ** rng.uniform(-6, -1)
            t = o.eval_deriv(x, order, zeta)
            assert realized_tensor_error(p, t, x, order) <= zeta * (1 + 1e-9)


@pytest.mark.parametrize("policy", POLICIES + ("subsample",))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_eval_deriv_returns_a_plain_array(policy, order):
    p = make_problem("finite_sum_logistic", dim=3, terms=16)
    o = InexactOracle(p, policy=policy, seed=2)
    x = np.array([0.4, -0.3, 1.1])
    for zeta in (0.0, 1e-3, 0.5):  # exact, and two inexact accuracies
        t = o.eval_deriv(x, order, zeta)
        assert type(t) is np.ndarray and t.dtype == float
        assert t.shape == (3,) * order
    assert type(p.exact_deriv(x, order)) is np.ndarray


def test_determinism_same_seed_same_values():
    p = make_problem("rosenbrock")
    x = np.array([0.1, 0.4])
    runs = []
    for _ in range(2):
        o = InexactOracle(p, policy="gaussian", seed=123)
        vals = [o.eval_f(x, 1e-3), o.eval_f(x, 1e-4)]
        vals.append(float(np.sum(o.eval_deriv(x, 2, 1e-3))))
        runs.append(vals)
    assert runs[0] == runs[1]


def test_ledger_completeness_and_counts():
    p = make_problem("quadratic", dim=2)
    o = InexactOracle(p, policy="adversarial", seed=0)
    ledger = EvalLedger()
    x = np.zeros(2)
    o.eval_f(x, 1e-2, ledger)
    o.eval_deriv(x, 1, 1e-2, ledger)
    o.eval_deriv(x, 2, 1e-3, ledger)
    o.eval_deriv(x, 1, 1e-4, ledger)
    assert len(ledger) == 4
    assert ledger.n_f == 1
    assert ledger.n_deriv() == 3
    assert ledger.n_deriv(1) == 2
    assert ledger.deriv_rounds() == 2
    assert ledger.min_acc("deriv", 1) == 1e-4


def test_exact_order_set_returns_exact():
    p = make_problem("rosenbrock")
    o = InexactOracle(p, policy="adversarial", seed=0, exact_orders=(2,))
    x = np.array([0.2, 0.9])
    np.testing.assert_array_equal(o.eval_deriv(x, 2, 1e-2),
                                  p.exact_deriv(x, 2))
    # non-exact orders still corrupted
    g = o.eval_deriv(x, 1, 1e-2)
    assert realized_tensor_error(p, g, x, 1) > 0


def test_eval_f_rejects_nonpositive_accuracy():
    o = InexactOracle(make_problem("quadratic"), policy="none")
    with pytest.raises(ValueError):
        o.eval_f(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        o.eval_deriv(np.zeros(2), 4, 1e-3)


@pytest.mark.parametrize("policy", POLICIES + ("subsample",))
def test_nonfinite_accuracy_is_refused(policy):
    # refused before any evaluation: no ledger entry and no random draw
    p = make_problem("finite_sum_logistic", dim=3, terms=16)
    o = InexactOracle(p, policy=policy, seed=3)
    ledger = EvalLedger()
    state = o.rng.bit_generator.state
    x = np.array([0.4, -0.3, 1.1])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
            o.eval_f(x, bad, ledger)
        for order in (1, 2, 3):
            with pytest.raises(ValueError, match="must be nonnegative and finite"):
                o.eval_deriv(x, order, bad, ledger)
    assert len(ledger) == 0
    assert o.rng.bit_generator.state == state


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_quadratic_gradient_is_the_dense_product():
    # diag * x equals the dense product A x bit for bit, at any magnitude
    # (the finiteness check's sum of squares overflows above ~1e154)
    rng = np.random.default_rng(11)
    for dim in (1, 2, 7, 100):
        p = make_problem("quadratic", dim=dim, cond=1e3)
        a_mat = p.exact_deriv(np.zeros(dim), 2)
        x = rng.standard_normal((50, dim)) * 10.0 ** rng.uniform(-200, 200, (50, 1))
        np.testing.assert_array_equal(p.exact_deriv(x, 1), (a_mat @ x[..., None])[..., 0])
        for point in x[:5]:
            np.testing.assert_array_equal(p.exact_deriv(point, 1), a_mat @ point)


def test_quadratic_gradient_keeps_a_negative_zero():
    # the one difference from the dense product, whose sum gives +0.0
    p = make_problem("quadratic", dim=3, cond=10)
    x = np.array([-0.0, 0.0, -2.0])
    assert np.signbit(p.exact_deriv(x, 1)).tolist() == [True, False, True]
    stack = p.exact_deriv(np.stack([x, -x]), 1)
    assert np.signbit(stack).tolist() == [[True, False, True], [False, True, False]]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_exact_deriv_accepts_entries_whose_sum_of_squares_overflows():
    # the finiteness check is one dot of the entries; an overflowing sum of
    # squares (numpy warns about it) is checked entry by entry, not refused
    def deriv(x, order):
        t = np.where(x[..., :1] < 0.0, math.nan, 1e200)
        return np.broadcast_to(t, x.shape[:-1] + (2,) * order).copy()

    p = Problem(name="huge", dim=2, fun=lambda x: 0.0, deriv=deriv, f_low=0.0,
                x0=np.ones(2))
    big = p.exact_deriv(np.ones(2), 2)
    assert np.all(big == 1e200) and not math.isfinite(big.ravel().dot(big.ravel()))
    pts = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.5], [-2.0, 0.5]])
    assert p.exact_deriv(pts[:2], 1).tolist() == [[1e200, 1e200]] * 2
    with pytest.raises(NonFiniteEvaluation,
                       match=re.escape("order-1 derivative at x = [-1.0, 0.5] is not finite")):
        p.exact_deriv(pts, 1)


def test_finite_diff_quadratic_gradient():
    p = make_problem("quadratic", dim=3, cond=25)
    rep = finite_diff_check(p, np.array([0.4, -0.9, 1.3]), h=1e-4)
    assert rep.grad_dev <= 1e-6


def test_finite_diff_rosenbrock_hessian():
    p = make_problem("rosenbrock")
    rep = finite_diff_check(p, np.array([-1.2, 1.0]), h=1e-4)
    assert rep.hess_dev <= 1e-3


def test_finite_diff_constant_function():
    def deriv(x, order):
        return np.zeros(x.shape[:-1] + (2,) * order)

    p = Problem(name="const", dim=2, fun=lambda x: 3.0, deriv=deriv, f_low=3.0,
                x0=np.zeros(2))
    rep = finite_diff_check(p, np.zeros(2), h=1e-3)
    assert rep.grad_dev == 0.0 and rep.hess_dev == 0.0


@pytest.mark.parametrize("name,params", [
    ("quadratic", {"dim": 3, "cond": 12}),
    ("rosenbrock", {}),
    ("quadratic", {"dim": 1, "cond": 3}),  # dim 1 has its own branch, A = [cond]
    ("saddle_well", {}),
    ("quartic", {"dim": 2}),
    ("finite_sum_logistic", {"dim": 3, "terms": 24}),
])
def test_problem_derivatives_consistent(name, params):
    p = make_problem(name, **params)
    rng = np.random.default_rng(1)
    x = p.x0 + 0.3 * rng.standard_normal(p.dim)
    rep = finite_diff_check(p, x, h=1e-4)
    scale = max(1.0, abs(p.exact_f(x)))
    assert rep.grad_dev <= 1e-5 * scale
    assert rep.hess_dev <= 1e-2 * scale
    # order-3 tensor against a directional difference of exact Hessians
    v = rng.standard_normal(p.dim)
    v /= np.linalg.norm(v)
    h = 1e-5
    lhs = (p.exact_deriv(x + h * v, 2) - p.exact_deriv(x - h * v, 2)) / (2 * h)
    rhs = np.einsum("abc,c->ab", p.exact_deriv(x, 3), v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-4 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REGISTRY))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stacked_deriv_equals_single_points(name, order, data):
    # deriv maps (..., n) to x.shape[:-1] + (n,) * order through one code
    # path; each row of a stack equals the lone-point value bit for bit
    p = make_problem(name)
    m = data.draw(st.integers(1, 6))
    x = data.draw(arrays(float, (m, p.dim), elements=st.floats(-3, 3)))
    stack = p.deriv(x, order)
    assert stack.shape == (m,) + (p.dim,) * order
    np.testing.assert_array_equal(p.deriv(x.reshape(m, 1, p.dim), order)[:, 0], stack)
    for row, point in zip(stack, x):
        single = p.exact_deriv(point, order)
        if name == "saddle_well" and order == 1:
            # The one exception is y**3: numpy-scalar pow for a lone point,
            # the array power loop for a stack.  They round apart by up to
            # 1 ulp, which -2y + 2y**3 carries into the result.
            y = point[1]
            np.testing.assert_array_max_ulp(np.array([y]) ** 3, np.array([y ** 3]), 1)
            assert row[0] == single[0]
            assert abs(row[1] - single[1]) <= np.spacing(2 * abs(y) ** 3) + np.spacing(abs(single[1]))
        else:
            np.testing.assert_array_equal(row, single, strict=True)


def test_problem_lower_bound_on_samples():
    rng = np.random.default_rng(2)
    for name in ("quadratic", "rosenbrock", "saddle_well", "quartic", "finite_sum_logistic"):
        p = make_problem(name)
        for _ in range(50):
            x = 3.0 * rng.standard_normal(p.dim)
            assert p.exact_f(x) >= p.f_low


def test_subsample_oracle_honesty():
    p = make_problem("finite_sum_logistic", dim=3, terms=40)
    o = InexactOracle(p, policy="subsample", seed=0)
    ledger = EvalLedger()
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(3)
        acc = 10.0 ** rng.uniform(-5, -1)
        assert abs(o.eval_f(x, acc, ledger) - p.exact_f(x)) <= acc
        for order in (1, 2, 3):
            zeta = 10.0 ** rng.uniform(-5, -1)
            t = o.eval_deriv(x, order, zeta, ledger)
            assert realized_tensor_error(p, t, x, order) <= zeta * (1 + 1e-9)
    # looser accuracy evaluates fewer terms
    x = np.array([0.5, -0.3, 0.8])
    l1, l2 = EvalLedger(), EvalLedger()
    o.eval_f(x, 1e-1, l1)
    o.eval_f(x, 1e-6, l2)
    assert l1.entries[0].work <= l2.entries[0].work


def test_nonfinite_objective_stops_the_run():
    # A NaN objective used to make rho NaN, which fails both acceptance
    # tests: every step counted as unsuccessful while the radius still grew,
    # and the run spun until the iteration cap.
    calls = []

    def fun(x):
        calls.append(x.copy())
        return math.nan if x[0] > 0.8 else float((x[0] - 2.0) ** 2 + x[1] ** 2)

    def deriv(x, order):
        if order == 1:
            return 2.0 * (x - [2.0, 0.0])
        return np.broadcast_to(2.0 * np.eye(2), x.shape[:-1] + (2, 2))

    p = Problem(name="nan_beyond_0.8", dim=2, fun=fun, deriv=deriv, f_low=0.0,
                x0=np.array([0.9, 0.0]))
    oracle = InexactOracle(p, policy="none")
    ledger = EvalLedger()
    with pytest.raises(NonFiniteEvaluation, match=r"nan at x = \[0\.9, 0\.0\]"):
        oracle.eval_f(p.x0, 1e-3, ledger)
    assert ledger.n_f == 0
    calls.clear()
    with pytest.raises(NonFiniteEvaluation):
        run(oracle, TrConfig.with_defaults((1e-3,), max_iterations=20000))
    assert len(calls) == 1  # the first objective evaluation raises


class NanGradientTerms:
    """A term model whose subsampled gradient is NaN once |x| > 0.05; it
    records each point where it returned one."""

    def __init__(self, base):
        self.base = base
        self.nan_at = []

    def estimate_f(self, x, acc):
        return self.base.estimate_f(x, acc)

    def estimate_deriv(self, x, order, zeta):
        tensor, work = self.base.estimate_deriv(x, order, zeta)
        if order == 1 and np.linalg.norm(x) > 0.05:
            self.nan_at.append(np.array(x))
            tensor = np.full_like(tensor, math.nan)
        return tensor, work


@pytest.mark.parametrize("policy", POLICIES + ("subsample",))
def test_nonfinite_derivative_is_refused(policy):
    # Every derivative goes through the check in Problem.exact_deriv, the
    # subsampled ones too: unchecked, a NaN gradient gives a NaN decrement
    # that certifies as absolute, and the run reports an approximate
    # minimizer after one iteration.
    def deriv(x, order):
        if order == 1:
            return np.where(x[..., :1] < 0.5, [math.nan, 0.0], 2.0 * x)
        return np.broadcast_to(2.0 * np.eye(2), x.shape[:-1] + (2, 2))

    if policy == "subsample":
        base = make_problem("finite_sum_logistic", dim=3, terms=16)
        p = dataclasses.replace(base, term_model=NanGradientTerms(base.term_model))
        bad = np.array([0.2, 0.0, 0.0])
    else:
        p = Problem(name="nan_grad_below_0.5", dim=2, fun=lambda x: float(x @ x),
                    deriv=deriv, f_low=0.0, x0=np.array([0.9, 0.0]))
        bad = np.array([0.2, 0.0])
    oracle = InexactOracle(p, policy=policy, seed=0)
    with pytest.raises(NonFiniteEvaluation,
                       match=re.escape(f"order-1 derivative at x = {bad.tolist()}")):
        oracle.eval_deriv(bad, 1, 1e-3)
    with pytest.raises(NonFiniteEvaluation, match=r"order-1 derivative at x = \[") as err:
        run(oracle, TrConfig.with_defaults((1e-3,), max_iterations=2000))
    if policy == "subsample":
        assert f"x = {p.term_model.nan_at[-1].tolist()} is not finite" in str(err.value)


def test_exact_deriv_checks_a_point_or_a_stack():
    # one checked door: a point (n,) or a stack (..., n) gets its exact
    # shape and finite entries checked, and the first non-finite point in
    # stack order is named
    def deriv(x, order):
        g = 2.0 * x
        return np.where(x[..., :1] < 0.0, math.nan, g) if order == 1 else g

    p = Problem(name="nan_left_of_0", dim=2, fun=lambda x: float(x @ x), deriv=deriv,
                f_low=0.0, x0=np.ones(2))
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (64, 2))
    first = pts[np.argmax(pts[:, 0] < 0.0)]
    assert pts[0, 0] >= 0.0  # the named point is not simply the first one
    with pytest.raises(NonFiniteEvaluation,
                       match=re.escape(f"order-1 derivative at x = {first.tolist()} "
                                       "is not finite")):
        p.exact_deriv(pts, 1)
    with pytest.raises(NonFiniteEvaluation,
                       match=re.escape(f"order-1 derivative at x = {first.tolist()}")):
        p.exact_deriv(first, 1)
    np.testing.assert_array_equal(p.exact_deriv(pts[pts[:, 0] >= 0.0], 1),
                                  2.0 * pts[pts[:, 0] >= 0.0])

    one_point = Problem(name="one_point_only", dim=2, fun=lambda x: float(x @ x),
                        deriv=lambda x, order: 2.0 * np.array([x[0], x[1]]), f_low=0.0,
                        x0=np.ones(2))
    assert one_point.exact_deriv(np.ones(2), 1).tolist() == [2.0, 2.0]
    with pytest.raises(ValueError, match=r"one_point_only: deriv of points \(64, 2\) "
                                         r"has shape \(2, 2\), expected \(64, 2\)"):
        one_point.exact_deriv(pts, 1)


def test_nonfinite_derivative_built_with_sym_tensor_names_order_and_point():
    # A problem that checks its own data with sym_tensor refuses non-finite
    # data before the oracle sees it; the error still names the order and
    # the point.
    def deriv(x, order):
        if order == 1:
            return sym_tensor(np.array([math.nan, 0.0]) if x[0] < 0.5 else 2.0 * x)
        return sym_tensor(2.0 * np.eye(2))

    p = Problem(name="nan_grad_below_0.5", dim=2, fun=lambda x: float(x @ x),
                deriv=deriv, f_low=0.0, x0=np.array([0.9, 0.0]))
    oracle = InexactOracle(p, policy="none")
    with pytest.raises(NonFiniteEvaluation, match=r"order-1 derivative at x = \[0\.2, 0\.0\]"):
        oracle.eval_deriv(np.array([0.2, 0.0]), 1, 1e-3)
    with pytest.raises(NonFiniteEvaluation, match=r"order-1 derivative at x = \["):
        run(oracle, TrConfig.with_defaults((1e-3,), max_iterations=2000))
