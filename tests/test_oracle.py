import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from dyntrust.driver import RunTrace, TrConfig, run
from dyntrust.model import operator_norm, sym_tensor
from dyntrust.oracle import EvalLedger, InexactOracle, NonFiniteEvaluation, Problem
from dyntrust.problems import REGISTRY, make_problem
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from checkers import GatheredTermModel, finite_diff_check

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
    assert ledger.min_acc((1,)) == 1e-4


def test_event_table_matches_a_plain_list_reference(monkeypatch):
    # every call the table logs, kept a second time as (order, acc, work,
    # phase) tuples in a plain list; the table's rows and reductions must
    # equal the list's, floats bit for bit
    calls = []
    record = EvalLedger.record

    def logged(self, order, acc, work=1.0):
        calls.append((order, float(acc), float(work), self.phase))
        record(self, order, acc, work)

    monkeypatch.setattr(EvalLedger, "record", logged)
    p = make_problem("finite_sum_logistic", dim=3, terms=32)
    res = run(InexactOracle(p, policy="subsample", seed=0), TrConfig.with_defaults((1e-3, 1e-3)))
    ledger = res.eval_ledger
    assert [tuple(e) for e in ledger.entries] == calls and len(ledger) == len(calls)
    assert [e.order for e in ledger.entries] == [c[0] for c in calls]
    for orders in ((0,), (1, 2, 3)):
        accs = [a for o, a, _, _ in calls if o in orders and a > 0]
        assert ledger.min_acc(orders) == min(accs)
        cost = [1.0 / a for o, a, _, _ in calls if o in orders]
        assert ledger.total_cost(lambda a: 1.0 / a, orders) == sum(cost)
        assert ledger.accs(orders).tolist() == [a for o, a, _, _ in calls if o in orders]
    assert ledger.min_acc((2,)) == min(a for o, a, _, _ in calls if o == 2)
    assert ledger.total_cost(math.log) == sum(math.log(a) for _, a, _, _ in calls)
    by_phase = np.zeros((3, 4), dtype=int)
    for o, _, _, phase in calls:
        by_phase[phase, o] += 1
    np.testing.assert_array_equal(ledger.counts_by_phase(), by_phase)
    assert ledger.counts == [sum(c[0] == o for c in calls) for o in range(4)]


def test_tables_pack_rows_in_their_declared_layout():
    # one packed row per append, read back through column() bit for bit,
    # for both tables; every column is a read-only view of the row bytes
    ledger = EvalLedger()
    ledger.phase = 2
    ledger.record(3, math.nextafter(0.1, 1.0), 2.0 ** -1074)
    trace = RunTrace(np.zeros(2))
    row = (0.5, -0.0, 2, -math.inf, True, 1e-300, math.pi, -math.e, 7,
           2 ** 62, 5e-324, False, 1, 2, 3, 4, math.nextafter(1.0, 0.0))
    trace.append(row, np.array([1.0, -2.0]))
    for table, values in ((ledger, (3, math.nextafter(0.1, 1.0), 2.0 ** -1074, 2)),
                          (trace, row)):
        assert table.row.size == table.dtype.itemsize
        assert len(table) == 1
        for name, value in zip(table.dtype.names, values):
            col = table.column(name)
            assert col.shape == (1,)
            assert col.tobytes() == np.array([value], table.dtype[name]).tobytes(), name
            assert type(col.tolist()[0]) is type(value), name
            with pytest.raises(ValueError):
                col[0] = 0
    assert trace.x_trial.tolist() == [[1.0, -2.0]] and not trace.x_trial.flags.writeable


def test_exact_order_set_returns_exact():
    # an exact order is a request of accuracy zero: exact under every
    # policy, with no random draw
    for policy in POLICIES + ("subsample",):
        p = make_problem("finite_sum_logistic" if policy == "subsample" else "rosenbrock")
        o = InexactOracle(p, policy=policy, seed=0)
        x = np.full(p.dim, 0.3)
        state = o.rng.bit_generator.state
        for order in (1, 2, 3):
            np.testing.assert_array_equal(o.eval_deriv(x, order, 0.0), p.exact_deriv(x, order))
        assert o.rng.bit_generator.state == state, policy
    # a positive request is still corrupted
    p, x = make_problem("rosenbrock"), np.array([0.2, 0.9])
    g = InexactOracle(p, policy="adversarial", seed=0).eval_deriv(x, 1, 1e-2)
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


def test_quadratic_gradient_is_the_dense_product():
    # diag * x equals the dense product A x bit for bit, at any magnitude
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


def test_exact_deriv_accepts_entries_whose_sum_of_squares_overflows():
    # the finiteness check reads entry by entry, so huge finite output is
    # accepted with no overflow warning (a sum of squares used to warn)
    def deriv(x, order):
        t = np.where(x[..., :1] < 0.0, math.nan, 1e200)
        return np.broadcast_to(t, x.shape[:-1] + (2,) * order).copy()

    p = Problem(name="huge", dim=2, fun=lambda x: np.full(x.shape[:-1], 1e200), deriv=deriv,
                f_low=0.0, x0=np.ones(2))
    assert 1e200 * 1e200 == math.inf
    assert p.exact_f(np.ones((3, 2))).tolist() == [1e200] * 3
    for order in (1, 2):
        assert np.all(p.exact_deriv(np.ones(2), order) == 1e200)
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
        np.testing.assert_array_equal(row, p.exact_deriv(point, order), strict=True)


def _einsum_logistic_deriv(tm, x, order):
    """The finite-sum derivative at orders 2 and 3 as the einsum formulas
    over the term directions a_t write it."""
    s = 1.0 / (1.0 + np.exp(-((tm.a @ x[..., None])[..., 0] + tm.b)))
    a = tm.a
    if order == 2:
        return (np.einsum("...t,ta,tb->...ab", s * (1 - s), a, a) / tm.m
                + tm.lam * np.eye(a.shape[1]))
    return np.einsum("...t,ta,tb,tc->...abc", s * (1 - s) * (1 - 2 * s), a, a, a) / tm.m


@pytest.mark.parametrize("terms", [1, 16, 64])
@pytest.mark.parametrize("dim", [1, 3, 4])
@pytest.mark.parametrize("order", [2, 3])
def test_finite_sum_term_tables_match_the_einsum_formulas(order, dim, terms):
    # the term-table gemv sums the same products as the einsum, in another
    # order: each tensor agrees up to rounding, for one point and for stacks
    p = make_problem("finite_sum_logistic", dim=dim, terms=terms)
    rng = np.random.default_rng(10 * dim + terms)
    for x in (rng.uniform(-3.0, 3.0, dim), rng.uniform(-3.0, 3.0, (7, 2, dim))):
        got = p.exact_deriv(x, order)
        ref = _einsum_logistic_deriv(p.term_model, x, order)
        assert got.shape == ref.shape == x.shape[:-1] + (dim,) * order
        gap = np.abs(got - ref).reshape(-1, dim ** order).max(axis=1)
        scale = np.abs(ref).reshape(-1, dim ** order).max(axis=1)
        assert (gap <= 1e-13 * scale).all()


@pytest.mark.parametrize("order", [0, 4])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_derivative_order_outside_1_to_3_is_refused_by_name(name, order):
    # order 4 used to return a (n,)^4 array on every problem, and order 0
    # an unnamed IndexError or ValueError, or a 0-d array on quadratic
    p = make_problem(name)
    refusal = f"^{re.escape(p.name)}: derivative order must be 1, 2 or 3, got {order}$"
    for x in (p.x0 + 0.3, np.stack([p.x0, p.x0 - 0.3])):
        with pytest.raises(ValueError, match=refusal):
            p.exact_deriv(x, order)
    for policy in ("none", "adversarial") + ("subsample",) * (p.term_model is not None):
        ledger = EvalLedger()
        with pytest.raises(ValueError, match=refusal):
            InexactOracle(p, policy=policy).eval_deriv(p.x0, order, 1e-3, ledger)
        assert len(ledger) == 0


@pytest.mark.parametrize("name", sorted(REGISTRY))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stacked_objective_equals_single_points(name, data):
    # fun maps (..., n) to x.shape[:-1] values through the same door as
    # deriv; each row of a stack equals the lone-point float bit for bit
    p = make_problem(name)
    m = data.draw(st.integers(1, 6))
    x = data.draw(arrays(float, (m, p.dim), elements=st.floats(-3, 3)))
    stack = p.exact_f(x)
    assert stack.shape == (m,) and stack.dtype == float
    np.testing.assert_array_equal(p.exact_f(x.reshape(m, 1, p.dim))[:, 0], stack, strict=True)
    singles = [p.exact_f(point) for point in x]
    assert all(type(v) is float for v in singles)
    np.testing.assert_array_equal(stack, np.array(singles), strict=True)


def test_stacks_equal_single_points_on_a_fixed_sweep():
    # 20,000 uniform points in [-3, 3]^n: the stacked objective and
    # derivatives of every registered problem equal the lone-point ones
    # bit for bit.  Enough draws to catch a stacked array ** where the
    # lone point takes numpy-scalar ** (they round apart at y**2 in about
    # 1 draw in 1,000)
    rng = np.random.default_rng(0)
    for name in sorted(REGISTRY):
        p = make_problem(name)
        x = rng.uniform(-3.0, 3.0, (20_000, p.dim))
        singles = np.array([p.exact_f(point) for point in x])
        assert p.exact_f(x).tobytes() == singles.tobytes(), name
        for order in (1, 2, 3):
            singles = np.array([p.exact_deriv(point, order) for point in x])
            assert p.exact_deriv(x, order).tobytes() == singles.tobytes(), (name, order)


def test_problem_lower_bound_on_samples():
    rng = np.random.default_rng(2)
    for name in ("quadratic", "rosenbrock", "saddle_well", "quartic", "finite_sum_logistic"):
        p = make_problem(name)
        for _ in range(50):
            x = 3.0 * rng.standard_normal(p.dim)
            assert p.exact_f(x) >= p.f_low


@pytest.mark.parametrize("name,params,param", [
    ("quadratic", {"dim": 0}, "dim"),
    ("quadratic", {"cond": 0.5}, "cond"),
    ("quadratic", {"cond": math.nan}, "cond"),
    ("quadratic", {"cond": math.inf}, "cond"),
    ("quartic", {"dim": 0}, "dim"),
    ("finite_sum_logistic", {"dim": 0}, "dim"),
    ("finite_sum_logistic", {"terms": 0}, "terms"),
    ("finite_sum_logistic", {"lam": -1.0}, "lam"),
    ("finite_sum_logistic", {"lam": math.nan}, "lam"),
    ("finite_sum_logistic", {"lam": math.inf}, "lam"),
])
def test_problem_factories_refuse_parameters_outside_their_domain(name, params, param):
    value = params[param]
    with pytest.raises(ValueError, match=re.escape(f"{name}: {param} must be ") +
                       f".*, got {re.escape(repr(value))}$"):
        make_problem(name, **params)


def test_problem_names_hold_every_parameter():
    # the run's summary names its problem, so two problems never share a name
    assert make_problem("finite_sum_logistic", lam=0.5).name == \
        "finite_sum_logistic(dim=4,m=64,lam=0.5)"
    assert make_problem("finite_sum_logistic").name == "finite_sum_logistic(dim=4,m=64,lam=0.1)"
    assert make_problem("quadratic", dim=3, cond=4).name == "quadratic(dim=3,cond=4)"


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


@pytest.mark.parametrize("dim,terms", [(1, 1), (3, 16), (4, 64), (10, 200)])
def test_term_model_prefix_slices_equal_the_gathered_terms(dim, terms):
    # the terms are stored largest bound first, so the prefix is a slice:
    # values, tensors and work equal the gathered-index estimates bit for bit
    tm = make_problem("finite_sum_logistic", dim=dim, terms=terms).term_model
    assert np.unique(tm.a_norm).size == terms and (np.diff(tm.a_norm) <= 0).all()
    ref = GatheredTermModel.shuffled(tm, seed=dim)
    rng = np.random.default_rng(terms)
    works = set()
    for _ in range(8):
        x = rng.normal(0.0, rng.uniform(0.05, 3.0), dim)
        for acc in (1e3, 1e-1, 1e-2, 1e-3, 1e-4, 1e-12):
            got, want = tm.estimate_f(x, acc), ref.estimate_f(x, acc)
            assert struct.pack("2d", *got) == struct.pack("2d", *want)
            works.add(got[1])
            for order in (1, 2, 3):
                (t, work), (t_ref, work_ref) = (tm.estimate_deriv(x, order, acc),
                                                ref.estimate_deriv(x, order, acc))
                assert t.shape == t_ref.shape == (dim,) * order
                assert t.tobytes() == t_ref.tobytes() and work == work_ref
                works.add(work)
    # the prefix takes no term, every term, and lengths in between
    assert {0.0, 1.0} <= works and (terms == 1 or len(works) > 2)


def _nan(out):
    return np.full(np.shape(out), math.nan)


def _twice(out):
    return np.stack([out, out])


def _same(out):
    return out


class MappedTerms:
    """A term model whose estimates pass through ``value`` and ``tensor``."""

    def __init__(self, base, value, tensor):
        self.base, self.value, self.tensor = base, value, tensor

    def estimate_f(self, x, acc):
        value, work = self.base.estimate_f(x, acc)
        return self.value(value), work

    def estimate_deriv(self, x, order, zeta):
        tensor, work = self.base.estimate_deriv(x, order, zeta)
        return self.tensor(tensor), work


@pytest.mark.parametrize("value,tensor,error,message", [
    pytest.param(_nan, _same, NonFiniteEvaluation,
                 "objective value nan at x = {x} is not finite", id="nan_value"),
    pytest.param(_same, _nan, NonFiniteEvaluation,
                 "order-1 derivative at x = {x} is not finite", id="nan_deriv"),
    pytest.param(_twice, _same, ValueError,
                 "{name}: fun of points (3,) has shape (2,), expected ()", id="value_shape"),
    pytest.param(_same, _twice, ValueError,
                 "{name}: deriv of points (3,) has shape (2, 3), expected (3,)", id="deriv_shape"),
])
@pytest.mark.parametrize("route", ["exact", "subsample"])
def test_exact_and_subsampled_output_are_checked_alike(route, value, tensor, error, message):
    # one checker at the problem door: a malformed subsampled value used to
    # end in a bare TypeError from float()
    base = make_problem("finite_sum_logistic", dim=3, terms=16)
    if route == "exact":
        p = dataclasses.replace(base, fun=lambda x: value(base.fun(x)),
                                deriv=lambda x, order: tensor(base.deriv(x, order)))
    else:
        p = dataclasses.replace(base, term_model=MappedTerms(base.term_model, value, tensor))
    oracle = InexactOracle(p, policy="none" if route == "exact" else route)
    x = np.array([0.2, -0.1, 0.3])
    with pytest.raises(error, match="^" + re.escape(message.format(x=x.tolist(), name=p.name))):
        if tensor is _same:
            oracle.eval_f(x, 1e-3)
        else:
            oracle.eval_deriv(x, 1, 1e-3)


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


def test_exact_f_checks_a_point_or_a_stack():
    # one checked door for values too: a stack (..., n) gets x.shape[:-1]
    # finite values, and the first non-finite point in stack order is named
    def fun(x):
        return np.where(x[..., 0] < 0.0, math.nan, np.sum(x * x, axis=-1))

    p = Problem(name="nan_left_of_0", dim=2, fun=fun, deriv=None, f_low=0.0, x0=np.ones(2))
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (64, 2))
    first = pts[np.argmax(pts[:, 0] < 0.0)]
    assert pts[0, 0] >= 0.0  # the named point is not simply the first one
    for stack in (pts, pts.reshape(8, 8, 2), pts[:, None, :]):
        with pytest.raises(NonFiniteEvaluation,
                           match=re.escape(f"objective value nan at x = {first.tolist()} "
                                           "is not finite")):
            p.exact_f(stack)
    with pytest.raises(NonFiniteEvaluation,
                       match=re.escape(f"objective value nan at x = {first.tolist()}")):
        p.exact_f(first)
    good = pts[pts[:, 0] >= 0.0]
    np.testing.assert_array_equal(p.exact_f(good), np.sum(good * good, axis=-1))
    assert p.exact_f(np.empty((0, 2))).shape == (0,)

    one_point = Problem(name="one_point_only", dim=2, fun=lambda x: float(x @ x),
                        deriv=None, f_low=0.0, x0=np.ones(2))
    assert one_point.exact_f(np.ones(2)) == 2.0
    for stack in (pts, pts[:2]):  # matmul refuses the first, float() the second
        with pytest.raises(ValueError, match=re.escape(
                f"one_point_only: fun of points {stack.shape} failed (") + r".*\); "
                + re.escape(f"expected values of shape {stack.shape[:-1]}")):
            one_point.exact_f(stack)
    scalar = Problem(name="scalar_only", dim=2, fun=lambda x: 3.0, deriv=None,
                     f_low=3.0, x0=np.ones(2))
    with pytest.raises(ValueError, match=re.escape(
            "scalar_only: fun of points (64, 2) has shape (), expected (64,)")):
        scalar.exact_f(pts)


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
