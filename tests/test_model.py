import itertools
import math

import numpy as np
import pytest

from dyntrust.model import (NonFiniteEvaluation, make_bundle, model_gradient,
                            operator_norm, sym_tensor, taylor_decrement, taylor_value,
                            tensor_apply, vector_norm)
from dyntrust.verify import error_budget


def naive_contraction(entries: np.ndarray, s: np.ndarray) -> float:
    """Full index-loop oracle for the i-fold contraction."""
    order = entries.ndim
    n = s.size
    total = 0.0
    for idx in itertools.product(range(n), repeat=order):
        term = entries[idx]
        for a in idx:
            term *= s[a]
        total += term
    return total


def random_bundle(rng, n, degree):
    tensors = [sym_tensor(rng.standard_normal((n,) * i)) for i in range(1, degree + 1)]
    rng.standard_normal(n)  # a base point, drawn to keep the instance stream
    return make_bundle(tensors)


def test_tensor_apply_linear_form():
    t = sym_tensor(np.array([2.0, 0.0]))
    assert tensor_apply(t, np.array([3.0, 5.0])) == 6.0


def test_tensor_apply_identity_quadratic():
    t = sym_tensor(np.eye(2))
    assert tensor_apply(t, np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_tensor_apply_order3_matches_naive_loop():
    rng = np.random.default_rng(42)
    for _ in range(10):
        t = sym_tensor(rng.standard_normal((2, 2, 2)))
        s = rng.standard_normal(2)
        assert tensor_apply(t, s) == pytest.approx(naive_contraction(t, s), rel=1e-12)


def test_tensor_apply_permutation_symmetry():
    # contraction of the symmetrized tensor equals the naive loop on the raw one
    rng = np.random.default_rng(7)
    for n, order in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        raw = rng.standard_normal((n,) * order)
        t = sym_tensor(raw)
        s = rng.standard_normal(n)
        assert tensor_apply(t, s) == pytest.approx(naive_contraction(raw, s), rel=1e-11)


def test_tensor_apply_dimension_mismatch():
    t = sym_tensor(np.eye(2))
    with pytest.raises(ValueError):
        tensor_apply(t, np.ones(3))


@pytest.mark.parametrize("n,degree", [(1, 3), (2, 2), (3, 2), (2, 3), (3, 3),
                                      (10, 3), (100, 2)])
def test_batch_rows_equal_single_points(n, degree):
    # The optimizer contracts one point at a time and the reference measure
    # and the order-3 ascent whole batches; a batch row must reproduce the
    # single-point value bit for bit, at the sizes the bench workloads use
    # (n up to 100).
    rng = np.random.default_rng(10 * n + degree)
    b = random_bundle(rng, n, degree)
    pts = rng.standard_normal((1000, n)) * rng.random((1000, 1))
    for j in range(1, degree + 1):
        applied = tensor_apply(b[j - 1], pts)
        decrements = taylor_decrement(b, pts, j)
        gradients = model_gradient(b, pts, j)
        assert applied.shape == decrements.shape == (len(pts),)
        assert gradients.shape == pts.shape
        for p, a, d, g in zip(pts, applied, decrements, gradients):
            assert a == tensor_apply(b[j - 1], p)
            assert d == taylor_decrement(b, p, j)
            single = model_gradient(b, p, j)
            assert single.shape == (n,)
            assert np.array_equal(g, single)
    if degree == 3:
        # one order-3 contraction: the cubic form of each row is the row
        # dotted with the T_3[s, s, .] that the gradient adds over 2
        cubic_only = (np.zeros(n), np.zeros((n, n)), b[2])
        for p, a, w in zip(pts, applied, 2 * model_gradient(cubic_only, pts)):
            assert a == p @ w


def test_taylor_decrement_zero_step():
    rng = np.random.default_rng(0)
    for degree in (1, 2, 3):
        b = random_bundle(rng, 3, degree)
        assert taylor_decrement(b, np.zeros(3), degree) == 0.0


def test_taylor_decrement_1d_quadratic():
    # f = x^2 at x = 1: gradient 2, second derivative 2; step -1
    b = make_bundle([sym_tensor([2.0]), sym_tensor(np.array([[2.0]]))])
    assert taylor_decrement(b, [-1.0], 2) == pytest.approx(1.0)


def test_taylor_decrement_matches_value_difference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        degree = rng.integers(1, 4)
        b = random_bundle(rng, int(rng.integers(1, 5)), int(degree))
        s = rng.standard_normal(b[0].size)
        f0 = float(rng.standard_normal())
        via_values = taylor_value(b, f0, np.zeros(b[0].size), degree) - taylor_value(b, f0, s, degree)
        assert taylor_decrement(b, s, degree) == pytest.approx(via_values, rel=1e-12, abs=1e-12)


def test_taylor_value_trivial_and_quadratic():
    b = make_bundle([sym_tensor([2.0]), sym_tensor(np.array([[2.0]]))])
    assert taylor_value(b, 5.0, [0.0], 2) == 5.0
    assert taylor_value(b, 1.0, [-1.0], 2) == pytest.approx(0.0)


def test_error_propagation_bound():
    # perturbing each tensor by at most zeta_i in operator norm moves the
    # decrement by at most sum_i zeta_i |s|^i / i!
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        degree = int(rng.integers(1, 4))
        base = random_bundle(rng, n, degree)
        zetas = rng.random(degree) * 0.5
        perturbed = []
        for i, t in enumerate(base, start=1):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            bump = zetas[i - 1] * 0.999
            p = u.copy()
            for _ in range(i - 1):
                p = np.multiply.outer(p, u)
            perturbed.append(sym_tensor(t + bump * p, already_symmetric=True))
        pert = make_bundle(perturbed)
        s = rng.standard_normal(n) * rng.random() * 2
        gap = abs(taylor_decrement(pert, s, degree) - taylor_decrement(base, s, degree))
        assert gap <= error_budget(float(np.linalg.norm(s)), zetas) * (1 + 1e-12)


def test_model_gradient_matches_finite_difference():
    rng = np.random.default_rng(5)
    b = random_bundle(rng, 3, 3)
    s = rng.standard_normal(3) * 0.3
    g = model_gradient(b, s, 3)
    h = 1e-6
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (taylor_value(b, 0.0, s + e, 3) - taylor_value(b, 0.0, s - e, 3)) / (2 * h)
        assert g[a] == pytest.approx(fd, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_operator_norm_stack_equals_single_tensors(n, order):
    # a single tensor is a stack of one: every row of a stack, with any
    # batch shape, gives the single-tensor value bit for bit
    rng = np.random.default_rng(n * 10 + order)
    raw = rng.standard_normal((12,) + (n,) * order) * 10.0 ** rng.uniform(
        -100, 100, (12,) + (1,) * order)
    stack = np.array([sym_tensor(t) for t in raw])
    norms = operator_norm(stack, order)
    assert norms.shape == (12,)
    np.testing.assert_array_equal(operator_norm(stack.reshape((3, 4) + stack.shape[1:]), order),
                                  norms.reshape(3, 4))
    singles = [operator_norm(t, order) for t in stack]
    assert all(type(v) is float for v in singles)
    np.testing.assert_array_equal(norms, singles)


def test_operator_norm_orders():
    g = sym_tensor(np.array([3.0, 4.0]))
    assert operator_norm(g, 1) == pytest.approx(5.0)
    h = sym_tensor(np.diag([-7.0, 2.0]))
    assert operator_norm(h, 2) == pytest.approx(7.0)
    # rank-one symmetric cubic: norm equals the coefficient
    u = np.array([1.0, 2.0, -1.0])
    u /= np.linalg.norm(u)
    t = sym_tensor(2.5 * np.einsum("a,b,c->abc", u, u, u), already_symmetric=True)
    assert operator_norm(t, 3) == pytest.approx(2.5, rel=1e-8)


def test_bundle_validation():
    with pytest.raises(ValueError, match="at least the order-1"):
        make_bundle([])
    with pytest.raises(ValueError, match="slot 1 has order 2"):
        make_bundle([np.eye(2)])
    with pytest.raises(ValueError, match="slot 2 has order 3"):
        make_bundle([np.ones(2), np.ones((2, 2, 2))])
    with pytest.raises(ValueError, match="share one dimension"):
        make_bundle([np.ones(2), np.eye(3)])
    with pytest.raises(NonFiniteEvaluation):
        make_bundle([np.ones(2), np.array([[1.0, np.nan], [np.nan, 1.0]])])
    b = make_bundle([[1.0, 2.0], np.eye(2)])
    assert type(b) is tuple and len(b) == 2 and b[0].size == 2
    assert all(type(t) is np.ndarray and t.dtype == float for t in b)
    with pytest.raises(ValueError):
        taylor_decrement(b, np.zeros(2), 3)


def test_sym_tensor_is_a_plain_array():
    t = sym_tensor([[1.0, 2.0], [0.0, 1.0]])
    assert type(t) is np.ndarray
    np.testing.assert_array_equal(t, [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="order must be in 1..3"):
        sym_tensor(np.ones((2,) * 4))
    with pytest.raises(ValueError, match="shape"):
        sym_tensor(np.ones((2, 3)))
    with pytest.raises(NonFiniteEvaluation):
        sym_tensor([1.0, np.inf])


# property tests: the model identities must hold for arbitrary bundles

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


def _bundle_strategy(n, degree):
    shapes = [(n,) * i for i in range(1, degree + 1)]
    elems = st.floats(-10, 10)
    return st.tuples(*[arrays(float, s, elements=elems) for s in shapes])


@given(data=st.data(), n=st.integers(1, 3), degree=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_decrement_value_identity_property(data, n, degree):
    tensors = [sym_tensor(t) for t in data.draw(_bundle_strategy(n, degree))]
    b = make_bundle(tensors)
    s = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    f0 = data.draw(st.floats(-100, 100))
    lhs = taylor_value(b, f0, np.zeros(n), degree) - taylor_value(b, f0, s, degree)
    rhs = taylor_decrement(b, s, degree)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(data=st.data(), n=st.integers(1, 3), degree=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_zero_step_property(data, n, degree):
    tensors = [sym_tensor(t) for t in data.draw(_bundle_strategy(n, degree))]
    b = make_bundle(tensors)
    assert taylor_decrement(b, np.zeros(n), degree) == 0.0


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_order3_norm_bounds_every_unit_contraction(data, n):
    # the Frobenius norm is an upper bound on max_{|u|=1} |T[u]^3|
    t = sym_tensor(data.draw(arrays(float, (n,) * 3, elements=st.floats(-10, 10))))
    u = data.draw(arrays(float, n, elements=st.floats(-1, 1)))
    assume(np.linalg.norm(u) > 1e-3)
    u = u / np.linalg.norm(u)
    assert operator_norm(t, 3) * (1 + 1e-12) >= abs(tensor_apply(t, u))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:underflow encountered:RuntimeWarning")
def test_vector_norm_is_numpy_norm_bit_for_bit():
    # overflow to inf and underflow to 0 included: both take sqrt(v.dot(v))
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 10, 100):
        for _ in range(200):
            v = rng.standard_normal(n) * 10.0 ** rng.uniform(-200, 200)
            got = vector_norm(v)
            assert type(got) is float
            np.testing.assert_array_equal(got, np.linalg.norm(v))
    # neither rescales: a square above the float range is inf, one below it 0
    for v, want in (([1e200], math.inf), ([1e-200, 1e-200], 0.0), ([3.0, 4.0], 5.0)):
        v = np.array(v)
        assert vector_norm(v) == np.linalg.norm(v) == want
