import numpy as np
import pytest

from dyntrust.model import make_bundle, sym_tensor, taylor_decrement
from dyntrust.reference import (exact_bundle, lipschitz_estimate,
                                max_decrement_reference, phi_reference)
from dyntrust.problems import make_problem


def test_phi_order1_closed_form():
    p = make_problem("rosenbrock")
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2)
        delta = float(rng.uniform(0.05, 1.0))
        g = p.exact_deriv(x, 1).entries
        assert phi_reference(p, x, 1, delta) == pytest.approx(
            delta * np.linalg.norm(g), abs=1e-8)


def test_phi_order2_saddle_at_origin():
    # hard case: zero gradient, negative curvature -2, escape along y
    p = make_problem("saddle_well")
    assert phi_reference(p, np.zeros(2), 2, 1.0) == 1.0


@pytest.mark.parametrize("n", [1, 3, 5, 50])
def test_phi_order2_bounds_every_ball_point(n):
    # the dual bound is an upper bound on the decrement anywhere in the ball,
    # hard cases (gradient orthogonal to the bottom eigenvector) included
    rng = np.random.default_rng(n)
    for trial in range(4):
        g = rng.standard_normal(n)
        h = rng.standard_normal((n, n))
        h = h + h.T
        if trial % 2:
            _, v = np.linalg.eigh(h)
            g = g - v[:, 0] * (v[:, 0] @ g)
        b = make_bundle(np.zeros(n), [sym_tensor(g), sym_tensor(h)])
        delta = float(rng.uniform(0.05, 2.0))
        ref = max_decrement_reference(b, 2, delta)
        pts = rng.standard_normal((1000, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts[100:] *= rng.random((900, 1)) ** (1.0 / n)  # the first 100 on the sphere
        pts *= delta
        assert np.max(taylor_decrement(b, pts, 2)) <= ref * (1 + 1e-12)


def test_phi_zero_at_quadratic_minimizer():
    p = make_problem("quadratic", dim=3, cond=10)
    val = phi_reference(p, np.zeros(3), 2, 0.7)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_monotone_in_delta_and_resolution():
    p = make_problem("rosenbrock")
    x = np.array([-0.7, 0.4])
    vals = [phi_reference(p, x, 2, d) for d in (0.2, 0.4, 0.8)]
    assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9


def test_cost_guards():
    # only the order-3 sampler has a dimension limit
    ones = [sym_tensor(np.ones((6,) * i)) for i in (1, 2, 3)]
    b = make_bundle(np.zeros(6), ones)
    assert max_decrement_reference(b, 2, 0.5) > 0
    with pytest.raises(ValueError):
        max_decrement_reference(b, 3, 0.5)


def test_exact_bundle_roundtrip():
    p = make_problem("quartic", dim=2)
    b = exact_bundle(p, np.array([0.3, -0.7]), 3)
    assert b.degree == 3
    assert b.error_bounds == (0.0, 0.0, 0.0)


def test_lipschitz_quadratic_gradient():
    cond = 30.0
    p = make_problem("quadratic", dim=2, cond=cond)
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    est = lipschitz_estimate(p, box, 1, n_samples=1500, seed=0)
    raw = est / 1.5
    assert raw <= cond * (1 + 1e-9)
    assert raw >= 0.95 * cond


def test_lipschitz_quartic_third_derivative():
    # T3(x) - T3(y) = 6 diag(x - y), whose Frobenius norm is 6 |x - y|
    p = make_problem("quartic", dim=10)
    box = (-np.ones(10), np.ones(10))
    assert lipschitz_estimate(p, box, 3) == pytest.approx(1.5 * 6.0, rel=1e-12)


def test_lipschitz_quadratic_hessian_is_zero():
    p = make_problem("quadratic", dim=3, cond=5)
    box = (-np.ones(3), np.ones(3))
    assert lipschitz_estimate(p, box, 2, n_samples=200, seed=1) == 0.0


def test_lipschitz_rosenbrock_stable_across_seeds():
    p = make_problem("rosenbrock")
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    vals = [lipschitz_estimate(p, box, 2, n_samples=800, seed=s) for s in range(4)]
    assert all(v > 0 for v in vals)
    assert (max(vals) - min(vals)) / max(vals) <= 0.2
