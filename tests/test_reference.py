import numpy as np
import pytest

from dyntrust.model import make_bundle, sym_tensor
from dyntrust.reference import (GridSpec, exact_bundle, lipschitz_estimate,
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
    p = make_problem("saddle")
    assert phi_reference(p, np.zeros(2), 2, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_phi_zero_at_quadratic_minimizer():
    p = make_problem("quadratic", dim=3, cond=10)
    val = phi_reference(p, np.zeros(3), 2, 0.7)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_monotone_in_delta_and_resolution():
    p = make_problem("rosenbrock")
    x = np.array([-0.7, 0.4])
    vals = [phi_reference(p, x, 2, d) for d in (0.2, 0.4, 0.8)]
    assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9
    lo = phi_reference(p, x, 2, 0.5, GridSpec(resolution=16, seed=3))
    hi = phi_reference(p, x, 2, 0.5, GridSpec(resolution=32, seed=3))
    assert lo <= hi + 1e-9


def test_cost_guards():
    with pytest.raises(ValueError):
        GridSpec(resolution=8)
    b = make_bundle(np.zeros(6), [sym_tensor(np.ones(6))])
    with pytest.raises(ValueError):
        max_decrement_reference(b, 1, 0.5)


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
