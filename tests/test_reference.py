import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from dyntrust.model import NonFiniteEvaluation, make_bundle, sym_tensor, taylor_decrement
from dyntrust.oracle import Problem
from dyntrust.reference import (_arc_max, _line_max, _newton_dirs, _sampled_cubic_max,
                                lipschitz_estimate, max_decrement_reference,
                                phi_reference)
from dyntrust.problems import make_problem

from checkers import sequential_sampled_cubic_max


def test_phi_order1_closed_form():
    p = make_problem("rosenbrock")
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2)
        delta = float(rng.uniform(0.05, 1.0))
        g = p.exact_deriv(x, 1)
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
        b = make_bundle([sym_tensor(g), sym_tensor(h)])
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
    b = make_bundle(ones)
    assert max_decrement_reference(b, 2, 0.5) > 0
    with pytest.raises(ValueError):
        max_decrement_reference(b, 3, 0.5)


def test_phi_reference_reads_the_exact_derivatives():
    # phi_reference builds the bundle (T_1, ..., T_j) of exact derivatives
    p = make_problem("quartic", dim=2)
    x = np.array([0.3, -0.7])
    b = make_bundle([p.exact_deriv(x, i) for i in (1, 2, 3)])
    assert len(b) == 3
    for j in (1, 2, 3):
        assert phi_reference(p, x, j, 0.4) == max_decrement_reference(b[:j], j, 0.4)


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


# Estimates (seed 0, 1,500 pairs) of the sampler that evaluated one point per
# deriv call; the chunked sampler draws the same stream and must agree.
_PINNED_BOXES = {
    "rosenbrock": ({}, [-1.5, -0.5], [1.5, 2.0]),
    "saddle_well": ({}, [-0.6, -1.6], [0.6, 1.6]),
    "quartic3": ({"dim": 3}, [-1.5] * 3, [1.5] * 3),
    "quartic10": ({"dim": 10}, [-1.5] * 10, [1.5] * 10),
    "finite_sum_logistic": ({"dim": 4, "terms": 64}, [-1.0] * 4, [1.0] * 4),
}
_PINNED = [
    ("rosenbrock", 1, 2712.237359887622),
    ("rosenbrock", 2, 4248.401943779193),
    ("rosenbrock", 3, 3599.9968009089334),
    ("saddle_well", 1, 17.862823892757127),
    ("saddle_well", 2, 26.501416254804695),
    ("saddle_well", 3, 17.999998825278823),
    ("quartic3", 1, 6.919076064856319),
    ("quartic3", 2, 12.213152232158748),
    ("quartic3", 3, 9.000000000000005),
    ("quartic10", 1, 2.2571807393916603),
    ("quartic10", 2, 5.258641992071867),
    ("quartic10", 3, 9.000000000000004),
    ("finite_sum_logistic", 1, 0.5257968405349926),
    ("finite_sum_logistic", 2, 0.2114561377287797),
    ("finite_sum_logistic", 3, 1.0574854037147285),
]


@pytest.mark.parametrize("key,order,expected", _PINNED)
def test_lipschitz_matches_pointwise_sampler(key, order, expected):
    params, lo, hi = _PINNED_BOXES[key]
    p = make_problem(key.rstrip("0123456789"), **params)
    est = lipschitz_estimate(p, (np.array(lo), np.array(hi)), order)
    assert type(est) is float
    assert est == expected


def test_lipschitz_calls_deriv_once_per_chunk():
    base = make_problem("rosenbrock")
    shapes = []

    def deriv(x, order):
        shapes.append(x.shape)
        return base.deriv(x, order)

    p = dataclasses.replace(base, deriv=deriv)
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    for order in (1, 2, 3):
        shapes.clear()
        lipschitz_estimate(p, box, order)
        assert len(shapes) <= 2 * math.ceil(1500 / 64)  # 3,000 one-point calls before
        assert sum(math.prod(s[:-1]) for s in shapes) == 2 * 1500


def test_lipschitz_nonfinite_derivative_names_order_and_point():
    # the gradient is NaN left of x_0 = 0; the error names the first such
    # point in draw order (each pair draws x, then y)
    def deriv(x, order):
        g = 2.0 * x
        return np.where(x[..., :1] < 0.0, math.nan, g) if order == 1 else g

    p = Problem(name="nan_left_of_0", dim=2, fun=lambda x: float(x @ x), deriv=deriv,
                f_low=0.0, x0=np.ones(2))
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    pts = lo + (hi - lo) * np.random.default_rng(0).random((1500 * 2, 2))
    first = pts[np.argmax(pts[:, 0] < 0.0)]
    with pytest.raises(NonFiniteEvaluation,
                       match=re.escape(f"order-1 derivative at x = {first.tolist()}")):
        lipschitz_estimate(p, (lo, hi), 1)


def test_lipschitz_refuses_a_deriv_without_stack_support():
    # a deriv written for one point only (x[0], x[1]) gets the wrong shape
    # from a stack; the sampler says so instead of broadcasting it
    p = Problem(name="one_point_only", dim=2, fun=lambda x: float(x @ x),
                deriv=lambda x, order: 2.0 * np.array([x[0], x[1]]), f_low=0.0,
                x0=np.ones(2))
    assert p.exact_deriv(np.ones(2), 1).tolist() == [2.0, 2.0]
    with pytest.raises(ValueError, match=r"one_point_only: deriv of points \(64, 2, 2\) "
                                         r"has shape \(2, 2, 2\), expected \(64, 2, 2\)"):
        lipschitz_estimate(p, (-np.ones(2), np.ones(2)), 1)


def cubic_bundle(g, h, t3):
    return make_bundle([sym_tensor(g), sym_tensor(h), sym_tensor(t3)])


def random_cubic_bundle(rng, n):
    return cubic_bundle(rng.standard_normal(n), rng.standard_normal((n, n)),
                        rng.uniform(0.0, 1.0) * rng.standard_normal((n, n, n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_sampler_agrees_with_one_start_at_a_time(n):
    # 100 bundles per dimension, radii 1e-8..3 (log-uniform), T3 scales 0..1:
    # the batched polish reorders no arithmetic that decides a step, so it
    # lands within rounding of the sequential one and never below it
    rng = np.random.default_rng(900 + n)
    for _ in range(100):
        b = random_cubic_bundle(rng, n)
        delta = float(10.0 ** rng.uniform(-8.0, math.log10(3.0)))
        ref = sequential_sampled_cubic_max(b, delta)
        assert ref > 0.0
        assert abs(_sampled_cubic_max(b, delta) - ref) <= 1e-12 * ref


def test_sampler_with_every_newton_system_singular():
    # H = 0 and T3 = 0: every chord's matrix is zero, so every row skips it,
    # and the gradient line alone reaches the maximum delta |g|.  A line end
    # point may round outward, but each round pulls the points back into the
    # ball, so the lower bound exceeds the maximum by a few ulps at most.
    g = np.array([3.0, -4.0, 12.0])
    b = cubic_bundle(g, np.zeros((3, 3)), np.zeros((3, 3, 3)))
    val = _sampled_cubic_max(b, 0.25)
    assert 3.25 * (1 - 1e-12) <= val <= 3.25 * (1 + 4 * 2**-52)
    assert abs(val - sequential_sampled_cubic_max(b, 0.25)) <= 1e-12 * val


def test_newton_dirs_skips_only_the_singular_row():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3, 3))
    a[2] = np.outer(a[2, 0], [1.0, 2.0, 3.0])  # rank one
    a[2, :, 2] = 0.0  # and an exactly zero column: LAPACK's pivot is 0
    rhs = rng.standard_normal((4, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, rhs[:, :, None])
    u = _newton_dirs(a, rhs)
    assert np.isnan(u[2]).all()
    for i in (0, 1, 3):
        assert np.array_equal(u[i], np.linalg.solve(a[i], rhs[i]))


def test_line_and_arc_rows_that_cannot_move_keep_d():
    b = random_cubic_bundle(np.random.default_rng(4), 2)
    d = np.array([[0.5, 0.0], [2.0, 2.0], [0.1, 0.0], [0.3, 0.4]])
    u = np.array([[0.0, 0.0],   # u = 0
                  [0.0, 1.0],   # the line x = 2 misses the unit ball
                  [1.0, 0.0],
                  [0.3, 0.4]])
    out = _line_max(b, d, u, 1.0)
    assert np.array_equal(out[:2], d[:2])
    assert not np.array_equal(out[2], d[2])
    t = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.6, 0.8]])
    d = np.array([[0.0, 0.0],   # |d| = 0
                  [0.3, 0.4],   # t_hat = 0
                  [0.3, 0.4],
                  [0.3, 0.4]])  # t_hat along d: no tangent part
    out = _arc_max(b, d, t)
    assert np.array_equal(out[[0, 1, 3]], d[[0, 1, 3]])
    assert np.linalg.norm(out[2]) == pytest.approx(0.5, rel=1e-14)


def test_sampler_polishes_a_start_with_zero_gradient():
    # T1 = 0 and H positive definite: in the small ball the origin scores
    # highest, polishes from a zero gradient (a random fallback direction)
    # and no point beats it; in the large one the cubic term wins at the
    # sphere, and the batched value still matches.
    rng = np.random.default_rng(8)
    b = cubic_bundle(np.zeros(3), np.eye(3), 0.1 * rng.standard_normal((3, 3, 3)))
    assert _sampled_cubic_max(b, 0.1) == 0.0 == sequential_sampled_cubic_max(b, 0.1)
    val = _sampled_cubic_max(b, 40.0)
    assert val > 0.0
    assert abs(val - sequential_sampled_cubic_max(b, 40.0)) <= 1e-12 * val


@pytest.mark.parametrize("seed", range(4))
def test_sampler_in_one_dimension_is_exact(seed):
    # the maximum of a cubic on [-delta, delta] is at an end or a stationary point
    rng = np.random.default_rng(seed)
    g, h, t = rng.standard_normal(3)
    b = cubic_bundle(np.array([g]), np.array([[h]]), np.array([[[t]]]))
    delta = float(rng.uniform(0.1, 3.0))
    cands = [delta, -delta] + [r.real for r in np.roots([t / 2.0, h, g])
                                if r.imag == 0.0 and abs(r.real) <= delta]
    exact = max(-(g * s + h * s * s / 2.0 + t * s ** 3 / 6.0) for s in cands)
    val = _sampled_cubic_max(b, delta)
    assert val == pytest.approx(exact, rel=1e-12)
    assert abs(val - sequential_sampled_cubic_max(b, delta)) <= 1e-12 * val


def test_sampler_scores_samples_in_bounded_chunks():
    # an (m, n, n) cubic term over all 80,011 samples at n = 5 would be
    # 80,011 * 25 doubles, 15 MiB, on its own
    b = random_cubic_bundle(np.random.default_rng(5), 5)
    tracemalloc.start()
    try:
        _sampled_cubic_max(b, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2**20
