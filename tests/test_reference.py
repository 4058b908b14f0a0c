import dataclasses
import math
import re

import numpy as np
import pytest

from checkers import pointwise_lipschitz
from dyntrust import reference
from dyntrust.driver import TrConfig, check_history, run
from dyntrust.model import NonFiniteEvaluation, make_bundle, sym_tensor, taylor_decrement
from dyntrust.oracle import InexactOracle, Problem
from dyntrust.reference import (lipschitz_estimate, max_decrement_reference, phi3_decide,
                                phi_reference)
from dyntrust.problems import make_problem


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
    # no reference has a dimension limit; the order-3 one is a decision
    ones = [sym_tensor(np.ones((6,) * i)) for i in (1, 2, 3)]
    b = make_bundle(ones)
    assert max_decrement_reference(b, 2, 0.5) > 0
    with pytest.raises(ValueError, match="phi3_decide decides degree 3"):
        max_decrement_reference(b, 3, 0.5)
    # D(s) = -(t + t^2/2 + t^3/6) with t = sum(s) falls in t, so the maximum
    # is at t = -0.5 sqrt(6), on the sphere
    t = -0.5 * math.sqrt(6.0)
    exact = -(t + t * t / 2.0 + t ** 3 / 6.0)
    assert phi3_decide(b, 0.5, 1.01 * exact).verdict == "pass"
    assert phi3_decide(b, 0.5, 0.99 * exact).verdict == "fail"


def test_phi_reference_reads_the_exact_derivatives():
    # phi_reference builds the bundle (T_1, ..., T_j) of exact derivatives
    p = make_problem("quartic", dim=2)
    x = np.array([0.3, -0.7])
    b = make_bundle([p.exact_deriv(x, i) for i in (1, 2, 3)])
    assert len(b) == 3
    for j in (1, 2):
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
# deriv call; the chunked sampler draws the same stream and must agree.  The
# finite-sum pins at orders 2 and 3 come from the term-table derivatives;
# the einsum derivatives they replaced gave _EINSUM_PINNED, equal up to rounding.
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
    ("finite_sum_logistic", 2, 0.21145613772877986),
    ("finite_sum_logistic", 3, 1.0574854037147283),
]
_EINSUM_PINNED = {("finite_sum_logistic", 2): 0.2114561377287797,
                  ("finite_sum_logistic", 3): 1.0574854037147285}


@pytest.mark.parametrize("key,order,expected", _PINNED)
def test_lipschitz_matches_pointwise_sampler(key, order, expected):
    params, lo, hi = _PINNED_BOXES[key]
    p = make_problem(key.rstrip("0123456789"), **params)
    box = (np.array(lo), np.array(hi))
    est = lipschitz_estimate(p, box, order)
    assert type(est) is float
    assert est == expected
    assert est == pointwise_lipschitz(p, box, order)
    if (key, order) in _EINSUM_PINNED:
        assert est == pytest.approx(_EINSUM_PINNED[key, order], rel=1e-13)


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


@pytest.mark.parametrize("n_samples", [0, -5, 2.5, "100"])
def test_lipschitz_refuses_a_sample_count_that_is_not_a_positive_integer(n_samples):
    p = make_problem("rosenbrock")
    with pytest.raises(ValueError, match=re.escape(
            f"lipschitz_estimate: n_samples must be a positive integer, got {n_samples!r}")):
        lipschitz_estimate(p, (-np.ones(2), np.ones(2)), 1, n_samples=n_samples)


@pytest.mark.parametrize("lo,hi,side", [
    (-np.ones(3), np.ones(3), "lower"), (-np.ones(2), np.ones(3), "upper"),
    (-1.0, 1.0, "lower"), (-np.ones((1, 2)), np.ones((1, 2)), "lower")],
    ids=["lower-3", "upper-3", "scalars", "rows-1x2"])
def test_lipschitz_refuses_box_sides_of_another_dimension(lo, hi, side):
    # rosenbrock's deriv reads two coordinates; a 3-entry box side used to
    # fail inside it ("too many values to unpack")
    p = make_problem("rosenbrock")
    with pytest.raises(ValueError, match=f"lipschitz_estimate: box {side} side must hold "
                                         r"2 entries \(the problem's dim\)"):
        lipschitz_estimate(p, (lo, hi), 1)


def test_lipschitz_refuses_a_box_whose_lower_side_exceeds_its_upper():
    p = make_problem("rosenbrock")
    with pytest.raises(ValueError, match=r"box must be \(lower, upper\) with lower <= upper"):
        lipschitz_estimate(p, (np.array([-1.0, 1.0]), np.array([1.0, 0.5])), 1)


@pytest.mark.parametrize("delta", [0.0, -0.5])
def test_references_refuse_a_radius_that_is_not_positive(delta):
    b = make_bundle([sym_tensor(np.ones((2,) * i)) for i in (1, 2, 3)])
    for j in (1, 2):
        with pytest.raises(ValueError, match="delta must be positive"):
            max_decrement_reference(b[:j], j, delta)
    with pytest.raises(ValueError, match="delta must be positive"):
        phi3_decide(b, delta, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lipschitz_refuses_a_nonfinite_box(bad):
    # the sampler used to evaluate the NaN points it drew and blame the
    # problem ("order-1 derivative at x = [nan, ...] is not finite")
    p = make_problem("rosenbrock")
    lo, hi = np.array([-1.0, bad]), np.array([1.0, 1.0])
    for box, side in (((lo, hi), "lower"), ((-hi, -lo), "upper")):
        with pytest.raises(ValueError, match=f"lipschitz_estimate: box {side} side must be "
                                             "finite"):
            lipschitz_estimate(p, box, 1)


@pytest.mark.parametrize("order", [0, 4, -1])
def test_lipschitz_refuses_an_order_outside_1_to_3(order):
    p = make_problem("quartic", dim=2)
    with pytest.raises(ValueError, match=r"quartic\(dim=2\): derivative order must be 1, 2 or 3, "
                                         f"got {order}"):
        lipschitz_estimate(p, (-np.ones(2), np.ones(2)), order)


def cubic_bundle(g, h, t3):
    return make_bundle([sym_tensor(g), sym_tensor(h), sym_tensor(t3)])


def random_cubic_bundle(rng, n):
    return cubic_bundle(rng.standard_normal(n), rng.standard_normal((n, n)),
                        rng.uniform(0.0, 1.0) * rng.standard_normal((n, n, n)))


def assert_sound(b, delta, threshold, dec):
    """A pass bounds the threshold from below and a fail's witness is a
    ball point whose decrement is its value, above the threshold."""
    if dec.verdict == "pass":
        assert dec.value <= threshold
    elif dec.verdict == "fail":
        assert np.linalg.norm(dec.witness) <= delta * (1 + 1e-15)
        assert taylor_decrement(b, dec.witness) == dec.value > threshold


@pytest.mark.parametrize("seed", range(4))
def test_phi3_in_one_dimension_matches_the_closed_form(seed):
    # the maximum of a cubic on [-delta, delta] is at an end or a stationary point
    rng = np.random.default_rng(seed)
    g, h, t = rng.standard_normal(3)
    b = cubic_bundle(np.array([g]), np.array([[h]]), np.array([[[t]]]))
    delta = float(rng.uniform(0.1, 3.0))
    cands = [delta, -delta] + [r.real for r in np.roots([t / 2.0, h, g])
                                if r.imag == 0.0 and abs(r.real) <= delta]
    exact = max(-(g * s + h * s * s / 2.0 + t * s ** 3 / 6.0) for s in cands)
    for threshold, verdict in ((1.001 * exact, "pass"), (0.999 * exact, "fail")):
        dec = phi3_decide(b, delta, threshold)
        assert dec.verdict == verdict
        assert_sound(b, delta, threshold, dec)
    assert phi3_decide(b, delta, 1.001 * exact).value >= exact * (1 - 1e-12)


def test_phi3_of_a_linear_model_is_delta_times_the_gradient_norm():
    # H = 0 and T = 0: the maximum delta |g| = 3.25 is certified in one cell
    g = np.array([3.0, -4.0, 12.0])
    b = cubic_bundle(g, np.zeros((3, 3)), np.zeros((3, 3, 3)))
    dec = phi3_decide(b, 0.25, 3.25)
    assert (dec.verdict, dec.value, dec.cells) == ("pass", 3.25, 1)
    dec = phi3_decide(b, 0.25, 0.999 * 3.25)
    assert dec.verdict == "fail"
    assert_sound(b, 0.25, 0.999 * 3.25, dec)


def test_phi3_is_zero_at_a_strict_minimizer_in_one_cell():
    # T1 = 0 and H = I: in the small ball every nonzero step increases the
    # model, and the ball cell alone certifies phi_3 = 0
    rng = np.random.default_rng(8)
    b = cubic_bundle(np.zeros(3), np.eye(3), 0.1 * rng.standard_normal((3, 3, 3)))
    dec = phi3_decide(b, 0.1, 0.0)
    assert (dec.verdict, dec.value, dec.cells) == ("pass", 0.0, 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_phi3_pass_bounds_every_ball_point(n, monkeypatch):
    # a pass value is at least the decrement at every sampled ball point,
    # sphere points included; a threshold under the sampled maximum fails
    monkeypatch.setattr(reference, "_CELL_BUDGET", 20_000)
    rng = np.random.default_rng(300 + n)
    passes = 0
    for _ in range(4):
        b = random_cubic_bundle(rng, n)
        delta = float(10.0 ** rng.uniform(-3.0, 0.5))
        pts = rng.standard_normal((2000, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts[200:] *= rng.random((1800, 1)) ** (1.0 / n)  # the first 200 on the sphere
        pts *= delta
        sampled = float(np.max(taylor_decrement(b, pts)))
        for factor in (0.9, 3.0):
            dec = phi3_decide(b, delta, factor * sampled)
            assert_sound(b, delta, factor * sampled, dec)
            if factor < 1.0:
                assert dec.verdict == "fail"
            elif dec.verdict == "pass":
                passes += 1
                assert sampled <= dec.value * (1 + 1e-12)
    assert passes >= 3


def test_phi3_undecided_and_fail_fail_the_audit(monkeypatch):
    # quartic dim 6 needs ~68k cells to certify phi_3; with a budget of 1,000
    # the audit fails and says the budget ran out
    p = make_problem("quartic", dim=6)
    result = run(InexactOracle(p), TrConfig.with_defaults((1e-1,) * 3))
    assert check_history(result, p).checks["termination_soundness"].ok
    monkeypatch.setattr(reference, "_CELL_BUDGET", 1000)
    check = check_history(result, p).checks["termination_soundness"]
    assert not check.ok
    assert "phi_3 undecided: cell budget spent after 1,023 cells" in check.detail
    # away from the minimizer a fail names its witness displacement
    moved = dataclasses.replace(result, x_eps=result.x_eps + 0.3)
    check = check_history(moved, p).checks["termination_soundness"]
    assert not check.ok
    assert re.search(r"phi_3>=\S+>2\.083e-03 at s=\[-0\.25, 0\.0, 0\.0, 0\.0, 0\.0, 0\.0\]",
                     check.detail)
