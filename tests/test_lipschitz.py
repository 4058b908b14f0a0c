"""The Lipschitz constants the registered problems state in closed form.

Each constant bounds the norm of the next derivative over a box (or
everywhere), so no difference quotient sampled in that box may exceed it.
The sampler here is the test-side one-pair-at-a-time checker, without its
safety inflation, so the check does not go through the audit's code.
"""

import math

import numpy as np
import pytest

from checkers import pointwise_lipschitz
from dyntrust.problems import REGISTRY, make_problem

# every registered problem is checked, with these parameters or its defaults
PARAMS = {
    "quadratic": {"dim": 3, "cond": 30},
    "quartic": {"dim": 3},
    "finite_sum_logistic": {"dim": 3, "terms": 16},
}


def stated_on(problem, lo, hi) -> tuple:
    """The problem's constants on the box [lo, hi]: its global tuple, or
    what its callable gives for that box."""
    stated = problem.lipschitz
    return tuple(stated(lo, hi) if callable(stated) else stated)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_no_sampled_quotient_exceeds_the_stated_constant(name, order):
    p = make_problem(name, **PARAMS.get(name, {}))
    rng = np.random.default_rng(order)
    for trial in range(4):
        centre = rng.uniform(-2.0, 2.0, p.dim)
        half = rng.uniform(0.05, 1.5, p.dim)
        lo, hi = centre - half, centre + half
        bound = stated_on(p, lo, hi)[order - 1]
        seen = pointwise_lipschitz(p, (lo, hi), order, n_samples=300, seed=trial,
                                   inflation=1.0)
        assert seen <= bound * (1 + 1e-12), (lo.tolist(), hi.tolist(), seen, bound)


def test_closed_forms_on_a_fixed_box():
    lo, hi = -np.ones(3), 2.0 * np.ones(3)
    # sup |3x^2 - 1| = 11, 6 sup |x| = 12 and 6
    assert stated_on(make_problem("quartic", dim=3), lo, hi) == (11.0, 12.0, 6.0)
    # near 0, sup |3x^2 - 1| is the 1 at x = 0
    assert stated_on(make_problem("quartic", dim=3), -0.5 * np.ones(3),
                     0.25 * np.ones(3)) == (1.0, 3.0, 6.0)
    # max(2, sup |6y^2 - 2|) = 22, 12 sup |y| = 24 and 12
    assert stated_on(make_problem("saddle_well"), lo[:2], hi[:2]) == (22.0, 24.0, 12.0)
    # T_2 entries: |2 - 400 y + 1200 x^2| <= 5202, |-400 x| <= 800 (twice), 200;
    # T_3 entries: |2400 x| <= 4800, -400 (three times)
    assert stated_on(make_problem("rosenbrock"), lo[:2], hi[:2]) == pytest.approx(
        (math.sqrt(5202**2 + 2 * 800**2 + 200**2), math.sqrt(4800**2 + 3 * 400**2), 2400.0),
        rel=1e-15)
    # on [-1, 1] x [1, 3] the low end of the (0, 0) entry, 2 - 1200 + 0, is the larger
    assert stated_on(make_problem("rosenbrock"), np.array([-1.0, 1.0]),
                     np.array([1.0, 3.0])) == pytest.approx(
        (math.sqrt(1198**2 + 2 * 400**2 + 200**2), math.sqrt(2400**2 + 3 * 400**2), 2400.0),
        rel=1e-15)
    assert stated_on(make_problem("quadratic", dim=3, cond=30), lo, hi) == (30.0, 0.0, 0.0)
    # mean |a_t|^2 / 4 + lam, mean |a_t|^3 / (6 sqrt 3) and mean |a_t|^4 / 8 of
    # the default draw, whatever the box
    p = make_problem("finite_sum_logistic")
    assert stated_on(p, -np.ones(4), np.ones(4)) == pytest.approx(
        (0.8790598265755458, 0.7429094336838058, 2.768359009360264), rel=1e-12)
