"""Randomized stress battery: admissible configurations far from defaults.

Every sampled configuration satisfies the admissibility constraints by
construction; each run must terminate, keep every certification loop inside
its guaranteed tightening budget (the internal bug traps raise otherwise),
honor the objective accuracy contracts against exact values, and stop at an
approximate minimizer of every order j <= q.
"""

from math import factorial

import numpy as np
import pytest

from dyntrust.driver import TrConfig, run
from dyntrust.oracle import InexactOracle
from dyntrust.problems import make_problem
from dyntrust.reference import phi3_decide, phi_reference

REL_SLACK = 1.0 + 1e-9  # rounding in the reference measures

POLICIES = ("adversarial", "gaussian", "truncate", "none")


def random_config(rng, q):
    eta1 = float(rng.uniform(0.01, 0.5))
    eta2 = float(rng.uniform(eta1, 0.97))
    gamma2 = float(rng.uniform(0.3, 0.9))
    # an unused draw: it set a contraction floor that no run reads, and it stays
    # so that every later draw, and so each batch's configurations, stay put
    rng.uniform(0.05, 0.95)
    gamma3 = float(rng.uniform(1.1, 4.0))
    omega_cap = min(0.5 * eta1, 0.25 * (1 - eta2))
    omega = float(rng.uniform(0.1, 0.98)) * omega_cap
    eps = tuple(float(10 ** rng.uniform(-2.3, -1)) for _ in range(q))
    vartheta = float(rng.uniform(min(eps), 1.0))
    delta0 = float(10 ** rng.uniform(-0.5, 1.0))
    zeta_scale = float(10 ** rng.uniform(-3, -0.5))
    return TrConfig(
        eps=eps, Delta0=delta0, Delta_max=delta0 * float(rng.uniform(1, 100)),
        vartheta=vartheta, eta1=eta1, eta2=eta2, gamma2=gamma2,
        gamma3=gamma3, omega=omega, varsigma=float(rng.uniform(0.5, 1.0)),
        gamma_zeta=float(rng.uniform(0.05, 0.6)),
        zeta0=zeta_scale * float(rng.uniform(0.1, 1.0)),
        seed=int(rng.integers(0, 1000)), max_iterations=40000)


def random_problem(rng):
    choice = rng.integers(0, 4)
    if choice == 0:
        return make_problem("quadratic", dim=int(rng.integers(1, 5)),
                            cond=float(10 ** rng.uniform(0, 2)))
    if choice == 1:
        return make_problem("rosenbrock")
    if choice == 2:
        return make_problem("saddle_well")
    return make_problem("quartic", dim=int(rng.integers(1, 4)))


@pytest.mark.parametrize("batch", range(4))
def test_random_admissible_configurations(batch):
    rng = np.random.default_rng(1000 + batch)
    for trial in range(30):
        q = int(rng.integers(1, 4))
        cfg = random_config(rng, q)
        problem = random_problem(rng)
        policy = POLICIES[int(rng.integers(0, len(POLICIES)))]
        oracle = InexactOracle(problem, policy=policy, seed=trial)
        x0 = problem.x0 + 0.3 * rng.standard_normal(problem.dim)
        # bug traps, an absolute step outcome among them, raise
        result = run(oracle, cfg, x0=x0)
        assert result.terminated, (batch, trial, problem.name, policy)
        trace = result.history
        # objective accuracy contracts replayed against exact values
        for x, x_trial, f_old, f_new, dT_s in zip(
                trace.starts(), trace.x_trial, trace.column("f_bar_old").tolist(),
                trace.column("f_bar_new").tolist(), trace.column("dT_s").tolist()):
            budget = cfg.omega * dT_s * (1 + 1e-9)
            assert abs(f_old - problem.exact_f(x)) <= budget
            assert abs(f_new - problem.exact_f(x_trial)) <= budget
        # the final point is genuinely first-order small
        gnorm = np.linalg.norm(problem.exact_deriv(result.x_eps, 1))
        assert gnorm <= cfg.eps[0] + 1e-8
        # termination soundness: phi_j(x_eps, delta_eps) <= eps_j delta_eps^j / j!
        x, delta = result.x_eps, result.delta_eps
        for j in range(1, q + 1):
            bound = cfg.eps[j - 1] * delta**j / factorial(j) * REL_SLACK
            if j <= 2:
                phi = phi_reference(problem, x, j, delta)
                assert phi <= bound, (batch, trial, problem.name, j, phi, bound)
            else:
                b = tuple(problem.exact_deriv(x, i) for i in (1, 2, 3))
                dec = phi3_decide(b, delta, bound)
                assert dec.verdict == "pass", (batch, trial, problem.name, dec)
