"""Checkers that tests use as independent references: central finite
differences against a problem's exact derivatives, the guarantees a
``verify`` outcome implies, checked at sampled displacements, and the
one-start-at-a-time form of the batched order-3 ascent."""

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from dyntrust.model import Bundle, as_vector, model_gradient, taylor_decrement
from dyntrust.oracle import Problem
from dyntrust.verify import VerifyOutcome, error_budget, verify


@dataclass
class FdReport:
    """Deviations between exact derivatives and central finite differences."""

    grad_dev: float
    hess_dev: float
    h: float


def finite_diff_check(problem: Problem, x, h: float = 1e-4) -> FdReport:
    """Validate a problem's order-1/2 derivatives against central differences."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = as_vector(x)
    n = x.size
    f = problem.exact_f
    grad_fd = np.zeros(n)
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        grad_fd[a] = (f(x + e) - f(x - e)) / (2 * h)
    grad_dev = float(np.max(np.abs(grad_fd - problem.exact_deriv(x, 1))))

    hess_fd = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            ea = np.zeros(n)
            eb = np.zeros(n)
            ea[a] = h
            eb[b] = h
            hess_fd[a, b] = (f(x + ea + eb) - f(x + ea - eb)
                             - f(x - ea + eb) + f(x - ea - eb)) / (4 * h * h)
    hess_dev = float(np.max(np.abs(hess_fd - problem.exact_deriv(x, 2))))
    return FdReport(grad_dev=grad_dev, hess_dev=hess_dev, h=h)


@dataclass
class VerifyCheckReport:
    """Sampled audit of the guarantees implied by a verify outcome."""

    outcome: VerifyOutcome
    n_samples: int
    violations: list = field(default_factory=list)
    max_abs_gap: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_verify_guarantees(exact: Bundle, inexact: Bundle, zetas, delta: float,
                            v, omega: float, xi: float, n_samples: int = 100,
                            seed: int = 0, fp_slack: float = 1e-12) -> VerifyCheckReport:
    """Test-support oracle: sample displacements w with |w| <= delta and check
    the certification guarantees against the exact bundle.

    Each inexact tensor must genuinely be within its entry of ``zetas`` of
    the exact one in operator norm (the caller constructs them that way).
    """
    r = len(inexact)
    dt_v = taylor_decrement(inexact, v, r)
    outcome = verify(delta, dt_v, zetas, xi, omega)
    rng = np.random.default_rng(seed)
    n = inexact[0].size

    report = VerifyCheckReport(outcome=outcome, n_samples=n_samples)
    budget = error_budget(delta, zetas)
    guaranteed = budget <= omega * xi * delta**r / factorial(r)
    if guaranteed and not outcome.sufficient:
        report.violations.append("insufficient despite full-budget guarantee")

    scale = 1.0 + fp_slack
    for _ in range(n_samples):
        w = rng.standard_normal(n)
        w *= delta * rng.random() ** (1.0 / n) / np.linalg.norm(w)
        gap = abs(taylor_decrement(inexact, w, r) - taylor_decrement(exact, w, r))
        report.max_abs_gap = max(report.max_abs_gap, gap)
        if outcome is VerifyOutcome.ABSOLUTE:
            bound = xi * delta**r / factorial(r)
            if max(dt_v, gap) > bound * scale + fp_slack:
                report.violations.append(
                    f"absolute bound broken: max({dt_v:.3e}, {gap:.3e}) > {bound:.3e}")
        elif outcome is VerifyOutcome.RELATIVE:
            if dt_v <= 0:
                report.violations.append("relative outcome with nonpositive decrement")
            if gap > omega * dt_v * scale + fp_slack:
                report.violations.append(
                    f"relative bound broken: {gap:.3e} > {omega * dt_v:.3e}")
    return report


def sequential_max_cubic_on_ball(b: Bundle, radius: float, seed: int = 0,
                                 max_iter: int = 200) -> np.ndarray:
    """Multi-start projected gradient ascent for the degree-3 decrement, one
    start at a time: the reference ``optimality._max_cubic_on_ball`` must
    match bit for bit."""
    n = b[0].size
    rng = np.random.default_rng(seed)
    starts = [radius * e for e in np.eye(n)] + [-radius * e for e in np.eye(n)]
    for _ in range(8):
        u = rng.standard_normal(n)
        starts.append(radius * u / np.linalg.norm(u))

    def project(d):
        nd = np.linalg.norm(d)
        return d if nd <= radius else d * (radius / nd)

    best_d = np.zeros(n)
    best_v = 0.0
    for d0 in starts:
        d = d0.copy()
        val = taylor_decrement(b, d, 3)
        step = 0.5 * radius
        for _ in range(max_iter):
            g = -model_gradient(b, d, 3)
            ng = float(np.linalg.norm(g))
            if ng < 1e-15 or step < 1e-15:
                break
            cand = project(d + step * g / ng)
            cand_val = taylor_decrement(b, cand, 3)
            if cand_val > val + 1e-16:
                d, val = cand, cand_val
                step = min(step * 1.3, radius)
            else:
                step *= 0.5
        if val > best_v:
            best_d, best_v = d, val
    return best_d
