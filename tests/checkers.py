"""Checkers that tests use as independent references: central finite
differences against a problem's exact derivatives, the guarantees a
``verify`` outcome implies, checked at sampled displacements, the
one-start-at-a-time form of the batched order-3 ascent, an accuracy
ledger whose tightenings never lower a bound, a column-by-column comparison
of run traces, the one-point-at-a-time form of the audit's replay against
exact values, the one-pair-at-a-time form of the Lipschitz sampler, and the
finite-sum term model that reaches its prefix through index gathers."""

import math
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from dyntrust.bounds import compute_bounds
from dyntrust.driver import _REL_SLACK, AuditReport, CheckResult, RunTrace
from dyntrust.model import (Bundle, as_vector, model_gradient, operator_norm, taylor_decrement,
                            vector_norm)
from dyntrust.optimality import AccuracyLedger, allowed_tightenings
from dyntrust.oracle import Problem
from dyntrust.problems import _sigmoid, _softplus
from dyntrust.reference import LIPSCHITZ_INFLATION, LIPSCHITZ_PAIRS, lipschitz_estimate
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
    if guaranteed and outcome is VerifyOutcome.INSUFFICIENT:
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


class NoShrinkLedger(AccuracyLedger):
    """Counts its tightenings but never lowers an accuracy."""

    def tighten(self, j):
        self.i_zeta += 1


def assert_traces_equal(got, want):
    """Two run traces hold the same value and dtype in every column, and the
    same start point, points x and trial points."""
    assert len(got) == len(want)
    for name in RunTrace.dtype.names:
        np.testing.assert_array_equal(got.column(name), want.column(name), strict=True,
                                      err_msg=name)
    for name, g, w in (("x0", got.x0, want.x0), ("starts", got.starts(), want.starts()),
                       ("x_trial", got.x_trial, want.x_trial)):
        np.testing.assert_array_equal(g, w, strict=True, err_msg=name)


def pointwise_replay(result, problem: Problem, report: AuditReport) -> AuditReport:
    """``report`` with the checks that replay the trace against exact values
    redone one row at a time: one ``exact_f`` call per trial point, the
    step tightening cap per row, the Lipschitz constants (declared,
    certified on the box or sampled over it) on a box built from a copy of
    x0 and every trial point, accepted or not, and the bounds from those
    constants and the exact data at x0.  ``check_history`` must give the
    same summary."""
    cfg, trace = result.cfg, result.history
    q, eps_min = cfg.q, min(cfg.eps)
    col = {name: trace.column(name).tolist() for name in RunTrace.dtype.names}
    x_trial = trace.x_trial
    rows = range(len(trace))
    pts = np.array([trace.x0, *(x_trial[k] for k in rows)])
    box = pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5
    stated, source = problem.lipschitz or (), "declared"
    if callable(stated):
        stated, source = stated(*box), "certified on box"
    sampled = f"sampled ({LIPSCHITZ_PAIRS:,} pairs x {LIPSCHITZ_INFLATION:g})"
    lipschitz = tuple(
        (float(stated[j - 1]), source)
        if len(stated) >= j and stated[j - 1] is not None
        else (lipschitz_estimate(problem, box, j), sampled) for j in range(1, q + 1))
    g0 = max(operator_norm(problem.exact_deriv(trace.x0, i), i) for i in range(1, q + 1))
    bc = compute_bounds(cfg, L_f=max(1.0, *(v for v, _ in lipschitz)),
                        f0=problem.exact_f(trace.x0), f_low=problem.f_low, grad_norms_at_x0=g0)

    floor = (cfg.eta1 - 2 * cfg.omega) * bc.kappa_delta ** (q + 1) * eps_min ** (q + 1) / factorial(q)
    f_x = problem.exact_f(trace.x0)
    decreases, gaps, acc_bad, cap_bad = [], [], 0, 0
    for k in rows:
        f_trial = problem.exact_f(x_trial[k])
        budget = cfg.omega * col["dT_s"][k]
        gap = max(abs(col["f_bar_old"][k] - f_x), abs(col["f_bar_new"][k] - f_trial))
        gaps.append(gap - budget)
        acc_bad += gap > budget * _REL_SLACK
        j = col["j"][k]
        stop_level = (cfg.omega * cfg.vartheta ** (j - 1) * cfg.eps[j - 1]
                      / (8 * factorial(j) * (1 + cfg.omega)))
        cap_bad += col["step2_tightens"][k] > allowed_tightenings(
            col["zeta_max_step2_entry"][k], stop_level, cfg.gamma_zeta)
        if col["successful"][k]:
            decreases.append(f_x - f_trial)
            f_x = f_trial
    worst = min(decreases, default=math.inf)
    bad = sum(d * _REL_SLACK < floor for d in decreases)
    checks = dict(report.checks)
    checks["decrease_floor"] = CheckResult(
        bad == 0, f"min exact decrease {worst:.3e} vs floor {floor:.3e} ({bad} violations)")
    checks["step_tighten_cap"] = CheckResult(
        cap_bad == 0, f"{cap_bad} iterations exceeded the step tightening cap")
    checks["f_accuracy_contract"] = CheckResult(
        acc_bad == 0,
        f"{acc_bad} iterations broke the objective accuracy contract "
        f"(worst overshoot {max([0.0, *gaps]):.3e})")
    return AuditReport(checks=checks, bounds=bc, lipschitz_orders=lipschitz)


def pointwise_lipschitz(problem: Problem, box, order: int,
                        n_samples: int = LIPSCHITZ_PAIRS, seed: int = 0,
                        inflation: float = LIPSCHITZ_INFLATION) -> float:
    """The sampled Lipschitz estimate one pair at a time: x, then y, drawn
    from the stream, and the pair evaluated by its own ``exact_deriv`` call.
    ``reference.lipschitz_estimate`` must match bit for bit.  With
    ``inflation=1`` it is the largest sampled difference quotient, a lower
    bound on the true constant."""
    lo, hi = (np.asarray(side, dtype=float) for side in box)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_samples):
        x = lo + (hi - lo) * rng.random(lo.size)
        y = lo + (hi - lo) * rng.random(lo.size)
        gap = operator_norm(x - y, 1)
        if gap >= 1e-12:
            dx, dy = problem.exact_deriv(np.stack((x, y)), order)
            best = max(best, operator_norm(dx - dy, order) / gap)
    return inflation * best


@dataclass(frozen=True, eq=False)
class GatheredTermModel:
    """The finite-sum term model with its terms in any order, reaching the
    prefix (largest |a_t| first) through the index gathers ``a[idx]`` and
    ``mid[rest]``.  ``problems.LogisticTermModel``, which stores its terms
    in that order and slices them, must match it bit for bit."""

    a: np.ndarray
    b: np.ndarray
    lam: float
    a_norm: np.ndarray
    order_by_size: np.ndarray  # term indices, largest |a_t| first

    @classmethod
    def shuffled(cls, tm, seed: int = 0):
        """The terms of ``tm`` in a seeded random order; with distinct norms,
        gathering by size restores tm's order, as it did the drawn one."""
        perm = np.random.default_rng(seed).permutation(tm.m)
        a_norm = tm.a_norm[perm]
        return cls(a=tm.a[perm], b=tm.b[perm], lam=tm.lam, a_norm=a_norm,
                   order_by_size=np.argsort(-a_norm))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def _value_ranges(self, x_norm: float) -> np.ndarray:
        c = self.a_norm * x_norm
        lo = _softplus(self.b - c)
        hi = _softplus(self.b + c)
        return np.stack([lo, hi], axis=1) / self.m

    def _select_prefix(self, half_widths: np.ndarray, acc: float) -> int:
        ordered = half_widths[self.order_by_size]
        suffix = np.concatenate([np.cumsum(ordered[::-1])[::-1], [0.0]])
        return int(np.searchsorted(-suffix, -acc, side="left"))

    def estimate_f(self, x, acc: float):
        x = np.asarray(x, dtype=float)
        ranges = self._value_ranges(vector_norm(x))
        half = (ranges[:, 1] - ranges[:, 0]) / 2.0
        k = self._select_prefix(half, acc)
        idx = self.order_by_size[:k]
        rest = self.order_by_size[k:]
        t = self.a[idx] @ x + self.b[idx]
        value = float(np.sum(_softplus(t))) / self.m
        value += float(np.sum(ranges[rest].mean(axis=1)))
        value += 0.5 * self.lam * float(x @ x)
        return value, k / self.m

    def estimate_deriv(self, x: np.ndarray, order: int, zeta: float):
        c = self.a_norm * vector_norm(x)
        if order == 1:
            lo, hi = _sigmoid(self.b - c), _sigmoid(self.b + c)
            half = (hi - lo) / 2.0 * self.a_norm / self.m
            mid = (hi + lo) / 2.0
        elif order == 2:
            s_lo, s_hi = _sigmoid(self.b - c), _sigmoid(self.b + c)
            d_lo, d_hi = s_lo * (1 - s_lo), s_hi * (1 - s_hi)
            contains_peak = (self.b - c <= 0) & (self.b + c >= 0)
            top = np.where(contains_peak, 0.25, np.maximum(d_lo, d_hi))
            bot = np.minimum(d_lo, d_hi)
            half = (top - bot) / 2.0 * self.a_norm**2 / self.m
            mid = (top + bot) / 2.0
        else:
            cap = 1.0 / (6.0 * math.sqrt(3.0))
            half = cap * self.a_norm**3 / self.m
            mid = np.zeros(self.m)
        k = self._select_prefix(half, zeta)
        idx = self.order_by_size[:k]
        rest = self.order_by_size[k:]
        s = _sigmoid(self.a[idx] @ x + self.b[idx])
        if order == 1:
            approx = (s @ self.a[idx]) / self.m
            if len(rest):
                approx = approx + (mid[rest] @ self.a[rest]) / self.m
            tensor = approx + self.lam * x
        elif order == 2:
            w = s * (1 - s)
            approx = np.einsum("t,ta,tb->ab", w, self.a[idx], self.a[idx]) / self.m
            if len(rest):
                approx = approx + np.einsum(
                    "t,ta,tb->ab", mid[rest], self.a[rest], self.a[rest]) / self.m
            tensor = approx + self.lam * np.eye(x.size)
        else:
            w = s * (1 - s) * (1 - 2 * s)
            tensor = np.einsum("t,ta,tb,tc->abc", w, self.a[idx], self.a[idx], self.a[idx]) / self.m
        return tensor, k / self.m
