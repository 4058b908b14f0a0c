"""Checkers that tests use as independent references: central finite
differences against a problem's exact derivatives, the guarantees a
``verify`` outcome implies, checked at sampled displacements, and the
one-start-at-a-time forms of the batched order-3 ascent and order-3
reference sampler."""

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from dyntrust.model import Bundle, as_vector, model_gradient, taylor_decrement
from dyntrust.oracle import Problem
from dyntrust.reference import (_POLISH_ROUNDS, _POLISH_STARTS, _RESOLUTION, _SEED,
                                MAX_REFERENCE_DIM)
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


def _poly_coeffs_along_line(b: Bundle, d: np.ndarray,
                            u: np.ndarray) -> np.ndarray:
    """Coefficients c[0..3] of t -> decrement(d + t u) for the cubic model."""
    t1, t2, t3 = b
    ddd = float(np.einsum("abc,a,b,c->", t3, d, d, d))
    ddu = float(np.einsum("abc,a,b,c->", t3, d, d, u))
    duu = float(np.einsum("abc,a,b,c->", t3, d, u, u))
    uuu = float(np.einsum("abc,a,b,c->", t3, u, u, u))
    return np.array([
        -float(t1 @ d) - 0.5 * float(d @ (t2 @ d)) - ddd / 6.0,
        -float(t1 @ u) - float(d @ (t2 @ u)) - 0.5 * ddu,
        -0.5 * float(u @ (t2 @ u)) - 0.5 * duu,
        -uuu / 6.0,
    ])


def _line_max(b: Bundle, d: np.ndarray, u: np.ndarray,
              delta: float) -> tuple[np.ndarray, float]:
    """Exact maximization of the decrement along d + t u inside the ball."""
    uu = float(u @ u)
    if uu == 0.0:
        return d, taylor_decrement(b, d, 3)
    du = float(d @ u)
    dd = float(d @ d)
    disc = du * du - uu * (dd - delta * delta)
    if disc < 0:
        return d, taylor_decrement(b, d, 3)
    root = np.sqrt(disc)
    t_lo, t_hi = (-du - root) / uu, (-du + root) / uu
    c = _poly_coeffs_along_line(b, d, u)
    cands = [t_lo, t_hi, 0.0]
    # stationary points of the cubic c0 + c1 t + c2 t^2 + c3 t^3
    a3, a2, a1 = 3 * c[3], 2 * c[2], c[1]
    if a3 != 0.0:
        disc2 = a2 * a2 - 4 * a3 * a1
        if disc2 >= 0:
            r = np.sqrt(disc2)
            cands += [(-a2 - r) / (2 * a3), (-a2 + r) / (2 * a3)]
    elif a2 != 0.0:
        cands.append(-a1 / a2)
    best_t, best_v = 0.0, c[0]
    for t in cands:
        if t_lo - 1e-15 <= t <= t_hi + 1e-15:
            t = min(max(t, t_lo), t_hi)
            v = c[0] + c[1] * t + c[2] * t * t + c[3] * t ** 3
            if v > best_v:
                best_t, best_v = t, v
    return d + best_t * u, best_v


def _arc_max(b: Bundle, d: np.ndarray, t_hat: np.ndarray,
             zooms: int = 6) -> tuple[np.ndarray, float]:
    """Maximize the decrement on the circle of radius |d| in span(d, t_hat):
    coarse angular grid, then vectorized zooming around the best angle."""
    r = float(np.linalg.norm(d))
    if r < 1e-15:
        return d, taylor_decrement(b, d, 3)
    d_hat = d / r
    t_hat = t_hat - (t_hat @ d_hat) * d_hat
    nt = float(np.linalg.norm(t_hat))
    if nt < 1e-15:
        return d, taylor_decrement(b, d, 3)
    t_hat /= nt
    lo, hi = -np.pi, np.pi
    best_theta = 0.0
    for _ in range(zooms + 1):
        thetas = np.linspace(lo, hi, 33)
        pts = r * (np.cos(thetas)[:, None] * d_hat + np.sin(thetas)[:, None] * t_hat)
        vals = taylor_decrement(b, pts, 3)
        k = int(np.argmax(vals))
        best_theta = thetas[k]
        width = (hi - lo) / 16.0
        lo, hi = best_theta - width, best_theta + width
    out = r * (np.cos(best_theta) * d_hat + np.sin(best_theta) * t_hat)
    return out, taylor_decrement(b, out, 3)


def sequential_sampled_cubic_max(b: Bundle, delta: float) -> float:
    """Sampled maximum of the degree-3 decrement over the delta-ball, one
    polish start at a time: the batched ``reference._sampled_cubic_max``
    must agree to rounding."""
    n = b[0].size
    if n > MAX_REFERENCE_DIM:
        raise ValueError(f"order-3 reference limited to dim <= {MAX_REFERENCE_DIM}")
    rng = np.random.default_rng(_SEED)
    n_samples = min(_RESOLUTION ** n, 40000)
    dirs = rng.standard_normal((n_samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = delta * rng.random(n_samples) ** (1.0 / n)
    interior = dirs * radii[:, None]
    sphere = rng.standard_normal((n_samples, n))
    sphere = delta * sphere / np.linalg.norm(sphere, axis=1, keepdims=True)
    axes = delta * np.concatenate([np.eye(n), -np.eye(n)])
    pts = np.concatenate([interior, sphere, axes, np.zeros((1, n))])

    vals = taylor_decrement(b, pts, 3)
    order = np.argsort(-vals)
    best = float(vals[order[0]])
    _, h2, t3 = b
    for idx in order[:_POLISH_STARTS]:
        d = pts[idx].copy()
        v = float(vals[idx])
        for round_ in range(_POLISH_ROUNDS):
            g = -model_gradient(b, d, 3)  # ascent direction for the decrement
            ng = np.linalg.norm(g)
            u = g / ng if ng > 0 else rng.standard_normal(n)
            d, v = _line_max(b, d, u, delta)
            # chord through the local Newton point: one-shot for interior
            # quadratic maxima
            try:
                u_n = np.linalg.solve(h2 + np.einsum("abc,c->ab", t3, d),
                                      -model_gradient(b, d, 3))
                if np.all(np.isfinite(u_n)) and np.linalg.norm(u_n) > 0:
                    d, v = _line_max(b, d, u_n, delta)
            except np.linalg.LinAlgError:
                pass
            # boundary maxima: chords cannot slide along the sphere, so
            # search the great circle toward the tangential gradient
            g = -model_gradient(b, d, 3)
            d, v = _arc_max(b, d, g if np.linalg.norm(g) > 0
                            else rng.standard_normal(n))
            if round_ % 5 == 4:
                d, v = _line_max(b, d, rng.standard_normal(n), delta)
            nd = np.linalg.norm(d)
            if nd > delta:  # back into the ball, as the batched sampler does
                d = d * (delta / nd)
                v = taylor_decrement(b, d, 3)
        best = max(best, v)
    return best
