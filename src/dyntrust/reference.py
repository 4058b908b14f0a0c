"""Independent brute-force oracles for test-time verification.

These deliberately avoid the production subproblem solvers: the optimality
measure is recomputed by dense ball sampling followed by an exact
line-search polish (the model restricted to a line is a cubic, so each line
maximization is closed form).  Values are lower bounds on the true measure;
the polish makes the gap negligible at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (DerivativeBundle, SymTensor, make_bundle, model_gradient,
                    operator_norm, taylor_decrement)
from .oracle import Problem

MAX_REFERENCE_DIM = 5
LIPSCHITZ_INFLATION = 1.5  # safety factor on sampled Lipschitz constants


@dataclass(frozen=True)
class GridSpec:
    """Sampling/polish budget for the brute-force optimality measure."""

    resolution: int = 24          # per-dimension sampling density
    polish_starts: int = 10       # best samples promoted to local polish
    polish_rounds: int = 12       # chord + arc maximizations per polished start
    seed: int = 0

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")


def _poly_coeffs_along_line(b: DerivativeBundle, j: int, d: np.ndarray,
                            u: np.ndarray) -> np.ndarray:
    """Coefficients c[0..3] of t -> decrement(d + t u) for the degree-j model."""
    c = np.zeros(4)
    t1 = b.tensors[0].entries
    c[0] -= float(t1 @ d)
    c[1] -= float(t1 @ u)
    if j >= 2:
        t2 = b.tensors[1].entries
        c[0] -= 0.5 * float(d @ (t2 @ d))
        c[1] -= float(d @ (t2 @ u))
        c[2] -= 0.5 * float(u @ (t2 @ u))
    if j >= 3:
        t3 = b.tensors[2].entries
        ddd = float(np.einsum("abc,a,b,c->", t3, d, d, d))
        ddu = float(np.einsum("abc,a,b,c->", t3, d, d, u))
        duu = float(np.einsum("abc,a,b,c->", t3, d, u, u))
        uuu = float(np.einsum("abc,a,b,c->", t3, u, u, u))
        c[0] -= ddd / 6.0
        c[1] -= 0.5 * ddu
        c[2] -= 0.5 * duu
        c[3] -= uuu / 6.0
    return c


def _line_max(b: DerivativeBundle, j: int, d: np.ndarray, u: np.ndarray,
              delta: float) -> tuple[np.ndarray, float]:
    """Exact maximization of the decrement along d + t u inside the ball."""
    uu = float(u @ u)
    if uu == 0.0:
        return d, taylor_decrement(b, d, j)
    du = float(d @ u)
    dd = float(d @ d)
    disc = du * du - uu * (dd - delta * delta)
    if disc < 0:
        return d, taylor_decrement(b, d, j)
    root = np.sqrt(disc)
    t_lo, t_hi = (-du - root) / uu, (-du + root) / uu
    c = _poly_coeffs_along_line(b, j, d, u)
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


def _arc_max(b: DerivativeBundle, j: int, d: np.ndarray, t_hat: np.ndarray,
             zooms: int = 6) -> tuple[np.ndarray, float]:
    """Maximize the decrement on the circle of radius |d| in span(d, t_hat):
    coarse angular grid, then vectorized zooming around the best angle."""
    r = float(np.linalg.norm(d))
    if r < 1e-15:
        return d, taylor_decrement(b, d, j)
    d_hat = d / r
    t_hat = t_hat - (t_hat @ d_hat) * d_hat
    nt = float(np.linalg.norm(t_hat))
    if nt < 1e-15:
        return d, taylor_decrement(b, d, j)
    t_hat /= nt
    lo, hi = -np.pi, np.pi
    best_theta = 0.0
    for _ in range(zooms + 1):
        thetas = np.linspace(lo, hi, 33)
        pts = r * (np.cos(thetas)[:, None] * d_hat + np.sin(thetas)[:, None] * t_hat)
        vals = taylor_decrement(b, pts, j)
        k = int(np.argmax(vals))
        best_theta = thetas[k]
        width = (hi - lo) / 16.0
        lo, hi = best_theta - width, best_theta + width
    out = r * (np.cos(best_theta) * d_hat + np.sin(best_theta) * t_hat)
    return out, taylor_decrement(b, out, j)


def max_decrement_reference(b: DerivativeBundle, j: int, delta: float,
                            spec: GridSpec | None = None) -> float:
    """Brute-force maximum of the degree-j decrement over the delta-ball."""
    spec = spec or GridSpec()
    n = b.dim
    if n > MAX_REFERENCE_DIM:
        raise ValueError(f"reference oracle limited to dim <= {MAX_REFERENCE_DIM}")
    if not 1 <= j <= 3:
        raise ValueError("reference oracle supports degrees 1..3")
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(spec.seed)
    n_samples = min(spec.resolution ** n, 40000)
    # One RNG stream, consumed in a fixed order: raising the resolution only
    # extends the sample set, so the sampled maximum is monotone in it.
    dirs = rng.standard_normal((n_samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = delta * rng.random(n_samples) ** (1.0 / n)
    interior = dirs * radii[:, None]
    sphere = rng.standard_normal((n_samples, n))
    sphere = delta * sphere / np.linalg.norm(sphere, axis=1, keepdims=True)
    axes = delta * np.concatenate([np.eye(n), -np.eye(n)])
    pts = np.concatenate([interior, sphere, axes, np.zeros((1, n))])

    vals = taylor_decrement(b, pts, j)
    order = np.argsort(-vals)
    best = float(vals[order[0]])
    for idx in order[: spec.polish_starts]:
        d = pts[idx].copy()
        v = float(vals[idx])
        for round_ in range(spec.polish_rounds):
            g = -model_gradient(b, d, j)  # ascent direction for the decrement
            ng = np.linalg.norm(g)
            u = g / ng if ng > 0 else rng.standard_normal(n)
            d, v = _line_max(b, j, d, u, delta)
            if j >= 2:
                # chord through the local Newton point: one-shot for
                # interior quadratic maxima
                h_m = b.tensors[1].entries
                if j >= 3:
                    h_m = h_m + np.einsum("abc,c->ab", b.tensors[2].entries, d)
                try:
                    u_n = np.linalg.solve(h_m, -model_gradient(b, d, j))
                    if np.all(np.isfinite(u_n)) and np.linalg.norm(u_n) > 0:
                        d, v = _line_max(b, j, d, u_n, delta)
                except np.linalg.LinAlgError:
                    pass
            # boundary maxima: chords cannot slide along the sphere, so
            # search the great circle toward the tangential gradient
            g = -model_gradient(b, d, j)
            d, v = _arc_max(b, j, d, g if np.linalg.norm(g) > 0
                            else rng.standard_normal(n))
            if round_ % 5 == 4:
                d, v = _line_max(b, j, d, rng.standard_normal(n), delta)
        best = max(best, v)
    return best


def exact_bundle(problem: Problem, x, j: int) -> DerivativeBundle:
    tensors = [problem.exact_deriv(x, i) for i in range(1, j + 1)]
    return make_bundle(x, tensors, (0.0,) * j)


def phi_reference(problem: Problem, x, j: int, delta: float,
                  spec: GridSpec | None = None) -> float:
    """Largest decrease of the exact degree-j model within the delta-ball.

    Brute force (sampling + polish); a lower bound on the true measure with
    empirically negligible gap at default resolution for j <= 2.
    """
    return max_decrement_reference(exact_bundle(problem, x, j), j, delta, spec)


def lipschitz_estimate(problem: Problem, box, order: int, n_samples: int = 1500,
                       seed: int = 0) -> float:
    """Sampled Lipschitz constant of the order-j derivative over a box,
    inflated by ``LIPSCHITZ_INFLATION``.  Audit support only."""
    lo, hi = (np.asarray(side, dtype=float) for side in box)
    if lo.shape != hi.shape or np.any(hi < lo):
        raise ValueError("box must be (lower, upper) with lower <= upper")
    rng = np.random.default_rng(seed)
    n = lo.size
    best = 0.0
    for _ in range(n_samples):
        x = lo + (hi - lo) * rng.random(n)
        y = lo + (hi - lo) * rng.random(n)
        gap = np.linalg.norm(x - y)
        if gap < 1e-12:
            continue
        diff = problem.exact_deriv(x, order).entries - problem.exact_deriv(y, order).entries
        num = operator_norm(SymTensor(diff, order, n))
        best = max(best, num / gap)
    return LIPSCHITZ_INFLATION * best
