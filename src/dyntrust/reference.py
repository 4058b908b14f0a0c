"""Independent optimality references for test-time verification.

These avoid the production subproblem solvers.  ``max_decrement_reference``
picks its method by order j:

* j = 1: delta |g|, exact.
* j = 2: the trust-region dual bound.  With (w, V) = eigh(H) and b = V'g,
  psi(lam) = 1/2 sum_i b_i^2 / (w_i + lam) + lam delta^2 / 2 bounds the ball
  maximum from above for every lam >= max(0, -w_min), and by strong duality
  (the S-lemma) its minimum equals it.  The minimum is found by a bracket
  search on this convex function, so the value is certified up to rounding,
  at any n.
* j = 3: dense ball sampling followed by an exact line/arc polish (the model
  restricted to a line is a cubic, so each line maximization is closed
  form), for n <= ``MAX_REFERENCE_DIM``.  A sampled lower bound: a value
  above a bound is a definite failure, one below it is evidence.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (DerivativeBundle, NonFiniteEvaluation, make_bundle,
                    model_gradient, operator_norm, taylor_decrement)
from .oracle import Problem

MAX_REFERENCE_DIM = 5  # the order-3 sampler's dimension limit
LIPSCHITZ_PAIRS = 1500  # sampled pairs per Lipschitz estimate
LIPSCHITZ_INFLATION = 1.5  # safety factor on sampled Lipschitz constants
_LIPSCHITZ_CHUNK = 64  # pairs per stacked deriv call; bounds peak memory

# Order-3 sampling/polish budget.
_RESOLUTION = 24        # per-dimension sampling density
_POLISH_STARTS = 10     # best samples promoted to local polish
_POLISH_ROUNDS = 12     # chord + arc maximizations per polished start
_SEED = 0


def _dual_bound(g: np.ndarray, h_mat: np.ndarray, delta: float) -> float:
    """min over lam >= lam_low of psi(lam): the order-2 ball maximum."""
    w, v = np.linalg.eigh(h_mat)
    b = v.T @ g
    lam_low = max(0.0, -float(w[0]))
    keep = b != 0.0  # terms with b_i = 0 count as zero, even where w_i + lam = 0
    b2, w = b[keep] ** 2, w[keep]

    def psi(lam: float) -> float:
        den = w + lam
        if np.any(den <= 0.0):
            return math.inf
        return 0.5 * float(np.sum(b2 / den)) + 0.5 * lam * delta * delta

    # psi is convex, and psi' = (delta^2 - sum_i b_i^2 / (w_i + lam)^2) / 2 is
    # >= 0 from lam_low + |b|/delta on.  Every lam in the bracket gives an
    # upper bound, so bisecting on the sign of psi' needs no safeguard.
    lo, hi = lam_low, lam_low + math.sqrt(float(np.sum(b2))) / delta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if float(np.sum(b2 / (w + mid) ** 2)) > delta * delta:
            lo = mid
        else:
            hi = mid
    return min(psi(lo), psi(hi))  # psi(lam_low) may be inf


def _poly_coeffs_along_line(b: DerivativeBundle, d: np.ndarray,
                            u: np.ndarray) -> np.ndarray:
    """Coefficients c[0..3] of t -> decrement(d + t u) for the cubic model."""
    t1, t2, t3 = (t.entries for t in b.tensors)
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


def _line_max(b: DerivativeBundle, d: np.ndarray, u: np.ndarray,
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


def _arc_max(b: DerivativeBundle, d: np.ndarray, t_hat: np.ndarray,
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


def _sampled_cubic_max(b: DerivativeBundle, delta: float) -> float:
    """Sampled maximum of the degree-3 decrement over the delta-ball."""
    n = b.dim
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
    h2, t3 = b.tensors[1].entries, b.tensors[2].entries
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
        best = max(best, v)
    return best


def max_decrement_reference(b: DerivativeBundle, j: int, delta: float) -> float:
    """Maximum of the degree-j decrement over the delta-ball: exact at j = 1,
    the dual bound at j = 2, a sampled lower bound at j = 3."""
    if not 1 <= j <= 3:
        raise ValueError("reference oracle supports degrees 1..3")
    if delta <= 0:
        raise ValueError("delta must be positive")
    g = b.tensors[0].entries
    if j == 1:
        return delta * float(np.linalg.norm(g))
    if j == 2:
        return _dual_bound(g, b.tensors[1].entries, delta)
    return _sampled_cubic_max(b, delta)


def exact_bundle(problem: Problem, x, j: int) -> DerivativeBundle:
    tensors = [problem.exact_deriv(x, i) for i in range(1, j + 1)]
    return make_bundle(x, tensors, (0.0,) * j)


def phi_reference(problem: Problem, x, j: int, delta: float) -> float:
    """Largest decrease of the exact degree-j model within the delta-ball:
    certified at j <= 2 for any n, sampled at j = 3 for n <= 5."""
    return max_decrement_reference(exact_bundle(problem, x, j), j, delta)


def lipschitz_estimate(problem: Problem, box, order: int,
                       n_samples: int = LIPSCHITZ_PAIRS, seed: int = 0) -> float:
    """Sampled Lipschitz constant of the order-j derivative over a box,
    inflated by ``LIPSCHITZ_INFLATION``.  Audit support only.

    Pairs are drawn and evaluated ``_LIPSCHITZ_CHUNK`` at a time through the
    problem's stacked ``deriv``; the random stream is the per-pair x-then-y
    draw of a one-pair-at-a-time loop.  Non-finite derivative data raises
    :class:`NonFiniteEvaluation` naming the order and the first such point.
    """
    lo, hi = (np.asarray(side, dtype=float) for side in box)
    if lo.shape != hi.shape or np.any(hi < lo):
        raise ValueError("box must be (lower, upper) with lower <= upper")
    rng = np.random.default_rng(seed)
    n = lo.size
    best = 0.0
    for start in range(0, n_samples, _LIPSCHITZ_CHUNK):
        pts = lo + (hi - lo) * rng.random((min(_LIPSCHITZ_CHUNK, n_samples - start), 2, n))
        d = np.asarray(problem.deriv(pts, order), dtype=float)
        shape = pts.shape[:-1] + (n,) * order
        if d.shape != shape:
            raise ValueError(f"{problem.name}: deriv of points {pts.shape} has shape "
                             f"{d.shape}, expected {shape}")
        bad = ~np.isfinite(d.reshape(2 * len(pts), -1)).all(axis=1)
        if bad.any():
            x = pts.reshape(-1, n)[np.argmax(bad)]
            raise NonFiniteEvaluation(
                f"order-{order} derivative at x = {x.tolist()} is not finite")
        gap = operator_norm(pts[:, 0] - pts[:, 1], 1)  # |x - y|
        keep = gap >= 1e-12
        if keep.any():
            num = operator_norm(d[keep, 0] - d[keep, 1], order)
            best = max(best, float(np.max(num / gap[keep])))
    return LIPSCHITZ_INFLATION * best
