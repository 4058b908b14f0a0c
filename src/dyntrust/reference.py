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
  above a bound is a definite failure, one below it is evidence.  The
  samples are scored in bounded chunks, and the polish starts advance
  together as one (starts, n) array; ``tests/checkers.py`` keeps the
  one-start-at-a-time polish it matches to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (Bundle, NonFiniteEvaluation, model_gradient, operator_norm,
                    row_dots, row_norms)
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
_SCORE_CHUNK = 4096  # sample rows scored at once; bounds the (rows, n, n) term


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


def _decrements(b: Bundle, pts: np.ndarray) -> np.ndarray:
    """Degree-3 decrement at each row of pts (m, n), scored ``_SCORE_CHUNK``
    rows at a time: the cubic term is one GEMM per chunk, T3[p, ., .] as
    ``p @ T3.reshape(n, n * n)``, whose (rows, n, n) result the chunk bounds."""
    t1, t2, t3 = b
    n = t1.size
    t3_flat = t3.reshape(n, n * n)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), _SCORE_CHUNK):
        p = pts[lo:lo + _SCORE_CHUNK]
        t3p = (p @ t3_flat).reshape(-1, n, n)
        w = t1 + 0.5 * (p @ t2) + np.einsum("ijk,ik->ij", t3p, p) / 6.0
        out[lo:lo + _SCORE_CHUNK] = row_dots(p, w)
    return -out


def _poly_coeffs_along_line(b: Bundle, d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Coefficients c[:, 0..3] of t -> decrement(d + t u) for the cubic
    model, one row per row of d and u."""
    t1, t2, t3 = b

    def cubic(x, y, z):
        return np.einsum("abc,ia,ib,ic->i", t3, x, y, z)

    t2d, t2u = d @ t2, u @ t2
    return np.stack([
        -(d @ t1) - 0.5 * row_dots(d, t2d) - cubic(d, d, d) / 6.0,
        -(u @ t1) - row_dots(u, t2d) - 0.5 * cubic(d, d, u),
        -0.5 * row_dots(u, t2u) - 0.5 * cubic(d, u, u),
        -cubic(u, u, u) / 6.0,
    ], axis=1)


def _line_max(b: Bundle, d: np.ndarray, u: np.ndarray, delta: float) -> np.ndarray:
    """Exact maximization of the decrement along d + t u inside the ball, per
    row; a row with u = 0, or whose line misses the ball, keeps d."""
    uu, du, dd = row_dots(u, u), row_dots(d, u), row_dots(d, d)
    disc = du * du - uu * (dd - delta * delta)
    moves = (uu != 0.0) & (disc >= 0.0)
    d = d.copy()
    if not moves.any():
        return d
    dm, um, uu, du = d[moves], u[moves], uu[moves], du[moves]
    root = np.sqrt(disc[moves])
    t_lo, t_hi = (-du - root) / uu, (-du + root) / uu
    c = _poly_coeffs_along_line(b, dm, um)
    # stationary points of the cubic c0 + c1 t + c2 t^2 + c3 t^3; NaN marks
    # a missing one, which the range test below drops
    a3, a2, a1 = 3 * c[:, 3], 2 * c[:, 2], c[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(a2 * a2 - 4 * a3 * a1)
        cubic = a3 != 0.0
        s_lo = np.where(cubic, (-a2 - r) / (2 * a3), np.where(a2 != 0.0, -a1 / a2, np.nan))
        s_hi = np.where(cubic, (-a2 + r) / (2 * a3), np.nan)
    cands = np.stack([t_lo, t_hi, np.zeros_like(t_lo), s_lo, s_hi], axis=1)
    inside = (cands >= t_lo[:, None] - 1e-15) & (cands <= t_hi[:, None] + 1e-15)
    t = np.clip(cands, t_lo[:, None], t_hi[:, None])
    v = c[:, :1] + c[:, 1:2] * t + c[:, 2:3] * t * t + c[:, 3:] * t ** 3
    # t = 0 with value c0 leads; argmax keeps the first strict improvement
    t = np.concatenate([np.zeros((len(t), 1)), t], axis=1)
    v = np.concatenate([c[:, :1], np.where(inside, v, -np.inf)], axis=1)
    best_t = t[np.arange(len(t)), np.argmax(v, axis=1)]
    d[moves] = dm + best_t[:, None] * um
    return d


def _arc_max(b: Bundle, d: np.ndarray, t_hat: np.ndarray,
             zooms: int = 6) -> np.ndarray:
    """Maximize the decrement on the circle of radius |d| in span(d, t_hat),
    per row: coarse angular grid, then zooming around the best angle.  A row
    with |d| or the part of t_hat tangent to it below 1e-15 keeps d."""
    out = d.copy()
    r = row_norms(d)
    rows = np.flatnonzero(r >= 1e-15)
    r = r[rows, None]
    d_hat = d[rows] / r
    t_hat = t_hat[rows]
    t_hat = t_hat - row_dots(t_hat, d_hat)[:, None] * d_hat
    nt = row_norms(t_hat)
    keep = nt >= 1e-15
    if not keep.any():
        return out
    rows, r, d_hat = rows[keep], r[keep], d_hat[keep]
    t_hat = t_hat[keep] / nt[keep, None]
    lo, hi = np.full(len(rows), -np.pi), np.full(len(rows), np.pi)
    for _ in range(zooms + 1):
        thetas = np.linspace(lo, hi, 33, axis=1)
        pts = r[:, :, None] * (np.cos(thetas)[:, :, None] * d_hat[:, None, :]
                               + np.sin(thetas)[:, :, None] * t_hat[:, None, :])
        vals = _decrements(b, pts.reshape(-1, d.shape[1])).reshape(thetas.shape)
        best_theta = thetas[np.arange(len(rows)), np.argmax(vals, axis=1)]
        width = (hi - lo) / 16.0
        lo, hi = best_theta - width, best_theta + width
    out[rows] = r * (np.cos(best_theta)[:, None] * d_hat + np.sin(best_theta)[:, None] * t_hat)
    return out


def _newton_dirs(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of the stacked systems a[i] x = rhs[i]; a row whose matrix is
    singular is NaN, since one singular matrix fails a stacked solve."""
    try:
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _nonzero_or_random(g: np.ndarray, rng: np.random.Generator, unit: bool) -> np.ndarray:
    """Rows of g (scaled to unit length if ``unit``), a zero row replaced by
    a fresh standard normal draw."""
    ng = row_norms(g)
    zero = ~(ng > 0)
    u = g / np.where(zero, 1.0, ng)[:, None] if unit else g.copy()
    if zero.any():
        u[zero] = rng.standard_normal((int(zero.sum()), g.shape[1]))
    return u


def _sampled_cubic_max(b: Bundle, delta: float) -> float:
    """Sampled maximum of the degree-3 decrement over the delta-ball.

    The ``_POLISH_STARTS`` best samples are polished together as one
    (starts, n) array.  The random lines of rounds 4 and 9 are drawn start by
    start, so the stream is that of a one-start-at-a-time polish unless a
    zero gradient draws a fallback direction.
    """
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

    vals = _decrements(b, pts)
    order = np.argsort(-vals)
    best = float(vals[order[0]])
    _, h2, t3 = b
    d = pts[order[:_POLISH_STARTS]]
    lines = rng.standard_normal((len(d), _POLISH_ROUNDS // 5, n))
    for round_ in range(_POLISH_ROUNDS):
        # line search along the ascent direction of the decrement
        d = _line_max(b, d, _nonzero_or_random(-model_gradient(b, d, 3), rng, True), delta)
        # chord through the local Newton point: one-shot for interior
        # quadratic maxima
        u_n = _newton_dirs(h2 + np.einsum("abc,ic->iab", t3, d), -model_gradient(b, d, 3))
        chord = np.all(np.isfinite(u_n), axis=1) & (row_norms(u_n) > 0)
        d[chord] = _line_max(b, d[chord], u_n[chord], delta)
        # boundary maxima: chords cannot slide along the sphere, so
        # search the great circle toward the tangential gradient
        d = _arc_max(b, d, _nonzero_or_random(-model_gradient(b, d, 3), rng, False))
        if round_ % 5 == 4:
            d = _line_max(b, d, lines[:, round_ // 5], delta)
        # a line end point can round outward, and the arc keeps |d|: pull
        # every point back into the ball so the drift cannot build up
        nd = row_norms(d)
        over = nd > delta
        d[over] *= (delta / nd[over])[:, None]
    return max(best, float(np.max(_decrements(b, d))))


def max_decrement_reference(b: Bundle, j: int, delta: float) -> float:
    """Maximum of the degree-j decrement over the delta-ball: exact at j = 1,
    the dual bound at j = 2, a sampled lower bound at j = 3."""
    if not 1 <= j <= 3:
        raise ValueError("reference oracle supports degrees 1..3")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if j == 1:
        return delta * float(np.linalg.norm(b[0]))
    if j == 2:
        return _dual_bound(b[0], b[1], delta)
    return _sampled_cubic_max(b, delta)


def phi_reference(problem: Problem, x, j: int, delta: float) -> float:
    """Largest decrease of the exact degree-j model within the delta-ball:
    certified at j <= 2 for any n, sampled at j = 3 for n <= 5."""
    b = tuple(problem.exact_deriv(x, i) for i in range(1, j + 1))
    return max_decrement_reference(b, j, delta)


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
