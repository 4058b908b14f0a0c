"""Independent optimality references for test-time verification.

These avoid the production subproblem solvers.  ``max_decrement_reference``
gives the ball maximum of the degree-j decrement at j <= 2:

* j = 1: delta |g|, exact.
* j = 2: the trust-region dual bound.  With (w, V) = eigh(H) and b = V'g,
  psi(lam) = 1/2 sum_i b_i^2 / (w_i + lam) + lam delta^2 / 2 bounds the ball
  maximum from above for every lam >= max(0, -w_min), and by strong duality
  (the S-lemma) its minimum equals it.  The minimum is found by a bracket
  search on this convex function, so the value is certified up to rounding,
  at any n.

At j = 3 the maximum is decided against a threshold instead:
``phi3_decide`` runs a best-first branch and bound over the ball (Horst &
Tuy, *Global Optimization: Deterministic Approaches*) at any n, with a
closed-form cubic bound per cell.  It returns a certified pass, a fail with
a ball point whose exact decrement exceeds the threshold, or undecided once
``_CELL_BUDGET`` cells are scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Bundle, NonFiniteEvaluation, operator_norm, row_dots, row_norms,
                    taylor_decrement)
from .oracle import Problem

LIPSCHITZ_PAIRS = 1500  # sampled pairs per Lipschitz estimate
LIPSCHITZ_INFLATION = 1.5  # safety factor on sampled Lipschitz constants
_LIPSCHITZ_CHUNK = 64  # pairs per stacked deriv call; bounds peak memory
_CELL_BUDGET = 200_000  # cells phi3_decide scores before it gives up
_CELL_BATCH = 512  # open cells split per step; bounds the (cells, n, n) stacks


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


def _radial_max(a: np.ndarray, slope: np.ndarray, curv: np.ndarray, t_norm: float,
                rho: np.ndarray) -> np.ndarray:
    """Maximum over r in [0, rho] of a + slope r + curv r^2 / 2 + t_norm r^3 / 6
    (slope, t_norm >= 0): at rho, or at the cubic's local maximum, the smaller
    root of its derivative."""
    disc = curv * curv - 2.0 * t_norm * slope
    with np.errstate(divide="ignore", invalid="ignore"):
        r_max = 2.0 * slope / (np.sqrt(np.maximum(disc, 0.0)) - curv)
    r = np.where((curv < 0.0) & (disc >= 0.0), np.minimum(r_max, rho), rho)

    def cubic(r):
        return a + r * (slope + r * (0.5 * curv + r * t_norm / 6.0))

    return np.maximum(cubic(r), cubic(rho))


def _cell_bounds(b: Bundle, c: np.ndarray, rho: np.ndarray, delta: float,
                 t_norm: float) -> np.ndarray:
    """Upper bound on the degree-3 decrement D over the part of the delta-ball
    in each cell |s - c| <= rho, one per row of c.

    Expanded at c, D(c + u) <= D(c) + |grad D(c)| r + lambda_max(hess D(c))
    r^2 / 2 + |T|_F r^3 / 6 with r = |u|.  On the ball D <= D + mu (delta^2 -
    |s|^2) / 2 for mu >= 0, so the same bound on that function holds too,
    and the lower one is kept.  mu = max(0, grad D(c) . c) / |c|^2 cancels
    grad D at a maximizer on the sphere, where the first bound cannot get
    below the maximum plus |grad D| times the cell's reach outside the ball.
    """
    t1, t2, t3 = b
    n = t1.size
    tc = (c @ t3.reshape(n, n * n)).reshape(-1, n, n)  # T[c]
    hc = c @ t2
    tcc = (tc @ c[:, :, None])[:, :, 0]  # T[c, c]
    dec = -row_dots(c, t1 + 0.5 * hc + tcc / 6.0)
    grad = -(t1 + hc + 0.5 * tcc)
    curv = -np.linalg.eigvalsh(t2 + tc)[:, 0]
    cc = row_dots(c, c)
    mu = np.maximum(row_dots(grad, c), 0.0) / np.where(cc > 0.0, cc, 1.0)
    return np.minimum(
        _radial_max(dec, row_norms(grad), curv, t_norm, rho),
        _radial_max(dec + 0.5 * mu * (delta * delta - cc), row_norms(grad - mu[:, None] * c),
                    curv - mu, t_norm, rho))


@dataclass(frozen=True)
class Phi3Decision:
    """What :func:`phi3_decide` found after scoring ``cells`` cells.

    ``verdict`` is ``"pass"``: ``value`` is the largest cell bound, an upper
    bound on phi_3 at most the threshold; ``"fail"``: ``value`` is the exact
    decrement at the ball point ``witness``, above the threshold; or
    ``"undecided"``: the cell budget ran out, and ``value`` is the largest
    bound of a cell still open.
    """

    verdict: str
    value: float
    cells: int
    witness: np.ndarray | None = None


def phi3_decide(b: Bundle, delta: float, threshold: float) -> Phi3Decision:
    """Decide whether the degree-3 decrement of the bundle stays at most
    ``threshold`` on the delta-ball, by best-first branch and bound.

    The ball is the first cell.  Past it the search covers the cube
    [-delta, delta]^n: each step splits the ``_CELL_BATCH`` open cells of
    largest bound across their longest axis (at depth d, axis d mod n) and
    drops children that miss the ball.  A cell whose bound is at most the
    threshold is closed; a ball point (a cell centre, pulled onto the sphere
    if outside) whose decrement exceeds the threshold is a witness.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = b[0].size
    t_norm = operator_norm(b[2], 3)
    axes = np.arange(n)
    open_c, open_depth, open_ub = np.zeros((0, n)), np.zeros(0, int), np.zeros(0)
    closed = -math.inf
    cells = 0
    c, depth, rho = np.zeros((1, n)), np.zeros(1, int), np.array([delta])
    while True:
        ub = _cell_bounds(b, c, rho, delta, t_norm)
        cells += len(c)
        pts = c * (delta / np.maximum(row_norms(c), delta))[:, None]
        dec = taylor_decrement(b, pts)
        i = int(np.argmax(dec))
        if dec[i] > threshold:
            return Phi3Decision("fail", float(dec[i]), cells, pts[i])
        done = ub <= threshold
        closed = max(closed, float(np.max(ub[done], initial=-math.inf)))
        open_c = np.concatenate([open_c, c[~done]])
        open_depth = np.concatenate([open_depth, depth[~done]])
        open_ub = np.concatenate([open_ub, ub[~done]])
        if not len(open_ub):
            return Phi3Decision("pass", closed, cells)
        if cells >= _CELL_BUDGET:
            return Phi3Decision("undecided", float(np.max(open_ub)), cells)
        pick = (np.argpartition(-open_ub, _CELL_BATCH)[:_CELL_BATCH]
                if len(open_ub) > _CELL_BATCH else np.arange(len(open_ub)))
        keep = np.ones(len(open_ub), bool)
        keep[pick] = False
        c, depth = open_c[pick], open_depth[pick]
        open_c, open_depth, open_ub = open_c[keep], open_depth[keep], open_ub[keep]
        step = np.zeros_like(c)
        step[np.arange(len(c)), depth % n] = delta * 0.5 ** (depth // n + 1)
        c, depth = np.concatenate([c - step, c + step]), np.concatenate([depth, depth]) + 1
        half = delta * 0.5 ** (depth[:, None] // n + (axes < depth[:, None] % n))
        gap = np.maximum(np.abs(c) - half, 0.0)
        meets = row_dots(gap, gap) <= delta * delta
        c, depth, rho = c[meets], depth[meets], row_norms(half[meets])


def max_decrement_reference(b: Bundle, j: int, delta: float) -> float:
    """Maximum of the degree-j decrement over the delta-ball: exact at j = 1,
    the dual bound at j = 2.  :func:`phi3_decide` decides j = 3."""
    if j not in (1, 2):
        raise ValueError("reference maximum supports degrees 1 and 2; "
                         "phi3_decide decides degree 3")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if j == 1:
        return delta * float(np.linalg.norm(b[0]))
    return _dual_bound(b[0], b[1], delta)


def phi_reference(problem: Problem, x, j: int, delta: float) -> float:
    """Largest decrease of the exact degree-j model within the delta-ball,
    certified at j <= 2 for any n."""
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
