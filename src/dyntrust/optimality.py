"""Optimality-measure subproblems and the accuracy-certified decrement loop.

``max_decrement`` maximizes the degree-j model decrement over a ball:
order 1 in closed form, order 2 globally via a safeguarded secular-equation
solver on the eigendecomposition (hard case included), order 3 by seeded
multi-start projected gradient ascent (heuristic, no certificate).  The
live order-3 starts advance together in compact (starts, n) arrays, with a
gradient evaluated only where a start moved, and the result equals, bit for
bit, that of running the ascents one start at a time.

An :class:`AccuracyLedger` holds a run's evaluation state: its validated
config, the accuracy bounds, the oracle with its call log, and the tensors
at the iterate.
The termination test (``certified_decrement``) and the step each run one
tighten-until-certified loop, and :func:`next_round` is the step between two
of its rounds: the first round is free, the tightening budget its theory
guarantees is worked out only once that round falls short, and a loop that
outruns it raises :class:`CertificationError`.
"""

from __future__ import annotations

import math
from math import factorial
from typing import NamedTuple

import numpy as np

from .model import (Bundle, Vector, model_gradient, row_norms, taylor_decrement,
                    vector_norm)
from .oracle import EvalLedger, InexactOracle
from .verify import VerifyOutcome, verify

# Fraction of the global order-2 ball maximum the secular solver is
# guaranteed to deliver (its relative 1e-10 radius tolerance folded in).
VARSIGMA_ORDER2 = 1.0 - 1e-8

_SECULAR_TOL = 1e-10
_ASCENT_ROUNDS = 200


class CertificationError(RuntimeError):
    """A certification loop broke a guarantee the theory gives it (an
    implementation bug), named with the order ``j``, the radius, the point
    ``x`` and, once ``run`` re-raises it, the iteration ``k``."""

    def __init__(self, reason: str, j: int, radius: float, x, k: int | None = None):
        self.reason, self.j, self.radius, self.k = reason, j, radius, k
        self.x = np.array(x, dtype=float)
        at = "" if k is None else f"iteration {k}, "
        super().__init__(f"{reason} (implementation bug): {at}order {j}, "
                         f"radius {radius!r}, x = {self.x.tolist()}")


class AccuracyLedger:
    """A run's evaluation state under its validated :class:`TrConfig`
    ``cfg``, the one source of the run's constants: the absolute accuracy
    bounds per derivative order (floats, shrunk only by :meth:`tighten`)
    with their tightening counter ``i_zeta``, the oracle, its call log
    ``ledger``, and the derivative tensors at the current iterate ``x``,
    each evaluated within its order's current bound."""

    def __init__(self, cfg, oracle: InexactOracle, x0):
        """The config's initial accuracies at ``x0``; the oracle's exact
        orders start (and stay) at zero."""
        self.cfg = cfg
        self.zetas = [0.0 if i in oracle.exact_orders else z for i, z in enumerate(cfg.zeta0, 1)]
        self.i_zeta = 0
        self.oracle = oracle
        self.ledger = EvalLedger()
        self.move_to(x0)

    def move_to(self, x):
        """Make ``x`` the current iterate, with no tensors evaluated yet."""
        self.x = x
        self._tensors = [None] * len(self.zetas)

    def bundle(self, j: int) -> Bundle:
        """The tensors (T_1, ..., T_j) at ``x``, evaluating the missing orders
        in ascending order (which fixes the oracle's random stream)."""
        t = self._tensors
        for i in range(j):
            if t[i] is None:
                t[i] = self.oracle.eval_deriv(self.x, i + 1, self.zetas[i], self.ledger)
        return tuple(t[:j])

    def tighten(self, j: int):
        """One geometric tightening of orders 1..j; an order whose bound
        decreased drops its tensor, so an exact order (zeta = 0) keeps it."""
        zetas, t, gamma_zeta = self.zetas, self._tensors, self.cfg.gamma_zeta
        for i in range(j):
            z = zetas[i] * gamma_zeta
            if z < zetas[i]:
                t[i] = None
            zetas[i] = z
        self.i_zeta += 1


def _min_quadratic_on_ball(g: np.ndarray, h_mat: np.ndarray, radius: float) -> np.ndarray:
    """Global minimizer of g.d + 0.5 d'Hd over |d| <= radius.

    Eigendecomposition-based: interior Newton point when feasible, otherwise
    the boundary multiplier from the secular equation, with the hard case
    (gradient orthogonal to the bottom eigenspace) stepped along the bottom
    eigenvector.
    """
    evals, evecs = np.linalg.eigh(h_mat)
    b = evecs.T @ g
    lam1 = float(evals[0])
    if lam1 > 0:
        d = -(evecs @ (b / evals))
        if vector_norm(d) <= radius * (1.0 + 1e-14):
            return d
    lam_low = max(0.0, -lam1)
    scale = max(1.0, vector_norm(b), float(np.max(np.abs(evals))))
    bottom = (evals - lam1) <= 1e-12 * scale
    b_eff = b.copy()
    if lam1 <= 0 and np.all(np.abs(b[bottom]) <= 1e-12 * scale):
        b_eff[bottom] = 0.0
        shifted = evals + lam_low
        coef = np.divide(b_eff, shifted, out=np.zeros_like(b_eff), where=~bottom)
        norm_p = vector_norm(coef)
        if norm_p <= radius:
            p = -(evecs @ coef)
            if lam_low > 0.0:
                # hard case: fill the remaining radius along the bottom eigenvector
                tau = math.sqrt(max(radius * radius - norm_p * norm_p, 0.0))
                return p + tau * evecs[:, 0]
            # PSD-singular with the gradient orthogonal to the null space:
            # the pseudo-Newton point is already optimal
            return p

    def dnorm(lam: float) -> float:
        return vector_norm(b_eff / (evals + lam))

    hi = lam_low + max(vector_norm(b_eff) / radius, 1e-8 * scale)
    for _ in range(200):
        if dnorm(hi) <= radius:
            break
        hi = lam_low + 2.0 * (hi - lam_low)
    lo = lam_low
    lam = hi
    for _ in range(200):
        nd = dnorm(lam)
        if abs(nd - radius) <= _SECULAR_TOL * radius:
            break
        if nd > radius:
            lo = lam
        else:
            hi = lam
        s3 = float(np.sum(b_eff**2 / (evals + lam) ** 3))
        if s3 > 0 and math.isfinite(s3):
            cand = lam - (1.0 / nd - 1.0 / radius) * nd**3 / s3
        else:
            cand = 0.5 * (lo + hi)
        lam = cand if lo < cand < hi else 0.5 * (lo + hi)
    d = -(evecs @ (b_eff / (evals + lam)))
    nd = vector_norm(d)
    return d * (radius / nd) if nd > radius else d


def _max_cubic_on_ball(b: Bundle, radius: float, seed: int = 0) -> np.ndarray:
    """Multi-start projected gradient ascent for the degree-3 decrement.

    The 2n + 8 starts (the signed scaled axes, then 8 seeded random points on
    the sphere) advance together; each follows its own step rule and leaves
    when it stops, so every start ends where a one-at-a-time ascent from it
    would.  The live starts sit in compact arrays (point, value, step,
    ascent direction and its norm), compacted only in a round where one
    stops.  A start's gradient is evaluated at entry and then only where its
    candidate was accepted, reusing the candidate's T_2 product: an unmoved
    start's gradient is the same bit for bit, since each stacked row takes
    its lone-point value.  Returns the first start with the largest positive
    decrement, or zeros.
    """
    n = b[0].size
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((8, n))
    d = np.concatenate([radius * np.eye(n), -radius * np.eye(n),
                        radius * u / row_norms(u)[:, None]])
    val = taylor_decrement(b, d, 3)
    live = np.arange(len(d))
    pt, pv, step = d.copy(), val.copy(), np.full(len(d), 0.5 * radius)
    g = -model_gradient(b, d, 3)
    ng = row_norms(g)
    for _ in range(_ASCENT_ROUNDS):
        going = (ng >= 1e-15) & (step >= 1e-15)
        if not going.all():
            stop = ~going
            d[live[stop]], val[live[stop]] = pt[stop], pv[stop]
            live, pt, pv, step, g, ng = (a[going] for a in (live, pt, pv, step, g, ng))
            if not live.size:
                break
        cand = pt + step[:, None] * g / ng[:, None]
        nc = row_norms(cand)
        over = nc > radius
        if over.any():
            cand[over] *= (radius / nc[over])[:, None]
        hs = b[1] @ cand[:, :, None]
        cand_val = taylor_decrement(b, cand, 3, hs)
        up = cand_val > pv + 1e-16
        step = np.where(up, np.minimum(step * 1.3, radius), step * 0.5)
        if up.any():
            np.copyto(pt, cand, where=up[:, None])
            np.copyto(pv, cand_val, where=up)
            g[up] = gu = -model_gradient(b, cand[up], 3, hs[up])
            ng[up] = row_norms(gu)
    d[live], val[live] = pt, pv
    best = int(np.argmax(val))
    return d[best] if val[best] > 0.0 else np.zeros(n)


def max_decrement(b: Bundle, j: int, delta: float,
                  seed: int = 0) -> tuple[Vector, float, float | None]:
    """Near-maximal degree-j decrement over the delta-ball.

    Returns (d, decrement, guarantee): the displacement, its decrement, and
    the guaranteed fraction of the ball optimum (None for order 3, where the
    multi-start search carries no certificate).
    """
    if j > len(b):
        raise ValueError("bundle does not carry derivatives up to the requested order")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if j == 1:
        g = b[0]
        ng = vector_norm(g)
        if ng == 0.0:
            return np.zeros(g.size), 0.0, 1.0
        d = -delta * g / ng
        return d, delta * ng, 1.0
    if j == 2:
        d = _min_quadratic_on_ball(b[0], b[1], delta)
        guarantee = VARSIGMA_ORDER2
    elif j == 3:
        d = _max_cubic_on_ball(b, delta, seed=seed)
        guarantee = None
    else:
        raise ValueError(f"unsupported order {j}")
    dt = taylor_decrement(b, d, j)
    if dt <= 0.0:
        return np.zeros(b[0].size), 0.0, guarantee
    return d, dt, guarantee


class CertifiedDecrement(NamedTuple):
    """A displacement whose decrement carries a sufficient accuracy outcome."""

    j: int
    d: Vector
    dT: float
    outcome: VerifyOutcome


def allowed_tightenings(entry_max: float, target: float, gamma_zeta: float) -> int:
    """Tightenings that bring ``entry_max`` to ``target`` or below (none if gamma_zeta >= 1)."""
    if entry_max <= target or gamma_zeta >= 1:
        return 0
    return math.ceil(math.log(entry_max / target) / math.log(1.0 / gamma_zeta))


def stop_level(j: int, scale: float, r: float) -> float:
    """``scale r^(j-1) / j!``: the accuracy that ends an order-``j`` loop at radius ``r``."""
    return scale * r ** (j - 1) / factorial(j)


def step_scale(eps_j: float, omega: float) -> float:
    """The step loop's :func:`stop_level` scale, at radius vartheta."""
    return omega * eps_j / (8.0 * (1.0 + omega))


def next_round(acc: AccuracyLedger, j: int, scale: float, r: float, radius: float,
               what: str, left: int | None) -> int:
    """The step between two rounds of a certification loop at the ledger's
    iterate: one tightening of orders 1..j, returning the tightenings
    ``left`` after it.  ``left`` is None after the first round, the free
    one, and then becomes the budget that brings the entry accuracies to
    ``stop_level(j, scale, r)``, so a loop that certifies at once works out
    nothing.  With none left it raises :class:`CertificationError`,
    "``what`` within its guaranteed tightening budget", at ``radius``."""
    if left is None:
        left = allowed_tightenings(max(acc.zetas[:j]), stop_level(j, scale, r),
                                   acc.cfg.gamma_zeta)
    if left == 0:
        raise CertificationError(f"{what} within its guaranteed tightening budget",
                                 j, radius, acc.x)
    acc.tighten(j)
    return left - 1


def certified_decrement(j: int, delta: float, acc: AccuracyLedger) -> CertifiedDecrement:
    """A near-maximal decrement at the ledger's iterate certified relative or
    absolute, the accuracies tightened geometrically until it is; eps_j,
    varsigma, omega and the seed are those of the ledger's config, and the
    order ``j`` is an integer in 1..q.

    ``delta`` lies in (0, 1], as the test's min(Delta_k, vartheta) does, so
    accuracies at most L = stop_level(j, omega varsigma eps_j / 4, delta)
    certify.  As delta^i <= delta, the error budget sum_i zeta_i delta^i/i!
    is at most L delta (1 + 1/2 + 1/6) = (5/6) omega (varsigma eps_j / 2)
    delta^j/j!.  The absolute test allows omega xi delta^j/j! with xi =
    min(varsigma, guarantee) eps_j / 2, where varsigma <= 1 (the ledger's
    TrConfig checks it) and a guarantee is None or at least 1 - 1e-8, so it
    holds; the last 1/6 absorbs the rounding of the repeated multiplication
    by gamma_zeta.  Past delta = 1 the bound fails (at j = 3 beyond delta ~
    1.37, at j = 2 beyond 2).
    """
    cfg = acc.cfg
    q = len(cfg.eps)
    if not (isinstance(j, (int, np.integer)) and 1 <= j <= q):
        raise ValueError(f"certified_decrement: order j must be an integer in 1..q = {q}, "
                         f"got {j!r}")
    if not 0 < delta <= 1:
        raise ValueError(f"certified_decrement: radius delta must lie in (0, 1], got {delta!r}")
    eps_j, varsigma, omega = cfg.eps[j - 1], cfg.varsigma, cfg.omega
    left = None
    while True:
        d, dt, guarantee = max_decrement(acc.bundle(j), j, delta, seed=cfg.seed)
        vs = varsigma if guarantee is None else min(varsigma, guarantee)
        outcome = verify(delta, dt, acc.zetas[:j], 0.5 * vs * eps_j, omega)
        if outcome is not VerifyOutcome.INSUFFICIENT:
            return CertifiedDecrement(j, d, dt, outcome)
        left = next_round(acc, j, 0.25 * omega * varsigma * eps_j, delta, delta,
                          "accuracy certification failed to terminate", left)


def termination_test(delta_k: float, acc: AccuracyLedger) -> CertifiedDecrement | None:
    """Orders 1..q of the ledger's config in turn at the ledger's iterate:
    return the first certified decrement exceeding its threshold, or None
    when the iterate is an approximate minimizer."""
    eps, omega = acc.cfg.eps, acc.cfg.omega
    for j in range(1, len(eps) + 1):
        cert = certified_decrement(j, delta_k, acc)
        threshold = (eps[j - 1] / (1.0 + omega)) * delta_k**j / factorial(j)
        if cert.dT > threshold:
            return cert
    return None
