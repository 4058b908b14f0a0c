"""Optimality-measure subproblems and the accuracy-certified decrement loop.

``max_decrement`` maximizes the degree-j model decrement over a ball:
order 1 in closed form, order 2 globally via a safeguarded secular-equation
solver on the eigendecomposition (hard case included), order 3 by seeded
multi-start projected gradient ascent (heuristic, no certificate).  The
order-3 starts advance together as one (starts, n) array, and the result
equals, bit for bit, that of running the ascents one start at a time.

``certified_decrement`` wraps the solver in the tighten-until-certified loop:
evaluate derivatives at the current absolute accuracies, maximize, certify
via :func:`~dyntrust.verify.verify`, and geometrically tighten the
accuracies until the outcome is sufficient.  A loop that outruns the
tightening budget its theory guarantees raises :class:`CertificationError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass
class AccuracyLedger:
    """Current absolute accuracy bounds per derivative order (a list of
    floats), with the geometric tightening rule and its counter."""

    zetas: list
    gamma_zeta: float
    i_zeta: int = 0

    def __post_init__(self):
        self.zetas = [float(z) for z in self.zetas]

    @classmethod
    def fresh(cls, cfg, exact_orders=()) -> "AccuracyLedger":
        """The initial accuracies of a validated :class:`TrConfig`; orders in
        ``exact_orders`` start (and stay) at zero."""
        z = [0.0 if i in exact_orders else z0 for i, z0 in enumerate(cfg.zeta0, start=1)]
        return cls(zetas=z, gamma_zeta=cfg.gamma_zeta)

    def tighten(self, j: int):
        """One geometric tightening of orders 1..j (rounded as an array ``*=``)."""
        self.zetas[:j] = [z * self.gamma_zeta for z in self.zetas[:j]]
        self.i_zeta += 1


class BundleCache:
    """Derivative tensors cached per iterate, keyed by the accuracy at which
    each order was last evaluated; re-evaluation happens only when the
    required accuracy has tightened since."""

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)
        self._tensors: dict[int, np.ndarray] = {}
        self._zeta_at: dict[int, float] = {}

    def ensure(self, oracle: InexactOracle, acc: AccuracyLedger, j: int,
               eval_ledger: EvalLedger | None = None) -> Bundle:
        for i in range(1, j + 1):
            target = acc.zetas[i - 1]
            if i not in self._tensors or self._zeta_at[i] > target:
                self._tensors[i] = oracle.eval_deriv(self.x, i, target, eval_ledger)
                self._zeta_at[i] = target
        return tuple(self._tensors[i] for i in range(1, j + 1))


def _min_quadratic_on_ball(g: np.ndarray, h_mat: np.ndarray, radius: float,
                           tol: float = _SECULAR_TOL) -> np.ndarray:
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
        if abs(nd - radius) <= tol * radius:
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
    the sphere) advance together as one (starts, n) array; each row follows
    its own step rule and leaves the active set when it stops, so every row
    ends where a one-at-a-time ascent from its start would.  Returns the
    first start with the largest positive decrement, or zeros.
    """
    n = b[0].size
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((8, n))
    d = np.concatenate([radius * np.eye(n), -radius * np.eye(n),
                        radius * u / row_norms(u)[:, None]])
    val = taylor_decrement(b, d, 3)
    step = np.full(len(d), 0.5 * radius)
    active = np.arange(len(d))
    for _ in range(_ASCENT_ROUNDS):
        g = -model_gradient(b, d[active], 3)
        ng = row_norms(g)
        going = (ng >= 1e-15) & (step[active] >= 1e-15)
        active, g, ng = active[going], g[going], ng[going]
        if not active.size:
            break
        cand = d[active] + step[active, None] * g / ng[:, None]
        nc = row_norms(cand)
        over = nc > radius
        cand[over] *= (radius / nc[over])[:, None]
        cand_val = taylor_decrement(b, cand, 3)
        up = cand_val > val[active] + 1e-16
        took = active[up]
        d[took], val[took] = cand[up], cand_val[up]
        step[took] = np.minimum(step[took] * 1.3, radius)
        step[active[~up]] *= 0.5
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
    tightenings: int


def allowed_tightenings(entry_max: float, target: float, gamma_zeta: float) -> int:
    """Tightenings needed to bring ``entry_max`` at or below ``target``."""
    if entry_max <= target:
        return 0
    return math.ceil(math.log(entry_max / target) / math.log(1.0 / gamma_zeta))


def certified_decrement(j: int, delta: float, eps_j: float, varsigma: float,
                        omega: float, oracle: InexactOracle, acc: AccuracyLedger,
                        cache: BundleCache, eval_ledger: EvalLedger | None = None,
                        seed: int = 0) -> CertifiedDecrement:
    """Compute a near-maximal decrement at the cached iterate certified
    Relative or Absolute, tightening derivative accuracies geometrically
    until certification (budgeted from the entry accuracies once it tightens)."""
    tightenings = 0
    cap = None
    while True:
        bundle = cache.ensure(oracle, acc, j, eval_ledger)
        d, dt, guarantee = max_decrement(bundle, j, delta, seed=seed)
        vs = varsigma if guarantee is None else min(varsigma, guarantee)
        zetas = acc.zetas[:j]
        outcome = verify(delta, dt, zetas, 0.5 * vs * eps_j, omega)
        if outcome is not VerifyOutcome.INSUFFICIENT:
            return CertifiedDecrement(j, d, dt, outcome, tightenings)
        if cap is None:
            target = 0.25 * omega * varsigma * eps_j * delta ** (j - 1) / factorial(j)
            cap = allowed_tightenings(max(zetas), target, acc.gamma_zeta) + 2
        acc.tighten(j)
        tightenings += 1
        if tightenings > cap:
            raise CertificationError(
                "accuracy certification failed to terminate within its "
                "guaranteed tightening budget", j, delta, cache.x)


def termination_test(delta_k: float, eps, varsigma: float, omega: float,
                     oracle: InexactOracle, acc: AccuracyLedger, cache: BundleCache,
                     eval_ledger: EvalLedger | None = None,
                     seed: int = 0) -> CertifiedDecrement | None:
    """Orders 1..q in turn at the cached iterate: return the first certified
    decrement exceeding its threshold, or None when the iterate is an
    approximate minimizer."""
    for j in range(1, len(eps) + 1):
        cert = certified_decrement(j, delta_k, eps[j - 1], varsigma, omega,
                                   oracle, acc, cache, eval_ledger, seed=seed)
        threshold = (eps[j - 1] / (1.0 + omega)) * delta_k**j / factorial(j)
        if cert.dT > threshold:
            return cert
    return None
