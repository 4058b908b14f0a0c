"""Trust-region step computation with accuracy control.

When the radius is within the optimality radius cap, the certified
optimality displacement is reused verbatim (no oracle traffic).  Otherwise a
trial step over the full radius is computed and certified to *relative*
accuracy, tightening derivative accuracies as needed; the optimality
displacement always remains a legal fallback, so the trial step never
decreases the model by less than it.
"""

from __future__ import annotations

import warnings
from math import factorial
from typing import NamedTuple

from .model import Vector, taylor_decrement, vector_norm
from .optimality import (AccuracyLedger, BundleCache, CertificationError,
                         CertifiedDecrement, allowed_tightenings, max_decrement)
from .oracle import EvalLedger, InexactOracle
from .verify import VerifyOutcome, verify


class StepResult(NamedTuple):
    s: Vector
    dT: float                  # model decrement of the returned step
    tighten_count: int
    zeta_entry_max: float      # max accuracy bound over orders 1..j at entry
    absolute_events: int       # should stay 0; warned about if not


def compute_step(radius: float, vartheta: float, cert: CertifiedDecrement,
                 eps_j: float, omega: float, oracle: InexactOracle,
                 acc: AccuracyLedger, cache: BundleCache,
                 eval_ledger: EvalLedger | None = None, seed: int = 0) -> StepResult:
    """Compute the iteration's step from the cached iterate within the
    trust-region ``radius``.

    Pass-through when radius <= vartheta (the certified displacement *is*
    the step).  Otherwise iterate: recompute the trial step under the current
    derivative bundle, fall back to the certified displacement whenever it
    decreases the model more, and certify at relative accuracy; on any other
    outcome tighten the accuracies and repeat.  An absolute outcome is
    theoretically impossible here and is warned about, tightened past, and
    counted.
    """
    j = cert.j
    zeta_entry = max(acc.zetas[:j])
    if radius <= vartheta:
        if cert.outcome is not VerifyOutcome.RELATIVE:
            raise CertificationError(
                "pass-through step requires a relatively-certified displacement; "
                "an absolute certificate here contradicts the termination test",
                j, radius, cache.x)
        return StepResult(cert.d.copy(), cert.dT, 0, zeta_entry, 0)

    stop_level = omega * vartheta ** (j - 1) * eps_j / (8.0 * factorial(j) * (1.0 + omega))
    cap = allowed_tightenings(zeta_entry, stop_level, acc.gamma_zeta) + 2
    tighten = 0
    absolutes = 0
    while True:
        bundle = cache.ensure(oracle, acc, j, eval_ledger)
        dt_fallback = taylor_decrement(bundle, cert.d, j)
        s_try, _, _ = max_decrement(bundle, j, radius, seed=seed)
        dt_try = taylor_decrement(bundle, s_try, j)
        if dt_try >= dt_fallback:
            s, dt_s = s_try, dt_try
        else:
            s, dt_s = cert.d.copy(), dt_fallback
        if dt_s <= 0.0:
            raise CertificationError(
                "step decrement collapsed to zero after a non-terminating "
                "optimality test", j, radius, cache.x)
        s_norm = vector_norm(s)
        xi = eps_j / (4.0 * (1.0 + omega)) * (vartheta / max(vartheta, s_norm)) ** j
        zetas = acc.zetas[:j]
        outcome = verify(s_norm, dt_s, zetas, xi, omega)
        if outcome is VerifyOutcome.RELATIVE:
            return StepResult(s, dt_s, tighten, zeta_entry, absolutes)
        if max(zetas) <= stop_level:
            raise CertificationError(
                "step certification not relative although accuracies passed "
                "the guaranteed level", j, radius, cache.x)
        if outcome is VerifyOutcome.ABSOLUTE:
            # Theoretically excluded; numerically conceivable at boundaries.
            absolutes += 1
            warnings.warn("step certification returned an absolute outcome; "
                          "tightening and retrying", RuntimeWarning)
        acc.tighten(j)
        tighten += 1
        if tighten > cap:
            raise CertificationError(
                "step certification failed to terminate within its guaranteed "
                "tightening budget", j, radius, cache.x)
