"""Trust-region step computation with accuracy control.

When the radius is within the optimality radius cap, the certified
optimality displacement is reused verbatim (no oracle traffic).  Otherwise a
trial step over the full radius is certified to *relative* accuracy in a
loop of the termination test's kind, with
:func:`~dyntrust.optimality.next_round` between its rounds; the optimality
displacement remains a legal fallback, so the step never decreases the model
by less.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .model import Vector, taylor_decrement, vector_norm
from .optimality import (AccuracyLedger, CertificationError, CertifiedDecrement,
                         max_decrement, next_round, step_scale)
from .verify import VerifyOutcome, verify


class StepResult(NamedTuple):
    s: Vector
    dT: float                  # model decrement of the returned step
    tighten_count: int
    zeta_entry_max: float      # max accuracy bound over orders 1..j at entry


def compute_step(radius: float, cert: CertifiedDecrement, acc: AccuracyLedger) -> StepResult:
    """The iteration's step from the ledger's iterate within the trust region;
    vartheta, eps_j, omega and the seed are those of the ledger's config.

    Pass-through when radius <= vartheta (the certified displacement *is*
    the step).  Otherwise each round of the certification loop takes
    the trial step or, if it decreases the model less, the certified
    displacement ``d``, and returns it once certified relative, which the
    entry accuracies tightened to ``stop_level(j, step_scale(eps_j, omega),
    vartheta)`` guarantee.  An absolute outcome, which the theory excludes, raises
    :class:`CertificationError` too: ``d`` was certified relatively with
    dT > eps_j/(1+omega) vartheta^j/j!, and tightening only shrinks the error
    budgets, so under any later bundle T(d) >= (1-2 omega) dT.  An absolute
    outcome needs dt_s < eps_j/(4(1+omega)) min(vartheta, |s|)^j/j!,
    impossible as 1 - 2 omega > 1/4 (the ledger's TrConfig forces omega < 1/6).
    """
    cfg, j = acc.cfg, cert.j
    vartheta = cfg.vartheta
    zeta_entry = max(acc.zetas[:j])
    if radius <= vartheta:
        if cert.outcome is not VerifyOutcome.RELATIVE:
            raise CertificationError("pass-through step requires a relatively-certified "
                                     "displacement; an absolute certificate here contradicts "
                                     "the termination test", j, radius, acc.x)
        return StepResult(cert.d.copy(), cert.dT, 0, zeta_entry)

    eps_j, omega = cfg.eps[j - 1], cfg.omega
    left = None
    for tightened in itertools.count():
        bundle = acc.bundle(j)
        dt_fallback = taylor_decrement(bundle, cert.d, j)
        s_try, _, _ = max_decrement(bundle, j, radius, seed=cfg.seed)
        dt_try = taylor_decrement(bundle, s_try, j)
        if dt_try >= dt_fallback:
            s, dt_s = s_try, dt_try
        else:
            s, dt_s = cert.d.copy(), dt_fallback
        if dt_s <= 0.0:
            raise CertificationError("step decrement collapsed to zero after a "
                                     "non-terminating optimality test", j, radius, acc.x)
        s_norm = vector_norm(s)
        xi = eps_j / (4.0 * (1.0 + omega)) * (vartheta / max(vartheta, s_norm)) ** j
        outcome = verify(s_norm, dt_s, acc.zetas[:j], xi, omega)
        if outcome is VerifyOutcome.RELATIVE:
            return StepResult(s, dt_s, tightened, zeta_entry)
        if outcome is VerifyOutcome.ABSOLUTE:
            raise CertificationError("step certification returned an absolute outcome, "
                                     "which the theory excludes", j, radius, acc.x)
        left = next_round(acc, j, step_scale(eps_j, omega), vartheta, radius,
                          "step certification not relative", left)
