"""Accuracy certification for inexact Taylor-model decrements.

Given current absolute accuracy bounds on the derivative tensors of a
degree-r model, :func:`verify` decides whether the decrement observed at a
displacement is certified to a *relative* accuracy, only to an *absolute*
one, or to neither.  The three-way outcome drives every accuracy-tightening
loop in the optimizer.
"""

from __future__ import annotations

from enum import Enum
from math import factorial


class VerifyOutcome(Enum):
    RELATIVE = "relative"
    ABSOLUTE = "absolute"
    INSUFFICIENT = "insufficient"

    @property
    def sufficient(self) -> bool:
        return self is not VerifyOutcome.INSUFFICIENT


def error_budget(delta: float, zetas) -> float:
    """Worst-case decrement error over the delta-ball: sum_i zeta_i delta^i/i!."""
    return float(sum(z * delta**i / factorial(i) for i, z in enumerate(zetas, start=1)))


def verify(delta: float, decrement: float, zetas, xi: float, omega: float) -> VerifyOutcome:
    """Certify a degree-r decrement against current derivative accuracies.

    Outcome is RELATIVE when the worst-case decrement error over the
    delta-ball is at most omega * decrement (and the decrement is positive);
    otherwise ABSOLUTE when that error is at most omega * xi * delta^r / r!;
    otherwise INSUFFICIENT.  The two tests run in exactly this order and the
    boundary inequalities are non-strict: equality certifies.
    """
    if not delta > 0:  # each test is written so that NaN fails it
        raise ValueError("delta must be positive")
    if not xi > 0:
        raise ValueError("xi must be positive")
    if not decrement >= 0:
        raise ValueError("decrement must be nonnegative")
    if not 0 < omega <= 1:
        raise ValueError("omega must lie in (0, 1]")
    r = len(zetas)
    if r == 0:
        raise ValueError("need at least one accuracy bound")
    for z in zetas:
        if not z >= 0:
            raise ValueError("accuracy bounds must be nonnegative")
    budget = error_budget(delta, zetas)
    if decrement > 0 and budget <= omega * decrement:
        return VerifyOutcome.RELATIVE
    if budget <= omega * xi * delta**r / factorial(r):
        return VerifyOutcome.ABSOLUTE
    return VerifyOutcome.INSUFFICIENT
