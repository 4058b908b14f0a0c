"""Closed-form worst-case constants and evaluation bounds for run audits.

Everything here is a direct transcription of the complexity analysis: given
the run constants, a Lipschitz bound and problem data at the start point,
the constants below bound the number of successful iterations, the total
iterations, the objective/derivative evaluation counts, and the deepest
accuracy tightening any run may perform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class BoundConstants:
    kappa_Delta: float      # radius floor coefficient; a rejected step contracts by gamma2
    kappa_delta: float      # = kappa_Delta / (1 + omega)
    kappa_s: float          # successful-iteration coefficient
    kappa_a: float          # objective-evaluation bound, leading coefficient
    kappa_b: float          # objective-evaluation bound, log coefficient
    kappa_c: float          # objective-evaluation bound, constant term
    kappa_d: float          # derivative bound, leading coefficient
    kappa_e: float          # derivative bound, log coefficient
    kappa_f: float          # derivative bound, constant term
    kappa_acc: float        # accuracy-floor coefficient
    i_zeta_min: int         # tightenings that guarantee no further refinement
    eval_bound_f: float     # total inexact objective evaluations
    eval_bound_d: float     # total derivative evaluation rounds


def compute_bounds(cfg, L_f: float, f0: float, f_low: float,
                   grad_norms_at_x0: float) -> BoundConstants:
    """Evaluate every bound constant exactly per its defining formula.

    ``grad_norms_at_x0`` is the largest operator norm among the exact
    derivative tensors of orders 1..q at the start point; the absolute
    derivative error there, and every accuracy a run requests, is bounded
    by the largest initial accuracy ``max(cfg.zeta0)``.
    """
    for name, v in (("L_f", L_f), ("f0", f0), ("f_low", f_low),
                    ("grad_norms_at_x0", grad_norms_at_x0)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    if f0 < f_low:
        raise ValueError("f0 must be at least f_low")
    q = cfg.q
    eps_min = min(cfg.eps)
    omega = cfg.omega
    zeta_max = max(cfg.zeta0)  # accuracies only shrink from zeta0
    model_size = grad_norms_at_x0 + zeta_max  # 0 if every order is exact at a stationary x0
    delta0 = min(cfg.Delta0, cfg.vartheta)

    kappa_Delta = (cfg.gamma2 * (1 - cfg.eta2) / max(1.0, L_f)) * min(
        cfg.vartheta,
        cfg.Delta0 * delta0**q / (2 * q * model_size) if model_size > 0 else math.inf)
    kappa_delta = kappa_Delta / (1 + omega)
    kappa_s = factorial(q) / ((cfg.eta1 - 2 * omega) * kappa_delta ** (q + 1))

    log_g2 = abs(math.log(cfg.gamma2))
    log_gz = abs(math.log(cfg.gamma_zeta))
    kappa_a = 2 * kappa_s * (1 + math.log(cfg.gamma3) / log_g2)
    kappa_b = 2 / log_g2
    kappa_c = (2 / log_g2) * abs(math.log(kappa_delta / cfg.Delta0)) + 2 / log_gz + 2

    kappa_acc = cfg.varsigma * omega * kappa_delta ** (q - 1) / (8 * (1 + omega))
    # smallest i with gamma_zeta^i max(zeta0) <= kappa_acc eps_min^q; 0 if every order is exact
    i_zeta_min = 0 if zeta_max == 0 else max(0, math.ceil(
        math.log(kappa_acc * eps_min**q / zeta_max) / math.log(cfg.gamma_zeta)))

    kappa_d = kappa_s
    kappa_e = q / log_gz
    kappa_f = 2 + (abs(math.log(kappa_acc / zeta_max)) / log_gz if zeta_max > 0 else 0)

    gap = f0 - f_low
    log_eps = abs(math.log(eps_min))
    eval_bound_f = kappa_a * gap / eps_min ** (q + 1) + kappa_b * log_eps + kappa_c
    eval_bound_d = kappa_d * gap / eps_min ** (q + 1) + kappa_e * log_eps + kappa_f

    return BoundConstants(
        kappa_Delta=kappa_Delta, kappa_delta=kappa_delta, kappa_s=kappa_s,
        kappa_a=kappa_a, kappa_b=kappa_b, kappa_c=kappa_c, kappa_d=kappa_d,
        kappa_e=kappa_e, kappa_f=kappa_f, kappa_acc=kappa_acc,
        i_zeta_min=i_zeta_min, eval_bound_f=eval_bound_f, eval_bound_d=eval_bound_d)
