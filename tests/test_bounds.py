import math
from math import factorial

import pytest

from dyntrust.bounds import compute_bounds
from dyntrust.driver import TrConfig


def base_cfg(q=1, **over):
    return TrConfig.with_defaults((1e-3,) * q, **over)


def test_kappa_delta_limit_as_omega_vanishes():
    cfg_small = base_cfg(omega=1e-9)
    bc = compute_bounds(cfg_small, L_f=3.0, f0=5.0, f_low=0.0, grad_norms_at_x0=2.0)
    assert bc.kappa_delta == pytest.approx(bc.kappa_Delta, rel=1e-8)


def test_kappa_Delta_hand_recomputed():
    # independent hand transcription of the radius-floor coefficient
    cfg = base_cfg(q=2, omega=0.02, eta2=0.85, gamma2=0.3, vartheta=0.6,
                   Delta0=2.0, zeta0=0.05)
    L_f, g0 = 4.0, 7.0
    bc = compute_bounds(cfg, L_f=L_f, f0=3.0, f_low=-1.0, grad_norms_at_x0=g0)
    delta0 = min(2.0, 0.6)
    by_hand = (0.3 * (1 - 0.85) / max(1.0, L_f)) * min(
        0.6, 2.0 * delta0**2 / (2 * 2 * (g0 + 0.05)))
    assert bc.kappa_Delta == pytest.approx(by_hand, rel=1e-12)
    assert bc.kappa_delta == pytest.approx(by_hand / 1.02, rel=1e-12)
    assert bc.kappa_s == pytest.approx(
        factorial(2) / ((cfg.eta1 - 2 * cfg.omega) * bc.kappa_delta**3), rel=1e-12)


def test_eval_bound_leading_term_scaling():
    # halving eps multiplies the leading term by 2^(q+1) exactly
    for q in (1, 2):
        cfg_a = TrConfig.with_defaults((1e-2,) * q)
        cfg_b = TrConfig.with_defaults((5e-3,) * q, vartheta=cfg_a.vartheta)
        a = compute_bounds(cfg_a, L_f=2.0, f0=1.0, f_low=0.0, grad_norms_at_x0=1.0)
        b = compute_bounds(cfg_b, L_f=2.0, f0=1.0, f_low=0.0, grad_norms_at_x0=1.0)
        lead_a = a.kappa_a * 1.0 / 1e-2 ** (q + 1)
        lead_b = b.kappa_a * 1.0 / 5e-3 ** (q + 1)
        assert lead_b == pytest.approx(2 ** (q + 1) * lead_a, rel=1e-12)


def test_constants_positive_and_consistent():
    cfg = base_cfg(q=2)
    bc = compute_bounds(cfg, L_f=10.0, f0=4.0, f_low=-0.5, grad_norms_at_x0=3.0)
    for name in ("kappa_Delta", "kappa_delta", "kappa_s", "kappa_a", "kappa_b",
                 "kappa_c", "kappa_d", "kappa_e", "kappa_f", "kappa_acc",
                 "eval_bound_f", "eval_bound_d"):
        assert getattr(bc, name) > 0, name
    assert bc.i_zeta_min >= 0
    assert bc.kappa_delta == pytest.approx(bc.kappa_Delta / (1 + cfg.omega))
    # the tightening bound really reaches the guaranteed level
    level = bc.kappa_acc * min(cfg.eps) ** cfg.q
    assert cfg.gamma_zeta ** bc.i_zeta_min * max(cfg.zeta0) <= level * (1 + 1e-12)


def test_every_order_exact_at_a_stationary_start():
    # zero gradient and zero zeta0: the radius floor is vartheta's term alone
    cfg = base_cfg(q=2, zeta0=0.0)
    bc = compute_bounds(cfg, L_f=4.0, f0=1.0, f_low=0.0, grad_norms_at_x0=0.0)
    assert bc.kappa_Delta == cfg.gamma2 * (1 - cfg.eta2) / 4.0 * cfg.vartheta
    assert all(math.isfinite(v) for v in vars(bc).values())
    # a zero error budget is never insufficient, so no accuracy is ever tightened
    assert bc.i_zeta_min == 0 and bc.kappa_f == 2.0


def test_tightening_bound_starts_from_the_largest_zeta0():
    # accuracies only shrink from zeta0, so its largest entry sets the count,
    # however large it is
    for zeta0 in ((0.02, 0.3), (0.0, 0.3), (5.0, 1e-9)):
        cfg = base_cfg(q=2, zeta0=zeta0)
        bc = compute_bounds(cfg, L_f=10.0, f0=4.0, f_low=-0.5, grad_norms_at_x0=3.0)
        level = bc.kappa_acc * min(cfg.eps) ** cfg.q
        top = max(zeta0)
        assert cfg.gamma_zeta ** bc.i_zeta_min * top <= level * (1 + 1e-12)
        assert cfg.gamma_zeta ** (bc.i_zeta_min - 1) * top > level
        assert bc.kappa_f == pytest.approx(abs(math.log(bc.kappa_acc / top))
                                           / abs(math.log(cfg.gamma_zeta)) + 2, rel=1e-15)


def test_input_validation():
    cfg = base_cfg()
    with pytest.raises(ValueError):
        compute_bounds(cfg, L_f=math.inf, f0=1.0, f_low=0.0, grad_norms_at_x0=1.0)
    with pytest.raises(ValueError):
        compute_bounds(cfg, L_f=1.0, f0=-1.0, f_low=0.0, grad_norms_at_x0=1.0)
