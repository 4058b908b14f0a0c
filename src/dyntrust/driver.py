"""Main trust-region loop with dynamic accuracy, plus the run auditor.

One run owns a single evolving state machine: the iterate, the trust-region
radius, the accuracy ledger (absolute derivative accuracies with their
tightening counter), a per-iterate derivative cache, and the objective-value
bookkeeping that decides when an inexact value can be reused.  Each
iteration appends an :class:`IterationRecord`; :func:`check_history` replays
a finished run against the exact problem and the closed-form worst-case
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

import numpy as np

from .bounds import BoundConstants, compute_bounds
from .model import Vector, as_vector, operator_norm, vector_norm
from .optimality import (AccuracyLedger, BundleCache, CertificationError,
                         allowed_tightenings, termination_test)
from .oracle import EvalLedger, InexactOracle, Problem
from .step import compute_step


class ConfigError(ValueError):
    """A run configuration violates an admissibility constraint."""


@dataclass(frozen=True)
class TrConfig:
    """All algorithm constants, checked for admissibility at construction.

    ``eps`` holds the per-order accuracy targets (length q).  ``zeta0`` is
    the initial absolute derivative accuracy (scalar or per order).
    """

    eps: tuple
    Delta0: float = 1.0
    Delta_max: float = 100.0
    vartheta: float = 0.5
    eta1: float = 0.05
    eta2: float = 0.9
    gamma1: float = 0.25
    gamma2: float = 0.5
    gamma3: float = 2.0
    omega: float = 0.0225
    varsigma: float = 0.99
    gamma_zeta: float = 0.1
    kappa_zeta: float = 0.1
    zeta0: float = 0.1
    seed: int = 0
    max_iterations: int = 10**6

    @property
    def q(self) -> int:
        return len(self.eps)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        if not 1 <= len(eps) <= 3:
            raise ConfigError(f"criticality order q={len(eps)} outside the supported 1..3")
        if any(not 0 < e < 1 for e in eps):
            raise ConfigError("accuracy targets must satisfy 0 < eps_j < 1")
        if not min(eps) <= self.vartheta <= 1:
            raise ConfigError("vartheta must satisfy min_j eps_j <= vartheta <= 1")
        if not 0 < self.Delta0 <= self.Delta_max:
            raise ConfigError("radii must satisfy 0 < Delta0 <= Delta_max")
        if not 0 < self.eta1 <= self.eta2 < 1:
            raise ConfigError("acceptance thresholds must satisfy 0 < eta1 <= eta2 < 1")
        if not 0 < self.gamma1 < self.gamma2 < 1 < self.gamma3:
            raise ConfigError("radius factors must satisfy 0 < gamma1 < gamma2 < 1 < gamma3")
        if not 0 < self.varsigma <= 1:
            raise ConfigError("varsigma must lie in (0, 1]")
        omega_cap = min(0.5 * self.eta1, 0.25 * (1 - self.eta2))
        if not 0 < self.omega < omega_cap:
            raise ConfigError(
                f"omega must lie in (0, min[eta1/2, (1-eta2)/4]) = (0, {omega_cap:g})")
        if not 0 < self.gamma_zeta < 1:
            raise ConfigError("gamma_zeta must lie in (0, 1)")
        if self.kappa_zeta <= 0:
            raise ConfigError("kappa_zeta must be positive")
        zeta0 = self.zeta0 if np.iterable(self.zeta0) else (self.zeta0,) * len(eps)
        zeta0 = tuple(float(z) for z in zeta0)
        object.__setattr__(self, "zeta0", zeta0)
        if len(zeta0) != len(eps):
            raise ConfigError("zeta0 must be scalar or one value per order")
        if any(not 0 < z <= self.kappa_zeta for z in zeta0):
            raise ConfigError("initial accuracies must satisfy 0 < zeta0_j <= kappa_zeta")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")

    @classmethod
    def with_defaults(cls, eps, **overrides) -> "TrConfig":
        """Conventional defaults; vartheta and omega are derived from the
        accuracy targets and acceptance thresholds unless given explicitly."""
        eps = tuple(float(e) for e in (eps if np.iterable(eps) else (eps,)))
        eta1 = overrides.get("eta1", 0.05)
        eta2 = overrides.get("eta2", 0.9)
        derived = {
            # an empty eps gets a placeholder, for __post_init__ to name q=0
            "vartheta": max(min(eps, default=0.5), 0.5),
            "omega": 0.9 * min(0.5 * eta1, 0.25 * (1 - eta2)),
        }
        derived.update(overrides)
        return cls(eps=eps, **derived)


class IterationRecord(NamedTuple):
    """Per-iteration trace: an immutable named tuple, one field per CSV column."""

    k: int
    Delta: float
    delta: float
    j: int
    rho: float
    successful: bool
    dT_s: float
    f_bar_old: float
    f_bar_new: float
    i_zeta: int
    step2_tightens: int
    zeta_max_step2_entry: float
    step2_absolute: int
    f_recomputed: bool
    n_f: int
    n_d1: int
    n_d2: int
    n_d3: int
    step_norm: float
    x: Vector        # read-only: the previous accepted x_trial, or the start point
    x_trial: Vector  # read-only


@dataclass
class RunResult:
    x0: Vector
    x_eps: Vector
    delta_eps: float
    terminated: bool
    history: list
    eval_ledger: EvalLedger
    acc: AccuracyLedger
    cfg: TrConfig
    problem_name: str

    @property
    def n_iterations(self) -> int:
        return len(self.history)

    @property
    def n_success(self) -> int:
        return sum(1 for r in self.history if r.successful)


def run(oracle: InexactOracle, cfg: TrConfig, x0=None, sink=None) -> RunResult:
    """Minimize with dynamically accurate evaluations until every order's
    certified decrement falls under its termination threshold (or the safety
    cap trips, which is reported, not raised).

    A broken certification guarantee raises :class:`CertificationError`
    naming the iteration.

    After a rejected step the certified optimality displacement is reused
    (skipping the termination test) exactly when the shrunken radius still
    reaches the optimality-radius cap ``vartheta``, which keeps the
    optimality radius unchanged; any other outcome reruns the test.
    """
    x = np.asarray(x0 if x0 is not None else oracle.problem.x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"start point x0 = {x.tolist()} is not finite")
    x = as_vector(x).copy()
    if x.size != oracle.dim:
        raise ConfigError("start point dimension does not match the problem")
    x.flags.writeable = False
    x_start = x
    acc = AccuracyLedger.fresh(cfg, oracle.exact_orders)
    ledger = EvalLedger()
    cache = BundleCache(x)
    f_bar = None
    f_bar_acc = math.inf
    pending = None
    history: list[IterationRecord] = []
    terminated = False
    delta_eps = min(cfg.Delta0, cfg.vartheta)
    delta_tr = cfg.Delta0

    for k in range(cfg.max_iterations):
        delta_k = min(delta_tr, cfg.vartheta)
        try:
            if pending is None:
                cert = termination_test(delta_k, cfg.eps, cfg.varsigma, cfg.omega,
                                        oracle, acc, cache, ledger, seed=cfg.seed)
                if cert is None:
                    terminated = True
                    delta_eps = delta_k
                    break
            else:
                cert, pending = pending, None
            j = cert.j

            sres = compute_step(delta_tr, cfg.vartheta, cert, cfg.eps[j - 1],
                                cfg.omega, oracle, acc, cache, ledger, seed=cfg.seed)
        except CertificationError as exc:
            raise CertificationError(exc.reason, exc.j, exc.radius, exc.x, k) from None

        acc_req = cfg.omega * sres.dT
        x_trial = x + sres.s
        x_trial.flags.writeable = False
        f_bar_new = oracle.eval_f(x_trial, acc_req, ledger)
        recomputed = False
        if f_bar is None or f_bar_acc > acc_req:
            f_bar = oracle.eval_f(x, acc_req, ledger)
            f_bar_acc = acc_req
            recomputed = True
        rho = (f_bar - f_bar_new) / sres.dT
        successful = rho >= cfg.eta1

        if rho < cfg.eta1:
            delta_next = cfg.gamma2 * delta_tr
        elif rho < cfg.eta2:
            delta_next = delta_tr
        else:
            delta_next = min(cfg.Delta_max, cfg.gamma3 * delta_tr)

        rec = IterationRecord(
            k=k, Delta=delta_tr, delta=delta_k, j=j, rho=rho, successful=successful,
            dT_s=sres.dT, f_bar_old=f_bar, f_bar_new=f_bar_new, i_zeta=acc.i_zeta,
            step2_tightens=sres.tighten_count, zeta_max_step2_entry=sres.zeta_entry_max,
            step2_absolute=sres.absolute_events, f_recomputed=recomputed,
            n_f=ledger.n_f, n_d1=ledger.n_deriv(1), n_d2=ledger.n_deriv(2),
            n_d3=ledger.n_deriv(3), step_norm=vector_norm(sres.s),
            x=x, x_trial=x_trial)
        history.append(rec)
        if sink is not None:
            sink(rec)

        if successful:
            x = x_trial
            cache = BundleCache(x)
            f_bar = f_bar_new
            f_bar_acc = acc_req
        elif delta_next >= cfg.vartheta:
            pending = cert
        delta_tr = delta_next

    if not terminated:
        delta_eps = min(delta_tr, cfg.vartheta)
    return RunResult(x0=x_start, x_eps=x.copy(), delta_eps=delta_eps,
                     terminated=terminated, history=history, eval_ledger=ledger,
                     acc=acc, cfg=cfg, problem_name=oracle.problem.name)


@dataclass
class CheckResult:
    ok: bool
    detail: str


@dataclass
class AuditReport:
    checks: dict
    bounds: BoundConstants
    lipschitz_used: float
    # (L_j, source) for j = 1..q; the source is "declared" or "sampled (...)"
    lipschitz_orders: tuple = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    @property
    def violations(self) -> list:
        return [f"{name}: {c.detail}" for name, c in self.checks.items() if not c.ok]

    def summary(self) -> str:
        lines = []
        for name, c in self.checks.items():
            lines.append(f"[{'PASS' if c.ok else 'FAIL'}] {name}: {c.detail}")
        if self.lipschitz_orders:
            per_order = ", ".join(f"L_{j}={v:.4g} {source}"
                                  for j, (v, source) in enumerate(self.lipschitz_orders, 1))
            lines.append(f"L_f = max(1, L_j) = {self.lipschitz_used:.4g}: {per_order}")
        return "\n".join(lines)


def resolve_lipschitz(problem: Problem, result: RunResult, q: int) -> tuple:
    """(L_j, source) for j = 1..q: the exact constant when the problem
    declares it, otherwise sampled over the padded iterate box with a safety
    inflation."""
    from .reference import LIPSCHITZ_INFLATION, LIPSCHITZ_PAIRS, lipschitz_estimate
    sampled = f"sampled ({LIPSCHITZ_PAIRS:,} pairs x {LIPSCHITZ_INFLATION:g})"
    out = []
    declared = problem.lipschitz or ()
    box = None
    for order in range(1, q + 1):
        if len(declared) >= order and declared[order - 1] is not None:
            out.append((float(declared[order - 1]), "declared"))
        else:
            if box is None:
                pts = np.array([r.x for r in result.history] + [result.x_eps])
                box = pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5
            out.append((lipschitz_estimate(problem, box, order), sampled))
    return tuple(out)


def bounds_for_run(result: RunResult, problem: Problem,
                   lipschitz: tuple | None = None) -> tuple[BoundConstants, float]:
    """Worst-case constants for a finished run and L_f = max(1, L_1..L_q),
    resolving the per-order constants (:func:`resolve_lipschitz`) unless
    they are given."""
    cfg = result.cfg
    if lipschitz is None:
        lipschitz = resolve_lipschitz(problem, result, cfg.q)
    L_f = max(1.0, *(v for v, _ in lipschitz))
    x0 = result.x0
    g0 = max(operator_norm(problem.exact_deriv(x0, i), i) for i in range(1, cfg.q + 1))
    bc = compute_bounds(cfg, L_f=L_f, f0=problem.exact_f(x0), f_low=problem.f_low,
                        grad_norms_at_x0=g0, zeta_at_x0=max(cfg.zeta0))
    return bc, L_f


_REL_SLACK = 1.0 + 1e-9


def check_history(result: RunResult, problem: Problem,
                  check_termination: bool = True) -> AuditReport:
    """Replay a finished run against exact values and the worst-case bounds.

    Checks, per run: the exact decrease floor on successful iterations, the
    trust-region radius floor, the iteration/success/evaluation bounds, the
    tightening-counter bound, the accuracy floor under which no derivative
    accuracy is ever requested, the absence of absolute outcomes in the step
    loop with its tightening caps, the objective accuracy contracts, every
    step inside its trust region, and (for terminated runs) soundness of the
    declared approximate minimizer.
    """
    cfg = result.cfg
    q = cfg.q
    eps_min = min(cfg.eps)
    lipschitz = resolve_lipschitz(problem, result, q)
    bc, L_f = bounds_for_run(result, problem, lipschitz)
    checks: dict[str, CheckResult] = {}
    hist = result.history
    n_success = result.n_success
    f0 = problem.exact_f(result.x0)

    # One replay against exact values, one f call per trial point: each x is
    # the last accepted x_trial (or x0), so f(x) is carried forward.
    # (a) exact decrease floor on successful iterations; (j) accuracy contracts.
    floor = (cfg.eta1 - 2 * cfg.omega) * bc.kappa_delta ** (q + 1) * eps_min ** (q + 1) / factorial(q)
    worst = math.inf
    bad = 0
    acc_bad = 0
    worst_gap = 0.0
    f_x = f0
    for r in hist:
        f_trial = problem.exact_f(r.x_trial)
        budget = cfg.omega * r.dT_s
        gap_old = abs(r.f_bar_old - f_x)
        gap_new = abs(r.f_bar_new - f_trial)
        worst_gap = max(worst_gap, gap_old - budget, gap_new - budget)
        if gap_old > budget * _REL_SLACK or gap_new > budget * _REL_SLACK:
            acc_bad += 1
        if r.successful:
            dec = f_x - f_trial
            worst = min(worst, dec)
            if dec * _REL_SLACK < floor:
                bad += 1
            f_x = f_trial
    checks["decrease_floor"] = CheckResult(
        bad == 0, f"min exact decrease {worst:.3e} vs floor {floor:.3e} ({bad} violations)")

    # (b) trust-region radius floor
    radius_floor = bc.kappa_delta * eps_min
    min_delta = min((r.Delta for r in hist), default=math.inf)
    checks["radius_floor"] = CheckResult(
        min_delta * _REL_SLACK >= radius_floor,
        f"min Delta {min_delta:.3e} vs floor {radius_floor:.3e}")

    # (c) iteration-count bound from the success/failure radius accounting
    delta_min = min(radius_floor, cfg.Delta0)
    iter_bound = (n_success * (1 + math.log(cfg.gamma3) / abs(math.log(cfg.gamma2)))
                  + abs(math.log(delta_min / cfg.Delta0)) / abs(math.log(cfg.gamma2)))
    checks["iteration_bound"] = CheckResult(
        len(hist) <= iter_bound + 1e-9,
        f"{len(hist)} iterations vs bound {iter_bound:.2f}")

    # (d) successful-iteration bound
    s_bound = bc.kappa_s * (f0 - problem.f_low) / eps_min ** (q + 1)
    checks["success_bound"] = CheckResult(
        n_success <= s_bound + 1e-9, f"{n_success} successes vs bound {s_bound:.2f}")

    # (e) evaluation bounds
    n_f = result.eval_ledger.n_f
    checks["f_eval_bound"] = CheckResult(
        n_f <= bc.eval_bound_f + 1e-9, f"{n_f} objective evaluations vs bound {bc.eval_bound_f:.2f}")
    rounds = result.eval_ledger.deriv_rounds()
    checks["deriv_round_bound"] = CheckResult(
        rounds <= bc.eval_bound_d + 1e-9,
        f"{rounds} derivative rounds vs bound {bc.eval_bound_d:.2f}")
    count_bound = n_success + bc.i_zeta_min + 1
    checks["deriv_round_count"] = CheckResult(
        rounds <= count_bound + 1e-9,
        f"{rounds} derivative rounds vs counting bound {count_bound}")

    # (f) tightening-counter bound
    checks["i_zeta_bound"] = CheckResult(
        result.acc.i_zeta <= bc.i_zeta_min,
        f"i_zeta {result.acc.i_zeta} vs bound {bc.i_zeta_min}")

    # (g) accuracy floor: no derivative accuracy below one tightening under
    # the guaranteed level
    zeta_floor = cfg.gamma_zeta * min(
        cfg.varsigma * cfg.omega / (8 * (1 + cfg.omega)) * cfg.eps[j - 1]
        * (bc.kappa_delta * eps_min) ** (j - 1) / factorial(j)
        for j in range(1, q + 1))
    # exact orders request zeta = 0 by design; min_acc skips those requests
    min_req = result.eval_ledger.min_acc("deriv")
    checks["zeta_floor"] = CheckResult(
        min_req * _REL_SLACK >= zeta_floor,
        f"min requested zeta {min_req:.3e} vs floor {zeta_floor:.3e}")

    # (h) no absolute outcomes in the step loop
    absolutes = sum(r.step2_absolute for r in hist)
    checks["step_no_absolute"] = CheckResult(
        absolutes == 0, f"{absolutes} absolute outcomes in step certification")

    # (i) step-loop tightenings within the guaranteed cap
    cap_bad = 0
    for r in hist:
        stop_level = (cfg.omega * cfg.vartheta ** (r.j - 1) * cfg.eps[r.j - 1]
                      / (8 * factorial(r.j) * (1 + cfg.omega)))
        cap = allowed_tightenings(r.zeta_max_step2_entry, stop_level, cfg.gamma_zeta)
        if r.step2_tightens > cap:
            cap_bad += 1
    checks["step_tighten_cap"] = CheckResult(
        cap_bad == 0, f"{cap_bad} iterations exceeded the step tightening cap")

    # (j) objective accuracy contracts, from the replay above
    checks["f_accuracy_contract"] = CheckResult(
        acc_bad == 0,
        f"{acc_bad} iterations broke the objective accuracy contract "
        f"(worst overshoot {worst_gap:.3e})")

    # (k) step inside the trust region
    ratio = max((r.step_norm / r.Delta for r in hist), default=0.0)
    checks["step_within_radius"] = CheckResult(
        ratio <= 1.0 + 1e-12, f"max |s|/Delta {ratio:.15f}")

    # (l) termination soundness against the reference measure, certified at
    # every order and any n: closed form at j <= 2, branch and bound at j = 3
    if check_termination and result.terminated:
        from .reference import phi3_decide, phi_reference
        ok = True
        details = []
        for j in range(1, q + 1):
            bound = cfg.eps[j - 1] * result.delta_eps**j / factorial(j)
            if j <= 2:
                phi = phi_reference(problem, result.x_eps, j, result.delta_eps)
                details.append(f"phi_{j}={phi:.3e}<={bound:.3e} certified")
                ok = ok and phi <= bound * _REL_SLACK
                continue
            b = tuple(problem.exact_deriv(result.x_eps, i) for i in (1, 2, 3))
            dec = phi3_decide(b, result.delta_eps, bound * _REL_SLACK)
            ok = ok and dec.verdict == "pass"
            if dec.verdict == "pass":
                details.append(f"phi_3={dec.value:.3e}<={bound:.3e} certified")
            elif dec.verdict == "fail":
                details.append(f"phi_3>={dec.value:.3e}>{bound:.3e} at "
                               f"s={dec.witness.tolist()}")
            else:
                details.append(f"phi_3 undecided: cell budget spent after "
                               f"{dec.cells:,} cells")
        gnorm = vector_norm(problem.exact_deriv(result.x_eps, 1))
        details.append(f"|grad|={gnorm:.3e}")
        if gnorm > cfg.eps[0] * _REL_SLACK:
            ok = False
        checks["termination_soundness"] = CheckResult(ok, ", ".join(details))

    return AuditReport(checks=checks, bounds=bc, lipschitz_used=L_f,
                       lipschitz_orders=lipschitz)
