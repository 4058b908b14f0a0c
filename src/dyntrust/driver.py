"""Main trust-region loop with dynamic accuracy, plus the run auditor.

One run owns a single evolving state machine: the iterate, the trust-region
radius, the accuracy ledger (derivative accuracies, tightening counter,
oracle, call log and the tensors at the iterate), and the objective-value
bookkeeping that decides when an inexact value can be reused.  Each
iteration appends one row to the run's :class:`RunTrace`;
:func:`check_history` replays a finished run against the exact problem and
the closed-form worst-case bounds.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from math import factorial

import numpy as np

from .bounds import BoundConstants, compute_bounds
from .model import NonFiniteEvaluation, Vector, as_vector, operator_norm, vector_norm
from .optimality import (AccuracyLedger, CertificationError, allowed_tightenings,
                         step_scale, stop_level, termination_test)
from .oracle import (PHASE_OBJECTIVE, PHASE_STEP, PHASE_TERMINATION, PHASES, EvalLedger,
                     InexactOracle, Problem, Table)
from .step import compute_step


class ConfigError(ValueError):
    """A run configuration violates an admissibility constraint."""


@dataclass(frozen=True)
class TrConfig:
    """All algorithm constants, checked for admissibility at construction.

    ``eps`` holds the per-order accuracy targets (length q).  ``zeta0`` is
    the initial absolute derivative accuracy (scalar or per order).  Unless
    given, ``vartheta`` is max(min_j eps_j, 0.5) and ``omega`` is
    0.9 min(eta1/2, (1 - eta2)/4).  ``seed`` seeds the order-3 ascent starts.
    """

    eps: tuple
    Delta0: float = 1.0
    Delta_max: float = 100.0
    vartheta: float | None = None
    eta1: float = 0.05
    eta2: float = 0.9
    gamma1: float = 0.25
    gamma2: float = 0.5
    gamma3: float = 2.0
    omega: float | None = None
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
        if self.vartheta is None:
            object.__setattr__(self, "vartheta", max(min(eps), 0.5))
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
        if self.omega is None:
            object.__setattr__(self, "omega", 0.9 * omega_cap)
        if not 0 < self.omega < omega_cap:
            raise ConfigError(
                f"omega must lie in (0, min[eta1/2, (1-eta2)/4]) = (0, {omega_cap:g})")
        if not 0 < self.gamma_zeta < 1:
            raise ConfigError("gamma_zeta must lie in (0, 1)")
        if not 0 < self.kappa_zeta < math.inf:  # NaN fails too
            raise ConfigError(f"kappa_zeta must be positive and finite, got {self.kappa_zeta!r}")
        zeta0 = self.zeta0 if np.iterable(self.zeta0) else (self.zeta0,) * len(eps)
        zeta0 = tuple(float(z) for z in zeta0)
        object.__setattr__(self, "zeta0", zeta0)
        if len(zeta0) != len(eps):
            raise ConfigError("zeta0 must be scalar or one value per order")
        if any(not 0 < z <= self.kappa_zeta for z in zeta0):
            raise ConfigError("initial accuracies must satisfy 0 < zeta0_j <= kappa_zeta")
        if not isinstance(self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise ConfigError(
                f"max_iterations must be a positive integer, got {self.max_iterations!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def with_defaults(cls, eps, **overrides) -> "TrConfig":
        """The config for ``eps`` given as a scalar (one order) or per order."""
        return cls(eps=tuple(eps) if np.iterable(eps) else (eps,), **overrides)


class RunTrace(Table):
    """A run's per-iteration table.

    Each iteration's scalar fields are one packed row (:meth:`column` reads
    a typed column); the trial points are one float64 block of (k, n) rows
    (:attr:`x_trial`).  Both are ``array.array`` buffers that grow in place
    by about 1/16 when full, with no Python object per iteration.  The point
    an iteration starts from is not stored: :meth:`starts` derives it, as
    ``x0`` or the ``x_trial`` of the last successful iteration before
    (:meth:`prev_success`).  While a column or ``x_trial`` view is alive the
    trace cannot grow, so only ``run`` appends, and it makes no views.
    """

    FIELDS = [("Delta", "d"), ("delta", "d"), ("j", "q"), ("rho", "d"), ("successful", "?"),
              ("dT_s", "d"), ("f_bar_old", "d"), ("f_bar_new", "d"), ("i_zeta", "q"),
              ("step2_tightens", "q"), ("zeta_max_step2_entry", "d"), ("f_recomputed", "?"),
              ("n_f", "q"), ("n_d1", "q"), ("n_d2", "q"), ("n_d3", "q"), ("step_norm", "d")]

    def __init__(self, x0: Vector, rows: bytes = b"", x_trial=()):
        """The trace from ``x0`` holding ``rows`` (the bytes of an array of
        :attr:`dtype`) and their (k, n) trial points."""
        super().__init__()
        self.x0 = x0
        self._x_trial = array("d")
        self.extend(rows, x_trial)

    def append(self, row: tuple, x_trial: Vector):
        """Add an iteration: its scalar fields in field order, and its trial point."""
        self._rows.frombytes(self.row.pack(*row))
        self._x_trial.frombytes(x_trial.tobytes())

    def extend(self, rows: bytes, x_trial) -> None:
        """Add iterations: ``rows`` (the bytes of an array of :attr:`dtype`)
        and their (k, n) trial points."""
        x_trial = np.asarray(x_trial, dtype=float)
        if x_trial.size != len(rows) // self.row.size * self.x0.size:
            raise ValueError("a trace holds one trial point of x0's size per row")
        self._rows.frombytes(rows)
        self._x_trial.frombytes(x_trial.tobytes())

    @property
    def x_trial(self) -> np.ndarray:
        """The read-only (k, n) block of trial points."""
        block = np.frombuffer(self._x_trial).reshape(len(self), self.x0.size)
        block.flags.writeable = False
        return block

    @property
    def n_success(self) -> int:
        return int(np.count_nonzero(self.column("successful")))

    def prev_success(self, rows: slice = slice(None)) -> np.ndarray:
        """For each row of ``rows``, the last successful row before it (whose
        x_trial is the row's x), or -1 where x is x0.  Before the first of
        ``rows`` it reads back only as far as the last success."""
        start, stop, _ = rows.indices(len(self))
        succ = self.column("successful")
        lo, width = start, 1  # widening windows back to the last success before start
        while lo > 0 and not succ[max(lo - width, 0):lo].any():
            lo, width = lo - width, 2 * width
        lo = max(lo - width, 0)
        last = np.maximum.accumulate(np.where(succ[lo:stop], np.arange(lo, stop), -1))
        return np.concatenate(([-1], last))[start - lo:stop - lo]

    def starts(self, rows: slice = slice(None)) -> np.ndarray:
        """The (len(rows), n) block (a copy) of the points the iterations
        ``rows`` start from: x0, or the trial point of the last success before."""
        src = self.prev_success(rows)
        return np.where(src[:, None] < 0, self.x0, self.x_trial[src])


@dataclass
class RunResult:
    """A finished run: its end point, its trace (which holds the start
    point ``history.x0``) and its ledger (which holds the config and the
    oracle)."""

    x_eps: Vector
    delta_eps: float
    terminated: bool
    history: RunTrace
    acc: AccuracyLedger

    @property
    def cfg(self) -> TrConfig:
        return self.acc.cfg

    @property
    def eval_ledger(self) -> EvalLedger:
        return self.acc.ledger

    @property
    def n_iterations(self) -> int:
        return len(self.history)

    @property
    def n_success(self) -> int:
        return self.history.n_success


def run(oracle: InexactOracle, cfg: TrConfig, x0=None, sink=None) -> RunResult:
    """Minimize with dynamically accurate evaluations until every order's
    certified decrement falls under its termination threshold (or the safety
    cap trips, which is reported, not raised).

    A broken certification guarantee raises :class:`CertificationError`,
    and non-finite problem output :class:`NonFiniteEvaluation`, each naming
    the iteration (and the latter the phase).  ``sink``, if given, is called
    once per iteration with the row appended to the trace: its scalar
    fields, in :attr:`RunTrace.dtype` order.

    After a rejected step the certified optimality displacement is reused
    (skipping the termination test) exactly when the shrunken radius still
    reaches the optimality-radius cap ``vartheta``, which keeps the
    optimality radius unchanged; any other outcome reruns the test.
    """
    try:
        x = as_vector(x0 if x0 is not None else oracle.problem.x0).copy()
    except ValueError as exc:
        raise ConfigError(f"start point x0 = {exc}") from None
    if x.size != oracle.dim:
        raise ConfigError("start point dimension does not match the problem")
    x.flags.writeable = False
    acc = AccuracyLedger(cfg, oracle, x)
    ledger = acc.ledger
    counts = ledger.counts
    f_bar = None
    f_bar_acc = math.inf
    pending = None
    history = RunTrace(x)
    terminated = False
    delta_tr = cfg.Delta0

    for k in range(cfg.max_iterations):
        delta_k = min(delta_tr, cfg.vartheta)
        try:
            if pending is None:
                ledger.phase = PHASE_TERMINATION
                cert = termination_test(delta_k, acc)
                if cert is None:
                    terminated = True
                    break
            else:
                cert, pending = pending, None
            j = cert.j

            ledger.phase = PHASE_STEP
            sres = compute_step(delta_tr, cert, acc)

            ledger.phase = PHASE_OBJECTIVE
            acc_req = cfg.omega * sres.dT
            x_trial = x + sres.s
            x_trial.flags.writeable = False
            f_bar_new = oracle.eval_f(x_trial, acc_req, ledger)
            recomputed = False
            if f_bar is None or f_bar_acc > acc_req:
                f_bar = oracle.eval_f(x, acc_req, ledger)
                f_bar_acc = acc_req
                recomputed = True
        except CertificationError as exc:
            raise CertificationError(exc.reason, exc.j, exc.radius, exc.x, k) from None
        except NonFiniteEvaluation as exc:
            raise NonFiniteEvaluation(
                f"iteration {k}, {PHASES[ledger.phase]} phase: {exc}") from None
        rho = (f_bar - f_bar_new) / sres.dT
        successful = rho >= cfg.eta1

        if rho < cfg.eta1:
            delta_next = cfg.gamma2 * delta_tr
        elif rho < cfg.eta2:
            delta_next = delta_tr
        else:
            delta_next = min(cfg.Delta_max, cfg.gamma3 * delta_tr)

        # the scalar fields of RunTrace, in field order
        row = (delta_tr, delta_k, j, rho, successful, sres.dT, f_bar, f_bar_new,
               acc.i_zeta, sres.tighten_count, sres.zeta_entry_max, recomputed,
               counts[0], counts[1], counts[2], counts[3], vector_norm(sres.s))
        history.append(row, x_trial)
        if sink is not None:
            sink(row)

        if successful:
            x = x_trial
            acc.move_to(x)
            f_bar = f_bar_new
            f_bar_acc = acc_req
        elif delta_next >= cfg.vartheta:
            pending = cert
        delta_tr = delta_next

    return RunResult(x_eps=x.copy(), delta_eps=min(delta_tr, cfg.vartheta),
                     terminated=terminated, history=history, acc=acc)


@dataclass
class CheckResult:
    ok: bool
    detail: str


def lipschitz_f(lipschitz: tuple) -> float:
    """L_f = max(1, L_1..L_q) of (L_j, source) pairs: every floor and bound rests on it."""
    return max(1.0, *(v for v, _ in lipschitz))


@dataclass
class AuditReport:
    checks: dict
    bounds: BoundConstants
    # (L_j, source) for j = 1..q; the source is "declared", "certified on
    # box" or "sampled (...)"
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
        if lipschitz := self.lipschitz_orders:
            per_order = ", ".join(f"L_{j}={v:.4g} {s}" for j, (v, s) in enumerate(lipschitz, 1))
            lines.append(f"L_f = max(1, L_j) = {lipschitz_f(lipschitz):.4g}: {per_order}")
        return "\n".join(lines)


def _iterate_box(trace: RunTrace) -> tuple:
    """(lo, hi): the box of every iterate (x0 and each accepted trial point;
    x_eps is one of them), reduced in place over the trace's trial points
    and padded by 0.5 on each side."""
    accepted = trace.column("successful")[:, None]
    lo = np.min(trace.x_trial, axis=0, where=accepted, initial=np.inf)
    hi = np.max(trace.x_trial, axis=0, where=accepted, initial=-np.inf)
    return np.minimum(lo, trace.x0) - 0.5, np.maximum(hi, trace.x0) + 0.5


def resolve_lipschitz(problem: Problem, result: RunResult, q: int) -> tuple:
    """(L_j, source) for j = 1..q, from ``problem.lipschitz``: a tuple of
    global constants (``declared``), or a callable that gives constants
    valid on the padded iterate box (``certified on box``).  An order it
    leaves out or gives as None is sampled over that box with a safety
    inflation.  The box is built only when some order needs it.  A
    non-finite or negative constant is refused by name."""
    from .reference import LIPSCHITZ_INFLATION, LIPSCHITZ_PAIRS, lipschitz_estimate
    stated, source = problem.lipschitz or (), "declared"
    box = functools.cache(lambda: _iterate_box(result.history))
    if callable(stated):
        stated, source = stated(*box()), "certified on box"
    out = []
    for order in range(1, q + 1):
        value = stated[order - 1] if len(stated) >= order else None
        if value is None:
            out.append((lipschitz_estimate(problem, box(), order),
                        f"sampled ({LIPSCHITZ_PAIRS:,} pairs x {LIPSCHITZ_INFLATION:g})"))
        elif 0 <= (value := float(value)) < math.inf:  # NaN fails too
            out.append((value, source))
        else:
            raise ValueError(f"{problem.name}: Lipschitz constant L_{order} must be "
                             f"finite and non-negative, got {value!r}")
    return tuple(out)


def bounds_for_run(result: RunResult, problem: Problem) -> tuple[BoundConstants, tuple]:
    """The worst-case constants of a finished run, and the (L_j, source)
    pairs of :func:`resolve_lipschitz` that they rest on through
    :func:`lipschitz_f`."""
    return _bounds(result, problem, problem.exact_f(result.history.x0))


def _bounds(result: RunResult, problem: Problem, f0: float) -> tuple[BoundConstants, tuple]:
    """:func:`bounds_for_run` given f(x0), which the audit's replay uses too."""
    cfg = result.cfg
    lipschitz = resolve_lipschitz(problem, result, cfg.q)
    x0 = result.history.x0
    g0 = max(operator_norm(problem.exact_deriv(x0, i), i) for i in range(1, cfg.q + 1))
    bc = compute_bounds(cfg, L_f=lipschitz_f(lipschitz), f0=f0,
                        f_low=problem.f_low, grad_norms_at_x0=g0)
    return bc, lipschitz


_REL_SLACK = 1.0 + 1e-9
_AUDIT_BLOCK = 2048  # trial points per stacked exact_f call; bounds peak memory


def check_history(result: RunResult, problem: Problem,
                  check_termination: bool = True) -> AuditReport:
    """Replay a finished run against exact values and the worst-case bounds.

    Checks, per run: the exact decrease floor on successful iterations, the
    trust-region radius floor, the iteration/success/evaluation bounds, the
    tightening-counter bound, the accuracy floor under which no derivative
    accuracy is ever requested, the step loop's tightening caps (``run``
    raises on an absolute step outcome), the objective accuracy contracts,
    every step inside its trust region, and (for terminated runs) soundness
    of the declared approximate minimizer.  The floors and bounds come from
    :func:`bounds_for_run`, with the per-order constants they rest on:
    stated in closed form by every registered problem, and sampled only for
    a problem that states none.
    """
    cfg = result.cfg
    q = cfg.q
    eps_min = min(cfg.eps)
    trace = result.history
    f0 = problem.exact_f(trace.x0)
    bc, lipschitz = _bounds(result, problem, f0)
    checks: dict[str, CheckResult] = {}
    n_iter = len(trace)
    n_success = trace.n_success

    # One replay against exact values, each trial point evaluated once, in
    # stacked blocks; f at each x is f0 or the f of the accepted trial point
    # it is.  (a) exact decrease floor on successful iterations; (i) accuracy
    # contracts.
    floor = (cfg.eta1 - 2 * cfg.omega) * bc.kappa_delta ** (q + 1) * eps_min ** (q + 1) / factorial(q)
    x_trial = trace.x_trial
    f_trial = np.empty(n_iter)
    for start in range(0, n_iter, _AUDIT_BLOCK):
        f_trial[start:start + _AUDIT_BLOCK] = problem.exact_f(x_trial[start:start + _AUDIT_BLOCK])
    src = trace.prev_success()
    f_x = np.where(src < 0, f0, f_trial[src])
    budget = cfg.omega * trace.column("dT_s")
    gap_old = np.abs(trace.column("f_bar_old") - f_x)
    gap_new = np.abs(trace.column("f_bar_new") - f_trial)
    worst_gap = float(np.max(np.maximum(gap_old, gap_new) - budget, initial=0.0))
    acc_bad = int(np.count_nonzero(np.maximum(gap_old, gap_new) > budget * _REL_SLACK))
    dec = (f_x - f_trial)[trace.column("successful")]
    worst = float(np.min(dec, initial=math.inf))
    bad = int(np.count_nonzero(dec * _REL_SLACK < floor))
    checks["decrease_floor"] = CheckResult(
        bad == 0, f"min exact decrease {worst:.3e} vs floor {floor:.3e} ({bad} violations)")

    # (b) trust-region radius floor
    radius_floor = bc.kappa_delta * eps_min
    deltas = trace.column("Delta")
    min_delta = float(np.min(deltas, initial=math.inf))
    checks["radius_floor"] = CheckResult(
        min_delta * _REL_SLACK >= radius_floor,
        f"min Delta {min_delta:.3e} vs floor {radius_floor:.3e}")

    # (c) iteration-count bound from the success/failure radius accounting
    delta_min = min(radius_floor, cfg.Delta0)
    iter_bound = (n_success * (1 + math.log(cfg.gamma3) / abs(math.log(cfg.gamma2)))
                  + abs(math.log(delta_min / cfg.Delta0)) / abs(math.log(cfg.gamma2)))
    checks["iteration_bound"] = CheckResult(
        n_iter <= iter_bound + 1e-9,
        f"{n_iter} iterations vs bound {iter_bound:.2f}")

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
        cfg.varsigma * stop_level(j, step_scale(cfg.eps[j - 1], cfg.omega), radius_floor)
        for j in range(1, q + 1))
    # exact orders request zeta = 0 by design; min_acc skips those requests
    min_req = result.eval_ledger.min_acc((1, 2, 3))
    checks["zeta_floor"] = CheckResult(
        min_req * _REL_SLACK >= zeta_floor,
        f"min requested zeta {min_req:.3e} vs floor {zeta_floor:.3e}")

    # (h) step-loop tightenings within the guaranteed cap, worked out once per
    # distinct entry accuracy of each order
    cap_bad = 0
    for j in range(1, q + 1):
        rows = trace.column("j") == j
        entry, which = np.unique(trace.column("zeta_max_step2_entry")[rows],
                                 return_inverse=True)
        level = stop_level(j, step_scale(cfg.eps[j - 1], cfg.omega), cfg.vartheta)
        caps = np.array([allowed_tightenings(z, level, cfg.gamma_zeta)
                         for z in entry.tolist()], dtype=np.int64)
        cap_bad += int(np.count_nonzero(trace.column("step2_tightens")[rows] > caps[which]))
    checks["step_tighten_cap"] = CheckResult(
        cap_bad == 0, f"{cap_bad} iterations exceeded the step tightening cap")

    # (i) objective accuracy contracts, from the replay above
    checks["f_accuracy_contract"] = CheckResult(
        acc_bad == 0,
        f"{acc_bad} iterations broke the objective accuracy contract "
        f"(worst overshoot {worst_gap:.3e})")

    # (j) step inside the trust region
    ratio = float(np.max(trace.column("step_norm") / deltas, initial=0.0))
    checks["step_within_radius"] = CheckResult(
        ratio <= 1.0 + 1e-12, f"max |s|/Delta {ratio:.15f}")

    # (k) termination soundness against the reference measure, certified at
    # every order and any n: closed form at j <= 2, branch and bound at j = 3,
    # all on one exact bundle (T_1, ..., T_q) at x_eps
    if check_termination and result.terminated:
        from .reference import max_decrement_reference, phi3_decide
        b = tuple(problem.exact_deriv(result.x_eps, i) for i in range(1, q + 1))
        ok = True
        details = []
        for j in range(1, q + 1):
            bound = cfg.eps[j - 1] * result.delta_eps**j / factorial(j)
            if j <= 2:
                phi = max_decrement_reference(b[:j], j, result.delta_eps)
                passed = phi <= bound * _REL_SLACK
                details.append(f"phi_{j}={phi:.3e}<={bound:.3e} certified" if passed
                               else f"phi_{j}={phi:.3e}>{bound:.3e}")
                ok = ok and passed
                continue
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
        gnorm = vector_norm(b[0])
        details.append(f"|grad|={gnorm:.3e}")
        if gnorm > cfg.eps[0] * _REL_SLACK:
            ok = False
        checks["termination_soundness"] = CheckResult(ok, ", ".join(details))

    return AuditReport(checks=checks, bounds=bc, lipschitz_orders=lipschitz)
