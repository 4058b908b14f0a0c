"""Run configuration, CSV/JSON reporting, and the study drivers.

The CSV schema is fixed (one row per iteration, columns below, in order);
floats are serialized with ``repr`` so parsing a written history reproduces
it exactly.  Studies: accuracy-target sweeps with a fitted log-log slope of
evaluation counts, and dynamic-versus-fixed-accuracy cost comparisons.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .driver import (AuditReport, ConfigError, IterationRecord, RunResult,
                     TrConfig, bounds_for_run, run)
from .oracle import COST_MODELS, InexactOracle, Problem
from .problems import make_problem

OUTDIR_ENV = "DYNTRUST_OUTDIR"

# One column per IterationRecord field, in field order; the field's declared
# type ("int", "bool", "float" or "Vector") says how a cell is written and read.
# NamedTuple keeps each string annotation as a ForwardRef.
CSV_COLUMNS = IterationRecord._fields
_COLUMN_TYPES = {c: IterationRecord.__annotations__[c].__forward_arg__ for c in CSV_COLUMNS}


def _fmt(col: str, value) -> str:
    kind = _COLUMN_TYPES[col]
    if kind == "Vector":
        return ";".join(repr(float(v)) for v in value)
    if kind == "bool":
        return "1" if value else "0"
    if kind == "int":
        return str(int(value))
    return repr(float(value))


def _parse(col: str, text: str):
    kind = _COLUMN_TYPES[col]
    if kind == "Vector":
        v = np.array([float(t) for t in text.split(";")])
        v.flags.writeable = False
        return v
    if kind == "bool":
        return text == "1"
    if kind == "int":
        return int(text)
    return float(text)


def write_history_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in history:
            writer.writerow([_fmt(c, getattr(rec, c)) for c in CSV_COLUMNS])


def read_history_csv(path) -> list[IterationRecord]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError("unexpected CSV schema")
        for row in reader:
            kwargs = {c: _parse(c, t) for c, t in zip(CSV_COLUMNS, row)}
            out.append(IterationRecord(**kwargs))
    return out


def summary_dict(result: RunResult, audit: AuditReport | None = None,
                 bounds=None, lipschitz: float | None = None) -> dict:
    ledger = result.eval_ledger
    out = {
        "problem": result.problem_name,
        "terminated": result.terminated,
        "iterations": result.n_iterations,
        "successes": result.n_success,
        "x_eps": [float(v) for v in result.x_eps],
        "delta_eps": result.delta_eps,
        "i_zeta": result.acc.i_zeta,
        "n_f_evals": ledger.n_f,
        "n_deriv_evals": {i: ledger.n_deriv(i) for i in range(1, 4)},
        "deriv_rounds": ledger.deriv_rounds(),
        "config": dataclasses.asdict(result.cfg),
    }
    if audit is not None:
        bounds = audit.bounds
        lipschitz = audit.lipschitz_used
        out["audit"] = {name: {"ok": c.ok, "detail": c.detail}
                        for name, c in audit.checks.items()}
        out["audit_ok"] = audit.ok
    if bounds is not None:
        out["bounds"] = dataclasses.asdict(bounds)
        out["lipschitz_used"] = lipschitz
    return out


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
        fh.write("\n")


# --------------------------------------------------------------------------
# run specification

@dataclass
class RunSpec:
    """Everything one run (or study) needs, validated before execution."""

    problem: str = "quadratic"
    problem_params: dict = field(default_factory=dict)
    eps: tuple = (1e-3,)
    policy: str = "adversarial"
    seed: int = 0
    cfg_overrides: dict = field(default_factory=dict)
    x0: tuple | None = None
    out_dir: str | None = None
    tag: str | None = None

    def build_problem(self) -> Problem:
        try:
            return make_problem(self.problem, **self.problem_params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def build_config(self) -> TrConfig:
        return TrConfig.with_defaults(self.eps, seed=self.seed, **self.cfg_overrides)

    def output_dir(self) -> Path:
        base = self.out_dir or os.environ.get(OUTDIR_ENV) or "runs"
        path = Path(base)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def run_key(self) -> str:
        if self.tag:
            return self.tag
        eps_min = min(self.eps)
        return f"{self.problem}_q{len(self.eps)}_eps{eps_min:g}_{self.policy}_s{self.seed}"


def execute_run(spec: RunSpec, write: bool = True, with_bounds: bool = False):
    """Build, run, optionally write history CSV + summary JSON."""
    problem = spec.build_problem()
    cfg = spec.build_config()
    oracle = InexactOracle(problem, policy=spec.policy, seed=spec.seed)
    result = run(oracle, cfg, x0=spec.x0)
    paths = {}
    if write:
        out = spec.output_dir()
        key = spec.run_key()
        paths["history"] = out / f"{key}_history.csv"
        paths["summary"] = out / f"{key}_summary.json"
        write_history_csv(paths["history"], result.history)
        bounds = lipschitz = None
        if with_bounds and result.history:
            bounds, lipschitz = bounds_for_run(result, problem)
        write_summary_json(paths["summary"],
                           summary_dict(result, bounds=bounds, lipschitz=lipschitz))
    return result, problem, cfg, paths


# --------------------------------------------------------------------------
# studies

@dataclass
class SweepRow:
    eps: float
    seed: int
    terminated: bool
    iterations: int
    n_f: int
    n_deriv: int
    total_evals: int


@dataclass
class SweepResult:
    rows: list
    slope: float
    slope_limit: float
    excluded: int

    @property
    def passed(self) -> bool:
        return self.slope <= self.slope_limit


def eps_scaling_study(problem_name: str, q: int, eps_grid, policy: str = "adversarial",
                      seeds=(0, 1, 2, 3, 4), problem_params: dict | None = None,
                      cfg_overrides: dict | None = None) -> SweepResult:
    """Total evaluations per accuracy target with a fitted log-log slope.

    The pass verdict compares the slope of log(total evaluations) against
    log(1/eps) with the worst-case exponent q + 1 (plus a 0.25 margin); the
    bound is one-sided, so easy problems sit far below it.
    """
    eps_grid = sorted(set(float(e) for e in eps_grid), reverse=True)
    if len(eps_grid) < 4:
        raise ConfigError("an accuracy sweep needs at least 4 grid points")
    rows = []
    for eps in eps_grid:
        rows += seed_sweep(problem_name, q, eps, policy, seeds, problem_params,
                           cfg_overrides)
    excluded = sum(not row.terminated for row in rows)
    by_eps = {}
    for row in rows:
        if row.terminated:
            by_eps.setdefault(row.eps, []).append(row.total_evals)
    if len(by_eps) < 2:
        raise ConfigError("not enough terminated runs to fit a slope")
    xs = np.log([1.0 / e for e in by_eps])
    ys = np.log([np.mean(v) for v in by_eps.values()])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepResult(rows=rows, slope=slope, slope_limit=q + 1 + 0.25,
                       excluded=excluded)


def sweep_rows_table(res: SweepResult) -> list[dict]:
    return [dataclasses.asdict(r) for r in res.rows]


SWEEP_CSV_COLUMNS = ("eps", "seed", "terminated", "iterations", "n_f",
                     "n_deriv", "total_evals")


def write_sweep_csv(path, rows) -> None:
    """One summary row per run, merged in deterministic (eps, seed) order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for row in sorted(rows, key=lambda r: (-r.eps, r.seed)):
            writer.writerow([repr(row.eps), row.seed, int(row.terminated),
                             row.iterations, row.n_f, row.n_deriv, row.total_evals])


def seed_sweep(problem_name: str, q: int, eps: float, policy: str, seeds,
               problem_params: dict | None = None,
               cfg_overrides: dict | None = None) -> list[SweepRow]:
    """Fixed accuracy target, one run per seed; no slope fit."""
    rows = []
    for seed in seeds:
        spec = RunSpec(problem=problem_name, problem_params=problem_params or {},
                       eps=(eps,) * q, policy=policy, seed=seed,
                       cfg_overrides=dict(cfg_overrides or {}))
        result, _, _, _ = execute_run(spec, write=False)
        n_f = result.eval_ledger.n_f
        n_d = result.eval_ledger.n_deriv()
        rows.append(SweepRow(eps=eps, seed=seed, terminated=result.terminated,
                             iterations=result.n_iterations, n_f=n_f, n_deriv=n_d,
                             total_evals=n_f + n_d))
    return rows


@dataclass
class CompareReport:
    dynamic_cost_f: float
    dynamic_cost_d: float
    fixed_cost_f: float
    fixed_cost_d: float
    dynamic_calls: int
    fixed_calls: int
    cost_model: str

    @property
    def ratio(self) -> float:
        dyn = self.dynamic_cost_f + self.dynamic_cost_d
        fixed = self.fixed_cost_f + self.fixed_cost_d
        return dyn / fixed if fixed > 0 else math.nan


def cost_savings_report(spec: RunSpec, cost_model: str = "inverse") -> CompareReport:
    """Dynamic-accuracy run versus the fixed-accuracy convention.

    The comparison run uses the zero-noise policy with the initial accuracy
    already at the tightest level the dynamic run ever requested, and its
    cost is charged at that fixed accuracy per call; the dynamic run is
    charged at its per-call requested accuracies.  Informational only.
    """
    cost = COST_MODELS[cost_model]
    dyn_result, _, _, _ = execute_run(spec, write=False)
    ledger = dyn_result.eval_ledger
    tight_f = ledger.min_acc("f")
    tight_d = ledger.min_acc("deriv")
    if not math.isfinite(tight_d):
        tight_d = min(dyn_result.cfg.zeta0)
    if not math.isfinite(tight_f):
        tight_f = tight_d

    fixed_overrides = dict(spec.cfg_overrides)
    fixed_overrides["zeta0"] = min(tight_d, TrConfig.with_defaults(
        spec.eps, **spec.cfg_overrides).kappa_zeta)
    fixed_spec = dataclasses.replace(spec, policy="none", cfg_overrides=fixed_overrides)
    fixed_result, _, _, _ = execute_run(fixed_spec, write=False)
    fl = fixed_result.eval_ledger

    return CompareReport(
        dynamic_cost_f=ledger.total_cost(cost, "f"),
        dynamic_cost_d=ledger.total_cost(cost, "deriv"),
        fixed_cost_f=fl.n_f * cost(tight_f),
        fixed_cost_d=fl.n_deriv() * cost(tight_d),
        dynamic_calls=len(ledger),
        fixed_calls=len(fl),
        cost_model=cost_model)


# --------------------------------------------------------------------------
# flat key=value config files and grid parsing

def parse_config_file(path) -> dict:
    """One ``key = value`` per line; '#' comments; arrays comma-separated."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def parse_number(text, cast, key: str):
    """``cast(text)``; a value it cannot parse raises :class:`ConfigError`
    naming ``key``."""
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"{key} expects {'an integer' if cast is int else 'a number'}, "
                          f"got {text!r}") from None


def _grid_entry(text: str) -> float:
    """One positive, finite ``--eps-grid`` value."""
    v = parse_number(text, float, "--eps-grid")
    if not 0 < v < math.inf:
        raise ConfigError(f"--eps-grid entries must be positive and finite, got {text!r}")
    return v


def parse_eps_grid(text: str) -> list[float]:
    """Grids come as comma lists ('1e-1,3e-2,...') or decade ranges
    ('1e-1..1e-4', optionally ':N' for N log-spaced points)."""
    text = text.strip()
    if ".." in text:
        span, _, count = text.partition(":")
        lo_s, _, hi_s = span.partition("..")
        a, b = _grid_entry(lo_s), _grid_entry(hi_s)
        if count:
            n = parse_number(count, int, "--eps-grid point count")
        else:
            n = int(round(abs(math.log10(a / b)))) + 1
        if n < 2:
            raise ConfigError("grid range needs at least 2 points")
        return list(np.geomspace(a, b, n))
    return [_grid_entry(t) for t in text.split(",") if t.strip()]
