"""Run configuration, CSV/JSON reporting, and the study drivers.

The CSV schemas are fixed: the history has one row per iteration (columns
below, in order), the events file one row per oracle call.  Floats are
serialized with ``repr``, so reading a written file back reproduces it
exactly, and writing that again gives the same bytes.  Studies:
accuracy-target sweeps with a fitted log-log slope of evaluation counts,
and dynamic-versus-fixed-accuracy cost comparisons.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .driver import (AuditReport, ConfigError, RunResult, RunTrace, TrConfig, bounds_for_run,
                     lipschitz_f, run)
from .oracle import COST_MODELS, PHASES, EvalLedger, InexactOracle
from .problems import make_problem

OUTDIR_ENV = "DYNTRUST_OUTDIR"

# k, the trace's scalar fields in order, then the x and x_trial vectors
CSV_COLUMNS = ("k", *RunTrace.dtype.names, "x", "x_trial")
EVENT_CSV_COLUMNS = EvalLedger.dtype.names
_CSV_BLOCK = 256  # rows whose cells exist as Python objects at once


def _cells(column: np.ndarray) -> list:
    """The CSV cells of a column: bools as 0/1, numbers as Python ints and
    floats (written with ``repr``), each row of a (k, n) block ';'-joined."""
    if column.ndim == 2:
        return [";".join(map(repr, row)) for row in column.tolist()]
    return (column.astype(np.uint8) if column.dtype == bool else column).tolist()


def _write_csv(path, header, columns) -> None:
    """One CSV row per entry of the equal-length ``columns`` (arrays, or functions of rows)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            writer.writerows(zip(*(_cells(c(rows) if callable(c) else c[rows]) for c in columns)))


def _floats(text: str) -> np.ndarray:
    """A ';'-joined vector cell, each entry parsed as ``float`` parses it."""
    return np.array(text.split(";"), dtype=float)


def _read_csv(path, header, parsers):
    """The blocks of ``_CSV_BLOCK`` rows of a CSV with ``header``, as (index
    of the block's first row, its columns), each cell read by its column's
    parser; a cell it refuses is named by row (from 0) and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != header:
            raise ValueError("unexpected CSV schema")
        for start in itertools.count(0, _CSV_BLOCK):
            columns = [[] for _ in header]
            for i, row in enumerate(itertools.islice(reader, _CSV_BLOCK), start):
                if len(row) != len(header):
                    raise ValueError(f"row {i} has {len(row)} cells, expected {len(header)}")
                for name, parse, column, text in zip(header, parsers, columns, row):
                    try:
                        column.append(parse(text))
                    except ValueError:
                        raise ValueError(f"row {i}: unexpected {name} cell {text!r}") from None
            if not columns[0]:
                return
            yield start, columns


def write_history_csv(path, history: RunTrace) -> None:
    _write_csv(path, CSV_COLUMNS, [np.arange(len(history)),
                                   *map(history.column, RunTrace.dtype.names),
                                   history.starts, history.x_trial])


def read_history_csv(path) -> RunTrace:
    """The trace a history CSV holds; its start point is the first row's x.
    Each row's k must be its index and its x must follow from the rows
    before it.  The file is read, checked and added to the trace one block
    of rows at a time, so the read takes time linear in the rows."""
    parse = {"f": float, "i": int, "b": ("0", "1").index}
    parsers = [int, *(parse[RunTrace.dtype[f].kind] for f in RunTrace.dtype.names),
               _floats, _floats]
    trace = RunTrace(np.empty(0))  # a file of no rows
    for start, (k, *fields, x, x_trial) in _read_csv(path, CSV_COLUMNS, parsers):
        if start == 0:
            trace = RunTrace(np.array(x[0]))
        n = trace.x0.size
        for i, (u, v) in enumerate(zip(x, x_trial), start):
            if not len(u) == len(v) == n:
                raise ValueError(f"row {i}: x and x_trial must hold {n} entries each")
        trace.extend(np.rec.fromarrays(fields, dtype=RunTrace.dtype).tobytes(), x_trial)
        follows = trace.starts(slice(start, None))
        bad = (np.array(k) != np.arange(start, len(trace))) | (np.array(x) != follows).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"record {k[i]} at row {start + i} does not follow from "
                             "the rows before it")
    trace.x0.flags.writeable = False
    return trace


def write_events_csv(path, ledger: EvalLedger) -> None:
    """One row per oracle call: order (0 = objective), requested accuracy,
    work and the phase's name."""
    _write_csv(path, EVENT_CSV_COLUMNS, [*map(ledger.column, EVENT_CSV_COLUMNS[:3]),
                                         np.array(PHASES)[ledger.column("phase")]])


def read_events_csv(path) -> EvalLedger:
    parsers = [("0", "1", "2", "3").index, float, float, PHASES.index]
    rows = bytearray()
    for _, columns in _read_csv(path, EVENT_CSV_COLUMNS, parsers):
        rows += np.rec.fromarrays(columns, dtype=EvalLedger.dtype).tobytes()
    return EvalLedger(rows)


def summary_dict(result: RunResult, audit: AuditReport | None = None) -> dict:
    """The summary JSON of a run, with its audit if given.  Its bounds are
    the audit's, or else those :func:`bounds_for_run` works out."""
    ledger = result.eval_ledger
    step_tightens = int(result.history.column("step2_tightens").sum())
    out = {
        "problem": result.acc.oracle.problem.name,
        "terminated": result.terminated,
        "iterations": result.n_iterations,
        "successes": result.n_success,
        "x_eps": [float(v) for v in result.x_eps],
        "delta_eps": result.delta_eps,
        "i_zeta": result.acc.i_zeta,
        "n_f_evals": ledger.n_f,
        "n_deriv_evals": {i: ledger.n_deriv(i) for i in range(1, 4)},
        "deriv_rounds": ledger.deriv_rounds(),
        # calls per phase and order (0 = objective); a tightening happens in
        # the termination test or in the step loop
        "evals_by_phase": {phase: dict(enumerate(row))
                           for phase, row in zip(PHASES, ledger.counts_by_phase().tolist())},
        "tightenings_by_phase": {"termination": result.acc.i_zeta - step_tightens,
                                 "step": step_tightens},
        "config": dataclasses.asdict(result.cfg),
    }
    if audit is None:
        bc, lipschitz = bounds_for_run(result, result.acc.oracle.problem)
    else:
        bc, lipschitz = audit.bounds, audit.lipschitz_orders
        out["audit"] = {name: {"ok": c.ok, "detail": c.detail}
                        for name, c in audit.checks.items()}
        out["audit_ok"] = audit.ok
    out["bounds"] = dataclasses.asdict(bc)
    out["lipschitz_used"] = lipschitz_f(lipschitz)
    return out


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=float, allow_nan=False)
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

    def build_oracle(self) -> InexactOracle:
        """The named problem behind an oracle of the spec's policy and seed;
        a refusal of either is a :class:`ConfigError`."""
        try:
            problem = make_problem(self.problem, **self.problem_params)
            return InexactOracle(problem, policy=self.policy, seed=self.seed)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def build_config(self) -> TrConfig:
        return TrConfig.with_defaults(self.eps, seed=self.seed, **self.cfg_overrides)

    def output_dir(self) -> Path:
        path = Path(self.out_dir or os.environ.get(OUTDIR_ENV) or "runs")
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory: {exc}") from None
        return path

    def run_key(self) -> str:
        if self.tag:
            return self.tag
        eps_min = min(self.eps)
        return f"{self.problem}_q{len(self.eps)}_eps{eps_min:g}_{self.policy}_s{self.seed}"


def execute_run(spec: RunSpec, write: bool = True):
    """``(result, paths)``: build the config, the oracle and the run;
    optionally write the history and events CSVs.  ``paths`` names those
    files and the summary JSON, which the caller builds and writes.  The
    run's problem is ``result.acc.oracle.problem``."""
    cfg = spec.build_config()  # first: it names a bad seed before the oracle does
    oracle = spec.build_oracle()
    out = spec.output_dir() if write else None  # refused before the run, not after
    result = run(oracle, cfg, x0=spec.x0)
    paths = {}
    if write:
        key = spec.run_key()
        paths["history"] = out / f"{key}_history.csv"
        paths["events"] = out / f"{key}_events.csv"
        paths["summary"] = out / f"{key}_summary.json"
        write_history_csv(paths["history"], result.history)
        write_events_csv(paths["events"], result.eval_ledger)
    return result, paths


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
    slope: float | None  # None when fewer than two targets have a terminated run
    slope_limit: float
    excluded: int

    @property
    def passed(self) -> bool:
        return self.slope is not None and self.slope <= self.slope_limit


def eps_scaling_study(spec: RunSpec, eps_grid, seeds=(0, 1, 2, 3, 4)) -> SweepResult:
    """Total evaluations per accuracy target with a fitted log-log slope:
    the runs of :func:`seed_sweep` at each target of ``eps_grid``.

    The pass verdict compares the slope of log(total evaluations) against
    log(1/eps) with the worst-case exponent q + 1, q = ``len(spec.eps)``
    (plus a 0.25 margin); the bound is one-sided, so easy problems sit far
    below it.  With fewer than two targets that have a terminated run there
    is no slope: it is None, and the study does not pass.
    """
    eps_grid = sorted(set(float(e) for e in eps_grid), reverse=True)
    if len(eps_grid) < 4:
        raise ConfigError("an accuracy sweep needs at least 4 grid points")
    rows = []
    for eps in eps_grid:
        rows += seed_sweep(spec, eps, seeds)
    excluded = sum(not row.terminated for row in rows)
    by_eps = {}
    for row in rows:
        if row.terminated:
            by_eps.setdefault(row.eps, []).append(row.total_evals)
    slope = None
    if len(by_eps) >= 2:
        xs = np.log([1.0 / e for e in by_eps])
        ys = np.log([np.mean(v) for v in by_eps.values()])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepResult(rows=rows, slope=slope, slope_limit=len(spec.eps) + 1 + 0.25,
                       excluded=excluded)


SWEEP_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def write_sweep_csv(path, rows) -> None:
    """One summary row per run, merged in deterministic (eps, seed) order."""
    rows = sorted(rows, key=lambda r: (-r.eps, r.seed))
    _write_csv(path, SWEEP_CSV_COLUMNS,
               [np.array([getattr(r, name) for r in rows]) for name in SWEEP_CSV_COLUMNS])


def seed_sweep(spec: RunSpec, eps: float, seeds) -> list[SweepRow]:
    """One run of ``spec`` per seed, each with the accuracy target ``eps``
    at every order; no slope fit."""
    rows = []
    for seed in seeds:
        run_spec = dataclasses.replace(spec, eps=(eps,) * len(spec.eps), seed=seed)
        result, _ = execute_run(run_spec, write=False)
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
    charged at its per-call requested accuracies.  Informational only; an
    exact order (a zero ``zeta0`` entry) has no accuracy to charge and is refused.
    """
    cost = COST_MODELS[cost_model]
    if 0.0 in (zeta0 := spec.build_config().zeta0):
        raise ConfigError(f"compare needs every zeta0 entry positive, got {zeta0}: "
                          "an exact order has no accuracy to charge")
    dyn_result, _ = execute_run(spec, write=False)
    ledger = dyn_result.eval_ledger
    tight_f = ledger.min_acc((0,))
    tight_d = ledger.min_acc((1, 2, 3))
    if not math.isfinite(tight_d):
        tight_d = min(dyn_result.cfg.zeta0)
    if not math.isfinite(tight_f):
        tight_f = tight_d

    fixed_spec = dataclasses.replace(spec, policy="none",
                                     cfg_overrides={**spec.cfg_overrides, "zeta0": tight_d})
    fixed_result, _ = execute_run(fixed_spec, write=False)
    fl = fixed_result.eval_ledger

    return CompareReport(
        dynamic_cost_f=ledger.total_cost(cost, (0,)),
        dynamic_cost_d=ledger.total_cost(cost, (1, 2, 3)),
        fixed_cost_f=fl.n_f * cost(tight_f),
        fixed_cost_d=fl.n_deriv() * cost(tight_d),
        dynamic_calls=len(ledger),
        fixed_calls=len(fl),
        cost_model=cost_model)


# --------------------------------------------------------------------------
# flat key=value config files and grid parsing

def parse_config_file(path) -> dict:
    """One ``key = value`` per line; '#' comments; arrays comma-separated."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read the config file: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
