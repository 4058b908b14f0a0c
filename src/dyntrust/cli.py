"""Command-line front end.

Subcommands: ``run`` (single run, history and events CSVs + summary JSON),
``sweep`` (accuracy-grid study with fitted slope), ``audit`` (run + bound
audit), ``compare`` (dynamic vs fixed-accuracy cost).  Exit codes: 0 success,
2 configuration error, 3 iteration cap exhausted (for a sweep: too few
targets with a terminated run to fit a slope), 4 audit violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .driver import ConfigError, TrConfig, bounds_for_run, check_history
from .harness import (RunSpec, cost_savings_report, eps_scaling_study,
                      execute_run, parse_config_file, parse_eps_grid, seed_sweep,
                      summary_dict, write_summary_json, write_sweep_csv)
from .oracle import COST_MODELS, POLICIES
from .problems import list_problems

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_AUDIT = 4

# every TrConfig constant but the targets and the seed, which have flags of their own
_CFG_FLAGS = {f.name: int if isinstance(f.default, int) else float
              for f in dataclasses.fields(TrConfig) if f.name not in ("eps", "seed")}

_PROBLEM_FLAGS = {"dim": int, "cond": float, "terms": int, "lam": float}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--problem", default="quadratic",
                        help=f"one of {', '.join(list_problems())}")
    parser.add_argument("--q", type=int, default=None,
                        help="criticality order (default: length of --eps)")
    parser.add_argument("--eps", default="1e-3",
                        help="comma-separated per-order accuracy targets (default 1e-3)")
    parser.add_argument("--policy", default="adversarial", choices=POLICIES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--x0", default=None,
                        help="comma-separated start point (default: the problem's)")
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--tag", default=None)
    parser.add_argument("--config", default=None,
                        help="flat key=value file of flags; flags override it")
    for name, typ in {**_CFG_FLAGS, **_PROBLEM_FLAGS}.items():
        parser.add_argument(f"--{name.replace('_', '-').lower()}", dest=name, type=typ)


def _floats(text, flag: str) -> tuple:
    try:
        return tuple(float(t) for t in str(text).split(","))
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _given(args, names) -> dict:
    """The flags among ``names`` that were set, by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _spec_from_args(args) -> RunSpec:
    eps = _floats(args.eps, "--eps")
    if args.q is not None:
        if args.q < 1:  # a repeated --eps would hide the value given
            raise ConfigError(f"criticality order q={args.q} outside the supported 1..3")
        if len(eps) == 1:
            eps = eps * args.q
        elif len(eps) != args.q:
            raise ConfigError("--eps length must match --q")
    return RunSpec(problem=args.problem, problem_params=_given(args, _PROBLEM_FLAGS),
                   eps=eps, policy=args.policy, seed=args.seed,
                   cfg_overrides=_given(args, _CFG_FLAGS),
                   x0=_floats(args.x0, "--x0") if args.x0 else None,
                   out_dir=args.out_dir, tag=args.tag)


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    result, paths = execute_run(spec)
    bounds = bounds_for_run(result, result.acc.oracle.problem) if result.history else None
    write_summary_json(paths["summary"], summary_dict(result, bounds=bounds))
    print(f"terminated={result.terminated} iterations={result.n_iterations} "
          f"x_eps={[round(float(v), 6) for v in result.x_eps]} "
          f"n_f={result.eval_ledger.n_f} n_deriv={result.eval_ledger.n_deriv()}")
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return EXIT_OK if result.terminated else EXIT_CAP


def _cmd_audit(args) -> int:
    spec = _spec_from_args(args)
    result, paths = execute_run(spec)
    report = None
    if result.terminated:
        report = check_history(result, result.acc.oracle.problem)
        print(report.summary())
    else:
        print("run hit the iteration cap; audit skipped")
    write_summary_json(paths["summary"], summary_dict(result, audit=report))
    if report is None:
        return EXIT_CAP
    return EXIT_OK if report.ok else EXIT_AUDIT


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    grid = parse_eps_grid(args.eps_grid)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    out = spec.output_dir()
    seeds = tuple(range(spec.seed, spec.seed + args.seeds))
    if len(grid) == 1:
        # seed sweep at one fixed accuracy: rows only, no slope to fit
        res = None
        rows = seed_sweep(spec, grid[0], seeds)
        done = sum(r.terminated for r in rows)
        print(f"seed sweep: {done}/{len(rows)} terminated")
    else:
        res = eps_scaling_study(spec, grid, seeds=seeds)
        rows = res.rows
        if res.slope is None:
            done = len({r.eps for r in rows if r.terminated})
            print(f"{done}/{len({r.eps for r in rows})} accuracy targets have a "
                  "terminated run: too few to fit a slope")
        else:
            print(f"slope={res.slope:.3f} limit={res.slope_limit:.2f} "
                  f"{'PASS' if res.passed else 'FAIL'} rows={len(rows)} "
                  f"excluded={res.excluded}")
    stem = spec.tag or f"sweep_{spec.problem}_q{len(spec.eps)}"
    csv_path = out / f"{stem}.csv"
    write_sweep_csv(csv_path, rows)
    print(f"rows: {csv_path}")
    if res is None:
        return EXIT_OK if done else EXIT_CAP
    if res.slope is None:
        return EXIT_CAP
    summary_path = csv_path.with_suffix(".json")
    write_summary_json(summary_path, {
        "rows": [dataclasses.asdict(r) for r in rows], "slope": res.slope,
        "slope_limit": res.slope_limit, "passed": res.passed,
        "excluded_non_terminated": res.excluded})
    print(f"summary: {summary_path}")
    return EXIT_OK if res.passed else EXIT_AUDIT


def _cmd_compare(args) -> int:
    spec = _spec_from_args(args)
    report = cost_savings_report(spec, cost_model=args.cost_model)
    print(f"cost model: {report.cost_model}")
    print(f"dynamic   cost: f={report.dynamic_cost_f:.4g} "
          f"deriv={report.dynamic_cost_d:.4g} calls={report.dynamic_calls}")
    print(f"fixed-acc cost: f={report.fixed_cost_f:.4g} "
          f"deriv={report.fixed_cost_d:.4g} calls={report.fixed_calls}")
    print(f"dynamic/fixed ratio: {report.ratio:.4g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyntrust",
        description="Trust-region minimization with dynamically accurate evaluations")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        # flags are matched in full, so a misspelled config key is refused
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    command("run", _cmd_run, "single run; writes history and events CSVs + summary JSON")
    p_sweep = command("sweep", _cmd_sweep, "accuracy sweep with fitted slope")
    p_sweep.add_argument("--eps-grid", required=True,
                         help="e.g. '1e-1,3e-2,1e-2' or '1e-1..1e-4'")
    p_sweep.add_argument("--seeds", type=int, default=5)
    command("audit", _cmd_audit, "run, then check every bound")
    p_cmp = command("compare", _cmd_compare, "dynamic vs fixed-accuracy cost")
    p_cmp.add_argument("--cost-model", default="inverse", choices=sorted(COST_MODELS))
    return parser


def _with_config_file(argv: list) -> list:
    """``argv`` with each ``key = value`` line of its ``--config`` file as a
    ``--key=value`` flag right after the command, ahead of the command line's
    own flags, which therefore override the file's."""
    pre = argparse.ArgumentParser(prog="dyntrust", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    flags = [f"--{key.replace('_', '-').lower()}={value}"
             for key, value in parse_config_file(path).items()]
    if any(flag.startswith("--config=") for flag in flags):
        raise ConfigError(f"{path}: a config file cannot name another config file")
    return [*argv[:1], *flags, *argv[1:]]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config_file(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
