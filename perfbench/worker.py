"""Run one benchmark workload in this process and print one JSON line.

Started by ``run.py`` in a fresh process with BLAS pinned to one thread.
Modes:

* ``--setup-only``: import the library (numpy already imported), build
  every case's problem, oracle and config, and report how long that took;
* default: repeat solve-and-audit passes for ``--seconds`` and report
  end-to-end metrics (medians over passes) and behaviour fingerprints;
* ``--trace``: alternate untraced and traced passes for ``--seconds``, then
  one tracemalloc pass, and report per-module metrics;
* ``--record N``: rewrite ``fingerprints.json`` for seeds 0..N-1 of every
  workload.

A pass builds fresh oracles (their RNG state is part of the input), runs
every case, then audits every result.  A case fails when ``run`` raises or
does not terminate, or when ``check_history`` raises or is not ok.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from metrics import DERIVED_METRICS, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FINGERPRINTS = HERE / "fingerprints.json"
LAYER_NAMES = [name for name, _, _ in per_layer()]
# Iterations per case in the tracemalloc pass: retention per iteration is
# flat, and tracing every allocation of a 46k-iteration n=100 run would cost
# more memory than the run itself.
RETAIN_ITERATIONS = 2000


def build(cases, base_seed: int):
    """(problem, oracle, config) per case; the seed shifts oracle and config."""
    from dyntrust.driver import TrConfig
    from dyntrust.oracle import InexactOracle
    from dyntrust.problems import make_problem

    built = []
    for c in cases:
        seed = base_seed + c.seed
        problem = make_problem(c.problem, **c.params)
        built.append((problem, InexactOracle(problem, c.policy, seed=seed),
                      TrConfig.with_defaults((c.eps,) * c.q, seed=seed)))
    return built


FINGERPRINT_FIELDS = ("iterations", "n_f", "n_d1", "n_d2", "n_d3", "i_zeta", "x_eps")


def fingerprint(result) -> list:
    led = result.eval_ledger
    return [result.n_iterations, led.n_f, led.n_deriv(1), led.n_deriv(2),
            led.n_deriv(3), result.acc.i_zeta,
            repr([float(v) for v in result.x_eps])]


def run_pass(cases, base_seed: int, tracer=None, stamps=None) -> dict:
    """Solve every case, then audit every result; times and counts."""
    from dyntrust import driver
    from dyntrust.oracle import cost_inverse

    built = build(cases, base_seed)
    results, failures = [], []
    solve_s = 0.0
    if tracer is not None:
        tracer.set_phase("solve")
    for case, (problem, oracle, cfg) in zip(cases, built):
        sink = None
        if stamps is not None:
            stamps.append(perf_counter())
            sink = lambda rec: stamps.append(perf_counter())  # noqa: E731
        t0 = perf_counter()
        try:
            results.append(driver.run(oracle, cfg, sink=sink))
        except Exception as exc:  # a failed case is counted, not fatal
            results.append(exc)
        solve_s += perf_counter() - t0
        if stamps is not None:
            stamps.append(None)

    audit_s = 0.0
    if tracer is not None:
        tracer.set_phase("audit")
    for case, (problem, _, _), res in zip(cases, built, results):
        label = case.label(base_seed)
        if isinstance(res, Exception):
            failures.append(f"{label}: run raised {res!r}")
            continue
        if not res.terminated:
            failures.append(f"{label}: did not terminate")
        t0 = perf_counter()
        try:
            report = driver.check_history(res, problem,
                                          check_termination=case.check_termination)
        except Exception as exc:  # a failed audit is counted, not fatal
            failures.append(f"{label}: audit raised {exc!r}")
            continue
        finally:
            audit_s += perf_counter() - t0
        if not report.ok:
            failures.append(f"{label}: audit failed: {report.violations}")

    done = [r for r in results if not isinstance(r, Exception)]
    entries = [e for r in done for e in r.eval_ledger.entries]
    return {
        "solve_s": solve_s,
        "audit_s": audit_s,
        "iterations": sum(r.n_iterations for r in done),
        "evals_f": sum(r.eval_ledger.n_f for r in done),
        "evals_deriv": sum(r.eval_ledger.n_deriv() for r in done),
        "i_zeta": sum(r.acc.i_zeta for r in done),
        "eval_cost_inverse": sum(r.eval_ledger.total_cost(cost_inverse) for r in done),
        "work_fraction": statistics.fmean(e.work for e in entries) if entries else 1.0,
        "fingerprints": [fingerprint(r) if not isinstance(r, Exception) else None
                         for r in results],
        "failures": failures,
    }


def iteration_us(stamps) -> list[float]:
    """Per-iteration wall times from sink timestamps; ``None`` ends a run."""
    out, prev = [], None
    for t in stamps:
        if t is not None and prev is not None:
            out.append((t - prev) * 1e6)
        prev = t
    return out


def retained_bytes_per_iter(cases, base_seed: int) -> float:
    """Bytes a finished run keeps alive per iteration, under tracemalloc."""
    from dyntrust import driver

    total_bytes = total_iters = 0
    tracemalloc.start()
    try:
        for _, oracle, cfg in build(cases, base_seed):
            cfg = dataclasses.replace(
                cfg, max_iterations=min(cfg.max_iterations, RETAIN_ITERATIONS))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            result = driver.run(oracle, cfg)
            gc.collect()
            total_bytes += tracemalloc.get_traced_memory()[0] - before
            total_iters += result.n_iterations
            del result
    finally:
        tracemalloc.stop()
    return total_bytes / max(total_iters, 1)


def recorded_fingerprints(workload: str, base_seed: int):
    if not FINGERPRINTS.exists():
        return None
    return json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(base_seed))


def compare_fingerprints(cases, base_seed, passes, recorded) -> list[str]:
    """Flags for cases whose fingerprint differs from the recorded copy or
    between passes of this run."""
    flags = []
    first = passes[0]["fingerprints"]
    for i, case in enumerate(cases):
        label = case.label(base_seed)
        if any(p["fingerprints"][i] != first[i] for p in passes[1:]):
            flags.append(f"{label}: fingerprint differs between passes")
        if first[i] is None:  # the run raised; counted as a failure instead
            continue
        if recorded is not None and recorded[i] != first[i]:
            fields = [f for f, a, b in zip(FINGERPRINT_FIELDS, first[i], recorded[i]) if a != b]
            flags.append(f"{label}: fingerprint differs from the recorded copy in "
                         f"{', '.join(fields)}")
    return flags


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "note": "timings on a small shared machine are noisy",
    }


def measure(workload: str, base_seed: int, seconds: float) -> dict:
    """Untraced passes for ``seconds``: end-to-end medians over passes."""
    cases = WORKLOADS[workload]
    passes = []
    t_end = perf_counter() + seconds
    while not passes or perf_counter() < t_end:
        passes.append(run_pass(cases, base_seed))
    med = {k: statistics.median(p[k] for p in passes) for k in ("solve_s", "audit_s")}
    last = passes[-1]
    metrics = {**med, **{k: last[k] for k in ("iterations", "evals_f", "evals_deriv",
                                              "i_zeta")}}
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recorded = recorded_fingerprints(workload, base_seed)
    return {
        "metrics": metrics,
        "passes": len(passes),
        "attempted": len(cases) * len(passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "failures": sorted({f for p in passes for f in p["failures"]}),
        "fingerprint_flags": compare_fingerprints(cases, base_seed, passes, recorded),
        "fingerprints_recorded": recorded is not None,
        "fingerprints": last["fingerprints"],
        "eval_cost_inverse": last["eval_cost_inverse"],
        "solve_s_passes": [p["solve_s"] for p in passes],
        "audit_s_passes": [p["audit_s"] for p in passes],
    }


def measure_traced(workload: str, base_seed: int, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes for ``seconds``: per-module
    metrics (medians over traced passes) and the tracing overhead."""
    from spans import Tracer, instrumented

    cases = WORKLOADS[workload]
    plain, traced, iter_us = [], [], []
    failed = attempted = 0
    tracer = None
    t_end = perf_counter() + seconds
    while not traced or perf_counter() < t_end:
        stamps = []
        p = run_pass(cases, base_seed, stamps=stamps)
        iter_us.extend(iteration_us(stamps))
        plain.append(p)
        tracer = Tracer()
        with instrumented(tracer):
            t = run_pass(cases, base_seed, tracer=tracer)
        t.update(tracer.summary())
        traced.append(t)
        for q in (p, t):
            attempted += len(cases)
            failed += len(q["failures"])
    tracer.save(spans_path)

    def med(key):  # a measured value, so counts stay whole
        return statistics.median_low(t.get(key, 0) for t in traced)

    derived = {name for name, _, _ in DERIVED_METRICS}
    metrics = {name: med(name) for name in LAYER_NAMES if name not in derived}
    metrics["solve.step.passthrough_share"] = med("solve.step.passthrough_share")
    n_verify = med("solve.verify.verify.calls")
    for outcome in ("relative", "insufficient"):
        share = med(f"solve.verify.outcome.{outcome}.calls") / n_verify if n_verify else 0.0
        metrics[f"solve.verify.{outcome}_share"] = share
    metrics["solve.oracle.work_fraction"] = traced[-1]["work_fraction"]
    metrics["solve.oracle.cost_inverse_sum"] = traced[-1]["eval_cost_inverse"]
    metrics["solve.driver.iter_us.p50"] = statistics.median(iter_us)
    metrics["trace.solve_overhead"] = (statistics.median(t["solve_s"] for t in traced)
                                       / statistics.median(p["solve_s"] for p in plain))
    metrics["solve.driver.retained_bytes_per_iter"] = retained_bytes_per_iter(cases, base_seed)
    return {
        "metrics": {name: metrics[name] for name in LAYER_NAMES},
        "passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for q in plain + traced for f in q["failures"]}),
        "spans": len(tracer.name),
        "spans_path": str(spans_path),
    }


def record(n_seeds: int) -> None:
    from dyntrust import driver

    table = {}
    for name, cases in WORKLOADS.items():
        table[name] = {}
        for seed in range(n_seeds):
            table[name][str(seed)] = [fingerprint(driver.run(oracle, cfg))
                                      for _, oracle, cfg in build(cases, seed)]
            print(f"recorded {name} seed {seed}", file=sys.stderr, flush=True)
    # one case per line, so a changed fingerprint is a one-line diff
    blocks = []
    for name, seeds in table.items():
        rows = [f' "{seed}": [\n' + ",\n".join(f"  {json.dumps(fp)}" for fp in fps) + "]"
                for seed, fps in seeds.items()]
        blocks.append(f'"{name}": {{\n' + ",\n".join(rows) + "}")
    FINGERPRINTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    ap.add_argument("--record", type=int, metavar="N",
                    help="rewrite fingerprints.json for seeds 0..N-1")
    args = ap.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        # numpy's own import is a fixed cost no change to dyntrust can move,
        # and the noisiest part of a process start on a shared machine
        import numpy  # noqa: F401

        t0 = perf_counter()
        build(WORKLOADS[args.workload], args.seed)
        out = {"setup_s": perf_counter() - t0}
    elif args.trace:
        out = measure_traced(args.workload, args.seed, args.seconds, args.spans)
    else:
        out = measure(args.workload, args.seed, args.seconds)
        out["machine"] = machine_record()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
