"""dyntrust benchmark: time to a certified approximate minimizer and time to
audit it, on one workload, in fresh single-threaded processes.

    python3 perfbench/run.py --workload long_run --seed 0 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src`` next to this
directory, so nothing needs installing.  Each workload is a closed loop: one
caller runs one ``run`` after another, then ``check_history`` on each result,
and repeats that pass for ``--seconds`` (see ``workloads.py``).

``--trace 0`` prints every end-to-end metric: ``setup_s`` is the median of
several fresh processes that import the library (after numpy) and build the
workload's problems, oracles and configs; the rest come from one more process that
measures passes (times are medians over passes, counts are exact per seed).
``--trace 1`` prints every per-module metric from a separate traced process
(see ``spans.py``) together with its tracing overhead.  Both end with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

A case counts as failed when ``run`` raises or does not terminate, or when
its audit raises or is not ok.  Fingerprints (iterations, evaluation counts,
``i_zeta``, final iterate) that differ from ``fingerprints.json`` are
flagged, not failed.  Full results and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# Every process started here ends (or is killed and reaped) within this.
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def start_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # numpy's OpenBLAS is multi-threaded by default
    # set-up imports from cached bytecode, as an installed package does,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(args, deadline: float) -> tuple[dict, dict]:
    """The worker's full result, and the metrics to report with their units."""
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        res = start_worker(base + ["--trace", "1", "--spans", str(spans)], deadline)
        units = {name: unit for name, unit, _ in per_layer()}
        values = res["metrics"]
    else:
        probes = [start_worker(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = start_worker(base, deadline)
        res["setup_s_probes"] = probes
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = {"setup_s": statistics.median(probes), **res["metrics"]}
    return res, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dyntrust solve-and-audit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="shifts every oracle and config seed of the workload")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long to repeat solve-and-audit passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-module metrics from a traced run")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dyntrust" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        res, metrics = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), **res, "metrics": metrics}, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  passes {res['passes']}")
    for key, value in res.get("machine", {}).items():
        print(f"machine.{key:<14} {value}")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    if "eval_cost_inverse" in res:  # no bound: see metrics.DERIVED_METRICS
        print(f"{'eval_cost_inverse':<48} {res['eval_cost_inverse']:.6g} 1/acc")
    print(f"{'runs_attempted':<48} {res['attempted']} count")
    print(f"{'runs_failed':<48} {res['failed']} count")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    if "fingerprint_flags" in res:
        status = ("no recorded copy for this seed" if not res["fingerprints_recorded"]
                  else f"{len(res['fingerprint_flags'])} flagged")
        print(f"fingerprints: {status}")
        for flag in res["fingerprint_flags"]:
            print(f"FINGERPRINT {flag}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
