"""Tests of the benchmark itself: seeds, baselines, catalogue and tracing.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import spans
import worker
from dyntrust import driver
from workloads import WORKLOADS

BENCH = Path(worker.__file__).resolve().parent
ROOT = BENCH.parent


def _built(workload, problem, q, seed, **params):
    """(problem, oracle, config) of one case at the default workload seed."""
    cases = WORKLOADS[workload]
    for case, built in zip(cases, worker.build(cases, 0)):
        if ((case.problem, case.q, case.seed) == (problem, q, seed)
                and all(case.params.get(k) == v for k, v in params.items())):
            return built
    raise LookupError(problem)


# ROADMAP baseline rows (policy adversarial, seed 1, default TrConfig)

def test_default_seed_reproduces_rosenbrock_q2_row():
    _, oracle, cfg = _built("long_run", "rosenbrock", 2, 1)
    res = driver.run(oracle, cfg)
    assert (res.n_iterations, res.eval_ledger.n_f, res.acc.i_zeta) == (7072, 10553, 8)


def test_default_seed_reproduces_quartic_q3_row():
    _, oracle, cfg = _built("order3", "quartic", 3, 1, dim=3)
    assert driver.run(oracle, cfg).n_iterations == 13


def test_default_seed_reproduces_quadratic_n100_row():
    _, oracle, cfg = _built("wide_n100", "quadratic", 1, 1, dim=100)
    assert driver.run(oracle, cfg).n_iterations == 46766


def test_seed_shifts_every_oracle_and_config_seed():
    cases = WORKLOADS["audit_corpus"]
    for case, (_, oracle, cfg) in zip(cases, worker.build(cases, 5)):
        assert oracle.seed == cfg.seed == 5 + case.seed


def test_default_seed_matches_recorded_fingerprints():
    cases = WORKLOADS["order3"]
    got = [worker.fingerprint(driver.run(oracle, cfg))
           for _, oracle, cfg in worker.build(cases, 0)]
    assert got == worker.recorded_fingerprints("order3", 0)


def test_fingerprint_changes_are_flagged():
    cases = WORKLOADS["wide_n100"]
    fp = [46766, 70095, 46681, 0, 0, 5, "[0.0]"]
    other = fp[:6] + ["[1e-9]"]
    same = [{"fingerprints": [fp]}, {"fingerprints": [fp]}]
    assert worker.compare_fingerprints(cases, 0, same, [fp]) == []
    flags = worker.compare_fingerprints(cases, 0, same[:1] + [{"fingerprints": [other]}],
                                        [other])
    assert len(flags) == 2
    assert "between passes" in flags[0]
    assert flags[1].endswith("differs from the recorded copy in x_eps")


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.per_layer()


def test_failures_are_counted_not_fatal(monkeypatch):
    real_run = driver.run

    def flaky(oracle, cfg, sink=None):
        if oracle.seed == 0:
            raise RuntimeError("boom")
        return real_run(oracle, cfg, sink=sink)

    monkeypatch.setattr(driver, "run", flaky)
    out = worker.run_pass(WORKLOADS["order3"][:2], 0)
    assert len(out["failures"]) == 1
    assert "run raised RuntimeError('boom')" in out["failures"][0]
    recorded = worker.recorded_fingerprints("order3", 0)[:2]
    assert worker.compare_fingerprints(WORKLOADS["order3"][:2], 0, [out], recorded) == []


def test_tracer_nesting_and_self_time():
    t = spans.Tracer()
    a, b = t.name_id("a"), t.name_id("b")
    outer = t.enter(a)
    t.exit(t.enter(b))
    t.set_phase("audit")
    t.exit(t.enter(b))
    t.exit(outer)
    arr = t.arrays()
    assert arr["parent"].tolist() == [-1, 0, 0]
    assert arr["last"].tolist() == [2, 1, 2]
    assert arr["self"][0] == pytest.approx(arr["dur"][0] - arr["dur"][1:].sum())
    summary = t.summary()
    assert summary["solve.a.calls"] == summary["solve.b.calls"] == summary["audit.b.calls"] == 1


def test_traced_pass_counts_every_call_and_restores_bindings():
    modules = [m for n, m in sys.modules.items() if n.startswith("dyntrust")]
    before = [dict(vars(m)) for m in modules]
    cases = WORKLOADS["order3"][:1]
    plain = worker.run_pass(cases, 0)
    step, optimality = sys.modules["dyntrust.step"], sys.modules["dyntrust.optimality"]
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        # names bound in more than one module are wrapped in each of them
        assert step.verify is optimality.verify is not before[modules.index(step)]["verify"]
        assert step.max_decrement is optimality.max_decrement
        traced = worker.run_pass(cases, 0, tracer=tracer)
    assert [dict(vars(m)) for m in modules] == before
    assert traced["fingerprints"] == plain["fingerprints"]
    assert not traced["failures"]

    s = tracer.summary()
    n_iter, n_f, n_d1, n_d2, n_d3 = plain["fingerprints"][0][:5]
    assert s["solve.oracle.eval_f.calls"] == n_f
    assert [s[f"solve.oracle.eval_deriv.o{j}.calls"] for j in (1, 2, 3)] == [n_d1, n_d2, n_d3]
    assert s["solve.oracle.eval_deriv.calls"] == n_d1 + n_d2 + n_d3
    assert s["solve.step.compute_step.calls"] == n_iter
    assert s["solve.verify.verify.calls"] >= s["solve.optimality.certified_decrement.calls"]
    assert s["solve.optimality.max_decrement.o3.calls"] > 0
    assert s["audit.reference.phi_reference.calls"] > 0
    assert s["audit.driver.check_history.calls"] == 1


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "order3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
