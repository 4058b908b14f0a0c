"""Metric catalogue shared by the runner, the worker and BENCHMARK.json.

End-to-end metrics come from an untraced run (``--trace 0``); per-module
metrics from a traced run (``--trace 1``).  Per-module names are
``<phase>.<module>.<function>[.o<order>].<stat>``: the phase is ``solve``
for work under ``run`` and ``audit`` for work under ``check_history``.
"""

from __future__ import annotations

# (name, unit, better, bound).  The bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.  On
# a shared 2-core machine the same code drifts by up to ~10% in wall time
# between runs minutes apart (CPU time drifts alike), hence the wide time
# bounds.  Counts are exact per seed; their bound covers the spread between
# seeds (up to 5% on order3).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("audit_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("iterations", "count", "lower", 0.2),
    ("evals_f", "count", "lower", 0.2),
    ("evals_deriv", "count", "lower", 0.2),
    ("i_zeta", "count", "lower", 0.2),
]

# (phase, span name, stats) for span-derived metrics.  ``calls`` counts
# entries, ``self_s`` sums each span's duration minus its children's.
SPAN_METRICS = [
    ("solve", "driver.run", ("self_s",)),
    ("solve", "oracle.eval_f", ("calls", "self_s")),
    ("solve", "oracle.eval_deriv", ("calls", "self_s")),
    ("solve", "oracle.eval_deriv.o1", ("calls",)),
    ("solve", "oracle.eval_deriv.o2", ("calls",)),
    ("solve", "oracle.eval_deriv.o3", ("calls",)),
    ("solve", "model.as_vector", ("calls",)),
    ("solve", "model.sym_tensor", ("calls",)),
    ("solve", "model.taylor_decrement", ("calls", "self_s")),
    ("solve", "model.model_gradient", ("calls", "self_s")),
    ("solve", "verify.verify", ("calls", "self_s")),
    ("solve", "optimality.max_decrement.o1", ("self_s",)),
    ("solve", "optimality.max_decrement.o2", ("self_s",)),
    ("solve", "optimality.max_decrement.o3", ("calls", "self_s")),
    ("solve", "optimality.certified_decrement", ("calls", "self_s")),
    ("solve", "optimality.termination_test", ("calls", "self_s")),
    ("solve", "step.compute_step", ("calls", "self_s")),
    ("solve", "problems.deriv", ("calls", "self_s")),
    ("solve", "problems.fun", ("calls", "self_s")),
    ("audit", "driver.check_history", ("self_s",)),
    ("audit", "driver.bounds_for_run", ("self_s",)),
    ("audit", "reference.lipschitz_estimate", ("calls", "self_s")),
    ("audit", "reference.phi_reference", ("calls", "self_s")),
    ("audit", "model.operator_norm", ("calls", "self_s")),
    ("audit", "model.as_vector", ("calls",)),
    ("audit", "model.sym_tensor", ("calls",)),
    ("audit", "model.taylor_decrement", ("calls", "self_s")),
    ("audit", "model.model_gradient", ("calls", "self_s")),
    ("audit", "problems.deriv", ("calls", "self_s")),
    ("audit", "problems.fun", ("calls", "self_s")),
]

# Metrics computed from timestamps, outcomes and ledgers rather than spans.
# ``cost_inverse_sum`` (sum of 1/acc over all oracle calls, the paper's cost
# argument) is exact per seed but is set by the few tightest requests, so it
# moves 35-75% between seeds on order3 and audit_corpus: too much for a bound.
DERIVED_METRICS = [
    ("solve.driver.iter_us.p50", "us", "lower"),
    ("solve.driver.retained_bytes_per_iter", "B", "lower"),
    ("solve.verify.relative_share", "ratio", "higher"),
    ("solve.verify.insufficient_share", "ratio", "lower"),
    ("solve.step.passthrough_share", "ratio", "higher"),
    ("solve.oracle.work_fraction", "ratio", "lower"),
    ("solve.oracle.cost_inverse_sum", "1/acc", "lower"),
    ("trace.solve_overhead", "ratio", "lower"),
]

_STAT_UNIT = {"calls": ("count", "lower"), "self_s": ("s", "lower")}


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-module metric as (name, unit, better), in report order."""
    rows = [(f"{phase}.{span}.{stat}", *_STAT_UNIT[stat])
            for phase, span, stats in SPAN_METRICS for stat in stats]
    return rows + DERIVED_METRICS
