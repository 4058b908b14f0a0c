"""The four benchmark workloads: lists of solve-and-audit cases.

Each case is one ``run`` followed by one ``check_history``.  Case seeds are
offsets; the benchmark's ``--seed`` argument shifts every oracle and config
seed by the same amount, so seed 0 reproduces the ROADMAP baseline rows.
Problem data (for example the finite-sum terms) never depends on the seed.

Audits run with termination soundness on, except where the problem has more
than ``reference.MAX_REFERENCE_DIM`` (5) dimensions: there the brute-force
reference measure raises ``ValueError``, so ``check_termination=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Case:
    problem: str
    q: int
    eps: float
    policy: str
    seed: int
    params: dict = field(default_factory=dict)
    check_termination: bool = True

    def label(self, base_seed: int = 0) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params.items())
        return (f"{self.problem}({args}) q={self.q} eps={self.eps:g} "
                f"{self.policy} seed={base_seed + self.seed}")


def _cases(problem, q, eps, policies, seeds, **kw):
    return [Case(problem, q, eps, policy, seed, **kw)
            for policy in policies for seed in seeds]


# ~42k iterations of orders 1-2 at ~45 us each: per-call Python overhead in
# driver, oracle, model, verify and optimality; the order-3 solver never runs.
LONG_RUN = (_cases("rosenbrock", 1, 1e-3, ["adversarial"], range(3))
            + _cases("rosenbrock", 2, 1e-3, ["adversarial"], range(3)))

# ~120 iterations at q=3: solve time in the order-3 ball solver, audit time in
# order-3 Lipschitz estimates; the driver's own overhead is negligible.
ORDER3 = (_cases("quartic", 3, 1e-2, ["adversarial"], range(3), params={"dim": 3})
          + _cases("saddle_well", 3, 1e-3, ["adversarial"], range(2))
          + _cases("quartic", 3, 1e-2, ["adversarial"], [0], params={"dim": 10},
                   check_termination=False)
          + _cases("finite_sum_logistic", 3, 1e-3, ["subsample"], [0],
                   params={"dim": 4, "terms": 64}))

# 22 short runs from the acceptance corpus; auditing costs ~2.5x solving and
# goes to the reference measure and exact problem derivatives.
AUDIT_CORPUS = (
    _cases("quadratic", 1, 1e-3, ["adversarial", "gaussian", "truncate", "none"],
           range(2), params={"dim": 2, "cond": 10})
    + _cases("quadratic", 1, 1e-3, ["adversarial"], range(2), params={"dim": 4, "cond": 100})
    + _cases("rosenbrock", 1, 1e-2, ["adversarial"], range(2))
    + _cases("saddle_well", 2, 1e-3, ["adversarial", "gaussian"], range(2))
    + _cases("quartic", 2, 1e-2, ["adversarial"], range(2), params={"dim": 3})
    + _cases("finite_sum_logistic", 1, 1e-2, ["subsample", "truncate"], range(2),
             params={"dim": 3, "terms": 32}))

# One 46,766-iteration run at n=100: the only workload whose retained trace
# memory grows large (~7 KB/iteration) and whose numpy work is not trivial.
WIDE_N100 = _cases("quadratic", 1, 1e-4, ["adversarial"], [1],
                   params={"dim": 100, "cond": 1e4}, check_termination=False)

WORKLOADS = {
    "long_run": LONG_RUN,
    "order3": ORDER3,
    "audit_corpus": AUDIT_CORPUS,
    "wide_n100": WIDE_N100,
}
