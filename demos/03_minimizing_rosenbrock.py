"""A full dynamic-accuracy run on the Rosenbrock valley, audited afterwards.

Every evaluation the optimizer requests carries a self-chosen accuracy; the
oracle here answers adversarially, placing its error at 99% of each bound.
The audit replays the finished run against exact values and the closed-form
worst-case constants.
"""

import numpy as np

from dyntrust import InexactOracle, TrConfig, check_history, make_problem, run
from dyntrust.oracle import PHASES

problem = make_problem("rosenbrock")
oracle = InexactOracle(problem, policy="adversarial", seed=3)
cfg = TrConfig.with_defaults((1e-3, 1e-3))

result = run(oracle, cfg)
gnorm = np.linalg.norm(problem.exact_deriv(result.x_eps, 1))
print(f"terminated: {result.terminated} after {result.n_iterations} iterations "
      f"({result.n_success} successful)")
print(f"final point {np.round(result.x_eps, 6)}, exact gradient norm {gnorm:.2e}")
print(f"objective evaluations: {result.eval_ledger.n_f}, "
      f"derivative evaluations: {result.eval_ledger.n_deriv()}, "
      f"accuracy tightenings: {result.acc.i_zeta}")

print("\nfirst iterations (rows of the run's trace):")
print("  k   Delta     j  rho      accepted")
# the trace keeps each field as a typed column; the oracle log is an event
# table of the same kind, each call tagged with the phase that issued it
trace = result.history
first = zip(*(trace.column(name)[:8].tolist() for name in ("Delta", "j", "rho", "successful")))
for k, (Delta, j, rho, accepted) in enumerate(first):
    print(f"  {k:<3} {Delta:<9.3g} {j}  {rho:<8.3f} {accepted}")

steps = trace.column("step_norm") / trace.column("Delta")
print(f"\nmedian |s|/Delta over {len(steps)} iterations: {np.median(steps):.3f}")
print("evaluations by phase (objective, order 1, order 2, order 3):")
for phase, row in zip(PHASES, result.eval_ledger.counts_by_phase().tolist()):
    print(f"  {phase:<12} {row}")

print("\naudit against exact values and worst-case bounds:")
print(check_history(result, problem).summary())
