"""The three-way accuracy certification and the tighten-until-certified loop.

A decrement computed from inexact derivatives is *relative*-certified when
the worst-case error budget over the search ball is small next to the
decrement itself, *absolute*-certified when the budget is small next to the
termination scale, and insufficient otherwise - in which case the optimizer
tightens all derivative accuracies by a fixed factor and re-evaluates.
"""

import numpy as np

from dyntrust import (AccuracyLedger, InexactOracle, TrConfig, certified_decrement,
                      make_problem, verify)

print("verify(delta, decrement, zetas, xi, omega):")
print("  large decrement  ->", verify(1.0, 1.0, (0.01,), 0.5, 0.1).value)
print("  zero decrement   ->", verify(1.0, 0.0, (0.0,), 0.5, 0.1).value)
print("  sloppy accuracy  ->", verify(1.0, 0.5, (1.0,), 0.5, 0.1).value)

# Far from stationarity the first evaluation usually certifies; at a
# minimizer the loop must tighten until the absolute test takes over.
problem = make_problem("quadratic", dim=2, cond=8)
oracle = InexactOracle(problem, policy="adversarial", seed=0)

for label, x in (("far from the minimizer", np.array([2.0, -1.0])),
                 ("at the minimizer", np.zeros(2))):
    # eps_1 = 1e-3, omega = 0.02, initial accuracy zeta0 = 0.1, tightened
    # by gamma_zeta = 0.1 per round; the ledger's config holds them all
    acc = AccuracyLedger(TrConfig.with_defaults((1e-3,), omega=0.02), oracle, x)
    cert = certified_decrement(1, 0.5, acc)
    print(f"\n{label}:")
    print(f"  outcome {cert.outcome.value}, decrement {cert.dT:.3e}, "
          f"tightenings {acc.i_zeta}, gradient calls {acc.ledger.n_deriv(1)}")
    print(f"  final accuracy bound {acc.zetas[0]:.1e}")
