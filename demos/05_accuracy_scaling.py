"""Evaluation counts versus the accuracy target.

The worst-case theory says total evaluations grow no faster than
eps^-(q+1); on benign problems the measured log-log slope sits far below
that exponent.  This script sweeps the accuracy grid used by the acceptance
suite and prints the per-target averages with the fitted slope.
"""

from dyntrust import RunSpec, eps_scaling_study

GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)

for name, q in (("rosenbrock", 1), ("saddle_well", 2)):
    spec = RunSpec(problem=name, eps=(GRID[0],) * q, policy="adversarial")
    res = eps_scaling_study(spec, GRID, seeds=(0, 1, 2))
    print(f"\n{name} (order {q}), adversarial oracle:")
    print("  eps       mean total evaluations")
    by_eps = {}
    for row in res.rows:
        by_eps.setdefault(row.eps, []).append(row.total_evals)
    for eps in sorted(by_eps, reverse=True):
        vals = by_eps[eps]
        print(f"  {eps:<9g} {sum(vals) / len(vals):10.1f}")
    print(f"  fitted slope {res.slope:.2f} vs worst-case exponent {q + 1} "
          f"({'PASS' if res.passed else 'FAIL'} at limit {res.slope_limit})")
