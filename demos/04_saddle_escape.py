"""Second-order optimality: escaping a saddle that first-order steps cannot see.

Starting almost exactly on the saddle of x^2 - y^2 + y^4/2, the gradient is
tiny, so any first-order criterion would stop immediately.  With a
criticality order of two the termination test also demands that no
second-order model decrease remains, which forces the optimizer to ride the
negative-curvature direction down into one of the wells at (0, +-1).
"""

import numpy as np

from dyntrust import InexactOracle, TrConfig, make_problem, phi_reference, run

problem = make_problem("saddle_well")
x0 = np.array([1e-3, 1e-4])

g0 = np.linalg.norm(problem.exact_deriv(x0, 1))
print(f"start {x0}, gradient norm {g0:.1e} (already first-order flat)")

oracle = InexactOracle(problem, policy="adversarial", seed=0)
result = run(oracle, TrConfig.with_defaults((1e-3, 1e-3)), x0=x0)

print(f"terminated after {result.n_iterations} iterations at {np.round(result.x_eps, 6)}")
print(f"objective: {problem.exact_f(result.x_eps):.6f} (wells sit at -0.5)")

for j in (1, 2):
    phi = phi_reference(problem, result.x_eps, j, result.delta_eps)
    bound = result.cfg.eps[j - 1] * result.delta_eps**j / (1 if j == 1 else 2)
    print(f"order-{j} measure at the final point: {phi:.3e} "
          f"(termination requires <= {bound:.3e})")
