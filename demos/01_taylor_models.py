"""Derivative tensors, Taylor-model decrements, and certified error budgets.

The whole optimizer is built on one quantity: the decrement of a degree-j
polynomial model between the center and a displacement.  A bundle is the
tuple (T_1, ..., T_j) of derivative arrays; this script builds a small one
by hand, evaluates decrements, and shows that perturbing the tensors within
certified bounds moves the decrement by no more than the closed-form budget.
"""

import numpy as np

from dyntrust import make_bundle, sym_tensor, taylor_decrement, taylor_value
from dyntrust.verify import error_budget

# f(x) = x^2 around x = 1: gradient 2, second derivative 2
bundle = make_bundle([[2.0], [[2.0]]])
s = np.array([-1.0])

print("decrement of the quadratic model at s = -1:", taylor_decrement(bundle, s, 2))
print("model value with f0 = 1:", taylor_value(bundle, 1.0, s, 2))

# now a random 3-D cubic model with perturbed tensors
rng = np.random.default_rng(0)
n = 3
tensors = [sym_tensor(rng.standard_normal((n,) * i)) for i in (1, 2, 3)]
exact = make_bundle(tensors)

zetas = (1e-2, 1e-3, 1e-4)
noisy = []
for zeta, t in zip(zetas, tensors):
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    bump = u.copy()
    for _ in range(t.ndim - 1):
        bump = np.multiply.outer(bump, u)
    noisy.append(t + 0.99 * zeta * bump)
noisy = make_bundle(noisy)

print("\nstep_norm   |decrement gap|   certified budget")
for scale in (0.1, 0.5, 1.0, 2.0):
    step = scale * rng.standard_normal(n)
    step /= np.linalg.norm(step) / scale
    gap = abs(taylor_decrement(noisy, step, 3) - taylor_decrement(exact, step, 3))
    budget = error_budget(float(np.linalg.norm(step)), zetas)
    print(f"{scale:8.2f}   {gap:14.3e}   {budget:15.3e}")
