from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyntrust.model import make_bundle, sym_tensor
from dyntrust.verify import VerifyOutcome, error_budget, verify

from checkers import check_verify_guarantees


def test_relative_example():
    assert verify(1.0, 1.0, (0.01,), 0.5, 0.1) is VerifyOutcome.RELATIVE


def test_zero_decrement_zero_zeta_is_absolute():
    assert verify(1.0, 0.0, (0.0,), 0.5, 0.1) is VerifyOutcome.ABSOLUTE
    assert verify(0.3, 0.0, (0.0, 0.0), 2.0, 0.9) is VerifyOutcome.ABSOLUTE


def test_insufficient_example():
    assert verify(1.0, 0.5, (1.0,), 0.5, 0.1) is VerifyOutcome.INSUFFICIENT


def test_boundary_equalities_certify():
    # relative test at exact equality
    omega, dt = 0.25, 2.0
    zeta = omega * dt  # budget = zeta * delta = omega * dt at delta = 1
    assert verify(1.0, dt, (zeta,), 1e-6, omega) is VerifyOutcome.RELATIVE
    # absolute test at exact equality (decrement zero so relative fails)
    omega, xi, delta, r = 0.5, 0.8, 1.0, 1
    zeta = omega * xi * delta**r / factorial(r) / delta
    assert verify(delta, 0.0, (zeta,), xi, omega) is VerifyOutcome.ABSOLUTE


def test_input_validation():
    with pytest.raises(ValueError):
        verify(0.0, 1.0, (0.1,), 0.5, 0.1)
    with pytest.raises(ValueError):
        verify(1.0, -1e-9, (0.1,), 0.5, 0.1)
    with pytest.raises(ValueError):
        verify(1.0, 1.0, (0.1,), 0.0, 0.1)
    with pytest.raises(ValueError):
        verify(1.0, 1.0, (-0.1,), 0.5, 0.1)
    with pytest.raises(ValueError):
        verify(1.0, 1.0, (0.1,), 0.5, 1.5)
    # NaN fails every check instead of slipping past a negated comparison
    nan = float("nan")
    for args in [(nan, 1.0, (0.1,), 0.5, 0.1), (1.0, nan, (0.001,), 0.5, 0.1),
                 (1.0, 1.0, (0.1,), nan, 0.1), (1.0, 1.0, (nan,), 0.5, 0.1),
                 (1.0, 1.0, (0.1, nan), 0.5, 0.1), (1.0, 1.0, (0.1,), 0.5, nan)]:
        with pytest.raises(ValueError):
            verify(*args)


@given(
    delta=st.floats(1e-3, 1.0),
    dt=st.floats(0.0, 10.0),
    z1=st.floats(0.0, 2.0),
    z2=st.floats(0.0, 2.0),
    shrink=st.floats(0.0, 1.0),
    which=st.integers(0, 1),
    xi=st.floats(1e-6, 5.0),
    omega=st.floats(1e-6, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_monotone_in_zeta(delta, dt, z1, z2, shrink, which, xi, omega):
    # decreasing any zeta never turns a sufficient outcome insufficient
    zetas = [z1, z2]
    before = verify(delta, dt, zetas, xi, omega)
    zetas[which] *= shrink
    after = verify(delta, dt, zetas, xi, omega)
    if before is not VerifyOutcome.INSUFFICIENT:
        assert after is not VerifyOutcome.INSUFFICIENT


@given(
    delta=st.floats(1e-3, 1.0),
    dt=st.floats(1e-9, 10.0),
    z1=st.floats(0.0, 2.0),
    scale=st.floats(1e-3, 1e3),
    xi=st.floats(1e-6, 5.0),
    omega=st.floats(1e-6, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_relative_test_scale_invariant(delta, dt, z1, scale, xi, omega):
    # multiplying all zetas and the decrement by the same constant leaves the
    # relative test's truth value unchanged
    def relative_holds(d, zs):
        return d > 0 and error_budget(delta, zs) <= omega * d * (1 + 1e-12)

    # avoid knife-edge equality cases, where rescaling legitimately flips the test
    budget = error_budget(delta, (z1,))
    if abs(budget - omega * dt) > 1e-9 * max(1.0, budget, omega * dt):
        assert relative_holds(dt, (z1,)) == relative_holds(scale * dt, (scale * z1,))


def _random_instance(rng):
    n = int(rng.integers(1, 5))
    r = int(rng.integers(1, 3))
    delta = float(rng.uniform(0.05, 1.0))
    exact_tensors = [sym_tensor(rng.standard_normal((n,) * i)) for i in range(1, r + 1)]
    zetas = 10.0 ** rng.uniform(-6, 0, size=r)
    inexact_tensors = []
    for i, t in enumerate(exact_tensors, start=1):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        p = u.copy()
        for _ in range(i - 1):
            p = np.multiply.outer(p, u)
        inexact_tensors.append(
            sym_tensor(t + rng.uniform(0, 0.999) * zetas[i - 1] * p,
                       already_symmetric=True))
    rng.standard_normal(n)  # a base point, drawn to keep the instance stream
    exact = make_bundle(exact_tensors)
    inexact = make_bundle(inexact_tensors)
    v = rng.standard_normal(n)
    v *= delta * rng.random() / np.linalg.norm(v)
    omega = float(rng.uniform(0.01, 1.0))
    xi = float(10.0 ** rng.uniform(-3, 1))
    return exact, inexact, zetas, delta, v, omega, xi


def test_guarantees_on_random_instances():
    rng = np.random.default_rng(2024)
    outcomes = {o: 0 for o in VerifyOutcome}
    for trial in range(60):
        exact, inexact, zetas, delta, v, omega, xi = _random_instance(rng)
        from dyntrust.model import taylor_decrement
        if taylor_decrement(inexact, v, len(inexact)) < 0:
            v = np.zeros_like(v)  # the loop only certifies nonnegative decrements
        rep = check_verify_guarantees(exact, inexact, zetas, delta, v, omega, xi,
                                      n_samples=40, seed=trial)
        outcomes[rep.outcome] += 1
        assert rep.ok, rep.violations
    assert all(outcomes[o] > 0 for o in VerifyOutcome), outcomes


def test_zero_zeta_positive_decrement_is_relative():
    from dyntrust.model import taylor_decrement
    rng = np.random.default_rng(5)
    for trial in range(10):
        exact, _, _, delta, _, omega, xi = _random_instance(rng)
        g = exact[0]
        if np.linalg.norm(g) == 0:
            continue
        # short steepest-descent displacement: the linear term dominates,
        # so the decrement is strictly positive
        v = -1e-3 * delta * g / np.linalg.norm(g)
        assert taylor_decrement(exact, v, len(exact)) > 0
        rep = check_verify_guarantees(exact, exact, (0.0,) * len(exact), delta, v,
                                      omega, xi, n_samples=10, seed=trial)
        assert rep.outcome is VerifyOutcome.RELATIVE
        assert rep.ok


def test_full_budget_guarantee_never_insufficient():
    # whenever the whole-ball error budget already satisfies the absolute
    # test, the outcome must be sufficient
    rng = np.random.default_rng(77)
    for _ in range(200):
        r = int(rng.integers(1, 3))
        delta = float(rng.uniform(0.05, 1.0))
        omega = float(rng.uniform(0.01, 1.0))
        xi = float(10.0 ** rng.uniform(-3, 1))
        cap = omega * xi * delta**r / factorial(r)
        zetas = rng.random(r)
        zetas *= cap / max(error_budget(delta, zetas), 1e-300)
        dt = float(rng.uniform(0, 2))
        assert verify(delta, dt, zetas * 0.999, xi, omega) is not VerifyOutcome.INSUFFICIENT
