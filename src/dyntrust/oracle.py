"""Dynamic-accuracy evaluation oracles.

The contract: objective values and derivative tensors can be requested to any
absolute accuracy chosen *before* the call.  ``eval_f(x, a)`` returns a value
within ``a`` of the true objective; ``eval_deriv(x, i, z)`` returns an order-i
tensor, a plain array of shape (n,) * i, within ``z`` of the true derivative
in operator norm.  Where the error comes from is configurable (corruption
policies); the bound always holds, and every call is logged in an
:class:`EvalLedger`.

Problem output enters the library here only, through ``Problem.exact_f`` and
``Problem.exact_deriv`` (one point or a stack) and the subsampled estimates,
and is checked once: finite values, and derivative arrays of exactly the shape
``x.shape[:-1] + (n,) * order``.  :class:`NonFiniteEvaluation` names the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import NonFiniteEvaluation, Vector, vector_norm

POLICIES = ("none", "adversarial", "truncate", "gaussian", "subsample")

# Adversarial/gaussian perturbations are scaled to 0.99x the requested bound
# so the certified bound stays strictly valid under floating-point rounding.
NOISE_FRACTION = 0.99


@dataclass(frozen=True, eq=False)
class Problem:
    """An exactly evaluable test problem with certified metadata.

    ``fun`` and ``deriv`` are the ground truth the oracles corrupt.
    ``deriv(x, order)`` takes points ``x`` of shape (..., n) and returns the
    symmetric order-``order`` derivative array of shape
    ``x.shape[:-1] + (n,) * order``: one point (n,) or a stack (m, n) of
    them, through the same code.  ``f_low`` is a global lower bound on the
    objective; ``lipschitz[i-1]``, when known, is a Lipschitz constant for
    the order-i derivative.
    """

    name: str
    dim: int
    fun: Callable[[Vector], float]
    deriv: Callable[[np.ndarray, int], np.ndarray]
    f_low: float
    x0: Vector
    lipschitz: tuple | None = None
    term_model: object | None = None  # subsampled finite-sum support, if any

    def exact_f(self, x) -> float:
        return self._checked_f(x, self.fun(np.asarray(x, dtype=float)))

    def exact_deriv(self, x, order: int) -> np.ndarray:
        """The order-``order`` derivative at one point x (n,), or at each
        point of a stack (..., n), checked where it enters the library."""
        x = np.asarray(x, dtype=float)
        try:
            d = self.deriv(x, order)
        except NonFiniteEvaluation:  # raised by the problem's own checks
            raise NonFiniteEvaluation(
                f"order-{order} derivative at x = {x.tolist()} is not finite") from None
        return self._checked_deriv(x, order, d)

    def _checked_f(self, x, value) -> float:
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteEvaluation(
                f"objective value {value} at x = {np.asarray(x).tolist()} is not finite")
        return value

    def _checked_deriv(self, x: np.ndarray, order: int, d) -> np.ndarray:
        """d as a float array of x.shape[:-1] + (n,) * order finite entries."""
        d = np.asarray(d, dtype=float)
        shape = x.shape[:-1] + (self.dim,) * order
        if d.shape != shape:
            raise ValueError(f"{self.name}: deriv of points {x.shape} has shape "
                             f"{d.shape}, expected {shape}")
        # a finite sum of squares has finite terms; a strided array, or a sum
        # that overflows (numpy warns of it), is checked entry by entry
        flat = d.ravel() if d.flags.c_contiguous else None
        if (flat is None or not math.isfinite(flat.dot(flat))) and not np.isfinite(d).all():
            bad = ~np.isfinite(d.reshape(-1, self.dim ** order)).all(axis=1)
            x = x.reshape(-1, x.shape[-1])[np.argmax(bad)]  # the first, in stack order
            raise NonFiniteEvaluation(f"order-{order} derivative at x = {x.tolist()} is not finite")
        return d


class LedgerEntry(NamedTuple):
    kind: str          # "f" or "deriv"
    order: int         # 0 for objective values
    acc: float         # requested absolute accuracy
    work: float = 1.0  # fraction of a full evaluation (subsampling < 1)


class EvalLedger:
    """Append-only log of oracle calls with per-call requested accuracies."""

    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self._counts = {"f": 0, 1: 0, 2: 0, 3: 0}

    def record(self, kind: str, order: int, acc: float, work: float = 1.0):
        self.entries.append(LedgerEntry(kind, order, float(acc), float(work)))
        self._counts[kind if kind == "f" else order] += 1

    @property
    def n_f(self) -> int:
        return self._counts["f"]

    def n_deriv(self, order: int | None = None) -> int:
        if order is None:
            return self._counts[1] + self._counts[2] + self._counts[3]
        return self._counts[order]

    def deriv_rounds(self) -> int:
        """Evaluation rounds: the most-often refreshed order dominates."""
        counts = [self.n_deriv(i) for i in range(1, 4)]
        return max(counts) if counts else 0

    def min_acc(self, kind: str, order: int | None = None) -> float:
        accs = [e.acc for e in self.entries
                if e.kind == kind and (order is None or e.order == order) and e.acc > 0]
        return min(accs) if accs else math.inf

    def total_cost(self, cost: Callable[[float], float], kind: str | None = None) -> float:
        return sum(cost(e.acc) for e in self.entries if kind is None or e.kind == kind)

    def __len__(self):
        return len(self.entries)


# Reporting-only cost models; they never influence the algorithm.
def cost_unit(acc: float) -> float:
    return 1.0


def cost_inverse(acc: float, power: float = 1.0) -> float:
    return float(acc) ** (-power) if acc > 0 else math.inf


def cost_log(acc: float) -> float:
    return math.log(1.0 / acc) if 0 < acc < 1 else 1.0


COST_MODELS = {"unit": cost_unit, "inverse": cost_inverse, "log": cost_log}


def _rank_one(order: int, u: np.ndarray, scale: float) -> np.ndarray:
    """scale * u^(x)order: symmetric, operator norm exactly |scale| for unit u."""
    t = u
    for _ in range(order - 1):
        t = np.multiply.outer(t, u)
    return scale * t


def _decimal_grid(limit: float) -> float:
    """Largest power of ten not exceeding ``limit``."""
    return 10.0 ** math.floor(math.log10(limit))


class InexactOracle:
    """Wraps a :class:`Problem` with a corruption policy and a seeded RNG.

    Policies:
      * ``none``       - exact values regardless of the requested accuracy.
      * ``adversarial``- error of magnitude exactly 0.99x the bound, pushed in
                         a seeded random direction (worst case for the caller).
      * ``truncate``   - deterministic rounding to a decimal grid coarse
                         enough to stay within the bound.
      * ``gaussian``   - seeded normal noise clipped to 0.99x the bound.
      * ``subsample``  - finite-sum problems only: evaluate a deterministic
                         subset of terms, bounding the remainder via per-term
                         range bounds.

    Orders listed in ``exact_orders`` are always returned exact (their
    certified bound is zero no matter what is requested).
    """

    def __init__(self, problem: Problem, policy: str = "none", seed: int = 0,
                 exact_orders: tuple[int, ...] = ()):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if policy == "subsample" and problem.term_model is None:
            raise ValueError("subsample policy requires a finite-sum problem")
        self.problem = problem
        self.policy = policy
        self.seed = seed
        self.exact_orders = frozenset(exact_orders)
        self.rng = np.random.default_rng(seed)

    @property
    def dim(self) -> int:
        return self.problem.dim

    def eval_f(self, x, abs_acc: float, ledger: EvalLedger | None = None) -> float:
        if not 0 < abs_acc < math.inf:  # NaN fails too
            raise ValueError(f"requested accuracy {abs_acc!r} must be positive and finite")
        work = 1.0
        if self.policy == "subsample":
            value, work = self.problem.term_model.estimate_f(x, abs_acc)
            value = self.problem._checked_f(x, value)
        else:
            value = self.problem.exact_f(x)
        if self.policy == "adversarial":
            sign = 1.0 if self.rng.random() < 0.5 else -1.0
            value = value + NOISE_FRACTION * abs_acc * sign
        elif self.policy == "truncate":
            h = _decimal_grid(2.0 * abs_acc)
            value = round(value / h) * h
        elif self.policy == "gaussian":
            noise = self.rng.normal(0.0, abs_acc / 3.0)
            value = value + float(np.clip(noise, -NOISE_FRACTION * abs_acc,
                                          NOISE_FRACTION * abs_acc))
        if ledger is not None:
            ledger.record("f", 0, abs_acc, work)
        return float(value)

    def eval_deriv(self, x, order: int, zeta: float, ledger: EvalLedger | None = None) -> np.ndarray:
        if not 0 <= zeta < math.inf:  # NaN fails too
            raise ValueError(f"requested accuracy {zeta!r} must be nonnegative and finite")
        if not 1 <= order <= 3:
            raise ValueError(f"unsupported derivative order {order}")
        exact = order in self.exact_orders or zeta == 0.0
        work = 1.0
        if self.policy == "subsample" and not exact:
            x = np.asarray(x, dtype=float)
            tensor, work = self.problem.term_model.estimate_deriv(x, order, zeta)
            tensor = self.problem._checked_deriv(x, order, tensor)
        else:
            tensor = self.problem.exact_deriv(x, order)
        if not exact:
            # rank-one bumps and rounding keep symmetry and shape: no re-check
            if self.policy == "adversarial":
                u = self.rng.standard_normal(self.dim)
                u /= vector_norm(u)
                tensor = tensor + _rank_one(order, u, NOISE_FRACTION * zeta)
            elif self.policy == "truncate":
                h = _decimal_grid(2.0 * zeta / self.dim ** (order / 2.0))
                tensor = np.round(tensor / h) * h
            elif self.policy == "gaussian":
                u = self.rng.standard_normal(self.dim)
                u /= vector_norm(u)
                mag = float(np.clip(self.rng.normal(0.0, zeta / 3.0),
                                    -NOISE_FRACTION * zeta, NOISE_FRACTION * zeta))
                tensor = tensor + _rank_one(order, u, mag)
        if ledger is not None:
            ledger.record("deriv", order, zeta, work)
        return tensor
