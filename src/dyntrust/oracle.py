"""Dynamic-accuracy evaluation oracles.

The contract: objective values and derivative tensors can be requested to any
absolute accuracy chosen *before* the call.  ``eval_f(x, a)`` returns a value
within ``a`` of the true objective; ``eval_deriv(x, i, z)`` returns an order-i
tensor, a plain array of shape (n,) * i, within ``z`` of the true derivative
in operator norm.  Where the error comes from is configurable (corruption
policies); the bound always holds, and every call is logged in an
:class:`EvalLedger`.

Problem output enters the library here only, through ``Problem.exact_f`` and
``Problem.exact_deriv`` and the subsampled estimates, and one checker sees
all of it.  The exact doors take one point (n,) or a stack (..., n) and
refuse an order outside 1..3.  Exact and subsampled output alike must have
exactly the shape ``x.shape[:-1]`` (values; a float for one point) or
``x.shape[:-1] + (n,) * order`` (derivatives), with every entry finite.
:class:`NonFiniteEvaluation` names the first bad point in stack order.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import NonFiniteEvaluation, Vector, vector_norm

POLICIES = ("none", "adversarial", "truncate", "gaussian", "subsample")

# Adversarial/gaussian perturbations are scaled to 0.99x the requested bound
# so the certified bound stays strictly valid under floating-point rounding.
NOISE_FRACTION = 0.99


@dataclass(frozen=True, eq=False)
class Problem:
    """An exactly evaluable test problem with certified metadata.

    ``fun`` and ``deriv`` are the ground truth the oracles corrupt.  Both
    take points ``x`` of shape (..., n): one point (n,) or a stack (m, n) of
    them.  ``fun(x)`` returns the ``x.shape[:-1]`` objective values (a float
    for one point), and ``deriv(x, order)`` the symmetric order-``order``
    derivative arrays, of shape ``x.shape[:-1] + (n,) * order``.  Each row of
    a stack gets its lone point's value bit for bit.  ``f_low`` is a global
    lower bound on the objective.  ``lipschitz`` states Lipschitz constants
    of the derivatives, one per order i = 1, 2, ...: a tuple of global
    constants, or a callable ``(lo, hi) -> tuple`` whose constants hold on
    the box lo <= x <= hi (a bound on the norm of the order-(i+1)
    derivative there).  An order it leaves out, or gives as None, is
    sampled by the audit.
    """

    name: str
    dim: int
    fun: Callable[[np.ndarray], float | np.ndarray]
    deriv: Callable[[np.ndarray, int], np.ndarray]
    f_low: float
    x0: Vector
    lipschitz: tuple | Callable[[np.ndarray, np.ndarray], tuple] | None = None
    term_model: object | None = None  # subsampled finite-sum support, if any

    def exact_f(self, x) -> float | np.ndarray:
        """The objective at one point x (n,) as a float, or at each point of
        a stack (..., n) as an array of x.shape[:-1] values, checked where
        it enters the library."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:  # the solver's fast path: only a bad value is checked
            value = self.fun(x)
            try:
                if math.isfinite(value := float(value)):
                    return value
            except TypeError:  # not one value: the checker names its shape
                pass
            return float(self._checked(x, 0, value))
        try:
            values = self.fun(x)
        except NonFiniteEvaluation:
            raise
        except (TypeError, ValueError, IndexError) as exc:  # a fun of one point only
            raise ValueError(f"{self.name}: fun of points {x.shape} failed ({exc}); "
                             f"expected values of shape {x.shape[:-1]}") from exc
        return self._checked(x, 0, values)

    def exact_deriv(self, x, order: int) -> np.ndarray:
        """The order-``order`` derivative at one point x (n,), or at each
        point of a stack (..., n), checked where it enters the library."""
        self.check_order(order)
        x = np.asarray(x, dtype=float)
        try:
            d = self.deriv(x, order)
        except NonFiniteEvaluation:  # raised by the problem's own checks
            raise NonFiniteEvaluation(
                f"order-{order} derivative at x = {x.tolist()} is not finite") from None
        return self._checked(x, order, d)

    def check_order(self, order):
        """Refuse, by name, a derivative order outside 1..3."""
        if order not in (1, 2, 3):
            raise ValueError(f"{self.name}: derivative order must be 1, 2 or 3, got {order!r}")

    def _checked(self, x: np.ndarray, order: int, out) -> np.ndarray:
        """out as a float array of x.shape[:-1] + (n,) * order finite
        entries: objective values at order 0, derivatives otherwise."""
        out = np.asarray(out, dtype=float)
        shape = x.shape[:-1] + (self.dim,) * order
        if out.shape != shape:
            raise ValueError(f"{self.name}: {'deriv' if order else 'fun'} of points "
                             f"{x.shape} has shape {out.shape}, expected {shape}")
        # a finite sum of squares has finite terms; a strided array, or a sum
        # that overflows (numpy warns of it), is checked entry by entry
        flat = out.ravel() if out.flags.c_contiguous else None
        if (flat is None or not math.isfinite(flat.dot(flat))) and not np.isfinite(out).all():
            bad = ~np.isfinite(out.reshape(-1, self.dim ** order)).all(axis=1)
            i = np.argmax(bad)  # the first bad point, in stack order
            what = f"order-{order} derivative" if order else f"objective value {out.flat[i]}"
            raise NonFiniteEvaluation(
                f"{what} at x = {x.reshape(-1, x.shape[-1])[i].tolist()} is not finite")
        return out


# The phases of an iteration that call the oracle, in the order an iteration
# visits them; the event table stores each call's phase as an index here.
PHASES = ("termination", "step", "objective")
PHASE_TERMINATION, PHASE_STEP, PHASE_OBJECTIVE = range(len(PHASES))


class Table:
    """An append-only table of fixed-width rows packed into one byte array.

    A subclass declares its scalar fields once, as ``FIELDS``: a numpy dtype
    field list whose type codes ("d", "q", "b", "?") are also ``struct``
    codes, so :attr:`dtype` and the packing :attr:`row` agree byte for byte.
    A row costs its packed size and no Python object.  :meth:`column` is a
    read-only view of one typed column; while a view is alive the table
    cannot grow (``BufferError``).
    """

    def __init_subclass__(cls):
        cls.dtype = np.dtype(cls.FIELDS)
        cls.row = struct.Struct("=" + "".join(code for _, code in cls.FIELDS))

    def __init__(self, rows: bytes = b""):
        """A table holding ``rows``: the bytes of an array of :attr:`dtype`."""
        self._rows = array("B", rows)

    def column(self, name: str) -> np.ndarray:
        """The read-only column of field ``name``, in row order."""
        table = np.frombuffer(self._rows, dtype=self.dtype)
        table.flags.writeable = False
        return table[name]

    def __len__(self) -> int:
        return len(self._rows) // self.row.size


class EvalLedger(Table):
    """Event table of oracle calls: one 18-byte row per call.

    ``phase`` is the index into :data:`PHASES` that the next call is logged
    under; ``run`` sets it before each phase of an iteration.  ``entries``
    rebuilds the rows as :class:`LedgerEntry` tuples.
    """

    FIELDS = [("order", "b"),   # derivative order; 0 for objective values
              ("acc", "d"),     # requested absolute accuracy
              ("work", "d"),    # fraction of a full evaluation (subsampling < 1)
              ("phase", "b")]   # index into PHASES

    def __init__(self, rows: bytes = b""):
        super().__init__(rows)
        self.counts = np.bincount(self.column("order"), minlength=4).tolist()  # per order
        self.phase = PHASE_TERMINATION

    def record(self, order: int, acc: float, work: float = 1.0):
        self._rows.frombytes(self.row.pack(order, acc, work, self.phase))
        self.counts[order] += 1

    @property
    def entries(self) -> list[LedgerEntry]:
        return list(map(LedgerEntry._make, self.row.iter_unpack(self._rows)))

    @property
    def n_f(self) -> int:
        return self.counts[0]

    def n_deriv(self, order: int | None = None) -> int:
        if order is None:
            return self.counts[1] + self.counts[2] + self.counts[3]
        return self.counts[order]

    def deriv_rounds(self) -> int:
        """Evaluation rounds: the most-often refreshed order dominates."""
        return max(self.counts[1:])

    def accs(self, orders=(0, 1, 2, 3)) -> np.ndarray:
        """The requested accuracies of the calls of ``orders`` (0 for
        objective values), in call order."""
        return self.column("acc")[np.isin(self.column("order"), orders)]

    def min_acc(self, orders) -> float:
        """The tightest positive accuracy requested at ``orders``."""
        accs = self.accs(orders)
        accs = accs[accs > 0]
        return float(accs.min()) if accs.size else math.inf

    def total_cost(self, cost: Callable[[float], float], orders=(0, 1, 2, 3)) -> float:
        return sum(map(cost, self.accs(orders).tolist()))

    def counts_by_phase(self) -> np.ndarray:
        """Calls per phase (rows, as in PHASES) and order (columns, 0..3)."""
        cells = self.column("phase").astype(np.intp) * 4 + self.column("order")
        return np.bincount(cells, minlength=4 * len(PHASES)).reshape(len(PHASES), 4)


# One row of the event table
LedgerEntry = namedtuple("LedgerEntry", EvalLedger.dtype.names)


# Reporting-only cost models; they never influence the algorithm.
def cost_unit(acc: float) -> float:
    return 1.0


def cost_inverse(acc: float) -> float:
    return float(acc) ** -1.0 if acc > 0 else math.inf


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
            x = np.asarray(x, dtype=float)
            value, work = self.problem.term_model.estimate_f(x, abs_acc)
            value = float(self.problem._checked(x, 0, value))
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
            ledger.record(0, abs_acc, work)
        return float(value)

    def eval_deriv(self, x, order: int, zeta: float, ledger: EvalLedger | None = None) -> np.ndarray:
        if not 0 <= zeta < math.inf:  # NaN fails too
            raise ValueError(f"requested accuracy {zeta!r} must be nonnegative and finite")
        exact = order in self.exact_orders or zeta == 0.0
        work = 1.0
        if self.policy == "subsample" and not exact:
            self.problem.check_order(order)  # the exact door checks it otherwise
            x = np.asarray(x, dtype=float)
            tensor, work = self.problem.term_model.estimate_deriv(x, order, zeta)
            tensor = self.problem._checked(x, order, tensor)
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
            ledger.record(order, zeta, work)
        return tensor
