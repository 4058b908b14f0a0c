"""Desk-scale test problems with exact derivatives up to order three.

Every factory returns a :class:`~dyntrust.oracle.Problem`.  The registry maps
CLI-addressable names to factories; problem parameters are keyword arguments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import vector_norm
from .oracle import Problem


def _coords(x):
    """The coordinates of points x (..., n): numpy scalars for one point, so
    a lone point keeps scalar arithmetic, and arrays over the stack otherwise."""
    return [x[..., i][()] for i in range(x.shape[-1])]


def _power(x):
    """The power function for the coordinates of points x (..., n): numpy
    scalar ``**`` for one point, and over a stack ``np.float_power``, which
    calls the same C ``pow`` per entry.  The array ``**`` loop rounds apart
    from both (up to 1 ulp at exponents 2 to 4)."""
    return operator.pow if x.ndim == 1 else np.float_power


def _abs_range(lo, hi):
    """sup |t| and inf |t| over each interval [lo, hi]."""
    return np.maximum(-lo, hi), np.maximum(np.maximum(lo, -hi), 0.0)


def _require(ok: bool, problem: str, param: str, rule: str, value) -> None:
    """Refuse a factory parameter outside the problem's domain, by name."""
    if not ok:
        raise ValueError(f"{problem}: {param} must be {rule}, got {value!r}")


def quadratic(dim: int = 2, cond: float = 10.0) -> Problem:
    """Convex quadratic 0.5 x'Ax with A = diag(1 .. cond) (geometric).  A x is
    ``diag * x``: the dense product bit for bit, except that -0.0 stays -0.0."""
    _require(dim >= 1, "quadratic", "dim", "at least 1", dim)
    _require(1 <= cond < math.inf, "quadratic", "cond", "finite and at least 1", cond)
    diag = np.geomspace(1.0, cond, dim) if dim > 1 else np.array([cond])
    a_mat = np.diag(diag)

    def fun(x):
        return 0.5 * np.vecdot(x, diag * x)  # the dot product x @ (diag * x) takes

    def deriv(x, order):
        if order == 1:
            return diag * x
        if order == 2:
            return np.broadcast_to(a_mat, x.shape[:-1] + a_mat.shape)
        return np.zeros(x.shape[:-1] + (dim,) * order)

    return Problem(name=f"quadratic(dim={dim},cond={cond:g})", dim=dim, fun=fun,
                   deriv=deriv, f_low=0.0, x0=np.ones(dim),
                   lipschitz=(float(np.max(diag)), 0.0, 0.0))


def rosenbrock() -> Problem:
    """The 2-D Rosenbrock valley (1-x)^2 + 100 (y-x^2)^2."""

    def fun(x):
        if x.ndim == 1:  # numpy-scalar arithmetic: the solver's fast path
            return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)
        u, v = _coords(x)
        pw = _power(x)  # rounds as the lone point's scalar **
        return pw(1 - u, 2) + 100.0 * pw(v - pw(u, 2), 2)

    def deriv(x, order):
        u, v = _coords(x)
        out = np.zeros(x.shape[:-1] + (2,) * order)
        if order == 1:
            out[..., 0] = -2 * (1 - u) - 400 * u * (v - u * u)
            out[..., 1] = 200 * (v - u * u)
        elif order == 2:
            out[..., 0, 0] = 2 - 400 * v + 1200 * u * u
            out[..., 0, 1] = out[..., 1, 0] = -400 * u
            out[..., 1, 1] = 200.0
        else:
            out[..., 0, 0, 0] = 2400 * u
            out[..., 0, 0, 1] = out[..., 0, 1, 0] = out[..., 1, 0, 0] = -400.0
        return out

    def lipschitz(lo, hi):
        # Frobenius norms of T_2 and T_3 from interval bounds on their
        # entries; the (0, 0) entry of T_2 is linear in v and in u^2
        u_top, u_bottom = _abs_range(lo[0], hi[0])
        h00 = max(abs(2 - 400 * hi[1] + 1200 * u_bottom**2),
                  abs(2 - 400 * lo[1] + 1200 * u_top**2))
        return (math.sqrt(h00**2 + 2 * (400 * u_top)**2 + 200.0**2),
                math.sqrt((2400 * u_top)**2 + 3 * 400.0**2), 2400.0)

    return Problem(name="rosenbrock", dim=2, fun=fun, deriv=deriv, f_low=0.0,
                   x0=np.array([-1.2, 1.0]), lipschitz=lipschitz)


def saddle_well() -> Problem:
    """Bounded saddle x^2 - y^2 + y^4/2: saddle at 0, minima at (0, +-1)."""

    def fun(x):
        if x.ndim == 1:  # numpy-scalar arithmetic: the solver's fast path
            return float(x[0] ** 2 - x[1] ** 2 + 0.5 * x[1] ** 4)
        u, v = _coords(x)
        pw = _power(x)
        return pw(u, 2) - pw(v, 2) + 0.5 * pw(v, 4)

    def deriv(x, order):
        u, v = _coords(x)
        pw = _power(x)
        out = np.zeros(x.shape[:-1] + (2,) * order)
        if order == 1:
            out[..., 0] = 2 * u
            out[..., 1] = -2 * v + 2 * pw(v, 3)
        elif order == 2:
            out[..., 0, 0] = 2.0
            out[..., 1, 1] = -2.0 + 6.0 * pw(v, 2)
        else:
            out[..., 1, 1, 1] = 12.0 * v
        return out

    def lipschitz(lo, hi):
        # T_2 = diag(2, 6y^2 - 2); T_3 and T_4 hold 12y and 12 at (1, ..., 1)
        y_top = float(_abs_range(lo[1], hi[1])[0])
        return max(2.0, 6.0 * y_top**2 - 2.0), 12.0 * y_top, 12.0

    return Problem(name="saddle_well", dim=2, fun=fun, deriv=deriv, f_low=-0.5,
                   x0=np.array([0.1, 0.01]), lipschitz=lipschitz)


def quartic(dim: int = 3) -> Problem:
    """Separable double well sum_i (x_i^4/4 - x_i^2/2); nonconvex, f_low = -n/4."""
    _require(dim >= 1, "quartic", "dim", "at least 1", dim)
    diag = np.arange(dim)

    def fun(x):
        return np.sum(0.25 * x ** 4 - 0.5 * x ** 2, axis=-1)

    def deriv(x, order):
        if order == 1:
            return x ** 3 - x
        out = np.zeros(x.shape[:-1] + (dim,) * order)
        if order == 2:
            out[..., diag, diag] = 3.0 * x ** 2 - 1.0
        else:
            out[..., diag, diag, diag] = 6.0 * x
        return out

    def lipschitz(lo, hi):
        # T_2, T_3 and T_4 are diagonal, with entries 3x_i^2 - 1, 6x_i and 6:
        # each operator norm is the largest |diagonal entry|
        top, bottom = _abs_range(lo, hi)
        return (float(np.max(np.maximum(3.0 * top**2 - 1.0, 1.0 - 3.0 * bottom**2))),
                6.0 * float(np.max(top)), 6.0)

    return Problem(name=f"quartic(dim={dim})", dim=dim, fun=fun, deriv=deriv,
                   f_low=-dim / 4.0, x0=0.5 * np.ones(dim), lipschitz=lipschitz)


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def _softplus(t):
    return np.logaddexp(0.0, t)


@dataclass(frozen=True, eq=False)
class LogisticTermModel:
    """Deterministic subsampling support for the finite-sum logistic problem.

    f(x) = mean_t softplus(a_t.x + b_t) + lam/2 |x|^2.  Each term's value and
    derivative contributions admit cheap interval bounds from |a_t| and |x|
    alone.  The terms are stored largest |a_t| first, so a prefix ``[:k]``
    of them is evaluated, k as small as lets the worst-case remainder of the
    tail ``[k:]`` drop below the requested accuracy.  No probabilistic
    guarantees anywhere: the bound always holds.
    """

    a: np.ndarray       # (m, n) term directions, largest |a_t| first
    b: np.ndarray       # (m,) offsets
    lam: float
    a_norm: np.ndarray  # (m,) term norms |a_t|, non-increasing

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def _select_prefix(half_widths: np.ndarray, acc: float) -> int:
        # the shortest prefix whose unevaluated tail's worst case fits under acc
        suffix = np.concatenate([np.cumsum(half_widths[::-1])[::-1], [0.0]])
        return int(np.searchsorted(-suffix, -acc, side="left"))

    def estimate_f(self, x, acc: float):
        x = np.asarray(x, dtype=float)
        c = self.a_norm * vector_norm(x)
        lo = _softplus(self.b - c) / self.m  # each term's range of values
        hi = _softplus(self.b + c) / self.m
        k = self._select_prefix((hi - lo) / 2.0, acc)
        value = float(np.sum(_softplus(self.a[:k] @ x + self.b[:k]))) / self.m
        value += float(np.sum((lo[k:] + hi[k:]) / 2.0))
        value += 0.5 * self.lam * float(x @ x)
        return value, k / self.m

    def estimate_deriv(self, x: np.ndarray, order: int, zeta: float):
        c = self.a_norm * vector_norm(x)
        if order == 1:
            lo, hi = _sigmoid(self.b - c), _sigmoid(self.b + c)
            half = (hi - lo) / 2.0 * self.a_norm / self.m
            mid = (hi + lo) / 2.0
        elif order == 2:
            # |sigmoid'| peaks at 1/4; on [b-c, b+c] use endpoint/peak bounds.
            s_lo, s_hi = _sigmoid(self.b - c), _sigmoid(self.b + c)
            d_lo, d_hi = s_lo * (1 - s_lo), s_hi * (1 - s_hi)
            contains_peak = (self.b - c <= 0) & (self.b + c >= 0)
            top = np.where(contains_peak, 0.25, np.maximum(d_lo, d_hi))
            bot = np.minimum(d_lo, d_hi)
            half = (top - bot) / 2.0 * self.a_norm**2 / self.m
            mid = (top + bot) / 2.0
        else:
            # |sigmoid''| <= 1/(6*sqrt(3)) globally.
            half = 1.0 / (6.0 * math.sqrt(3.0)) * self.a_norm**3 / self.m
        k = self._select_prefix(half, zeta)
        head, tail = self.a[:k], self.a[k:]
        s = _sigmoid(head @ x + self.b[:k])
        if order == 1:
            approx = (s @ head) / self.m
            if k < self.m:
                approx = approx + (mid[k:] @ tail) / self.m
            tensor = approx + self.lam * x
        elif order == 2:
            approx = np.einsum("t,ta,tb->ab", s * (1 - s), head, head) / self.m
            if k < self.m:
                approx = approx + np.einsum("t,ta,tb->ab", mid[k:], tail, tail) / self.m
            tensor = approx + self.lam * np.eye(x.size)
        else:
            w = s * (1 - s) * (1 - 2 * s)
            tensor = np.einsum("t,ta,tb,tc->abc", w, head, head, head) / self.m
        return tensor, k / self.m


def finite_sum_logistic(dim: int = 4, terms: int = 64, lam: float = 0.1) -> Problem:
    """Finite-sum logistic-like objective with deterministic subsampling
    support; ``lam >= 0`` keeps f_low = 0 a lower bound."""
    for param, value in (("dim", dim), ("terms", terms)):
        _require(value >= 1, "finite_sum_logistic", param, "at least 1", value)
    _require(0 <= lam < math.inf, "finite_sum_logistic", "lam", "finite and non-negative", lam)
    rng = np.random.default_rng(7)  # the terms are part of the problem: one fixed draw
    a = rng.normal(0.0, 1.0, size=(terms, dim)) * rng.uniform(0.2, 1.5, size=(terms, 1))
    b = rng.normal(0.0, 0.5, size=terms)
    a_norm = np.linalg.norm(a, axis=1)
    # the term model keeps its terms largest bound first; fun and deriv sum
    # them in the drawn order, which sets their rounding
    by_size = np.argsort(-a_norm)
    tm = LogisticTermModel(a=a[by_size], b=b[by_size], lam=lam, a_norm=a_norm[by_size])

    def fun(x):
        # stacked products: each point goes through the gemv and dot a lone one uses
        t = (a @ x[..., None])[..., 0] + b
        return np.mean(_softplus(t), axis=-1) + 0.5 * lam * np.vecdot(x, x)

    # tables[j - 1] is the (terms, dim**j) table whose row t holds the entries
    # a_ta a_tb ... of a_t's j-fold outer product, built on first use
    tables = [a]

    def deriv(x, order):
        # sum_t w_t (a_t x ... x a_t) / terms as one gemv per point against
        # the table, so each point of a stack goes through the gemv a lone one uses
        while len(tables) < order:
            tables.append((tables[-1][:, :, None] * a[:, None, :]).reshape(terms, -1))
        s = _sigmoid((a @ x[..., None])[..., 0] + b)
        w = s if order == 1 else s * (1 - s) if order == 2 else s * (1 - s) * (1 - 2 * s)
        out = (w[..., None, :] @ tables[order - 1])[..., 0, :].reshape(
            x.shape[:-1] + (dim,) * order) / terms
        if order == 1:
            return out + lam * x
        if order == 2:
            return out + lam * np.eye(dim)
        return out

    # global constants: T_{j+1} is the mean of sigma^(j)(a_t.x + b_t) times
    # a_t's (j+1)-fold outer product (plus lam I at j = 1), and |sigma'| <= 1/4,
    # |sigma''| <= 1/(6 sqrt 3), |sigma'''| <= 1/8
    lipschitz = (float(np.mean(a_norm**2)) / 4.0 + lam,
                 float(np.mean(a_norm**3)) / (6.0 * math.sqrt(3.0)),
                 float(np.mean(a_norm**4)) / 8.0)
    return Problem(name=f"finite_sum_logistic(dim={dim},m={terms},lam={lam:g})", dim=dim,
                   fun=fun, deriv=deriv, f_low=0.0, x0=np.zeros(dim),
                   lipschitz=lipschitz, term_model=tm)


REGISTRY = {
    "quadratic": quadratic,
    "rosenbrock": rosenbrock,
    "saddle_well": saddle_well,
    "quartic": quartic,
    "finite_sum_logistic": finite_sum_logistic,
}


def make_problem(name: str, **params) -> Problem:
    if name not in REGISTRY:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name](**params)


def list_problems() -> list[str]:
    return sorted(REGISTRY)
