"""Desk-scale test problems with exact derivatives up to order three.

Every factory returns a :class:`~dyntrust.oracle.Problem`.  The registry maps
CLI-addressable names to factories; problem parameters are keyword arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import as_vector, vector_norm
from .oracle import Problem


def _coords(x):
    """The coordinates of points x (..., n): numpy scalars for one point, so
    a lone point keeps scalar arithmetic (scalar ``**`` also rounds apart
    from array ``**``), and arrays over the stack otherwise."""
    return [x[..., i][()] for i in range(x.shape[-1])]


def quadratic(dim: int = 2, cond: float = 10.0, x0=None) -> Problem:
    """Convex quadratic 0.5 x'Ax with A = diag(1 .. cond) (geometric).  A x is
    ``diag * x``: the dense product bit for bit, except that -0.0 stays -0.0."""
    if dim < 1 or cond < 1:
        raise ValueError("need dim >= 1 and cond >= 1")
    diag = np.geomspace(1.0, cond, dim) if dim > 1 else np.array([cond])
    a_mat = np.diag(diag)

    def fun(x):
        return 0.5 * float(x @ (diag * x))

    def deriv(x, order):
        if order == 1:
            return diag * x
        if order == 2:
            return np.broadcast_to(a_mat, x.shape[:-1] + a_mat.shape)
        return np.zeros(x.shape[:-1] + (dim,) * order)

    start = np.ones(dim) if x0 is None else as_vector(x0)
    return Problem(name=f"quadratic(dim={dim},cond={cond:g})", dim=dim, fun=fun,
                   deriv=deriv, f_low=0.0, x0=start,
                   lipschitz=(float(np.max(diag)), 0.0, 0.0))


def rosenbrock() -> Problem:
    """The 2-D Rosenbrock valley (1-x)^2 + 100 (y-x^2)^2."""

    def fun(x):
        return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

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

    return Problem(name="rosenbrock", dim=2, fun=fun, deriv=deriv, f_low=0.0,
                   x0=np.array([-1.2, 1.0]))


def saddle_well() -> Problem:
    """Bounded saddle x^2 - y^2 + y^4/2: saddle at 0, minima at (0, +-1)."""

    def fun(x):
        return float(x[0] ** 2 - x[1] ** 2 + 0.5 * x[1] ** 4)

    def deriv(x, order):
        u, v = _coords(x)
        out = np.zeros(x.shape[:-1] + (2,) * order)
        if order == 1:
            out[..., 0] = 2 * u
            out[..., 1] = -2 * v + 2 * v ** 3
        elif order == 2:
            out[..., 0, 0] = 2.0
            out[..., 1, 1] = -2.0 + 6.0 * v ** 2
        else:
            out[..., 1, 1, 1] = 12.0 * v
        return out

    return Problem(name="saddle_well", dim=2, fun=fun, deriv=deriv, f_low=-0.5,
                   x0=np.array([0.1, 0.01]))


def quartic(dim: int = 3) -> Problem:
    """Separable double well sum_i (x_i^4/4 - x_i^2/2); nonconvex, f_low = -n/4."""
    diag = np.arange(dim)

    def fun(x):
        return float(np.sum(0.25 * x ** 4 - 0.5 * x ** 2))

    def deriv(x, order):
        if order == 1:
            return x ** 3 - x
        out = np.zeros(x.shape[:-1] + (dim,) * order)
        if order == 2:
            out[..., diag, diag] = 3.0 * x ** 2 - 1.0
        else:
            out[..., diag, diag, diag] = 6.0 * x
        return out

    return Problem(name=f"quartic(dim={dim})", dim=dim, fun=fun, deriv=deriv,
                   f_low=-dim / 4.0, x0=0.5 * np.ones(dim))


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def _softplus(t):
    return np.logaddexp(0.0, t)


@dataclass(frozen=True, eq=False)
class LogisticTermModel:
    """Deterministic subsampling support for the finite-sum logistic problem.

    f(x) = mean_t softplus(a_t.x + b_t) + lam/2 |x|^2.  Each term's value and
    derivative contributions admit cheap interval bounds from |a_t| and |x|
    alone, so a prefix of the (fixed, bound-sorted) term order can be
    evaluated until the worst-case remainder drops below the requested
    accuracy.  No probabilistic guarantees anywhere: the bound always holds.
    """

    a: np.ndarray       # (m, n) term directions
    b: np.ndarray       # (m,) offsets
    lam: float
    order_by_size: np.ndarray  # term indices, largest |a_t| first

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def _value_ranges(self, x_norm: float) -> np.ndarray:
        c = np.linalg.norm(self.a, axis=1) * x_norm
        lo = _softplus(self.b - c)
        hi = _softplus(self.b + c)
        return np.stack([lo, hi], axis=1) / self.m

    def _select_prefix(self, half_widths: np.ndarray, acc: float) -> int:
        # Evaluate terms (largest bound first) until the unevaluated tail's
        # worst case fits under the requested accuracy.
        ordered = half_widths[self.order_by_size]
        suffix = np.concatenate([np.cumsum(ordered[::-1])[::-1], [0.0]])
        return int(np.searchsorted(-suffix, -acc, side="left"))

    def estimate_f(self, x, acc: float):
        x = np.asarray(x, dtype=float)
        ranges = self._value_ranges(vector_norm(x))
        half = (ranges[:, 1] - ranges[:, 0]) / 2.0
        k = self._select_prefix(half, acc)
        idx = self.order_by_size[:k]
        rest = self.order_by_size[k:]
        t = self.a[idx] @ x + self.b[idx]
        value = float(np.sum(_softplus(t))) / self.m
        value += float(np.sum(ranges[rest].mean(axis=1)))
        value += 0.5 * self.lam * float(x @ x)
        return value, k / self.m

    def estimate_deriv(self, x: np.ndarray, order: int, zeta: float):
        a_norm = np.linalg.norm(self.a, axis=1)
        c = a_norm * vector_norm(x)
        if order == 1:
            lo, hi = _sigmoid(self.b - c), _sigmoid(self.b + c)
            half = (hi - lo) / 2.0 * a_norm / self.m
            mid = (hi + lo) / 2.0
        elif order == 2:
            # |sigmoid'| peaks at 1/4; on [b-c, b+c] use endpoint/peak bounds.
            s_lo, s_hi = _sigmoid(self.b - c), _sigmoid(self.b + c)
            d_lo, d_hi = s_lo * (1 - s_lo), s_hi * (1 - s_hi)
            contains_peak = (self.b - c <= 0) & (self.b + c >= 0)
            top = np.where(contains_peak, 0.25, np.maximum(d_lo, d_hi))
            bot = np.minimum(d_lo, d_hi)
            half = (top - bot) / 2.0 * a_norm**2 / self.m
            mid = (top + bot) / 2.0
        else:
            # |sigmoid''| <= 1/(6*sqrt(3)) globally.
            cap = 1.0 / (6.0 * math.sqrt(3.0))
            half = cap * a_norm**3 / self.m
            mid = np.zeros(self.m)
        k = self._select_prefix(half, zeta)
        idx = self.order_by_size[:k]
        rest = self.order_by_size[k:]
        t = self.a[idx] @ x + self.b[idx]
        s = _sigmoid(t)
        if order == 1:
            approx = (s @ self.a[idx]) / self.m
            if len(rest):
                approx = approx + (mid[rest] @ self.a[rest]) / self.m
            tensor = approx + self.lam * x
        elif order == 2:
            w = s * (1 - s)
            approx = np.einsum("t,ta,tb->ab", w, self.a[idx], self.a[idx]) / self.m
            if len(rest):
                approx = approx + np.einsum(
                    "t,ta,tb->ab", mid[rest], self.a[rest], self.a[rest]) / self.m
            tensor = approx + self.lam * np.eye(x.size)
        else:
            w = s * (1 - s) * (1 - 2 * s)
            tensor = np.einsum("t,ta,tb,tc->abc", w, self.a[idx], self.a[idx], self.a[idx]) / self.m
        return tensor, k / self.m


def finite_sum_logistic(dim: int = 4, terms: int = 64, lam: float = 0.1,
                        seed: int = 7) -> Problem:
    """Finite-sum logistic-like objective with deterministic subsampling support."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(terms, dim)) * rng.uniform(0.2, 1.5, size=(terms, 1))
    b = rng.normal(0.0, 0.5, size=terms)
    order_by_size = np.argsort(-np.linalg.norm(a, axis=1))
    tm = LogisticTermModel(a=a, b=b, lam=lam, order_by_size=order_by_size)

    def fun(x):
        return float(np.mean(_softplus(a @ x + b)) + 0.5 * lam * float(x @ x))

    def deriv(x, order):
        # stacked products: each point goes through the gemv a lone one uses
        s = _sigmoid((a @ x[..., None])[..., 0] + b)
        if order == 1:
            return (s[..., None, :] @ a)[..., 0, :] / terms + lam * x
        if order == 2:
            w = s * (1 - s)
            return np.einsum("...t,ta,tb->...ab", w, a, a) / terms + lam * np.eye(dim)
        w = s * (1 - s) * (1 - 2 * s)
        return np.einsum("...t,ta,tb,tc->...abc", w, a, a, a) / terms

    return Problem(name=f"finite_sum_logistic(dim={dim},m={terms})", dim=dim,
                   fun=fun, deriv=deriv, f_low=0.0, x0=np.zeros(dim),
                   term_model=tm)


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
