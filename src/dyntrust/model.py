"""Dense symmetric derivative tensors and Taylor-model arithmetic.

A degree-j polynomial model built from derivative tensors T_1 .. T_j at a
point x is

    m(s) = f0 + sum_{i=1..j} T_i[s]^i / i!

where T_i[s]^i is the i-fold contraction of the order-i tensor with the
displacement s.  The quantity the optimization loop actually consumes is the
model *decrement* m(0) - m(s), which is independent of f0.  Everything here
is plain dense numpy; tensors are desk-scale (order <= 3, small dimension).

An order-i tensor on R^n is a float array of shape (n,) * i: its order is
``ndim`` and its dimension ``shape[0]``.  A bundle is the tuple
(T_1, ..., T_j) of the tensors at one point: its degree is ``len(b)`` and
its dimension ``b[0].size``.  :func:`sym_tensor` and :func:`make_bundle`
validate data from outside the library; internal code trusts its arrays.
"""

from __future__ import annotations

import itertools
import math
from math import factorial

import numpy as np

Vector = np.ndarray
Bundle = tuple[np.ndarray, ...]  # (T_1, ..., T_j)

# Highest derivative order the dense tensor format supports.  Dense order-4
# tensors are impractical and unneeded at desk scale; configurations asking
# for more are rejected up front.
MAX_ORDER = 3


class NonFiniteEvaluation(ValueError):
    """A non-finite objective value or derivative tensor."""


def as_vector(x) -> Vector:
    """``x`` as a float 1-D point; a ValueError reads "<x> is not ..."."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{v.tolist()} is not a nonempty 1-D point")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{v.tolist()} is not finite")
    return v


def sym_tensor(entries, already_symmetric: bool = False) -> np.ndarray:
    """The float array of finite order-1..3 data with equal sides, averaged
    over all index permutations unless promised symmetric.  Non-finite data
    raises :class:`NonFiniteEvaluation`."""
    arr = np.atleast_1d(np.asarray(entries, dtype=float))
    order, dim = arr.ndim, arr.shape[0]
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"tensor order must be in 1..{MAX_ORDER}, got {order}")
    if arr.shape != (dim,) * order:
        raise ValueError(f"entries shape {arr.shape} != {(dim,) * order}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEvaluation(f"order-{order} tensor entries are not finite")
    if not already_symmetric and order > 1:
        perms = list(itertools.permutations(range(order)))
        arr = sum(np.transpose(arr, p) for p in perms) / len(perms)
    return arr


def vector_norm(v: Vector) -> float:
    """Euclidean norm of a 1-D array, equal to ``np.linalg.norm(v)`` bit for
    bit (numpy computes sqrt(v.dot(v)) too) at a fraction of its call cost."""
    return math.sqrt(v.dot(v))


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[i] @ y[i] per row, through the dot a lone pair of vectors uses."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, through the dot a lone ``norm`` uses."""
    return np.sqrt(row_dots(v, v))


def _product(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """t with every slot but one filled by s, for each row s of ``rows``
    (m, n): T_2 s or T_3[s, s, .], as an (m, n, 1) stack.  The form t[s]^i
    is s dotted with it, and the model gradient adds it over (i - 1)!."""
    # Stacked products send every row through the BLAS call a lone point
    # uses (gemv for t @ s, then dot), so batch rows equal single-point
    # values bit for bit; ``rows @ t`` would switch to gemm and round apart.
    if t.ndim == 2:
        return t @ rows[:, :, None]
    return np.einsum("abc,pb,pc->pa", t, rows, rows)[:, :, None]


def _forms(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """t[s]^i for each row s of ``rows`` (m, n)."""
    if t.ndim == 1:
        return (rows[:, None, :] @ t)[:, 0]
    return (rows[:, None, :] @ _product(t, rows))[:, 0, 0]


def tensor_apply(t: np.ndarray, s):
    """i-linear form of the tensor applied to (s, ..., s), without the 1/i!.

    ``s`` is one point (n,), giving a float, or rows (m, n), giving an
    array of m values.
    """
    s = np.asarray(s, dtype=float)
    v = _forms(t, s if s.ndim == 2 else s[None, :])
    return float(v[0]) if s.ndim == 1 else v


def make_bundle(tensors) -> Bundle:
    """The validated bundle (T_1, ..., T_j): slot i holds a finite order-i
    tensor, and all tensors share one dimension."""
    bundle = tuple(sym_tensor(t, already_symmetric=True) for t in tensors)
    if not bundle:
        raise ValueError("bundle needs at least the order-1 tensor")
    for i, t in enumerate(bundle, start=1):
        if t.ndim != i:
            raise ValueError(f"tensor at slot {i} has order {t.ndim}")
        if t.shape[0] != bundle[0].size:
            raise ValueError("tensors of one bundle must share one dimension")
    return bundle


def taylor_decrement(b: Bundle, s, j: int | None = None):
    """Model decrement m(0) - m(s) of the degree-j model; independent of f0.

    ``s`` is one point (n,), giving a float, or rows (m, n), giving an
    array of m values.
    """
    j = len(b) if j is None else j
    if j > len(b):
        raise ValueError(f"requested degree {j} exceeds bundle degree {len(b)}")
    s = np.asarray(s, dtype=float)
    one = s.ndim == 1
    rows = s[None, :] if one else s
    total = 0.0
    for i in range(1, j + 1):
        v = _forms(b[i - 1], rows)
        total += (float(v[0]) if one else v) / factorial(i)
    return -total


def taylor_value(b: Bundle, f0: float, s, j: int | None = None) -> float:
    """Degree-j model value f0 + sum_i T_i[s]^i / i!."""
    return f0 - taylor_decrement(b, s, j)


def model_gradient(b: Bundle, s, j: int | None = None) -> Vector:
    """Gradient (in s) of the degree-j model: T_1 + T_2 s + (1/2) T_3[s,s,.].

    ``s`` is one point (n,), giving a vector, or rows (m, n), giving one
    gradient per row.
    """
    j = len(b) if j is None else j
    s = np.asarray(s, dtype=float)
    rows = s if s.ndim == 2 else s[None, :]
    g = np.empty_like(rows)
    g[:] = b[0]
    for i in range(2, j + 1):
        g += _product(b[i - 1], rows)[:, :, 0] / factorial(i - 1)
    return g[0] if s.ndim == 1 else g


def operator_norm(entries, order: int):
    """Operator norm of a symmetric tensor, or a certified upper bound on it.

    ``entries`` is one order-``order`` tensor (n,)*order, giving a float, or
    a stack of them with leading batch axes, giving an array of norms; a
    single tensor is a stack of one.  Exact for orders 1 and 2 (Euclidean /
    spectral norm).  For order 3 the exact max_{|u|=1} |T[u]^3| is NP-hard in
    general; the Frobenius norm bounds it from above (Cauchy-Schwarz), which
    is what the audit bounds need.
    """
    e = np.asarray(entries, dtype=float)
    batch = e.shape[:e.ndim - order]
    stack = e.reshape((-1,) + e.shape[e.ndim - order:])
    if order == 2:
        norms = np.abs(np.linalg.eigvalsh(stack)).max(axis=-1)
    else:
        # Scaling by a power of two is exact: each norm equals norm(entries)
        # bit for bit unless squaring the entries would underflow (a zero
        # "bound" for entries below ~1e-154) or overflow.  The stacked dot
        # sends every row through the dot a lone norm() uses.
        flat = stack.reshape(len(stack), -1)
        k = np.frexp(np.abs(flat).max(axis=1))[1]
        flat = np.ldexp(flat, -k[:, None])
        norms = np.ldexp(np.sqrt(row_dots(flat, flat)), k)
    return float(norms[0]) if not batch else norms.reshape(batch)
