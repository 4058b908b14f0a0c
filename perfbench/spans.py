"""Span tracing of dyntrust's public functions, applied from outside the library.

:func:`instrumented` rebinds each traced function in every ``dyntrust``
module namespace that holds it, because callers look names up in their own
module (``verify`` is bound in ``optimality`` and ``step``, ``max_decrement``
in ``optimality`` and ``step``, ``termination_test`` and ``compute_step`` in
``driver``).  Oracle and problem methods are rebound on their classes.  All
bindings are restored on exit.

A span is (name, phase, parent, start, end) plus the index of its last
descendant; spans are stored in pre-order in flat arrays, kept in memory and
written out once with :meth:`Tracer.save`.  Self time is a span's duration
minus its children's durations.  The two cheapest, most-called helpers
(``as_vector`` and ``sym_tensor``) are counted, not spanned.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

import numpy as np

PHASES = ("solve", "audit")

# (module, function, span name, position and keyword of the order argument)
FUNCTIONS = [
    ("driver", "run", "driver.run", None),
    ("driver", "check_history", "driver.check_history", None),
    ("driver", "bounds_for_run", "driver.bounds_for_run", None),
    ("optimality", "termination_test", "optimality.termination_test", None),
    ("optimality", "certified_decrement", "optimality.certified_decrement", None),
    ("optimality", "max_decrement", "optimality.max_decrement", (1, "j")),
    ("step", "compute_step", "step.compute_step", None),
    ("verify", "verify", "verify.verify", None),
    ("model", "taylor_decrement", "model.taylor_decrement", None),
    ("model", "model_gradient", "model.model_gradient", None),
    ("model", "operator_norm", "model.operator_norm", None),
    ("reference", "lipschitz_estimate", "reference.lipschitz_estimate", None),
    ("reference", "phi_reference", "reference.phi_reference", None),
]

# (module, class, method, span name, position and keyword of the order
# argument, counting ``self``)
METHODS = [
    ("oracle", "InexactOracle", "eval_f", "oracle.eval_f", None),
    ("oracle", "InexactOracle", "eval_deriv", "oracle.eval_deriv", (2, "order")),
    ("oracle", "Problem", "exact_f", "problems.fun", None),
    ("oracle", "Problem", "exact_deriv", "problems.deriv", None),
]

COUNTED = [("model", "as_vector", "model.as_vector"),
           ("model", "sym_tensor", "model.sym_tensor")]

ORACLE_SPANS = ("oracle.eval_f", "oracle.eval_deriv.o1", "oracle.eval_deriv.o2",
                "oracle.eval_deriv.o3")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.phase = array("b")
        self.parent = array("q")
        self.last = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.phase_id = 0
        self.counts: dict[tuple[str, str], int] = {}

    def set_phase(self, phase: str) -> None:
        self.phase_id = PHASES.index(phase)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.phase.append(self.phase_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.last.append(idx)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.last[idx] = len(self.name) - 1
        self.stack.pop()

    def count(self, key: str) -> None:
        k = (PHASES[self.phase_id], key)
        self.counts[k] = self.counts.get(k, 0) + 1

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays, with each span's self time."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "phase": np.frombuffer(self.phase, dtype=np.int8),
                "parent": parent, "last": np.frombuffer(self.last, dtype=np.int64),
                "start": start, "dur": dur, "self": dur - child}

    def summary(self) -> dict[str, float]:
        """``<phase>.<span>.calls`` and ``.self_s`` for every span name seen,
        ``<phase>.<counter>.calls`` for every counter, and the share of
        ``step.compute_step`` spans with no oracle call beneath them."""
        out: dict[str, float] = {}
        a = self.arrays()
        k = len(self.names)
        key = a["phase"].astype(np.int64) * k + a["name"]
        calls = np.bincount(key, minlength=len(PHASES) * k)
        self_s = np.bincount(key, weights=a["self"], minlength=len(PHASES) * k)
        for p, phase in enumerate(PHASES):
            for i, name in enumerate(self.names):
                out[f"{phase}.{name}.calls"] = int(calls[p * k + i])
                out[f"{phase}.{name}.self_s"] = float(self_s[p * k + i])
                base, _, order = name.rpartition(".o")
                if order in ("1", "2", "3"):
                    for stat, v in (("calls", calls), ("self_s", self_s)):
                        total = f"{phase}.{base}.{stat}"
                        out[total] = out.get(total, 0) + v[p * k + i].item()
        for (phase, name), n in self.counts.items():
            out[f"{phase}.{name}.calls"] = n
        out["solve.step.passthrough_share"] = self._passthrough_share(a)
        return out

    def _passthrough_share(self, a) -> float:
        if "step.compute_step" not in self._ids:
            return 0.0
        steps = np.flatnonzero(a["name"] == self._ids["step.compute_step"])
        oracle_ids = [self._ids[n] for n in ORACLE_SPANS if n in self._ids]
        oracle = np.flatnonzero(np.isin(a["name"], oracle_ids))
        # descendants of span i are exactly the indices i+1 .. last[i]
        below = (np.searchsorted(oracle, a["last"][steps], side="right")
                 - np.searchsorted(oracle, steps, side="right"))
        return float(np.mean(below == 0))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), phases=np.array(PHASES),
                 **self.arrays())


def _span_wrapper(tracer: Tracer, name: str, fn, order_arg):
    enter, exit_ = tracer.enter, tracer.exit
    if order_arg is None:
        nid = tracer.name_id(name)

        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)
    else:
        pos, kw = order_arg
        nids = {j: tracer.name_id(f"{name}.o{j}") for j in (1, 2, 3)}

        def traced(*args, **kwargs):
            idx = enter(nids[kwargs[kw] if kw in kwargs else args[pos]])
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)
    return traced


def _verify_wrapper(tracer: Tracer, fn):
    spanned = _span_wrapper(tracer, "verify.verify", fn, None)

    def traced(*args, **kwargs):
        outcome = spanned(*args, **kwargs)
        tracer.count(f"verify.outcome.{outcome.value}")
        return outcome
    return traced


def _count_wrapper(tracer: Tracer, name: str, fn):
    count = tracer.count

    def counted(*args, **kwargs):
        count(name)
        return fn(*args, **kwargs)
    return counted


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every traced dyntrust function through ``tracer`` while active."""
    import dyntrust  # noqa: F401  (loads every module the patches touch)

    modules = [m for n, m in list(sys.modules.items())
               if n == "dyntrust" or n.startswith("dyntrust.")]
    restore = []

    def rebind(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    try:
        for mod, fname, span, order_arg in FUNCTIONS:
            fn = getattr(sys.modules[f"dyntrust.{mod}"], fname)
            if span == "verify.verify":
                rebind(fn, _verify_wrapper(tracer, fn))
            else:
                rebind(fn, _span_wrapper(tracer, span, fn, order_arg))
        for mod, fname, name in COUNTED:
            fn = getattr(sys.modules[f"dyntrust.{mod}"], fname)
            rebind(fn, _count_wrapper(tracer, name, fn))
        for mod, cls_name, meth, span, order_arg in METHODS:
            cls = getattr(sys.modules[f"dyntrust.{mod}"], cls_name)
            fn = cls.__dict__[meth]
            restore.append((cls, meth, fn))
            setattr(cls, meth, _span_wrapper(tracer, span, fn, order_arg))
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
