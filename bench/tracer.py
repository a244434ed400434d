"""Outside-in tracing of the momentadapt layers.

The tracer wraps every public function of each layer module, plus a few
hot methods on their classes, without touching the library's source.  A
function is often bound under several names (``gauss_rule`` lives in the
``quadrature``, ``densities`` and ``maxent`` namespaces, and everything is
re-exported by the package), so each binding is found by identity in the
``momentadapt.*`` module dicts and replaced by the same wrapper.

Per wrapped target it records the call count, the total time and the self
time: a span's duration minus the time its direct wrapped children cover.
No layer has a queue or a lock, so no work ever waits for a layer; the
report states that wait time as zero instead of leaving it out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "momentadapt"
LAYER_MODULES = (
    "quadrature",
    "basis",
    "densities",
    "maxent",
    "metrics",
    "bounds",
    "experiments",
    "cli",
)

# Methods wrapped on their classes: (module, class, attribute, metric name).
CLASS_METHODS = (
    ("densities", "ExpFamilyDensity", "__init__", "init"),
    ("densities", "GridDensity", "__init__", "init"),
    ("basis", "PolyBasis1D", "eval_all", "eval_all"),
    ("quadrature", "QuadGridND", "nodes", "nodes"),
)


class _Span:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


class Tracer:
    """Installs and removes the wrappers; accumulates spans and counters."""

    def __init__(self):
        self.recording = False
        self.found: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[_Span] = []
        self.reset()

    # ------------------------------------------------------------------
    # counters

    def reset(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {
            "quadrature.nodes_built": 0,
            "quadrature.node_bytes_computed": 0,
            "basis.eval_all.values": 0,
            "maxent.newton_iters": 0,
            "maxent.fit_ok": 0,
            "maxent.fit_failed": 0,
            "experiments.theorem1.attempts": 0,
            "experiments.theorem1.accepted": 0,
            "experiments.concentration.infeasible": 0,
        }
        self.exit_codes: dict[str, int] = {str(code): 0 for code in range(4)}
        self.counter_errors = 0

    def _count(self, name: str, args, result, exc):
        """Work counters read off the arguments and results of a call."""
        c = self.counters
        if name == "quadrature.QuadGridND.nodes" and exc is None:
            grid = args[0]
            c["quadrature.nodes_built"] += grid.n_nodes
            # computed, not measured: nodes x dim float64 coordinates
            c["quadrature.node_bytes_computed"] += grid.n_nodes * grid.dim * 8
        elif name == "basis.PolyBasis1D.eval_all" and exc is None:
            c["basis.eval_all.values"] += int(np.size(args[1])) * (args[0].degree + 1)
        elif name == "maxent.fit_maxent":
            if exc is None:
                c["maxent.fit_ok"] += 1
                c["maxent.newton_iters"] += int(result.iterations)
            elif type(exc).__name__ in ("InfeasibleMomentsError", "MaxIterationsError"):
                c["maxent.fit_failed"] += 1
        elif name == "experiments.theorem1_empirical_verification" and exc is None:
            c["experiments.theorem1.attempts"] += int(result.summary["attempts"])
            c["experiments.theorem1.accepted"] += int(result.summary["accepted"])
        elif name == "experiments.sample_concentration" and exc is None:
            c["experiments.concentration.infeasible"] += int(
                result.summary["infeasible_total"]
            )
        elif name == "cli.main":
            code = result if exc is None else getattr(exc, "code", None)
            if exc is None or isinstance(exc, SystemExit):
                key = str(code)
                self.exit_codes[key] = self.exit_codes.get(key, 0) + 1

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = _Span()
            stack = tracer._stack
            stack.append(span)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total_s[name] = tracer.total_s.get(name, 0.0) + dur
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - span.child_s
                try:
                    tracer._count(name, args, result, exc)
                except Exception:  # a counter must never change the traced call
                    tracer.counter_errors += 1

        return wrapper

    def _targets(self):
        """(metric name, target) pairs; a class method's target is
        (class, attribute, function)."""
        out = []
        for short in LAYER_MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    out.append((f"{short}.{attr}", obj))
        for short, cls_name, attr, label in CLASS_METHODS:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            cls = getattr(mod, cls_name, None) if mod is not None else None
            fn = vars(cls).get(attr) if isinstance(cls, type) else None
            if inspect.isfunction(fn):
                out.append((f"{short}.{cls_name}.{label}", (cls, attr, fn)))
        return out

    def install(self):
        if self._installed:
            return
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        self.found = []
        for name, target in self._targets():
            self.found.append(name)
            if isinstance(target, tuple):
                cls, attr, fn = target
                self._installed.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(name, fn))
                continue
            wrapper = self._wrap(name, target)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is target:
                        self._installed.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # ------------------------------------------------------------------
    # results

    def snapshot(self) -> dict:
        """Per-target and counter values of the spans recorded so far."""
        out = {}
        for name in self.found:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            out[f"{name}.total_s"] = self.total_s.get(name, 0.0)
        out.update(self.counters)
        for code, n in self.exit_codes.items():
            out[f"cli.exit_code.{code}"] = n
        return out
