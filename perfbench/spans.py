"""Span tracer that wraps hhkit's public functions from outside the package.

``Tracer.install()`` replaces every public module-level function of the
traced modules, plus the evaluation methods of ``FunctionSpec`` and
``DerivedFunction`` and ``Partition.uniform``, with a wrapper that records a
span: its name, its parent span and its duration.  Every binding of a wrapped
object is patched, including names imported into other modules (``hhbounds``
imports ``reference_integrate``, ``cli`` and ``corpus`` import
``parse_function``) and class aliases (``FunctionSpec.__call__`` is
``FunctionSpec.value``).  ``uninstall()`` restores the originals.

Spans are aggregated in memory by (name, parent, argument kind): calls,
points, self time (duration minus child spans) and total time.  Nothing is
written until the caller asks for ``layer_metrics()``.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("expr", "convexity", "kernels", "hhbounds", "means", "quadrature", "cli")

# evaluation methods whose first argument after self is the point(s) x
_EVAL_METHODS = {
    "FunctionSpec": ("value", "__call__", "eval_with_derivative", "derivative"),
    "DerivedFunction": ("__call__", "value"),
}
_CLASS_METHODS = {"Partition": ("uniform",)}

ROOT = "bench"
# spans that enclose a whole suite run: every hhkit call made from code the
# tracer does not wrap (private helpers, record building) lands in their self
# time, so coverage leaves it out
ENTRY_SPANS = frozenset({"cli.main", "cli.dispatch", "cli.run_suite"})


class Tracer:
    def __init__(self):
        self._stack = [[ROOT, 0.0]]  # [name, child seconds] per open span
        # (name, parent, kind) -> [calls, points, self_s, total_s, max_points]
        self.agg = defaultdict(lambda: [0, 0, 0.0, 0.0, 0])
        self.certify_samples = 0
        self.certify_falsified = 0
        self._patches = []  # (container, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name, x_index):
        stack = self._stack
        agg = self.agg
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                parent[1] += dur
                kind, points = None, 0
                if x_index is not None:
                    x = args[x_index] if len(args) > x_index else kwargs.get("x")
                    if np.ndim(x) == 0:
                        kind, points = "scalar", 1
                    else:
                        kind, points = "vector", int(np.size(x))
                rec = agg[(name, parent[0], kind)]
                rec[0] += 1
                rec[1] += points
                rec[2] += dur - frame[1]
                rec[3] += dur
                if points > rec[4]:
                    rec[4] = points
            if name == "convexity.certify":
                tracer.certify_samples += out.samples_checked
                tracer.certify_falsified += int(out.falsified)
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"hhkit.{name}") for name in LAYERS}
        containers = [importlib.import_module("hhkit"), importlib.import_module("hhkit.corpus")]
        containers += list(mods.values())
        replacements = {}  # id(original) -> wrapper

        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    replacements[id(obj)] = self._wrap(obj, f"{layer}.{attr}", None)
        expr = mods["expr"]
        for cls_name, methods in _EVAL_METHODS.items():
            cls = getattr(expr, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                if id(fn) not in replacements:
                    replacements[id(fn)] = self._wrap(fn, f"expr.{cls_name}.{fn.__name__}", 1)
                self._patch(cls, meth, replacements[id(fn)])
        quad = mods["quadrature"]
        for cls_name, methods in _CLASS_METHODS.items():
            cls = getattr(quad, cls_name)
            for meth in methods:
                cm = cls.__dict__[meth]
                wrapped = self._wrap(cm.__func__, f"quadrature.{cls_name}.{meth}", None)
                self._patch(cls, meth, classmethod(wrapped))

        # every binding of a wrapped function, in every hhkit module
        for mod in containers:
            for attr, obj in list(vars(mod).items()):
                w = replacements.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)

    def _patch(self, container, attr, new):
        self._patches.append((container, attr, container.__dict__[attr]))
        setattr(container, attr, new)

    def uninstall(self):
        for container, attr, orig in reversed(self._patches):
            setattr(container, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _sum(self, field, name=None, prefix=None, parent=None, kind=None, outer=False):
        total = 0
        for (n, p, k), rec in self.agg.items():
            if name is not None and n != name:
                continue
            if prefix is not None and not n.startswith(prefix):
                continue
            if parent is not None and p != parent:
                continue
            if kind is not None and k != kind:
                continue
            if outer and p.startswith("expr."):
                continue
            total += rec[field]
        return total

    def layer_self_times(self):
        out = defaultdict(float)
        for (n, _, _), rec in self.agg.items():
            out[n.split(".")[0]] += rec[2]
        return dict(out)

    def entry_self_time(self):
        return sum(rec[2] for (n, _, _), rec in self.agg.items() if n in ENTRY_SPANS)

    def layer_metrics(self, wall_s: float, bench_s: float):
        """Per-layer counts and self times (seconds), keyed as in BENCHMARK.json.

        wall_s is the traced wall time and bench_s the part of it the benchmark
        spent outside hhkit calls, both measured by the caller's own clock;
        ``trace.coverage`` is (layer self times, less those of ENTRY_SPANS,
        + bench_s) / wall_s.  hhkit time outside any span (class constructors
        called by the benchmark) lowers it.
        """
        s = self._sum
        guarantee = "quadrature.integrate_with_guarantee"
        deriv = "expr.FunctionSpec.derivative"
        g_max = max(
            (rec[4] for (n, p, k), rec in self.agg.items()
             if n == deriv and p == guarantee and k == "vector"),
            default=1,
        )
        g_passes = s(0, name=deriv, parent=guarantee, kind="vector")
        scalar_calls = s(0, prefix="expr.", kind="scalar", outer=True)
        scalar_s = s(2, prefix="expr.", kind="scalar")
        vector_points = s(1, prefix="expr.", kind="vector", outer=True)
        vector_s = s(2, prefix="expr.", kind="vector")
        certify_calls = s(0, name="convexity.certify")
        selfs = self.layer_self_times()
        m = {
            "quadrature.guarantee_calls": s(0, name=guarantee),
            "quadrature.guarantee_passes": g_passes,
            "quadrature.guarantee_points": s(1, name=deriv, parent=guarantee, kind="vector"),
            "quadrature.guarantee_max_n": g_max - 1 if g_passes else 0,
            "quadrature.guarantee_s": s(2, name=guarantee),
            "quadrature.reference_calls": s(0, name="quadrature.reference_integrate"),
            "quadrature.reference_fevals": s(0, parent="quadrature.reference_integrate"),
            "quadrature.reference_s": s(2, name="quadrature.reference_integrate"),
            "expr.scalar_calls": scalar_calls,
            "expr.scalar_us_per_call": scalar_s / scalar_calls * 1e6 if scalar_calls else 0.0,
            "expr.scalar_s": scalar_s,
            "expr.vector_points": vector_points,
            "expr.vector_ns_per_point": vector_s / vector_points * 1e9 if vector_points else 0.0,
            "expr.vector_s": vector_s,
            "expr.parse_s": s(2, name="expr.parse") + s(2, name="expr.parse_function"),
            "convexity.certify_calls": certify_calls,
            "convexity.lattice_points": self.certify_samples,
            "convexity.certify_s": selfs.get("convexity", 0.0),
            "convexity.falsified_share": (
                self.certify_falsified / certify_calls if certify_calls else 0.0
            ),
            "hhbounds.bound_s": s(2, name="hhbounds.theorem_bound"),
            "hhbounds.verify_s": sum(
                s(2, name=f"hhbounds.{fn}")
                for fn in ("verify_theorem", "hh_gap", "hypothesis_function", "classical_hh_check")
            ),
            "hhbounds.lemma_s": s(2, name="hhbounds.lemma_identity_residuals"),
            "kernels.identity_calls": s(0, name="kernels.verify_kernel_identities"),
            "kernels.identity_s": s(2, name="kernels.verify_kernel_identities"),
            "means.calls": s(0, prefix="means."),
            "means.s": selfs.get("means", 0.0),
            "cli.format_s": s(2, name="cli.format_records"),
            "cli.run_suite_total_s": s(3, name="cli.run_suite"),
        }
        m["cli.entry_self_s"] = self.entry_self_time()
        m["trace.coverage"] = (sum(selfs.values()) - m["cli.entry_self_s"] + bench_s) / wall_s
        return m, selfs
