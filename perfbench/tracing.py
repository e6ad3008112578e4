"""Layer tracing by wrapping skewinv's public functions from outside.

Each traced layer is a function or method of one skewinv module.  The wrapper
replaces it in every skewinv module namespace that binds it by name, so calls
between modules are seen too (`mul` is bound in skew_algebra, invariants,
presentations and auslander).  Spans are aggregated per (name, parent) as
they close: a call count, total time and self time, which is the total minus
the time covered by child spans.  Scalar operations run millions of times, so
no span is stored one by one.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, layer name); "Class.attr" patches a class attribute.
LAYERS = [
    ("scalars", "Cyclo.__mul__", "scalars.mul"),
    ("scalars", "Cyclo.__rmul__", "scalars.mul"),
    ("scalars", "Cyclo.__add__", "scalars.add"),
    ("scalars", "Cyclo.__radd__", "scalars.add"),
    ("scalars", "Cyclo.inverse", "scalars.inverse"),
    ("scalars", "Cyclo.promote", "scalars.promote"),
    ("scalars", "Cyclo.root", "scalars.root"),
    ("skew_algebra", "mul", "skew_algebra.mul"),
    ("skew_algebra", "apply_aut", "skew_algebra.apply_aut"),
    ("skew_algebra", "power", "skew_algebra.power"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "SpanBuilder.add", "linalg.span_add"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("group_actions", "enumerate_group", "group_actions.enumerate_group"),
    ("group_actions", "trace_series", "group_actions.trace_series"),
    ("group_actions", "group_report", "group_actions.group_report"),
    ("group_actions", "GroupSpec.__init__", "group_actions.groupspec_build"),
    ("hj_series", "nc_series", "hj_series.nc_series"),
    ("hj_series", "hj_expand", "hj_series.hj_expand"),
    ("invariants", "molien", "invariants.molien"),
    ("invariants", "fixed_space", "invariants.fixed_space"),
    ("invariants", "generator_set", "invariants.generator_set"),
    ("invariants", "verify_generation", "invariants.verify_generation"),
    ("invariants", "gnk_basis", "invariants.gnk_basis"),
    ("invariants", "theta_correspondence", "invariants.theta_correspondence"),
    ("presentations", "truncated_quotient_dims", "presentations.truncated_quotient_dims"),
    ("presentations", "eval_relations", "presentations.eval_relations"),
    ("presentations", "verify_presentation", "presentations.verify_presentation"),
    ("auslander", "ideal_dims", "auslander.ideal_dims"),
    ("auslander", "smash_mul", "auslander.smash_mul"),
    ("auslander", "finite_dim_witness", "auslander.finite_dim_witness"),
    ("cli", "main", "cli.main"),
]

IDEAL_METHODS = ("generic_span", "gh_basis_graph", "character_counting")


class Tracer:
    """Installs wrappers on construction; `restore` takes them off again."""

    def __init__(self):
        # (name, parent) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child_s] per open span
        self._undo: list[tuple[object, str, object]] = []
        self._install()

    # -- spans ------------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name):
        self._stack.append([name, 0.0])

    def _close(self, name, dt):
        frame = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dt
        rec = self.spans[(name, parent[0] if parent else None)]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    rec = spans[(name, parent[0])]
                else:
                    rec = spans[(name, None)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(args, result, dt - frame[1])
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-layer extras ---------------------------------------------------

    def _after_mul(self, args, result, self_s):
        a, b = args
        if a.order > 1 or getattr(b, "order", 1) > 1:
            self.counts["scalars.mul.cyclotomic_calls"] += 1

    def _after_rref(self, args, result, self_s):
        self.counts["linalg.rref.rows"] += len(args[0])
        self.counts["linalg.rref.pivots"] += len(result[1])

    def _after_span_add(self, args, result, self_s):
        if result:
            self.counts["linalg.span_add.useful"] += 1

    def _after_ideal_dims(self, args, result, self_s):
        method = result["method"]
        self.counts[f"auslander.ideal_dims.{method}.self_s"] += self_s
        self.counts[f"auslander.ideal_dims.{method}.degrees"] += result["N"] + 1

    # -- installation -----------------------------------------------------

    def _install(self):
        after = {
            "scalars.mul": self._after_mul,
            "linalg.rref": self._after_rref,
            "linalg.span_add": self._after_span_add,
            "auslander.ideal_dims": self._after_ideal_dims,
        }
        modules = {}
        for mod_name, _, _ in LAYERS:
            modules[mod_name] = importlib.import_module(f"skewinv.{mod_name}")
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "skewinv" or name.startswith("skewinv."))
        ]
        wrapped = {}  # original function id -> wrapper, so aliases share one wrapper
        for mod_name, attr, layer in LAYERS:
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = wrapped.get(id(fn)) or self._wrap(layer, fn, after.get(layer))
                wrapped[id(fn)] = wrapper
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(wrapper) if is_static else wrapper)
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(layer, fn, after.get(layer))
            for ns in namespaces:
                if getattr(ns, attr, None) is fn:
                    self._undo.append((ns, attr, fn))
                    setattr(ns, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        """layer name -> [calls, total_s, self_s], summed over parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _), (calls, total, self_s) in self.spans.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def table(self) -> list[str]:
        """One line per (name, parent), heaviest self time first."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        return [
            f"span {name:<42} parent={parent or '-':<34} calls={calls:<9} "
            f"total_s={total:.4f} self_s={self_s:.4f}"
            for (name, parent), (calls, total, self_s) in rows
        ]


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, time.perf_counter() - self.t0)
        return False
