"""In-memory span tracing from outside the package.

Spans are recorded by swapping wrappers in for the module attributes
through which one layer calls the next, so nothing inside the package
changes. Each span has a name (the call site), the layer it enters, a
start and end in integer nanoseconds, its parent span and the op it
belongs to. Self time is a span's duration minus what its children cover.
"""

from __future__ import annotations

import json
import time

# "module.attribute" call sites, grouped by the layer they enter; the
# attribute's module is the calling layer
SERIES_SITES = ("catalog.eval_weighted", "expr.eval_weighted")
SPECIALFN_SITES = ("expr._ln_gamma", "expr._digamma", "expr._gamma_ratio",
                   "expr._elliptic_K")
CATALOG_SITES = ("hyperharmonic.verify", "cli.verify", "cli.build_registry")

_UNIT_BAND = 1e-12  # |r*x| this close to 1 takes the unit-circle path


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, layer, parent, op):
        self.name, self.layer, self.parent, self.op = name, layer, parent, op
        self.start = self.end = 0
        self.attrs = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.in_expr = False
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- installing wrappers ---------------------------------------------

    def install(self, hh) -> None:
        """Wrap the package's inter-layer call sites; undo with uninstall()."""
        mods = {"hyperharmonic": hh, "catalog": hh.catalog, "expr": hh.expr,
                "cli": hh.cli}
        for site in SERIES_SITES:
            self._patch(mods, site, self._series_wrapper)
        for site in SPECIALFN_SITES:
            self._patch(mods, site, self._plain_wrapper("specialfn"))
        for site in CATALOG_SITES:
            self._patch(mods, site, self._plain_wrapper("catalog"))
        self._patch(mods, "cli.main", self._plain_wrapper("cli"))
        # catalog and cli enter expr through Expr.eval on a tree's root; the
        # nodes below the root call each other through the same method
        for cls in _subclasses(hh.expr.Expr):
            if "eval" in vars(cls):
                self._patch_attr(cls, "eval", self._expr_wrapper(cls.eval))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, mods, site, make):
        mod_name, attr = site.rsplit(".", 1)
        owner = mods[mod_name]
        self._patch_attr(owner, attr, make(site, getattr(owner, attr)))

    def _patch_attr(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _plain_wrapper(self, layer):
        def make(site, fn):
            def wrapper(*args, **kwargs):
                return self.call(site, layer, fn, *args, **kwargs)
            return wrapper
        return make

    def _series_wrapper(self, site, fn):
        def wrapper(spec, weight, x, **kwargs):
            span = self.open(site, "series")
            path = ("accel" if abs(abs(spec.geometric_ratio * complex(x)) - 1.0)
                    <= _UNIT_BAND else "direct")
            span.attrs = {"path": path, "raised": True}
            try:
                res = fn(spec, weight, x, **kwargs)
            finally:
                self.close(span)
            # the engine's own acceptance: tail <= tol * max(1, |S|)
            tol = kwargs.get("tol")
            scale = tol * max(1.0, abs(res.value)) if tol else 0.0
            span.attrs = {"path": path, "raised": False,
                          "terms": res.terms_used, "converged": res.converged,
                          "tail_over_tol": res.tail_bound / scale if scale else 0.0}
            return res
        return wrapper

    def _expr_wrapper(self, fn):
        tracer = self

        def eval(node, env):
            if tracer.in_expr:  # a node below the root
                return fn(node, env)
            tracer.in_expr = True
            try:
                return tracer.call("expr.eval", "expr", fn, node, env)
            finally:
                tracer.in_expr = False
        return eval

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[int]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer,
                    "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "op": s.op, **(s.attrs or {})}) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
