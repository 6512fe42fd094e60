"""Spans around the public functions at each layer boundary of curvejac.

``Tracer.install`` wraps each hooked function and replaces it under every
name that refers to it in every loaded ``curvejac`` module, so calls made
inside the package are traced as well as calls from the CLI.  Methods are
wrapped on their class.  ``remove`` puts every original back.

A span is (name, start_ns, end_ns, parent index, operation index), in CPU
time of the process; spans stay in memory until the run writes them out.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer name -> functions it covers, as (module, attribute).  A name that a
# later version of the package no longer has is reported in ``missing``.
FUNCTION_HOOKS = {
    "lattice.top_intersect": [("curvejac.lattice", "top_intersect")],
    "lattice.pair_theta_power": [("curvejac.lattice", "pair_theta_power")],
    "lattice.nsclass": [("curvejac.lattice", "as_fraction")],
    "heights.height_point": [("curvejac.heights", "height_point")],
    "heights.height_curve": [("curvejac.heights", "height_curve")],
    "minima.cone_minimum": [("curvejac.minima", "cone_minimum")],
    "minima.zhang_audit": [("curvejac.minima", "zhang_audit")],
    "cones.classify": [("curvejac.cones", "classify")],
    "cli.parse": [("curvejac.cli", "build_parser"), ("curvejac.cli", "parse_class"),
                  ("curvejac.cli", "parse_rational")],
    "cli.render": [("curvejac.cli", "fmt_rat"), ("curvejac.cli", "decimal_str")],
}
# Layer name -> methods it covers, as (module, class, method).
METHOD_HOOKS = {
    "lattice.nsclass": [("curvejac.lattice", "NSClass", "__init__")],
    "cli.render": [("curvejac.lattice", "NSClass", "__str__")],
}
LAYERS = list(FUNCTION_HOOKS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time_ns
        count_factors = name == "lattice.top_intersect"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if count_factors:  # top_intersect(classes): one factor per class
                    self.work["lattice.top_intersect.factors"] += len(args[0])

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in sys.modules.items()
                   if key == "curvejac" or key.startswith("curvejac.")]
        for name, hooks in FUNCTION_HOOKS.items():
            for module, attr in hooks:
                original = getattr(sys.modules.get(module), attr, None)
                if original is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, original))
        for name, hooks in METHOD_HOOKS.items():
            for module, cls_name, attr in hooks:
                cls = getattr(sys.modules.get(module), cls_name, None)
                original = None if cls is None else cls.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{module}.{cls_name}.{attr}")
                    continue
                setattr(cls, attr, self._wrap(name, original))
                self._undo.append((cls, attr, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_totals(self, first_span: int, scale: dict[int, float]) -> dict:
        """Calls and self time (ns, scaled per operation by ``scale``) for
        each layer over ``spans[first_span:]``."""
        spans = self.spans[first_span:]
        child_ns: defaultdict[int, int] = defaultdict(int)
        for name, start, end, parent, op in spans:
            if parent >= first_span:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(spans, first_span):
            calls[name] += 1
            self_ns[name] += (end - start - child_ns[index]) * scale[op]
        return {name: (calls[name], self_ns[name]) for name in LAYERS}
