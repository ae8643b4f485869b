"""Outside-in layer tracer for trgeo.

The tracer times the calls into each layer from outside the program: it
replaces every public function of the trgeo modules with a wrapper that
records a span, in every module namespace that binds the function
(geodesic_flow and variation_harness bind `frames`, `density`,
`is_totally_real` and others through `from .immersion import ...`, so
patching the defining module alone would miss those calls), and wraps the
batched `AmbientChart` kernels. `restore`
puts every original back. Private helpers are not wrapped: their time counts
as self time of the public function that called them.

A span is [name, start, end, parent, scenario, self_s, counts]: `parent` is
the index of the enclosing span (-1 at top level), `self_s` the span's
duration minus the durations of the spans it directly encloses, and `counts`
the work quantities read from the call's arguments before it runs and from
its result after it returns, or None. A call that raises keeps only its
argument counts. Counts that only the program's own calls can show, like
the RK4 steps of `flow_timestep`, are taken from the spans (`rk4_steps`).
"""

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

LAYERS = ("_spectral", "ambient", "immersion", "curve_lab", "geodesic_flow",
          "variation_harness", "cli")
CHART_KERNELS = ("metric_many", "christoffel_many", "ricci_many")


def _layer(module_name):
    """'trgeo._spectral' -> 'spectral' (metric names start with a letter)."""
    return module_name.split(".", 1)[1].lstrip("_")


def _points(args, kwargs):
    shape = getattr(args[1], "shape", None)
    if shape is None:
        return {"points": len(args[1])}
    return {"points": math.prod(shape[:-1])}


# Quantities read from a call's arguments, before the call runs.
ARG_COUNTERS = {
    "spectral.evaluate_fourier_2d": lambda a, k: {"points": len(a[1])},
    "immersion.frames": lambda a, k: {"nodes": math.prod(a[0].grid.sizes)},
    "ambient.metric_many": _points,
    "ambient.christoffel_many": _points,
    "ambient.ricci_many": _points,
    "geodesic_flow.flow_timestep": lambda a, k: {"axes": a[0].n},
}
# Quantities read from a call's result, after it returns.
RESULT_COUNTERS = {
    "geodesic_flow.solve_bvp_annulus": lambda r: {"gn_iterations": r.iterations},
}


def rk4_steps(spans, first=0):
    """RK4 steps that flow_timestep calls in spans[first:] ran.

    Each step evaluates the right-hand side four times, and each evaluation
    differentiates once per parameter axis, so a call's steps are its direct
    `spectral_derivative` children divided by 4 * axes.
    """
    derivatives = defaultdict(int)
    for name, _start, _end, parent, *_ in spans[first:]:
        if name == "spectral.spectral_derivative":
            derivatives[parent] += 1
    return sum(derivatives[i] / (4 * spans[i][6]["axes"])
               for i in range(first, len(spans))
               if spans[i][0] == "geodesic_flow.flow_timestep")


class LayerTracer:
    def __init__(self):
        self.spans = []
        self.scenario = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            counts = None if arg_counter is None else arg_counter(args, kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.scenario, 0.0, counts]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - rec[1]
                rec[2] = end
                rec[5] = dur - rec[5]     # rec[5] held the children's time
                if parent >= 0:
                    spans[parent][5] += dur
            if result_counter is not None:
                rec[6] = {**(counts or {}), **result_counter(result)}
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Patch every binding of every public trgeo function."""
        modules = [importlib.import_module("trgeo." + m) for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("trgeo.") or home[6:] not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{_layer(home)}.{obj.__name__}")
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        chart = importlib.import_module("trgeo.ambient").AmbientChart
        for attr in CHART_KERNELS:
            fn = vars(chart)[attr]
            self._patches.append((chart, attr, fn))
            setattr(chart, attr, self._wrap(fn, f"ambient.{attr}"))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
