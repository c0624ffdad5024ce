"""Outside-in span tracer for the nelab package.

The tracer patches the package's public functions and methods with timing
wrappers from the outside; no code inside ``src/nelab`` knows about it.

* Module-level functions are patched on the module that defines them and
  on every ``nelab`` module that imported them by name.
* ``Norm.of``, each map node's own ``_apply``, each oracle's own
  ``intersects_ball``/``contains``, ``SetOracle.sample_in_ball``,
  ``PorosityVerdict.verify_holes``, each body's own ``sample`` and each
  gauge's own ``inverse`` are patched on their classes.
* ``harness.SUITES`` entries are wrapped where they sit.

A stack of open spans gives self time: a span's inclusive time minus the
inclusive time of its direct children.  Kernel spans are aggregated per
name (calls, points, inclusive and self seconds, exceptions raised);
operation-, run- and suite-level spans are also kept raw with their parent.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

from metrics import LAYER_METRICS, SUITE_NAMES, SPAN_KEYS

# (module, function) pairs traced as "<module>.<function>"
FUNCTIONS = [
    ("space", "as_point"), ("space", "greedy_net"),
    ("maps", "lip_global_est"), ("maps", "lip_local_profile"),
    ("maps", "steep_density"), ("maps", "sup_dist_est"),
    ("maps", "random_nonexpansive"),
    ("perturb", "bump_perturb"), ("perturb", "bump_witnesses"),
    ("perturb", "flat_collapse"), ("perturb", "direction_field"),
    ("gauges", "build_pair"), ("gauges", "ladder"), ("gauges", "select_j"),
    ("porosity", "gamma_est"), ("porosity", "upper_porous_at"),
    ("porosity", "lower_porous_at"), ("porosity", "low_slope_member"),
    ("porosity", "ladder_witness"),
    ("reports", "dumps"),
]
# spans kept raw besides being aggregated
RAW_FUNCTIONS = [
    ("harness", "run_verify"), ("harness", "run_typical"),
    ("harness", "run_dual"), ("harness", "run_porosity"),
    ("cli", "main"),
]
# (module, base class, method, span name); every class of the module that
# derives from the base and defines the method itself is patched
METHODS = [
    ("space", "Norm", "of", "space.norm_of"),
    ("space", "ConvexBody", "sample", "space.sample"),
    ("maps", "MapExpr", "_apply", "maps.apply.{cls}"),
    ("gauges", "Gauge", "inverse", "gauges.inverse"),
    ("porosity", "SetOracle", "intersects_ball", "porosity.intersects_ball"),
    ("porosity", "SetOracle", "contains", "porosity.contains"),
    ("porosity", "SetOracle", "sample_in_ball", "porosity.sample_in_ball"),
    ("porosity", "PorosityVerdict", "verify_holes", "porosity.verify_holes"),
]


def _batch_points(args, kwargs) -> int:
    return int(np.shape(args[1])[0])


class Tracer:
    """Span collector; install it with `traced(tracer)`."""

    def __init__(self):
        self.stack = []       # open spans: [child seconds, raw span index]
        self.agg = {}         # name -> {calls, points, incl_s, self_s, errors}
        self.raw = []         # raw spans: name, parent, start, incl_s, self_s
        self.counters = {}    # name -> int

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, points=None, after=None, raw: bool = False):
        """Return `fn` wrapped in a span called `name`.

        `points(args, kwargs)` gives the batch size a call carries;
        `after(args, kwargs, result)` updates counters from a result.
        """
        agg = self.agg.setdefault(
            name, {"calls": 0, "points": 0, "incl_s": 0.0, "self_s": 0.0,
                   "errors": 0})
        stack, spans, clock = self.stack, self.raw, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rid = None
            if raw:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None),
                              None)
                rid = len(spans)
                spans.append({"name": name, "parent": parent})
            frame = [0.0, rid]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                agg["calls"] += 1
                agg["incl_s"] += dt
                agg["self_s"] += dt - frame[0]
                agg["errors"] += failed
                if points is not None:
                    agg["points"] += points(args, kwargs)
                if raw:
                    spans[rid].update(start=t0, incl_s=dt, self_s=dt - frame[0],
                                      error=failed)
            if after is not None:
                after(args, kwargs, result)
            return result

        return span

    def stat(self, name: str, key: str):
        return self.agg.get(name, {}).get(key, 0)

    def names(self, prefix: str) -> list[str]:
        return [n for n in self.agg if n.startswith(prefix)]

    def counts(self) -> dict:
        """Every count the tracer holds; equal for equal work."""
        out = dict(self.counters)
        for name, a in self.agg.items():
            for key in ("calls", "points", "errors"):
                out[f"{name}.{key}"] = a[key]
        return out


def _nelab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "nelab" or n.startswith("nelab.")) and m is not None]


def _after_hooks(tracer: Tracer) -> dict:
    """Counters read from results: net points over candidates, report bytes."""
    def greedy_net(args, kwargs, net):
        cands = kwargs["candidates"] if "candidates" in kwargs else args[3]
        tracer.count("space.greedy_net.candidates",
                     int(np.atleast_2d(np.asarray(cands)).shape[0]))
        tracer.count("space.greedy_net.accepted", len(net))

    def dumps(args, kwargs, text):
        tracer.count("reports.bytes", len(text.encode("utf-8")))

    return {"space.greedy_net": greedy_net, "reports.dumps": dumps}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch the nelab package with `tracer`'s spans; undo on exit."""
    import nelab.cli  # noqa: F401  (loads every module that gets patched)
    mods = {m.__name__.rpartition(".")[2]: m for m in _nelab_modules()}
    hooks = _after_hooks(tracer)
    undo = []

    def rebind(obj, attr, new):
        undo.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def patch_function(modname, fname, name, raw=False):
        orig = getattr(mods[modname], fname)
        new = tracer.wrap(orig, name, after=hooks.get(name), raw=raw)
        for m in _nelab_modules():
            if getattr(m, fname, None) is orig:
                rebind(m, fname, new)

    try:
        for modname, fname in FUNCTIONS:
            patch_function(modname, fname, f"{modname}.{fname}")
        for modname, fname in RAW_FUNCTIONS:
            patch_function(modname, fname, f"{modname}.{fname}", raw=True)
        for modname, base, meth, pattern in METHODS:
            mod = mods[modname]
            base_cls = getattr(mod, base)
            for cls in vars(mod).values():
                if (isinstance(cls, type) and cls.__module__ == mod.__name__
                        and issubclass(cls, base_cls) and meth in vars(cls)):
                    name = pattern.format(cls=cls.__name__)
                    pts = _batch_points if meth == "_apply" else None
                    rebind(cls, meth, tracer.wrap(vars(cls)[meth], name, points=pts))
        suites = mods["harness"].SUITES
        for sname, fn in list(suites.items()):
            undo.append((dict.__setitem__, suites, sname, fn))
            suites[sname] = tracer.wrap(fn, f"harness.suite.{sname}", raw=True)
        yield tracer
    finally:
        for setter, obj, key, old in reversed(undo):
            setter(obj, key, old)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value a traced pass gives, except the overhead,
    which needs an untraced pass to compare with."""
    out = {}
    for metric, _, _, _ in LAYER_METRICS:
        span, _, key = metric.rpartition(".")
        if key in SPAN_KEYS:
            out[metric] = tracer.stat(span, key)
    applies = tracer.names("maps.apply.")
    calls = sum(tracer.stat(n, "calls") for n in applies)
    points = sum(tracer.stat(n, "points") for n in applies)
    out["maps.apply.points_per_call"] = points / calls if calls else 0.0
    cands = tracer.counters.get("space.greedy_net.candidates", 0)
    out["space.greedy_net.accept_ratio"] = (
        tracer.counters.get("space.greedy_net.accepted", 0) / cands
        if cands else 0.0)
    for n in SUITE_NAMES:
        out[f"harness.suite.{n}.s"] = tracer.stat(f"harness.suite.{n}", "incl_s")
    out["harness.self_s"] = sum(tracer.stat(n, "self_s")
                                for n in tracer.names("harness."))
    out["reports.bytes"] = tracer.counters.get("reports.bytes", 0)
    return out
