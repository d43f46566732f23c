"""Outside-in tracer for the ``mmlab`` package.

``Tracer.install()`` replaces, in every loaded ``mmlab`` namespace, each
public function defined in ``mmlab`` by a wrapper that records a span (name,
parent, start, end, thread) and, for the calls named in ``COUNTS``, an exact
work count taken from the call's arguments or result.  Public methods and
``__init__`` of the ``mmlab`` classes are wrapped the same way, module-level
dicts that hold a wrapped function (``cli.RUNNERS``) get the wrapper too, and
``ThreadPoolExecutor`` in ``mmlab.cli`` is replaced by a subclass that records
queue wait and makes each worker-thread span a child of the span that
submitted it.  ``uninstall()`` puts every original object back.

Wrappers only call through, so the program draws the same random numbers and
sums in the same order: traced outputs are byte-identical to untraced ones.
Spans stay in memory until ``dump()``; ``layer_metrics()`` turns a dump into
the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import concurrent.futures
import fnmatch
import functools
import inspect
import itertools
import sys
import threading
import time
import types

import numpy as np


# span-name pattern -> {count name: fn(bound arguments, result) -> number}
COUNTS = {
    "transport.wasserstein_exact": {
        "lp_vars": lambda a, r: int(r[1].plan.size)},
    "transport.DiscreteMeasure.__init__": {
        "atoms_in": lambda a, r: int(np.shape(a["atoms"])[0]),
        "atoms_out": lambda a, r: len(a["self"].weights)},
    "heat.*.apply_values": {
        "points": lambda a, r: int(np.shape(a["values"])[0])},
    "spaces.*.distance": {
        "pairs": lambda a, r: int(np.size(r))},
    "paths.sample_kernel_chain": {
        "steps": lambda a, r: r.states.shape[0] * (r.states.shape[1] - 1),
        "stored_bytes": lambda a, r: int(r.states.nbytes)},
    "paths.euler_maruyama": {
        "steps": lambda a, r: r.states.shape[0] * (r.states.shape[1] - 1),
        "stored_bytes": lambda a, r: int(r.states.nbytes),
        "flagged": lambda a, r: int(np.count_nonzero(r.flags))},
}


class Tracer:
    """Records spans of ``mmlab`` calls between ``install()`` and ``uninstall()``."""

    def __init__(self):
        self.spans = []      # (id, parent, name, start, end, thread)
        self.counts = {}     # span id -> {count name: value}
        self.pool_waits = []  # submit-to-start seconds of each pool task
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []   # (setter, container, key, original)
        self._wrappers = {}  # original function -> wrapper

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else 0

    def _wrap(self, fn, name):
        if fn in self._wrappers:
            return self._wrappers[fn]
        counters = {}
        for pattern, fns in COUNTS.items():
            if fnmatch.fnmatchcase(name, pattern):
                counters.update(fns)
        signature = inspect.signature(fn) if counters else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if counters:
                bound = signature.bind(*args, **kwargs).arguments
                tracer.counts[sid] = {key: f(bound, result) for key, f in counters.items()}
            return result

        self._wrappers[fn] = traced
        return traced

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()
                submitted = time.perf_counter()

                def task():
                    tracer.pool_waits.append(time.perf_counter() - submitted)
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()
                return super().submit(task)

        return TracedThreadPoolExecutor

    # -- patching ------------------------------------------------------------

    def _set(self, setter, container, key, value, original):
        self._restore.append((setter, container, key, original))
        setter(container, key, value)

    def install(self):
        if "mmlab.cli" not in sys.modules:
            raise RuntimeError("import mmlab.cli before installing the tracer")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "mmlab" or name.startswith("mmlab."))]
        pool_cls = self._pool_class()
        classes = {}
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if isinstance(value, type) and value.__module__.startswith("mmlab"):
                    classes[value] = None
                elif (isinstance(value, types.FunctionType) and not key.startswith("_")
                      and value.__module__.startswith("mmlab")):
                    span = "%s.%s" % (value.__module__.split(".")[-1], value.__qualname__)
                    self._set(setattr, mod, key, self._wrap(value, span), value)
                elif value is concurrent.futures.ThreadPoolExecutor:
                    self._set(setattr, mod, key, pool_cls, value)
        for cls in classes:
            for key, value in list(vars(cls).items()):
                if isinstance(value, types.FunctionType) and (
                        key == "__init__" or not key.startswith("_")):
                    span = "%s.%s" % (cls.__module__.split(".")[-1], value.__qualname__)
                    self._set(setattr, cls, key, self._wrap(value, span), value)
        for mod in modules:
            for value in list(vars(mod).values()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in self._wrappers:
                            self._set(dict.__setitem__, value, key, self._wrappers[item], item)
        return self

    def uninstall(self):
        while self._restore:
            setter, container, key, original = self._restore.pop()
            setter(container, key, original)

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {str(k): v for k, v in self.counts.items()},
                "pool_waits": self.pool_waits}


# -- aggregation ---------------------------------------------------------------

# per-layer time metric -> span-name patterns; each metric is the summed self
# time (span time minus the time its child spans cover) of the matching spans
SELF_TIME = {
    "transport.lp_s": ["transport.wasserstein_exact"],
    "transport.measure_s": ["transport.DiscreteMeasure.__init__"],
    "transport.quantile_s": ["transport.wasserstein_1d", "transport.wasserstein_circle"],
    "heat.apply_s": ["heat.*.apply_values"],
    "heat.kernel_build_s": ["heat.*Kernel.__init__"],
    "heat.transition_s": ["heat.*.transition_matrix"],
    "heat.kernel_row_s": ["heat.*.kernel_row"],
    "spaces.quadrature_s": ["spaces.*.quadrature"],
    "spaces.distance_s": ["spaces.*.distance", "spaces.circle_distance"],
    "spaces.mesh_s": ["spaces.mesh_cone", "heat.graph_generator"],
    "paths.chain_s": ["paths.sample_kernel_chain"],
    "paths.em_s": ["paths.euler_maruyama", "paths.reflected_em"],
    "paths.fdd_s": ["paths.extract_fdd"],
    "paths.modulus_s": ["paths.modulus_statistic"],
    "paths.kolmogorov_s": ["paths.kolmogorov_moment"],
    "convergence.pathlaw_s": ["convergence.pathlaw_w1", "convergence.pathlaw_baseline",
                              "convergence.product_distance_matrix"],
    "convergence.fdd_s": ["convergence.fdd_convergence_report", "convergence.fdd_operator"],
    "convergence.pmg_s": ["convergence.pmg_test"],
    "convergence.entropy_s": ["convergence.entropy_tightness"],
    "convergence.initial_law_s": ["convergence.initial_law_w1"],
}

ROOT_SPAN = "cli.run_scenario"
WRITE_SPAN = "cli.write_csv"


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _match(name, patterns) -> bool:
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run (values only; units live in
    BENCHMARK.json).  Exactly one ``run_scenario`` span is required."""
    spans = [tuple(s) for s in trace["spans"]]
    counts = {int(k): v for k, v in trace["counts"].items()}
    roots = [s for s in spans if s[2] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError("expected one %s span, found %d" % (ROOT_SPAN, len(roots)))
    root = roots[0]
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def under_root(s):
        while s[1] in by_id:
            s = by_id[s[1]]
            if s is root:
                return True
        return False

    inside = [s for s in spans if under_root(s)]
    self_time = {}
    for s in inside + [root]:
        kids = [(c[3], c[4]) for c in children.get(s[0], [])]
        self_time[s[0]] = (s[4] - s[3]) - _covered(kids, s[3], s[4])

    def total(patterns):
        return sum(self_time[s[0]] for s in inside if _match(s[2], patterns))

    def count(patterns, key=None):
        picked = [s for s in inside if _match(s[2], patterns)]
        if key is None:
            return len(picked)
        return sum(counts.get(s[0], {}).get(key, 0) for s in picked)

    out = {name: total(pats) for name, pats in SELF_TIME.items()}

    lp = [counts[s[0]]["lp_vars"] for s in inside
          if s[2] == "transport.wasserstein_exact" and s[0] in counts]
    out["transport.lp_calls"] = count(["transport.wasserstein_exact"])
    out["transport.lp_vars"] = sum(lp)
    out["transport.lp_vars_max"] = max(lp, default=0)
    measure = ["transport.DiscreteMeasure.__init__"]
    out["transport.atoms_in"] = count(measure, "atoms_in")
    out["transport.atoms_out"] = count(measure, "atoms_out")
    out["transport.merge_ratio"] = (out["transport.atoms_out"] / out["transport.atoms_in"]
                                    if out["transport.atoms_in"] else 1.0)

    out["heat.apply_calls"] = count(["heat.*.apply_values"])
    out["heat.apply_points"] = count(["heat.*.apply_values"], "points")
    builds = [s for s in inside if _match(s[2], ["heat.*Kernel.__init__"])]
    out["heat.kernel_builds"] = len(builds)
    lookups = [s for s in inside if s[2] == "heat.get_kernel"]
    missed = {s[1] for s in builds}
    hits = sum(1 for s in lookups if s[0] not in missed)
    out["heat.kernel_cache_hit_ratio"] = hits / len(lookups) if lookups else 0.0

    out["spaces.quadrature_calls"] = count(["spaces.*.quadrature"])
    out["spaces.distance_pairs"] = count(["spaces.*.distance"], "pairs")

    samplers = ["paths.sample_kernel_chain", "paths.euler_maruyama"]
    out["paths.chain_steps"] = count(["paths.sample_kernel_chain"], "steps")
    out["paths.em_steps"] = count(["paths.euler_maruyama"], "steps")
    out["paths.em_flagged"] = count(["paths.euler_maruyama"], "flagged")
    out["paths.stored_bytes"] = count(samplers, "stored_bytes")
    out["paths.modulus_calls"] = count(["paths.modulus_statistic"])

    # the scenario driver: run_scenario's own children other than the writer
    runners = [s for s in children.get(root[0], []) if s[2] != WRITE_SPAN]
    out["cli.runner_self_s"] = sum(self_time[s[0]] for s in runners)
    out["cli.write_s"] = self_time[root[0]] + total([WRITE_SPAN])
    out["cli.pool_tasks"] = len(trace["pool_waits"])
    out["cli.pool_queue_wait_s"] = float(sum(trace["pool_waits"]))

    runner_ids = {s[0] for s in runners}
    layer = [(s[3], s[4]) for s in inside if s[0] not in runner_ids]
    out["trace.unattributed_s"] = (root[4] - root[3]) - _covered(layer, root[3], root[4])
    return out
