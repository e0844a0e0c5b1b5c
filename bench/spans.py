"""Spans and counts recorded from outside coalition_lp, at its layer boundaries.

The tracer swaps module attributes that callers look up at call time (for
example ``coalition_lp.lp.solve`` or ``coalition_lp.exact.q3``) for wrappers
that record one span per call: name, start, end, parent span and thread.
A name imported with ``from .x import f`` is a separate attribute of the
importing module, so every namespace that calls through its own copy is
listed below.  Spans stay in memory and are written out when the run ends.
Nothing inside the package is edited: spans inside a call (LP pivots,
search nodes) are not visible from here.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time

# (module, attribute, span name).  The same span name on several modules
# means the same function reached through different import sites.
SPANNED = (
    ("election", "scoreboard", "election.scoreboard"),
    ("exact", "scoreboard", "election.scoreboard"),
    ("election", "sample_ic", "election.sample_ic"),
    ("lp", "solve", "lp.solve"),
    ("exact", "q3", "exact.q3"),
    ("exact", "mcs_outcome", "exact.mcs_outcome"),
    ("cli", "mcs_outcome", "exact.mcs_outcome"),
    ("reduction", "mw_polytope", "reduction.mw_polytope"),
    ("asymptotics", "mw_polytope", "reduction.mw_polytope"),
    ("reduction", "cone_optimal_vertices", "reduction.cone_optimal_vertices"),
    ("asymptotics", "cone_optimal_vertices", "reduction.cone_optimal_vertices"),
    ("reduction", "q_dual", "reduction.q_dual"),
    ("reduction", "q_stratified", "reduction.q_stratified"),
    ("reduction", "witness_from_z", "reduction.witness_from_z"),
    ("asymptotics", "limit_model", "asymptotics.limit_model"),
    ("asymptotics", "sample_vw_batch", "asymptotics.sample_vw_batch"),
    ("asymptotics", "gw_curve", "asymptotics.gw_curve"),
    ("asymptotics", "plateau_probability", "asymptotics.plateau_probability"),
    ("asymptotics", "dominates", "asymptotics.dominates"),
    ("asymptotics", "convergence_experiment", "asymptotics.convergence"),
    ("cli", "main", "cli.main"),
)

# Called from inside scoreboards and instance builds; a count is enough there.
COUNTED = (
    ("election", "all_rankings", "election.all_rankings"),
    ("exact", "all_rankings", "election.all_rankings"),
    ("asymptotics", "all_rankings", "election.all_rankings"),
)


def _lp_attrs(args, kwargs):
    program = args[0] if args else kwargs["lp"]
    return {"exact": program.is_rational, "cols": program.n_vars}


class Tracer:
    """Records spans while installed; restores the package when removed."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start_ns, end_ns, parent index, thread id, attrs]
        self.counts = {}
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.get_ident()
        self._saved = []
        gw_signature = inspect.signature(package.asymptotics.gw_curve)
        resolve_threads = package.asymptotics.resolve_threads

        def gw_attrs(args, kwargs):
            bound = gw_signature.bind(*args, **kwargs).arguments
            return {"samples": bound["samples"], "workers": resolve_threads(bound.get("threads"))}

        self._attr_hooks = {"lp.solve": _lp_attrs, "asymptotics.gw_curve": gw_attrs}

    # -- installation -------------------------------------------------- #

    def install(self):
        for module_name, attr, name in SPANNED + COUNTED:
            module = getattr(self.package, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            counted = (module_name, attr, name) in COUNTED
            wrapper = self._counter(fn, name) if counted else self._spanner(fn, name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- recording ----------------------------------------------------- #

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, fn, name):
        tracer = self
        hook = self._attr_hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = hook(args, kwargs) if hook else {}
            stack = tracer._stack()
            # A worker thread's first span belongs to whatever the single
            # caller on the main thread has open (the pool's owner).
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None
            )
            record = [name, time.perf_counter_ns(), None, parent, threading.get_ident(), attrs]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, thread, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "thread": thread, "attrs": attrs,
                }) + "\n")


# --------------------------------------------------------------------- #
# Per-layer figures from a slice of spans
# --------------------------------------------------------------------- #

def _union_ns(intervals):
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanStats:
    """Totals, self times and call lists by span name over the given spans."""

    def __init__(self, spans, indices):
        chosen = set(indices)
        children = {}
        for i in chosen:
            parent = spans[i][3]
            if parent is not None:
                children.setdefault(parent, []).append(i)
        self.calls = {}
        self.total_ns = {}
        self.self_ns = {}
        self.records = {}
        for i in sorted(chosen):
            name, start, end, _parent, _thread, attrs = spans[i]
            dur = end - start
            kids = children.get(i, [])
            covered = _union_ns((spans[k][1], spans[k][2]) for k in kids)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - covered
            self.records.setdefault(name, []).append((i, dur, attrs))
        self._children = children
        self._spans = spans

    def ms(self, name):
        return self.total_ns.get(name, 0) / 1e6

    def self_ms(self, name):
        return self.self_ns.get(name, 0) / 1e6

    def child_ns(self, index, name):
        return sum(
            self._spans[k][2] - self._spans[k][1]
            for k in self._children.get(index, []) if self._spans[k][0] == name
        )


def layer_metrics(tracer, setup_slice, pass_slices, all_rankings_calls):
    """Per-layer figures for one set-up plus one (average) traced pass."""
    spans = tracer.spans
    setup = SpanStats(spans, range(*setup_slice))
    passes = SpanStats(spans, [i for lo, hi in pass_slices for i in range(lo, hi)])
    k = len(pass_slices)

    def both_ms(name, self_time=False):
        pick = (lambda s: s.self_ms(name)) if self_time else (lambda s: s.ms(name))
        return pick(setup) + pick(passes) / k

    def both_calls(name):
        return setup.calls.get(name, 0) + passes.calls.get(name, 0) / k

    lp_setup = setup.records.get("lp.solve", [])
    lp_pass = passes.records.get("lp.solve", [])

    def lp_sum(value):
        return sum(map(value, lp_setup)) + sum(map(value, lp_pass)) / k

    def lp_ms(exact):
        return lp_sum(lambda r: r[1] if r[2]["exact"] is exact else 0) / 1e6

    lp_durations = [d for _i, d, _a in lp_setup + lp_pass]

    gw = passes.records.get("asymptotics.gw_curve", [])
    busy_ns = wall_workers_ns = 0
    draws = {1: 0, 2: 0}
    draw_ns = {1: 0, 2: 0}
    for i, dur, attrs in gw:
        workers = attrs["workers"]
        if workers in draws:
            draws[workers] += attrs["samples"]
            draw_ns[workers] += dur
        if workers > 1:
            busy_ns += passes.child_ns(i, "asymptotics.sample_vw_batch")
            wall_workers_ns += dur * workers

    return {
        "election.scoreboard.calls": both_calls("election.scoreboard"),
        "election.scoreboard.ms": both_ms("election.scoreboard"),
        "election.all_rankings.calls": all_rankings_calls,
        "election.sample_ic.ms": both_ms("election.sample_ic"),
        "lp.solve.calls": both_calls("lp.solve"),
        "lp.solve.exact_ms": lp_ms(True),
        "lp.solve.float_ms": lp_ms(False),
        "lp.solve.call_p50_us": statistics.median(lp_durations) / 1e3 if lp_durations else 0.0,
        "lp.solve.cols_sum": lp_sum(lambda r: r[2]["cols"]),
        "exact.q3.calls": both_calls("exact.q3"),
        "exact.q3.ms": both_ms("exact.q3"),
        "exact.mcs_outcome.ms": both_ms("exact.mcs_outcome"),
        "exact.search_self_ms": both_ms("exact.mcs_outcome", self_time=True),
        "reduction.mw_polytope.ms": both_ms("reduction.mw_polytope"),
        "reduction.cone_optimal_vertices.ms": both_ms("reduction.cone_optimal_vertices"),
        "reduction.q_dual.ms": both_ms("reduction.q_dual"),
        "reduction.q_stratified.self_ms": both_ms("reduction.q_stratified", self_time=True),
        "reduction.witness_from_z.ms": both_ms("reduction.witness_from_z"),
        "asymptotics.limit_model.ms": both_ms("asymptotics.limit_model"),
        "asymptotics.sample_vw_batch.calls": both_calls("asymptotics.sample_vw_batch"),
        "asymptotics.sample_vw_batch.ms": both_ms("asymptotics.sample_vw_batch"),
        "asymptotics.gw_curve.self_ms": both_ms("asymptotics.gw_curve", self_time=True),
        "asymptotics.gw_curve.draws_per_s_1t": draws[1] / (draw_ns[1] / 1e9) if draw_ns[1] else 0.0,
        "asymptotics.gw_curve.draws_per_s_2t": draws[2] / (draw_ns[2] / 1e9) if draw_ns[2] else 0.0,
        "asymptotics.pool_busy_frac": busy_ns / wall_workers_ns if wall_workers_ns else 0.0,
        "asymptotics.pool_idle_ms": (wall_workers_ns - busy_ns) / 1e6 / k,
        "asymptotics.convergence.self_ms": both_ms("asymptotics.convergence", self_time=True),
        "asymptotics.plateau_probability.ms": both_ms("asymptotics.plateau_probability"),
        "asymptotics.dominates.self_ms": both_ms("asymptotics.dominates", self_time=True),
    }
