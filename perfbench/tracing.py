"""Per-layer tracing from outside the package.

``Tracer.install()`` wraps the public functions of each layer module, plus
``BcePolytope.of`` and ``LpSolution.verify``, at every ``ribce`` module
attribute that binds them: ``is_bce`` is imported by name into ``welfare``,
``structure``, ``separation``, ``vanishing`` and ``cli``, so wrapping only
``ribce.bce.is_bce`` would miss most calls.  ``uninstall()`` puts the
originals back.

Every call of a layer function becomes a span (name, parent span, job,
start, end), kept in memory and written out by ``dump``.  Calls of the row
kernel (``ribce.rows``) are the innermost and most frequent, millions in a
vertex enumeration, so they are not spans: each one adds its count and time
to per-function totals and its time to the enclosing span, which keeps self
times exact.  A span's self time is its duration minus the time covered by
its child spans and kernel calls.
"""

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "cli",
    "io",
    "regime",
    "welfare",
    "structure",
    "representation",
    "vanishing",
    "separation",
    "bce",
    "games",
    "vertices",
    "lp",
    "rows",
)
KERNEL = "rows"
METHODS = (("bce", "BcePolytope", "of"), ("lp", "LpSolution", "verify"))


def _lp_solve_stats(stats, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    rows, cols = len(lp.constraints), len(lp.variables)
    stats["lp.solve.rows_sum"] += rows
    stats["lp.solve.cols_sum"] += cols
    stats["lp.solve.rows_max"] = max(stats["lp.solve.rows_max"], rows)
    stats["lp.solve.cols_max"] = max(stats["lp.solve.cols_max"], cols)
    if result.status in ("infeasible", "unbounded"):
        stats[f"lp.solve.{result.status}"] += 1


def _vertices_stats(stats, args, kwargs, result):
    variables = args[0] if args else kwargs["variables"]
    stats["vertices.enumerate_vertices.vertices_out"] += len(result)
    stats["vertices.enumerate_vertices.vars_max"] = max(
        stats["vertices.enumerate_vertices.vars_max"], len(tuple(variables))
    )


HOOKS = {
    "lp.solve": _lp_solve_stats,
    "vertices.enumerate_vertices": _vertices_stats,
}
HOOK_STATS = (
    "lp.solve.rows_sum",
    "lp.solve.cols_sum",
    "lp.solve.rows_max",
    "lp.solve.cols_max",
    "lp.solve.infeasible",
    "lp.solve.unbounded",
    "vertices.enumerate_vertices.vertices_out",
    "vertices.enumerate_vertices.vars_max",
)


def _public_functions(module, layer):
    """name -> function for the layer's own public functions.  The row
    kernel's functions are defined in an implementation module and bound in
    ``ribce.rows``, so for that layer every bound function counts."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj) or isinstance(obj, type):
            continue
        if not hasattr(obj, "__code__") and layer != KERNEL:
            continue
        if layer == KERNEL or getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Spans and per-function totals for one traced pass."""

    def __init__(self):
        self.names = []
        self.name_index = {}
        # One entry per span, in the order spans open.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.jobs = []
        self.job = -1
        self.stack = []  # [span index, child time]
        self.active = defaultdict(int)  # name -> open spans, for recursion
        self.stats = defaultdict(float)
        for key in HOOK_STATS:
            self.stats[key] += 0
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {layer: sys.modules[f"ribce.{layer}"] for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for name, fn in _public_functions(module, layer).items():
                full = f"{layer}.{name}"
                maker = self._kernel_wrapper if layer == KERNEL else self._span_wrapper
                wrapped[id(fn)] = (fn, maker(full, fn))
        bindings = [m for n, m in sys.modules.items() if n == "ribce" or n.startswith("ribce.")]
        for module in bindings:
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(module, attr, entry[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            full = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self._span_wrapper(full, raw.__func__)))
            else:
                self._set(cls, meth, self._span_wrapper(full, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _register(self, full):
        if full not in self.name_index:
            self.name_index[full] = len(self.names)
            self.names.append(full)
            self.stats[f"{full}.calls"] += 0
            self.stats[f"{full}.total_s"] += 0
            self.stats[f"{full}.self_s"] += 0
        return self.name_index[full]

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, full, fn):
        nid = self._register(full)
        hook = HOOKS.get(full)
        stats, stack, active = self.stats, self.stack, self.active
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        calls_key, total_key, self_key = f"{full}.calls", f"{full}.total_s", f"{full}.self_s"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                active[nid] -= 1
                duration = end - start
                stats[calls_key] += 1
                stats[self_key] += duration - frame[1]
                if not active[nid]:
                    stats[total_key] += duration
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        return wrapper

    def _kernel_wrapper(self, full, fn):
        self._register(full)
        stats, stack = self.stats, self.stack
        calls_key, total_key, self_key = f"{full}.calls", f"{full}.total_s", f"{full}.self_s"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                stats[calls_key] += 1
                stats[total_key] += duration
                stats[self_key] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # -- output --------------------------------------------------------------

    def start_job(self, job_id):
        self.jobs.append(job_id)
        self.job = len(self.jobs) - 1

    def metrics(self, names):
        """Values of the requested per-layer metrics."""
        missing = [n for n in names if n not in self.stats and not n.startswith("trace.")]
        if missing:
            raise KeyError(f"tracer produced no value for {missing}")
        return {
            n: self.stats[n] if n.endswith("_s") else int(self.stats[n])
            for n in names
            if n in self.stats
        }

    def dump(self, path, header):
        """Write the header, every span and the per-function totals as JSON."""
        spans = [
            [self.span_name[k], self.span_parent[k], self.span_job[k],
             round(self.span_start[k], 9), round(self.span_end[k], 9)]
            for k in range(len(self.span_name))
        ]
        payload = dict(
            header,
            span_fields=["name", "parent", "job", "start", "end"],
            names=self.names,
            jobs=self.jobs,
            spans=spans,
            totals={k: self.stats[k] for k in sorted(self.stats)},
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
