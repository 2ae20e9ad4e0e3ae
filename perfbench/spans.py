"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside the package, on module attributes at
the call sites the workloads reach (for example `cureonet.solver.cure_rate`,
which is the name the solver's kinetics loop looks up). Each wrapped call
records a span: name, start, end, parent span and operation id. Spans stay
in memory as flat arrays and are written out once, at the end of the run.

A span's self time is its duration minus the time its child spans cover.
Work a hook does to count things (walking the autodiff tape, sizing files)
runs inside a `trace.hook` child span, so it is not billed to the layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrap point: `module.attr` gets a span named `span`, or the name
    `span(tracer, args, kwargs)` returns. `hook(tracer, span, args, kwargs,
    result)` runs after the call to add counts or rename the span."""

    module: str
    attr: str
    span: str | Callable
    hook: Callable | None = None


class Tracer:
    """Spans and per-operation counts of one traced run (one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")     # time covered by direct children
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.phase = "none"          # training phase of the last forward
        self.solver_spans = 0        # solver spans opened so far
        self.ref_solver_spans = 0    # ... when reference_solution began
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.absent: set[str] = set()
        self.hook_errors: set[str] = set()
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self.stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def rename(self, i: int, name: str) -> None:
        self.name[i] = self.name_id(name)

    def add(self, key: str, value: float) -> None:
        """Add to a per-operation count."""
        self.counts[self.op_id][key] += value

    def set_max(self, key: str, value: float) -> None:
        per_op = self.counts[self.op_id]
        per_op[key] = max(per_op[key], value)

    # -- installing wrappers ---------------------------------------------

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = (target.span if isinstance(target.span, str)
                    else target.span(tracer, args, kwargs))
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if target.hook is not None:
                h = tracer.open("trace.hook")
                try:
                    target.hook(tracer, i, args, kwargs, result)
                except Exception:   # a count lost, not a failed call
                    tracer.hook_errors.add(f"{target.module}.{target.attr}")
                finally:
                    tracer.close(h)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap every target that exists; a missing module or attribute is
        recorded in `absent` instead of raising."""
        for t in targets:
            try:
                mod = importlib.import_module(t.module)
            except ImportError:
                self.absent.add(f"{t.module}.{t.attr}")
                continue
            fn = getattr(mod, t.attr, None)
            if not callable(fn):
                self.absent.add(f"{t.module}.{t.attr}")
                continue
            self._restore.append((mod, t.attr, fn))
            setattr(mod, t.attr, self._wrap(fn, t))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    # -- summaries -------------------------------------------------------

    def per_op(self) -> dict:
        """{op_id: {span name: [total_s, self_s, calls]}} over closed spans."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            acc = out[self.op[i]][self.names[self.name[i]]]
            acc[0] += dur
            acc[1] += dur - self.child[i]
            acc[2] += 1
        return out

    def self_times(self) -> dict:
        """{span name: (total_s, self_s, calls)} over the whole run."""
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for spans in self.per_op().values():
            for name, (tot, self_s, calls) in spans.items():
                acc = out[name]
                acc[0] += tot
                acc[1] += self_s
                acc[2] += calls
        return dict(out)

    def write(self, path) -> None:
        """Write every span to a compressed .npz (names indexed by `name`)."""
        import numpy as np
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            child=np.frombuffer(self.child))


# -- wrap targets and the counts their hooks take ---------------------------


def _arg(fn_args, kwargs, pos, key):
    if key in kwargs:
        return kwargs[key]
    return fn_args[pos] if len(fn_args) > pos else None


def _forward_span(tracer, args, kwargs):
    tracer.phase = str(_arg(args, kwargs, 5, "phase") or "all")
    return f"losses.forward.{tracer.phase}"


def _solver_span(tracer, args, kwargs):
    tracer.solver_spans += 1
    return "solver.solve"


def _solve_hook(tracer, i, args, kwargs, sol):
    grid = getattr(sol, "meta", {}).get("grid", {})
    if "t_end" in grid and "dt" in grid:
        steps = round(grid["t_end"] / grid["dt"])
    else:
        steps = len(sol.times) - 1
    tracer.add("solver.steps", steps)
    tracer.add("solver.field_bytes", sum(
        getattr(sol, f).nbytes for f in ("times", "t_tool", "t_part",
                                         "alpha")))


def _reference_span(tracer, args, kwargs):
    tracer.ref_solver_spans = tracer.solver_spans
    return "evaluate.reference_solution"


def _reference_hook(tracer, i, args, kwargs, result):
    miss = tracer.solver_spans > tracer.ref_solver_spans
    tracer.rename(i, "evaluate.reference_solution."
                  + ("miss" if miss else "hit"))
    cache_dir = _arg(args, kwargs, 3, "cache_dir")
    if miss and cache_dir is not None and os.path.isdir(cache_dir):
        size = sum(e.stat().st_size for e in os.scandir(cache_dir)
                   if e.is_file())
        tracer.set_max("evaluate.cache_bytes", size)


def _predict_hook(tracer, i, args, kwargs, sol):
    tracer.add("operator.query_points",
               sol.t_part.size + sol.t_tool.size + sol.alpha.size)


def _collocation_hook(tracer, i, args, kwargs, cset):
    config = _arg(args, kwargs, 2, "config")
    requested = sum(getattr(config, f) for f in
                    getattr(config, "__dataclass_fields__", {})
                    if f.startswith("q_"))
    drawn = sum(getattr(cset, f).size for f in
                ("int_x", "ode_x", "ic_x", "bc_tau", "if_x", "ct_tau")
                if hasattr(cset, f))
    tracer.add("losses.points_requested", requested)
    tracer.add("losses.points_drawn", drawn)


def tape_nodes(root) -> int:
    """Nodes reachable from `root` through the tape's parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _pull in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _backward_hook(tracer, i, args, kwargs, result):
    tracer.add(f"autodiff.tape_nodes.{tracer.phase}",
               tape_nodes(_arg(args, kwargs, 0, "root")))
    tracer.add(f"autodiff.backward_calls.{tracer.phase}", 1)


def _checkpoint_hook(tracer, i, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    if path is not None and os.path.exists(path):
        tracer.add("trainer.checkpoint_bytes", os.path.getsize(path))
        tracer.add("trainer.checkpoint_writes", 1)


TARGETS = (
    Target("cureonet.evaluate", "evaluate", "evaluate.evaluate"),
    Target("cureonet.evaluate", "reference_solution", _reference_span,
           _reference_hook),
    Target("cureonet.evaluate", "solve", _solver_span, _solve_hook),
    Target("cureonet.evaluate", "predict_field", "operator.predict_field",
           _predict_hook),
    Target("cureonet.evaluate", "solution_metrics",
           "evaluate.solution_metrics"),
    Target("cureonet.solver", "cure_rate", "process.cure_rate"),
    Target("cureonet.losses", "cure_rate", "process.cure_rate"),
    Target("cureonet.losses", "decode_stratified",
           "operator.decode_stratified"),
    Target("cureonet.losses", "merged_branch", "operator.merged_branch"),
    Target("cureonet.trainer", "train", "trainer.train"),
    Target("cureonet.trainer", "sample_collocation",
           "losses.sample_collocation", _collocation_hook),
    Target("cureonet.trainer", "compute_components", _forward_span),
    Target("cureonet.trainer", "backward",
           lambda tracer, a, k: f"autodiff.backward.{tracer.phase}",
           _backward_hook),
    Target("cureonet.trainer", "adam_step", "trainer.adam_step"),
    Target("cureonet.trainer", "save_checkpoint", "trainer.save_checkpoint",
           _checkpoint_hook),
)

PHASES = ("temperature", "cure")

# per-layer metric -> (source, span or count key); sources: "total" and
# "self" sum span time, "calls" counts spans, "count" reads a hook count,
# "mean" divides a hook count by the count named second.
LAYER_METRICS = {
    "solver.solve_s": ("total", "solver.solve"),
    "solver.conduction_s": ("self", "solver.solve"),
    "solver.steps": ("count", "solver.steps"),
    "solver.field_bytes": ("count", "solver.field_bytes"),
    "process.cure_rate_s": ("total", "process.cure_rate"),
    "process.cure_rate_calls": ("calls", "process.cure_rate"),
    "evaluate.cache_write_s": ("self", "evaluate.reference_solution.miss"),
    "evaluate.cache_bytes": ("count", "evaluate.cache_bytes"),
    "evaluate.cache_read_s": ("total", "evaluate.reference_solution.hit"),
    "evaluate.metrics_s": ("total", "evaluate.solution_metrics"),
    "evaluate.cache_hits": ("calls", "evaluate.reference_solution.hit"),
    "evaluate.cache_misses": ("calls", "evaluate.reference_solution.miss"),
    "operator.predict_field_s": ("total", "operator.predict_field"),
    "operator.predict_field_calls": ("calls", "operator.predict_field"),
    "operator.query_points": ("count", "operator.query_points"),
    "operator.decode_stratified_s": ("total", "operator.decode_stratified"),
    "operator.merged_branch_s": ("total", "operator.merged_branch"),
    "losses.sample_collocation_s": ("total", "losses.sample_collocation"),
    "losses.points_drawn": ("count", "losses.points_drawn"),
    "losses.points_requested": ("count", "losses.points_requested"),
    **{f"losses.forward_s.{p}": ("total", f"losses.forward.{p}")
       for p in (*PHASES, "all")},
    **{f"autodiff.backward_s.{p}": ("total", f"autodiff.backward.{p}")
       for p in PHASES},
    **{f"autodiff.tape_nodes.{p}": ("mean", f"autodiff.tape_nodes.{p}",
                                    f"autodiff.backward_calls.{p}")
       for p in PHASES},
    "trainer.adam_s": ("total", "trainer.adam_step"),
    "trainer.steps": ("calls", "trainer.adam_step"),
    "trainer.checkpoint_s": ("total", "trainer.save_checkpoint"),
    "trainer.checkpoint_bytes": ("mean", "trainer.checkpoint_bytes",
                                 "trainer.checkpoint_writes"),
    "trainer.self_s": ("self", "trainer.train"),
}


def layer_metrics(tracer: Tracer, ops) -> dict:
    """Every LAYER_METRICS entry as the median over the traced operations
    `ops` of its per-operation value; 0 where the layer did no work."""
    spans = tracer.per_op()
    out = {}
    for metric, (source, key, *per) in LAYER_METRICS.items():
        values = []
        for op in ops:
            if source in ("total", "self", "calls"):
                tot, self_s, calls = spans[op].get(key, (0.0, 0.0, 0))
                values.append({"total": tot, "self": self_s,
                               "calls": calls}[source])
            else:
                counts = tracer.counts[op]
                value = counts.get(key, 0.0)
                if source == "mean":
                    value = value / counts[per[0]] if counts.get(per[0]) \
                        else 0.0
                values.append(value)
        out[metric] = statistics.median(values) if values else 0.0
    return out
