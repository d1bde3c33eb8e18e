"""Spans around ffharm's public entry points, recorded from outside the package.

``Tracer.install`` replaces the module (and class) attributes that ffharm's
own callers look up with wrappers that record one span per call: name,
start, end, parent span and thread.  Spans stay in memory; ``Tracer.dump``
hands them out when the traced pass ends and ``layer_metrics`` turns them
into the per-layer figures the benchmark reports.

A span's self time is its duration minus the durations of its children.
Children always run on the parent's thread (the parent is the innermost
open span of the calling thread), so they never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import threading
import weakref
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute; "Class.method" for a method).  An
# attribute the program no longer has is skipped, and the metrics fed by
# it then read 0.
TARGETS = [
    ("field.grid_points", "ffharm.field", "FieldCtx.grid_points"),
    ("field.grid_norms", "ffharm.field", "FieldCtx.grid_norms"),
    ("expsums.gauss", "ffharm.expsums", "gauss"),
    ("expsums.kloosterman", "ffharm.expsums", "kloosterman"),
    ("expsums.salie", "ffharm.expsums", "salie"),
    ("spheres.naive_grid", "ffharm.spheres", "sphere_ft_naive_grid"),
    ("spheres.closed_grid", "ffharm.spheres", "sphere_ft_closed_grid"),
    ("spheres.sphere_sizes", "ffharm.restriction", "sphere_sizes"),
    ("spheres.closed_by_norm", "ffharm.restriction", "sphere_ft_closed_by_norm"),
    ("restriction.radial_matrix", "ffharm.restriction", "radial_matrix"),
    ("varieties.eval_poly_grid", "ffharm.varieties", "eval_poly_grid"),
    ("varieties.build", "ffharm.cli", "build_variety"),
    ("varieties.intersect", "ffharm.cli", "zero_sphere_intersection"),
    ("restriction.search", "ffharm.cli", "rnorm_search"),
    ("restriction.exact22", "ffharm.cli", "_exact22_iterations"),
    ("spheres.verify", "ffharm.cli", "verify_closed_form"),
    ("cli.row", "ffharm.cli", "_scan_row"),
    ("fourier.ft_naive", "ffharm.fourier", "ft_naive"),
    ("fourier.ft_fast", "ffharm.fourier", "ft_fast"),
    ("fourier.ift", "ffharm.fourier", "ift"),
]

_MB = 1e6


class Tracer:
    """Records spans while installed; every record is a small list.

    A record is ``[name, start, end, parent_record, thread_id, count]``;
    ``count`` is the size figure some spans carry (bytes, points, MACs).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._contexts: dict[int, weakref.ref] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, count):
        stack_of = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), None]
            spans.append(rec)
            stack.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(args, out)
            return out

        return traced

    def _new_context_bytes(self, args, out) -> int:
        """Grid bytes q^d (d+1) 8 the first time a FieldCtx is seen."""
        ctx = args[0]
        ref = self._contexts.get(id(ctx))
        if ref is not None and ref() is ctx:
            return 0
        self._contexts[id(ctx)] = weakref.ref(ctx)
        return ctx.size * (ctx.d + 1) * 8

    def install(self) -> None:
        counters = {
            "field.grid_points": self._new_context_bytes,
            "field.grid_norms": self._new_context_bytes,
            "varieties.build": lambda args, out: out.cardinality,
            "restriction.radial_matrix": lambda args, out: args[0].cardinality * args[0].ctx.q * 16,
            "fourier.ft_naive": lambda args, out: args[0].ctx.size ** 2,
        }
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            if attr not in vars(owner or object):
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counters.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows: [name, start, end, parent_index, thread, count]."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            [name, start, end, None if parent is None else index[id(parent)], thread, count]
            for name, start, end, parent, thread, count in self.spans
        ]


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per span name: summed self time, number of calls, summed count figure."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, thread, count in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, thread, count) in enumerate(spans):
        self_s[name] += (end - start) - child_time[i]
        calls[name] += 1
        if count is not None:
            counts[name] += count
    return self_s, calls, counts


def layer_metrics(spans: list[list], traced_pass: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``traced_pass`` carries what the pass measured outside the spans: its
    wall and CPU time, the summed ``iters`` of search and exact22 rows, and
    per scan call its wall time and worker count.
    """
    self_s, calls, counts = self_times(spans)
    rows = [end - start for name, start, end, *_ in spans if name == "cli.row"]
    steps = traced_pass["ascent_steps"]
    capacity = sum(s["workers"] * s["wall"] for s in traced_pass["scans"])
    row_sum = float(sum(rows))
    expsums = ("expsums.gauss", "expsums.kloosterman", "expsums.salie")
    return {
        "restriction.search_s": self_s["restriction.search"],
        "restriction.ascent_steps": steps,
        "restriction.s_per_step": self_s["restriction.search"] / steps if steps else 0.0,
        "restriction.radial_matrix_s": self_s["restriction.radial_matrix"],
        "restriction.matrix_mb": counts["restriction.radial_matrix"] / _MB,
        "restriction.exact22_s": self_s["restriction.exact22"],
        "restriction.exact22_iters": traced_pass["exact22_iters"],
        "varieties.build_s": self_s["varieties.build"],
        "varieties.eval_poly_grid_s": self_s["varieties.eval_poly_grid"],
        "varieties.intersect_s": self_s["varieties.intersect"],
        "varieties.points": int(counts["varieties.build"]),
        "field.grid_points_s": self_s["field.grid_points"],
        "field.grid_norms_s": self_s["field.grid_norms"],
        "field.grid_mb": (counts["field.grid_points"] + counts["field.grid_norms"]) / _MB,
        "spheres.naive_grid_s": self_s["spheres.naive_grid"],
        "spheres.closed_grid_s": self_s["spheres.closed_grid"],
        "spheres.verify_s": self_s["spheres.verify"],
        "spheres.closed_by_norm_calls": calls["spheres.closed_by_norm"],
        "spheres.closed_by_norm_s": self_s["spheres.closed_by_norm"],
        "spheres.sphere_sizes_s": self_s["spheres.sphere_sizes"],
        "expsums.calls": sum(calls[n] for n in expsums),
        "expsums.s": sum(self_s[n] for n in expsums),
        "fourier.ft_naive_s": self_s["fourier.ft_naive"],
        "fourier.ft_fast_s": self_s["fourier.ft_fast"],
        "fourier.ift_s": self_s["fourier.ift"],
        "fourier.naive_macs": int(counts["fourier.ft_naive"]),
        "cli.row_s_max": max(rows, default=0.0),
        "cli.row_s_sum": row_sum,
        "cli.pool_idle_frac": 1.0 - row_sum / capacity if capacity else 0.0,
        "cli.cpu_s": traced_pass["cpu"],
        "cli.cpu_per_wall": traced_pass["cpu"] / traced_pass["wall"],
        "trace.span_s": sum(self_s.values()),
    }
