"""Outside-in span tracing of the hypdiff layers.

The tracer replaces public functions of the hypdiff modules with wrappers
that record one span per call and a few work counters; ``src/`` is not
edited.  Calls between layers go through module attributes (``ball.log_map``,
``dv.linprog``, ``Graph.hop_distances``), so nested calls are traced too.
Spans stay in memory and are written out once, when the traced run ends.

A span is ``(name, start, end, done, parent)``: ``end`` closes the wrapped
call and ``done`` closes the tracer's own bookkeeping after it.  A parent's
self time subtracts its children's ``[start, done]`` intervals, so counter
arithmetic done by the tracer is charged to nobody; it shows only in the
traced/untraced overhead ratio.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

BALL_FNS = (
    "log_map", "exp_map", "dlog", "mobius_add", "project_to_ball",
    "parallel_transport", "gyromidpoint", "distance",
)

# (module under hypdiff, attribute path) of every traced function; the
# metric prefix is "<module>.<attribute path>".
TRACED = (
    [("ball", fn) for fn in BALL_FNS]
    + [
        ("diffusion", "diffusion_flow"),
        ("diffusion", "dirichlet_energy"),
        ("solvers", "solve"),
        ("diffusivity", "isotropic_weights"),
        ("diffusivity", "local_diffusivity"),
        ("diffusivity", "global_diffusivity"),
        ("diffusivity", "orc_curvatures"),
        ("diffusivity", "transport_cost"),
        ("diffusivity", "linprog"),
        ("graphs", "Graph.hop_distances"),
        ("graphio", "load_edge_list"),
        ("graphio", "save_matrix_csv"),
        ("graphio", "save_energy_csv"),
        ("cli", "main"),
    ]
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# Work counters the wrappers add to, besides per-span calls and times.
COUNTERS = tuple(
    [f"ball.{fn}.{what}" for fn in BALL_FNS for what in ("rows", "bytes")]
    + [
        "ball.project_to_ball.changed",
        "diffusivity.lp_vars",
        "diffusivity.orc.max_dual_gap",
        "graphs.hop_distances.visited",
        "solvers.flow_evals",
    ]
)


def _ball_counter(fn):
    rows_key, bytes_key = f"ball.{fn}.rows", f"ball.{fn}.bytes"

    def count(counters, args, out):
        out = np.asarray(out)
        if fn == "distance":
            rows = out.size
        else:
            rows = out.size // out.shape[-1] if out.ndim and out.shape[-1] else out.size
        counters[rows_key] += rows
        counters[bytes_key] += out.nbytes + sum(
            a.nbytes for a in args if isinstance(a, np.ndarray))
        if fn == "project_to_ball" and args:
            before = np.asarray(args[0], dtype=np.float64)
            moved = np.any(out != before, axis=-1) if out.ndim else out != before
            counters["ball.project_to_ball.changed"] += int(np.count_nonzero(moved))

    return count


def _hop_counter(counters, args, out):
    counters["graphs.hop_distances.visited"] += len(out)


def _transport_counter(counters, args, out):
    if len(args) >= 2:
        counters["diffusivity.lp_vars"] += len(args[0]) * len(args[1])


def _orc_counter(counters, args, out):
    gaps = np.asarray(out.dual_gap, dtype=np.float64)
    if gaps.size:
        key = "diffusivity.orc.max_dual_gap"
        counters[key] = max(counters[key], float(gaps.max()))


def _counter_for(mod, attr):
    if mod == "ball":
        return _ball_counter(attr)
    return {
        "Graph.hop_distances": _hop_counter,
        "transport_cost": _transport_counter,
        "orc_curvatures": _orc_counter,
    }.get(attr)


class Tracer:
    """Records spans and counters for one traced run of the hypdiff CLI."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self.spans: list = []
        self.counters = defaultdict(float)
        self._stack = [-1]

    def install(self):
        """Wrap every traced function that exists in the imported package."""
        for mod, attr in TRACED:
            owner = importlib.import_module(f"hypdiff.{mod}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is not None and callable(getattr(owner, leaf, None)):
                setattr(owner, leaf, self._wrap(getattr(owner, leaf), f"{mod}.{attr}",
                                                _counter_for(mod, attr)))
        self._count_flow_evals()

    def _wrap(self, fn, name, count):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the slot so children can name it as parent
            parent = stack[-1]
            stack.append(sid)
            end = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                end = clock()
                if count is not None:
                    count(counters, args, out)
                return out
            finally:
                stack.pop()
                done = clock()
                spans[sid] = (idx, start, done if end is None else end, done, parent)

        return traced

    def _count_flow_evals(self):
        # every flow evaluation the solver requests goes through the closure
        # that build_flow returns
        from hypdiff import diffusion

        build = getattr(diffusion, "build_flow", None)
        if build is None:
            return
        counters = self.counters

        def build_flow(*args, **kwargs):
            flow = build(*args, **kwargs)

            def counted(*a, **k):
                counters["solvers.flow_evals"] += 1
                return flow(*a, **k)

            return counted

        diffusion.build_flow = build_flow

    def dump(self, path: str):
        payload = {
            "run": self.run_id,
            "names": self.names,
            "fields": ["name", "start", "end", "done", "parent"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of it covered by
    the union of its children's ``[start, done]`` intervals."""
    children = defaultdict(list)
    for _, start, _, done, parent in spans:
        if parent >= 0:
            children[parent].append((start, done))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_done in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_done, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(trace: dict) -> dict:
    """Per-span-name calls, total_s and self_s, plus the raw counters."""
    spans = trace["spans"]
    names = trace["names"]
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for (idx, start, end, _, _), own in zip(spans, self_times(spans)):
        s = stats.setdefault(names[idx], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += own
    counters = {key: 0.0 for key in COUNTERS}
    counters.update(trace["counters"])
    return {"spans": stats, "counters": counters}
