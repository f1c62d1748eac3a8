"""In-memory spans around the public entry points of each wealthsim layer.

Nothing in the program is modified on disk: ``traced`` swaps the module
attributes the program calls through for timing wrappers and puts the
originals back when it exits. Each span records its name, start, end, the
span that caused it and the thread it ran on. Per-layer metrics are derived
from the spans after the run, so no counter is shared between threads.
"""

from __future__ import annotations

import collections
import contextlib
import gzip
import itertools
import json
import os
import resource
import threading
import time
from typing import Dict, List, Optional

import numpy as np

#: bytes a kernel computes per agent-day: one float64 read and one written
KERNEL_BYTES_PER_AGENT_DAY = 16


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional["Span"], thread: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.attrs: Dict[str, object] = {}
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one tracer per traced invocation.

    A span opened on a thread with no open span of its own (a worker of the
    engine's thread pool) is parented to the innermost span open on the
    thread that created the tracer, which is blocked waiting for that pool.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._root_thread = threading.get_ident()
        self._stacks: Dict[int, List[Span]] = {}

    def open(self, name: str) -> Span:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            root = self._stacks.get(self._root_thread)
            parent = root[-1] if root else None
        span = Span(next(self._ids), name, parent, thread)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def records(self) -> List[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent.id if s.parent is not None else None,
                 "thread": s.thread, **s.attrs} for s in self.spans]


def write_spans(path: str, runs: List[List[dict]]) -> None:
    """Write the spans of every traced invocation as gzipped JSON."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(runs, fh)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_attrs(args, kwargs, result):
    return {"agent_days": int(_arg(args, kwargs, 0, "excess").shape[0])
            * int(_arg(args, kwargs, 4, "n_days"))}


def _run_single_attrs(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    schedule = _arg(args, kwargs, 1, "schedule")
    ticks = np.arange(0, params.t_max + 1, schedule.series_stride)
    events = np.unique(np.concatenate([ticks, np.asarray(schedule.snapshot_times,
                                                         dtype=np.int64)]))
    return {"events": int(events.size)}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _build_attrs(args, kwargs, result):
    return {"epsilon": float(_arg(args, kwargs, 2, "epsilon"))}


def _eigen_attrs(args, kwargs, result):
    return {"epsilon": float(_arg(args, kwargs, 0, "op").epsilon),
            "iterations": int(result[2][0])}


def _wrap(tracer: Tracer, fn, name: str, attrs=None, sys_time: bool = False):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        if sys_time:
            sys0 = resource.getrusage(resource.RUSAGE_SELF).ru_stime
        try:
            result = fn(*args, **kwargs)
        finally:
            if sys_time:
                span.attrs["sys_s"] = resource.getrusage(resource.RUSAGE_SELF).ru_stime - sys0
            tracer.close(span)
        if attrs is not None:
            span.attrs.update(attrs(args, kwargs, result))
        return result
    return wrapper


def _wrap_apply(tracer: Tracer, fn):
    # Called ~40 000 times per sweep, so it stays as lean as a wrapper can be.
    def apply(self, v):
        span = tracer.open("stationary.apply")
        try:
            return fn(self, v)
        finally:
            tracer.close(span)
            span.attrs["epsilon"] = self.epsilon
    return apply


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the program's layer entry points through ``tracer`` while open."""
    from wealthsim import backends, cli, engine, stationary, stats, tableio

    plan = [
        (backends, "advance", lambda f: _wrap(tracer, f, "kernel.advance", _kernel_attrs)),
        (engine, "run", lambda f: _wrap(tracer, f, "engine.run", sys_time=True)),
        (engine, "_run_single",
         lambda f: _wrap(tracer, f, "engine.run_single", _run_single_attrs)),
        (stats, "bin_excess", lambda f: _wrap(tracer, f, "stats.bin_excess")),
        (stats, "flux_matrix", lambda f: _wrap(tracer, f, "stats.flux_matrix")),
        (tableio, "write_table", lambda f: _wrap(tracer, f, "tableio.write_table", _write_attrs)),
        (cli, "parse_config", lambda f: _wrap(tracer, f, "cli.parse_config")),
        (stationary, "build_operator",
         lambda f: _wrap(tracer, f, "stationary.build_operator", _build_attrs)),
        (stationary, "leading_eigenpair",
         lambda f: _wrap(tracer, f, "stationary.leading_eigenpair", _eigen_attrs)),
        (stationary.BandOperator, "apply", lambda f: _wrap_apply(tracer, f)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in plan]
    try:
        for (owner, attr, make), (_, _, fn) in zip(plan, originals):
            setattr(owner, attr, make(fn))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _inside(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def _busy(spans) -> float:
    return float(sum(s.duration for s in spans))


def layer_metrics(spans: List[Span], eps_tags: Dict[float, str],
                  wall_s: float) -> Dict[str, float]:
    """Per-layer counts and times of one traced invocation lasting ``wall_s``.

    ``eps_tags`` maps each swept epsilon to its tag (for example
    ``eps_m0p005``); stationary metrics of epsilons the run never solved
    read 0, as do the metrics of any layer the workload bypasses.
    """
    by: Dict[str, List[Span]] = collections.defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    get = by.__getitem__
    out: Dict[str, float] = {}

    kernel = get("kernel.advance")
    agent_days = sum(s.attrs["agent_days"] for s in kernel)
    out["kernel.calls"] = len(kernel)
    out["kernel.busy_s"] = _busy(kernel)
    out["kernel.agent_days"] = agent_days
    out["kernel.magent_days_per_s"] = (agent_days / out["kernel.busy_s"] / 1e6
                                       if kernel else 0.0)
    out["kernel.bytes_computed"] = KERNEL_BYTES_PER_AGENT_DAY * agent_days

    singles = get("engine.run_single")
    inner = [s for s in kernel + get("stats.bin_excess")
             if s.parent is not None and s.parent.name == "engine.run_single"]
    events = sum(s.attrs["events"] for s in singles)
    out["engine.run_s"] = _busy(get("engine.run"))
    out["engine.record_self_s"] = _busy(singles) - _busy(inner)
    out["engine.events"] = events
    out["engine.record_us_per_event"] = (out["engine.record_self_s"] / events * 1e6
                                         if events else 0.0)
    out["engine.sys_s"] = float(sum(s.attrs["sys_s"] for s in get("engine.run")))

    engine_names = ("engine.run", "engine.run_single")
    for parent in ("engine", "cli"):
        calls = [s for s in get("stats.bin_excess")
                 if _inside(s, engine_names) == (parent == "engine")]
        out[f"stats.bin_excess.{parent}.calls"] = len(calls)
        out[f"stats.bin_excess.{parent}.busy_s"] = _busy(calls)
    out["stats.flux_matrix.busy_s"] = _busy(get("stats.flux_matrix"))

    writes = get("tableio.write_table")
    written = sum(s.attrs["bytes"] for s in writes)
    out["tableio.write_table.calls"] = len(writes)
    out["tableio.write_table.busy_s"] = _busy(writes)
    out["tableio.bytes_written"] = written
    out["tableio.mb_per_s"] = (written / out["tableio.write_table.busy_s"] / 1e6
                               if writes else 0.0)

    roots = get("cli.main")
    children = [s for s in spans if s.parent is not None and s.parent.name == "cli.main"
                and s.thread == s.parent.thread]
    out["cli.self_s"] = _busy(roots) - _busy(children)
    out["cli.parse_config_s"] = _busy(get("cli.parse_config"))

    applies = get("stationary.apply")
    for eps, tag in eps_tags.items():
        solves = [s for s in get("stationary.leading_eigenpair") if s.attrs["epsilon"] == eps]
        out[f"stationary.{tag}.solve_s"] = _busy(solves)
        out[f"stationary.{tag}.iterations"] = sum(s.attrs["iterations"] for s in solves)
        out[f"stationary.{tag}.apply_calls"] = sum(
            1 for s in applies if s.attrs["epsilon"] == eps)
    out["stationary.build_operator.busy_s"] = _busy(get("stationary.build_operator"))
    out["stationary.apply_us_per_call"] = (_busy(applies) / len(applies) * 1e6
                                           if applies else 0.0)

    out["trace.spans"] = len(spans)
    # share of the traced wall time spent inside the layers cli.main calls
    out["trace.layer_coverage"] = _busy(children) / wall_s
    return out


def wall_by_layer(m: Dict[str, float]) -> Dict[str, float]:
    """Split the traced wall time of the calling thread over the layers.

    The calling thread's ``engine.run`` time is divided between kernel,
    recording and binning in proportion to their busy time summed over the
    engine's threads; everything else is already a span on that thread.
    """
    inner = {"kernel": m["kernel.busy_s"], "engine.record": m["engine.record_self_s"],
             "stats": m["stats.bin_excess.engine.busy_s"]}
    total = sum(inner.values())
    out = {k: m["engine.run_s"] * v / total if total else 0.0 for k, v in inner.items()}
    out["stats"] += m["stats.bin_excess.cli.busy_s"] + m["stats.flux_matrix.busy_s"]
    out["tableio"] = m["tableio.write_table.busy_s"]
    out["cli"] = m["cli.self_s"] + m["cli.parse_config_s"]
    out["stationary"] = m["stationary.build_operator.busy_s"] + sum(
        v for k, v in m.items() if k.endswith(".solve_s"))
    return out
