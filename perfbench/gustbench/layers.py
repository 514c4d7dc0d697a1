"""Benchmark-side layer boundaries, tracing and per-layer self time.

A traced run wraps each layer's public functions — on the name the caller
looks up, so ``repro.core.pipeline.compile_plan`` rather than the
registry's own binding — and records one span per call into a
``repro.obs.Tracer``.  The same tracer is installed as the program's
ambient tracer, so the spans the program already emits (``compile.*``,
``store.*``, ``cache.disk_load``, ``replay.execute``, ``serve.*``) land in
the same buffer, nested under the wrappers' spans.

A span's self time is its duration minus the time its child spans (same
thread) cover; a layer's self time is the sum over its spans.  Time inside
a pipeline call that no child layer covers stays with the ``pipeline``
layer and is reported as ``unattributed``.

Untraced runs never construct an :class:`Instrument`, so no wrapper is
installed.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from dataclasses import dataclass

from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer

from gustbench.roofline import matvec_bytes

#: Span category of the benchmark's own spans in the Chrome trace.
CATEGORY = "bench"

#: Retained spans; a traced run stays well below this.
TRACE_CAPACITY = 2_000_000

#: Program span names whose layer is not their first name component.
_PROGRAM_SPAN_LAYER = {
    "compile.load_balance": "load_balance",
    "compile.partition": "scheduler",
    "compile.coloring": "scheduler",
    "compile.scatter": "scheduler",
    "compile.plan_build": "pipeline",
    "replay.execute": "pipeline",
}


def layer_of(name: str) -> str:
    """Layer owning span ``name`` (``serve.*`` spans belong to the server)."""
    layer = _PROGRAM_SPAN_LAYER.get(name, name.split(".", 1)[0])
    return "server" if layer == "serve" else layer


# -- span annotations taken at the boundary ---------------------------------


def _colors(args, kwargs, schedule):
    return {"colors": schedule.total_colors}


def _fetch_outcome(args, kwargs, lookup):
    if lookup is None:
        return {"outcome": "miss"}
    if lookup.from_disk:
        return {"outcome": "disk"}
    return {"outcome": "refresh" if lookup.refreshed else "hit"}


def _artifact_bytes(args, kwargs, result):
    store, key = args[0], args[1]
    if not result:
        return {"bytes": 0}
    try:
        return {"bytes": os.path.getsize(store.path_for(key))}
    except OSError:
        return {"bytes": 0}


def _matvec(args, kwargs, y):
    handle, x = args[0], args[1]
    return {"bytes": matvec_bytes(handle.plan, x, y)}


def _matmat_columns(args, kwargs, block):
    return {"columns": int(block.shape[1])}


def _jacobi(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "spmv_count": result.spmv_count,
        "converged": result.converged,
    }


def _register_kind(args, kwargs):
    return {"replace": bool(kwargs.get("replace", False))}


def _queue_waits(args, kwargs):
    now = time.perf_counter()
    batch = args[1]
    return {"size": len(batch), "waits": [now - r.enqueued for r in batch]}


def _targets():
    """``(owner, attribute, span name, before hook, after hook)`` per layer."""
    from repro.core import pipeline
    from repro.core.cache import ScheduleCache
    from repro.core.compiled import CompiledSpmv
    from repro.core.load_balance import LoadBalancer
    from repro.core.pipeline import GustPipeline
    from repro.core.plan import ExecutionPlan
    from repro.core.scheduler import GustScheduler
    from repro.core.spmm import StackedReplay
    from repro.core.store import DiskScheduleStore
    from repro.serve import server
    from repro.serve.registry import MatrixRegistry
    from repro.sparse.coo import CooMatrix

    jacobi_module = importlib.import_module("repro.solvers.jacobi")
    return [
        (CooMatrix, "from_arrays", "sparse.canonicalize", None, None),
        (LoadBalancer, "balance", "load_balance.balance", None, None),
        (GustScheduler, "schedule_balanced", "scheduler.schedule", None, _colors),
        (ExecutionPlan, "from_schedule", "plan.build", None, None),
        (ExecutionPlan, "with_values", "plan.with_values", None, None),
        (ScheduleCache, "fetch", "cache.fetch", None, _fetch_outcome),
        (ScheduleCache, "insert", "cache.insert", None, None),
        (DiskScheduleStore, "load", "store.load", None, _artifact_bytes),
        (DiskScheduleStore, "store", "store.store", None, _artifact_bytes),
        (pipeline, "compile_plan", "backends.compile", None, None),
        (CompiledSpmv, "matvec", "backends.matvec", None, _matvec),
        (CompiledSpmv, "matmat", "backends.matmat", None, _matmat_columns),
        (StackedReplay, "matvecs", "backends.matmat", None, _matmat_columns),
        (GustPipeline, "compile", "pipeline.compile", None, None),
        (GustPipeline, "preprocess", "pipeline.preprocess", None, None),
        (jacobi_module, "jacobi", "solvers.jacobi", None, _jacobi),
        (MatrixRegistry, "register", "registry.register", _register_kind, None),
        (server, "run_batch", "server.run_batch", _queue_waits, None),
    ]


class Instrument:
    """Installs the layer wrappers and an ambient tracer for one run."""

    def __init__(self, capacity: int = TRACE_CAPACITY):
        self.tracer = Tracer(enabled=True, capacity=capacity)
        self._patches: list[tuple[object, str, object]] = []
        self._previous = None

    def __enter__(self) -> "Instrument":
        self._previous = obs_trace.install(self.tracer)
        for owner, attribute, name, before, after in _targets():
            self._patch(owner, attribute, name, before, after)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        obs_trace.install(self._previous)

    def _patch(self, owner, attribute, name, before, after) -> None:
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrap(original.__func__, name, before, after)
            )
        else:
            replacement = self._wrap(original, name, before, after)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def _wrap(self, fn, name, before, after):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name, cat=CATEGORY) as span:
                if before is not None:
                    span.annotate(**before(args, kwargs))
                result = fn(*args, **kwargs)
                if after is not None:
                    span.annotate(**after(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (correctness oracles run here)."""
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def phase(self, name: str):
        """A span marking one measured phase's time window."""
        return self.tracer.span(f"phase.{name}", cat=CATEGORY)


class Untraced:
    """The untraced stand-in: no wrappers, no tracer, nothing paused."""

    def paused(self):
        return contextlib.nullcontext()

    def phase(self, name: str):
        return contextlib.nullcontext()


@dataclass
class Span:
    """One completed span with its self time."""

    name: str
    layer: str
    start: float
    end: float
    thread: int
    args: dict
    self_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spans_with_self_time(events: list[dict]) -> list[Span]:
    """Completed spans, each with duration minus same-thread child cover."""
    spans = [
        Span(
            name=e["name"],
            layer=layer_of(e["name"]),
            start=e["ts_s"],
            end=e["ts_s"] + e["dur_s"],
            thread=e["tid"],
            args=e["args"],
        )
        for e in events
        if e["ph"] == "X"
    ]
    children_s = [0.0] * len(spans)
    by_thread: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_thread.setdefault(span.thread, []).append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i].start, -spans[i].seconds))
        open_spans: list[int] = []
        for i in indices:
            while open_spans and spans[open_spans[-1]].end <= spans[i].start:
                open_spans.pop()
            if open_spans:
                children_s[open_spans[-1]] += spans[i].seconds
            open_spans.append(i)
    for span, covered in zip(spans, children_s):
        span.self_s = span.seconds - covered
    return spans


def by_phase(spans: list[Span]) -> dict[str, list[Span]]:
    """Layer spans grouped by the ``phase.*`` window they start in.

    By start, because a worker thread can still be closing the spans of a
    segment's last batch when the segment's window closes.
    """
    windows = [
        (s.name.split(".", 1)[1], s.start, s.end)
        for s in spans
        if s.name.startswith("phase.")
    ]
    grouped: dict[str, list[Span]] = {name: [] for name, _, _ in windows}
    for span in spans:
        if span.name.startswith("phase."):
            continue
        for name, start, end in windows:
            if start <= span.start <= end:
                grouped[name].append(span)
                break
    return grouped
