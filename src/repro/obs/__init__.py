"""Observability: tracing spans, metrics, and export surfaces.

This package is the one sanctioned seam between the library and the
clock/metrics/tracing machinery:

* :mod:`repro.obs.clock` — the injectable monotonic clock every timed
  component in ``core/`` and ``serve/`` routes through (lint rule R6
  forbids ad-hoc ``time.time()``/``time.perf_counter()`` there).
* :mod:`repro.obs.trace` — nested context-manager spans with a true
  no-op fast path when disabled (the default), Chrome trace-event JSON
  export, and ``GUST_TRACE`` ambient activation.
* :mod:`repro.obs.metrics` — a label-aware registry of counters, gauges
  and fixed-bucket histograms with Prometheus-text and JSON exposition.
* :mod:`repro.obs.http` — a background exporter thread serving
  ``/metrics`` and ``/healthz``.

Like :mod:`repro.faults`, everything here is stdlib-only and imports
nothing from ``repro`` except :mod:`repro.errors`, so any layer (core,
serve, CLI) can instrument itself without import cycles.
"""

from __future__ import annotations

from repro.obs.clock import monotonic
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    default_registry,
)
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    active_tracer,
    install,
    instant,
    overridden,
    span,
)
from repro.obs.http import MetricsExporter

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsExporter",
    "MetricsRegistry",
    "NULL_SPAN",
    "Tracer",
    "active_tracer",
    "default_registry",
    "install",
    "instant",
    "monotonic",
    "overridden",
    "phase",
    "span",
]


class phase:
    """Time one compile/serve phase: a span *and* a histogram sample.

    ``with obs.phase("coloring"): ...`` emits a ``compile.<name>`` span
    when tracing is active and always observes the elapsed seconds into
    ``gust_compile_phase_seconds{phase=<name>}`` on the default metrics
    registry.  Compile paths are cold (cache misses only), so the
    always-on histogram costs one clock pair per phase.
    """

    __slots__ = ("name", "_span", "_start")

    def __init__(self, name: str):
        self.name = name
        self._span = None
        self._start = 0.0

    def __enter__(self) -> "phase":
        self._span = span(f"compile.{self.name}", cat="compile")
        self._span.__enter__()
        self._start = monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = monotonic() - self._start
        default_registry().histogram(
            "gust_compile_phase_seconds",
            help="Wall time of each schedule-compilation phase.",
        ).observe(elapsed, phase=self.name)
        self._span.__exit__(exc_type, exc, tb)
        return False

    def annotate(self, **args) -> None:
        """Attach arguments to the phase's span (no-op when not tracing)."""
        self._span.annotate(**args)
