"""Serving metrics: latency percentiles, batch histogram, counters.

One :class:`ServerMetrics` instance per server, written from worker and
submit paths under a single lock (every operation is O(1) or amortized
O(1); the latency reservoir is bounded).  :meth:`ServerMetrics.snapshot`
freezes everything into an immutable :class:`ServerStats` for reporting.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import CacheStats
from repro.obs import clock as _obs_clock
from repro.obs.metrics import MetricsRegistry
from repro.serve.circuit import CircuitSnapshot

#: Most recent request latencies retained for percentile estimation.  A
#: bounded reservoir keeps the memory footprint flat under sustained
#: traffic while still answering p50/p99 over a recent window.
LATENCY_RESERVOIR = 8192


@dataclass(frozen=True)
class ServerStats:
    """Immutable snapshot of one server's counters and distributions."""

    #: Requests accepted into a queue.
    submitted: int
    #: Requests answered (future resolved with a result).
    completed: int
    #: Requests refused at admission (queue full or server not accepting).
    rejected: int
    #: Requests failed with an exception (shutdown without drain).
    failed: int
    #: Batches executed.
    batches: int
    #: batch size -> number of batches executed at that size.
    batch_histogram: dict[int, int]
    #: Latency percentiles over the recent reservoir, in milliseconds
    #: (0.0 when no request has completed yet).
    p50_ms: float
    p99_ms: float
    #: Wall-clock seconds the server has been running.
    uptime_s: float
    #: Schedule-cache counters folded in from the registry's shared
    #: :class:`~repro.core.cache.ScheduleCache`.
    cache: CacheStats = field(default_factory=CacheStats)
    #: Requests failed fast because their deadline expired before a worker
    #: reached them (the kernel never ran for these).
    deadline_expired: int = 0
    #: Worker threads that died from an unexpected exception and were
    #: respawned by the supervisor — capacity that would have silently
    #: decayed without supervision.
    workers_respawned: int = 0
    #: Worker threads lost past the respawn cap (not replaced).
    workers_lost: int = 0
    #: Per-tenant circuit-breaker states and transition totals.
    circuits: CircuitSnapshot = field(
        default_factory=lambda: CircuitSnapshot(states={})
    )

    @property
    def mean_batch_size(self) -> float:
        """Average executed batch size (0.0 when nothing ran yet).

        An idle server has no mean batch size; fabricating 1.0 made an
        idle server indistinguishable from one that executed every
        request unbatched.
        """
        if not self.batches:
            return 0.0
        return self.completed_in_batches / self.batches

    @property
    def completed_in_batches(self) -> int:
        return sum(size * count for size, count in self.batch_histogram.items())

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of uptime."""
        return self.completed / self.uptime_s if self.uptime_s > 0 else 0.0

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            "serving stats:",
            f"  requests: {self.submitted} submitted, "
            f"{self.completed} completed, {self.rejected} rejected, "
            f"{self.failed} failed, {self.deadline_expired} deadline-expired",
            f"  batches:  {self.batches} "
            f"(mean size {self.mean_batch_size:.2f})",
        ]
        if self.batch_histogram:
            histogram = ", ".join(
                f"{size}x{count}"
                for size, count in sorted(self.batch_histogram.items())
            )
            lines.append(f"  batch histogram (size x batches): {histogram}")
        lines.append(
            f"  latency:  p50 {self.p50_ms:.3f} ms, p99 {self.p99_ms:.3f} ms"
        )
        lines.append(
            f"  throughput: {self.throughput_rps:.0f} req/s "
            f"over {self.uptime_s:.2f} s"
        )
        lines.append(
            f"  schedule cache: {self.cache.hits} hits, "
            f"{self.cache.refreshes} refreshes, {self.cache.misses} misses "
            f"(hit rate {self.cache.hit_rate:.0%}; "
            f"disk {self.cache.disk_hits} hits)"
        )
        lines.append(
            f"  workers:  {self.workers_respawned} respawned, "
            f"{self.workers_lost} lost"
        )
        circuits = self.circuits
        open_now = sorted(
            name
            for name, state in circuits.states.items()
            if state != "closed"
        )
        lines.append(
            f"  circuits: {circuits.opened} opened, "
            f"{circuits.half_opened} half-opened, {circuits.closed} closed, "
            f"{circuits.rejected} rejected, "
            f"{circuits.probes_aborted} probe-aborts, "
            f"{circuits.probes_reclaimed} probe-reclaims"
            + (f"; unhealthy: {', '.join(open_now)}" if open_now else "")
        )
        return "\n".join(lines)


#: Batch-size histogram boundaries: powers of two up to the largest
#: plausible ``max_batch``, so the exposition shows the coalescing shape.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class ServerMetrics:
    """Thread-safe mutable counters behind :class:`ServerStats`.

    Args:
        clock: monotonic time source (defaults to the obs clock seam).
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, request latencies and batch sizes are *also*
            observed into fixed-bucket histograms
            (``gust_request_latency_seconds``, ``gust_batch_size``) at
            record time, so a Prometheus scrape sees full distributions,
            not just the reservoir percentiles; so are the request phases
            (``gust_request_phase_seconds{phase=queue|kernel|settle}``,
            see :attr:`times_phases`).
    """

    def __init__(self, clock=None, registry: MetricsRegistry | None = None):
        self._clock = clock or _obs_clock.monotonic
        self._latency_hist = None
        self._batch_hist = None
        self._phase_hist = None
        if registry is not None:
            self._phase_hist = registry.histogram(
                "gust_request_phase_seconds",
                help="Request phases: queue (enqueue to dequeue, per "
                "request), kernel and settle (per batch).",
            )
            self._latency_hist = registry.histogram(
                "gust_request_latency_seconds",
                help="End-to-end request latency (enqueue to settle).",
            )
            self._batch_hist = registry.histogram(
                "gust_batch_size",
                help="Executed batch sizes (requests coalesced per kernel).",
                buckets=BATCH_SIZE_BUCKETS,
            )
        self._lock = threading.Lock()
        self._started = self._clock()
        self._submitted = 0
        self._rejected = 0
        self._failed = 0
        self._batches = 0
        self._completed = 0
        self._deadline_expired = 0
        self._workers_respawned = 0
        self._workers_lost = 0
        self._histogram: Counter[int] = Counter()
        self._latencies: deque[float] = deque(maxlen=LATENCY_RESERVOIR)

    def mark_started(self) -> None:
        """Re-base uptime on serving start.

        The construction-to-start gap is setup (registrations, plan
        preparation), not serving time; counting it deflates
        ``throughput_rps`` for any server not started immediately.
        """
        with self._lock:
            self._started = self._clock()

    def record_submit(self) -> None:
        with self._lock:
            self._submitted += 1

    def record_reject(self) -> None:
        with self._lock:
            self._rejected += 1

    def record_failure(self, count: int = 1) -> None:
        with self._lock:
            self._failed += count

    def record_deadline_expired(self, count: int = 1) -> None:
        with self._lock:
            self._deadline_expired += count

    def record_worker_respawn(self) -> None:
        with self._lock:
            self._workers_respawned += 1

    def record_worker_lost(self) -> None:
        with self._lock:
            self._workers_lost += 1

    def record_batch(self, size: int, latencies_s: list[float]) -> None:
        """One executed batch: size histogram + per-request latencies."""
        with self._lock:
            self._batches += 1
            self._completed += size
            self._histogram[size] += 1
            self._latencies.extend(latencies_s)
        if self._batch_hist is not None:
            self._batch_hist.observe(size)
            for latency in latencies_s:
                self._latency_hist.observe(latency)

    @property
    def times_phases(self) -> bool:
        """Whether request phases are observed (a registry is attached);
        without one the serving hot path takes no phase timestamps."""
        return self._phase_hist is not None

    def record_queue_waits(self, waits_s: Iterable[float]) -> None:
        """Queue phase: one observation per dequeued request."""
        for wait in waits_s:
            self._phase_hist.observe(wait, phase="queue")

    def record_batch_phases(self, kernel_s: float, settle_s: float) -> None:
        """Kernel and settle phases: one observation each per batch."""
        self._phase_hist.observe(kernel_s, phase="kernel")
        self._phase_hist.observe(settle_s, phase="settle")

    def snapshot(
        self,
        cache: CacheStats | None = None,
        circuits: CircuitSnapshot | None = None,
    ) -> ServerStats:
        with self._lock:
            latencies = np.array(self._latencies, dtype=np.float64)
            if latencies.size:
                p50, p99 = np.percentile(latencies, [50.0, 99.0]) * 1e3
            else:
                p50 = p99 = 0.0
            return ServerStats(
                submitted=self._submitted,
                completed=self._completed,
                rejected=self._rejected,
                failed=self._failed,
                batches=self._batches,
                batch_histogram=dict(self._histogram),
                p50_ms=float(p50),
                p99_ms=float(p99),
                uptime_s=self._clock() - self._started,
                cache=cache if cache is not None else CacheStats(),
                deadline_expired=self._deadline_expired,
                workers_respawned=self._workers_respawned,
                workers_lost=self._workers_lost,
                circuits=(
                    circuits
                    if circuits is not None
                    else CircuitSnapshot(states={})
                ),
            )
