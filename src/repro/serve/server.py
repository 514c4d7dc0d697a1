"""The in-process SpMV server: workers, backpressure, metrics, shutdown.

:class:`SpmvServer` composes a :class:`~repro.serve.registry.
MatrixRegistry` (tenants pinned to prepared plans) with a
:class:`~repro.serve.batcher.RequestBatcher` (bounded queues,
work-conserving admission) and a pool of worker threads that drain
batches and resolve futures.  Metrics are always on: per-request latency
percentiles, the executed batch-size histogram, and the shared schedule
cache's hit counters surface through :meth:`SpmvServer.stats`.

Failure model (the contract the chaos suite enforces):

* **No future ever hangs.**  Every accepted request resolves with a
  result or a typed :class:`~repro.errors.ServeError` subclass — on
  kernel failure, deadline expiry, worker crash, shutdown, and every
  combination thereof.
* **Deadlines fail fast.**  A request whose deadline expired before a
  worker reached it gets :class:`~repro.errors.DeadlineExceededError`
  without running the kernel; a saturated server spends cycles only on
  answers someone still wants.
* **Workers are supervised.**  A worker thread that dies from an
  unexpected exception fails its held batch with
  :class:`~repro.errors.WorkerCrashedError`, is counted, and respawns in
  place up to ``max_worker_respawns``; past the cap the lost worker is
  counted, and losing the *last* worker fails all pending requests with
  :class:`~repro.errors.ServerStoppedError` rather than stranding them
  against an empty pool.
* **Sick tenants are isolated.**  Consecutive kernel failures open the
  tenant's circuit breaker (:mod:`repro.serve.circuit`); its submits are
  refused with :class:`~repro.errors.CircuitOpenError` until a half-open
  probe succeeds, so one poisoned tenant cannot monopolize workers.

Shutdown is graceful by default: ``stop()`` stops admissions, lets the
workers take every queued request, joins them, and only then returns —
no accepted request is ever lost.  ``stop(drain=False)`` instead fails
queued requests with :class:`~repro.errors.ServerStoppedError`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, InvalidStateError

import numpy as np

from repro import faults as _faults
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.errors import (
    DeadlineExceededError,
    HardwareConfigError,
    InjectedFaultError,
    ServeError,
    ServerStoppedError,
    WorkerCrashedError,
)
from repro.serve.batcher import (
    BatchPolicy,
    RequestBatcher,
    SpmvRequest,
    run_batch,
)
from repro.serve.circuit import CircuitBoard
from repro.serve.metrics import ServerMetrics, ServerStats
from repro.serve.registry import MatrixRegistry
from repro.sparse.coo import CooMatrix

#: Default total in-place worker respawns before crashes count as lost.
DEFAULT_MAX_WORKER_RESPAWNS = 3


class SpmvServer:
    """Multi-tenant SpMV serving over prepared execution plans.

    Args:
        registry: the tenant registry (one is created when omitted).
        policy: batching/admission policy.
        workers: batch-executor threads.  One worker already overlaps
            Python-side bookkeeping with NumPy/SciPy kernels (which release
            the GIL); more workers help when several tenants are hot.
        circuits: per-tenant circuit breakers (a default
            :class:`CircuitBoard` is created when omitted; pass one to
            tune thresholds or inject a clock).
        max_worker_respawns: total crashed-worker respawns before further
            crashes permanently shrink the pool.
        faults: explicit :class:`~repro.faults.FaultPlan` for the serve
            fault sites (``worker-crash``, ``kernel-error``,
            ``kernel-slow``); ``None`` uses the ambient plan.
        clock: one monotonic time source shared by the batcher, the
            metrics, and (when not passed pre-built) the circuit board —
            deadlines, latencies, and cooldowns must live on a single
            time base.  Defaults to the obs clock seam.
        metrics_registry: optional
            :class:`~repro.obs.metrics.MetricsRegistry`; when given, hot
            paths observe latency/batch-size histograms directly and a
            scrape-time collector republishes every snapshot total
            (requests, cache tiers, disk store, circuits, faults,
            workers) — see :meth:`attach_metrics`.

    Usage::

        server = SpmvServer(workers=1)
        server.register("A", matrix, length=64)
        with server:                       # start() / stop() bracketed
            y = SpmvClient(server).spmv("A", x)
    """

    def __init__(
        self,
        registry: MatrixRegistry | None = None,
        policy: BatchPolicy | None = None,
        workers: int = 1,
        circuits: CircuitBoard | None = None,
        max_worker_respawns: int = DEFAULT_MAX_WORKER_RESPAWNS,
        faults: _faults.FaultPlan | None = None,
        clock=None,
        metrics_registry: MetricsRegistry | None = None,
    ):
        if workers <= 0:
            raise ServeError(f"workers must be positive, got {workers}")
        if max_worker_respawns < 0:
            raise ServeError(
                f"max_worker_respawns must be non-negative, "
                f"got {max_worker_respawns}"
            )
        self.registry = registry if registry is not None else MatrixRegistry()
        self.batcher = RequestBatcher(policy, clock=clock)
        self.workers = workers
        self.circuits = circuits if circuits is not None else CircuitBoard(
            clock=self.batcher.clock
        )
        self.max_worker_respawns = max_worker_respawns
        self.metrics = ServerMetrics(
            clock=self.batcher.clock, registry=metrics_registry
        )
        self._faults = faults
        if metrics_registry is not None:
            self.attach_metrics(metrics_registry)
        self._threads: list[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._stop_done = threading.Event()
        self._respawns = 0
        self._workers_lost = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SpmvServer":
        with self._state_lock:
            if self._stopped:
                raise ServeError("server cannot restart after stop()")
            if self._started:
                raise ServeError("server is already running")
            self._started = True
            # Uptime (and so throughput_rps) measures serving time, not
            # the construction-to-start setup gap.
            self.metrics.mark_started()
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._supervised_worker,
                    name=f"gust-serve-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop admissions and shut the workers down.

        With ``drain`` (default) every queued request is executed before
        the workers exit; without it, queued requests fail with
        :class:`ServerStoppedError` and only in-flight batches complete.
        Idempotent, and *blocking* for every caller: a ``stop()`` that
        loses the race to another thread's ``stop()`` still waits for the
        winner to finish joining the workers before returning, so "my
        stop() returned" always means "no worker is running".
        """
        with self._state_lock:
            first = not self._stopped
            self._stopped = True
            started = self._started
        if not first:
            self._stop_done.wait()
            return
        try:
            # A never-started server has no workers to drain its queues,
            # so a drain request downgrades to abandonment (futures must
            # never hang past stop()).
            abandoned = self.batcher.close(drain=drain and started)
            self._fail_requests(
                abandoned,
                ServerStoppedError(
                    "server stopped before executing this request"
                ),
            )
            for thread in self._threads:
                thread.join()
            self._threads.clear()
        finally:
            self._stop_done.set()

    def _fail_requests(
        self, requests: list[SpmvRequest], error: ServeError
    ) -> None:
        """Resolve still-pending requests with a typed error.

        Tolerates futures that already resolved (a crashed batch may hold
        requests the expiry pass or ``run_batch`` settled first) and ones
        the caller cancelled — only genuinely pending futures get the
        error, and each is counted as a failure exactly once.
        """
        failed = 0
        for request in requests:
            if request.future.done():
                continue
            try:
                request.future.set_exception(error)
            except InvalidStateError:
                # Lost a race with a concurrent resolver/canceller; the
                # future is settled either way, which is all we need.
                continue
            failed += 1
        if failed:
            self.metrics.record_failure(failed)

    def __enter__(self) -> "SpmvServer":
        with self._state_lock:
            already = self._started
        return self if already else self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- registration --------------------------------------------------------

    def register(self, name: str, matrix: CooMatrix, **kwargs):
        """Register a tenant and open its queue; see
        :meth:`MatrixRegistry.register` for keyword arguments."""
        entry = self.registry.register(name, matrix, **kwargs)
        self.batcher.bind(entry)
        return entry

    # -- request path --------------------------------------------------------

    def submit(
        self, name: str, x: np.ndarray, deadline: float | None = None
    ) -> Future:
        """Enqueue one SpMV request; returns its future.

        ``deadline`` is absolute on the batcher's clock
        (``server.batcher.clock()``); an expired request fails fast with
        :class:`DeadlineExceededError` instead of computing.  Raises
        synchronously on unknown tenants, malformed operands, full queues
        (:class:`~repro.errors.QueueFullError` — backpressure), an open
        circuit (:class:`~repro.errors.CircuitOpenError`), and a stopped
        server.
        """
        entry = self.registry.get(name)
        try:
            self.circuits.check(name)
        except ServeError:
            self.metrics.record_reject()
            raise
        try:
            future = self.batcher.submit(entry, x, deadline=deadline)
        except (ServeError, HardwareConfigError):
            # Admission can refuse a request three ways: serving-side
            # (queue full, closed tenant, stopped server — ServeError),
            # health-side (open circuit — CircuitOpenError, raised by
            # check() above), or operand-side (shape/dtype mismatch —
            # HardwareConfigError).  All are rejections the operator
            # should see counted.  A refusal *after* check() admitted the
            # request must also give back the half-open probe slot: this
            # request will never reach a worker, so no outcome would ever
            # be recorded and the tenant would be locked out forever.
            self.circuits.abort_probe(name)
            self.metrics.record_reject()
            raise
        self.metrics.record_submit()
        return future

    # -- workers -------------------------------------------------------------

    def _supervised_worker(self) -> None:
        """Run the worker loop, respawning it in place after crashes.

        A clean return (shutdown observed) ends the thread.  An escaping
        exception is a worker crash: its batch was already failed with
        :class:`WorkerCrashedError` by :meth:`_worker_loop`, so the
        supervisor only decides whether the thread lives on.  Under the
        respawn cap the loop restarts in the same thread (``_threads``
        and ``stop()``'s join stay valid); past it the worker is lost,
        and losing the last one fails every pending request — a server
        with no workers must not hold futures it can never resolve.
        """
        while True:
            try:
                self._worker_loop()
                return
            except Exception:  # lint: disable=R5 — batch futures already
                # failed by _worker_loop; the supervisor's job is to keep
                # (or account for) capacity, not to re-raise into a
                # daemon thread's void.
                with self._state_lock:
                    self._respawns += 1
                    allowed = self._respawns <= self.max_worker_respawns
                    if not allowed:
                        self._workers_lost += 1
                        last = self._workers_lost >= self.workers
                if allowed:
                    self.metrics.record_worker_respawn()
                    continue
                self.metrics.record_worker_lost()
                if last:
                    self._fail_requests(
                        self.batcher.close(drain=False),
                        ServerStoppedError(
                            "server stopped serving: worker pool exhausted "
                            "(all workers crashed past the respawn cap)"
                        ),
                    )
                return

    def _worker_loop(self) -> None:
        while True:
            item = self.batcher.take_batch()
            if item is None:
                return
            entry, batch = item
            try:
                self._run_one(entry, batch)
            except Exception:
                # Unexpected failure outside the kernel try (or an
                # injected worker-crash): the worker is about to die, so
                # resolve the batch it holds before propagating to the
                # supervisor — a crash may cost its batch a typed error,
                # never a hung client.  The crash says nothing about the
                # tenant's kernel, so a probe riding in this batch is
                # aborted (not failed) before clients see the error.
                self.circuits.abort_probe(entry.name)
                self._fail_requests(
                    batch,
                    WorkerCrashedError(
                        "worker thread crashed while executing this batch"
                    ),
                )
                raise

    def _run_one(self, entry, batch: list[SpmvRequest]) -> None:
        """Execute one dequeued batch: expiry, kernel, breaker, metrics.

        Traced as one span tree per batch: ``serve.batch`` wraps the
        expiry pass and :func:`run_batch`'s ``serve.assemble`` /
        ``serve.kernel`` / ``serve.settle`` children (same thread, so
        the tracer's per-thread stack nests them under this root).
        """
        on_phases = None
        if self.metrics.times_phases:
            dequeued = self.batcher.clock()
            self.metrics.record_queue_waits(
                dequeued - request.enqueued for request in batch
            )
            on_phases = self.metrics.record_batch_phases
        with _trace.span(
            "serve.batch", cat="serve", tenant=entry.name, size=len(batch)
        ):
            live = self._expire_requests(batch)
            if not live:
                # The whole batch expired (or was cancelled) without
                # touching the kernel: no outcome to report, but a probe
                # riding in it must release its slot or the tenant stays
                # locked out.
                self.circuits.abort_probe(entry.name)
                return
            _faults.raise_if(
                "worker-crash",
                lambda: InjectedFaultError("injected worker-crash fault"),
                self._faults,
            )
            try:
                run_batch(entry, live, self._faults, on_phases)
            except Exception:  # lint: disable=R5 — run_batch already
                # failed every future in the batch with the kernel's
                # exception; the worker stays alive for the other tenants
                # and the breaker hears about the failure.
                self.metrics.record_failure(len(live))
                self.circuits.record_failure(entry.name)
                return
            self.circuits.record_success(entry.name)
            done = self.batcher.clock()
            self.metrics.record_batch(
                len(live), [done - request.enqueued for request in live]
            )

    def _expire_requests(
        self, batch: list[SpmvRequest]
    ) -> list[SpmvRequest]:
        """Fail expired requests fast; returns the still-live remainder.

        Clients hold these futures and may cancel (or otherwise settle)
        them while queued — a settled future is skipped, never re-set:
        an :class:`InvalidStateError` escaping here would read as a
        worker crash and burn the respawn cap on a client-side race.
        """
        now = self.batcher.clock()
        live: list[SpmvRequest] = []
        expired = 0
        for request in batch:
            if request.future.done():
                # Cancelled (or settled by a racing resolver) while
                # queued; nothing left to compute or to fail.
                continue
            if request.deadline is not None and now > request.deadline:
                try:
                    request.future.set_exception(
                        DeadlineExceededError(
                            "request deadline expired before execution"
                        )
                    )
                except InvalidStateError:
                    # Lost the race to a concurrent canceller.
                    continue
                expired += 1
            else:
                live.append(request)
        if expired:
            self.metrics.record_deadline_expired(expired)
        return live

    # -- introspection -------------------------------------------------------

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Publish this server's observable state into ``registry``.

        Registers a scrape-time collector that republishes every
        snapshot total — the subsystems already count authoritatively
        (:class:`ServerMetrics`, :class:`~repro.core.cache.CacheStats`,
        :class:`~repro.core.store.DiskStoreStats`,
        :class:`~repro.serve.circuit.CircuitSnapshot`, the fault plan's
        probe counters) — so one scrape is one consistent read without
        instrumenting each increment site.  Families are created
        eagerly, so every scrape carries the full ``gust_*`` schema even
        before traffic arrives.
        """
        requests = registry.counter(
            "gust_requests_total",
            help="Requests by terminal disposition.",
        )
        batches = registry.counter(
            "gust_batches_total", help="Batches executed."
        )
        quantiles = registry.gauge(
            "gust_request_latency_quantile_seconds",
            help="Latency percentiles over the recent reservoir.",
        )
        uptime = registry.gauge(
            "gust_uptime_seconds", help="Seconds since serving started."
        )
        workers = registry.counter(
            "gust_workers_total",
            help="Worker supervision events (respawned, lost).",
        )
        cache_events = registry.counter(
            "gust_cache_events_total",
            help="Schedule-cache lookup outcomes and evictions.",
        )
        cache_rates = registry.gauge(
            "gust_cache_hit_rate",
            help="Hit rate per cache tier (0 when the tier is cold).",
        )
        store_events = registry.counter(
            "gust_store_events_total",
            help="Disk schedule-store activity incl. io_errors and "
            "quarantined artifacts.",
        )
        circuit_state = registry.gauge(
            "gust_circuit_state",
            help="Per-tenant breaker state: 0 closed, 1 half-open, 2 open.",
        )
        circuit_events = registry.counter(
            "gust_circuit_events_total",
            help="Breaker transitions and admission outcomes.",
        )
        fault_probes = registry.counter(
            "gust_fault_probes_total",
            help="Fault-site probes consumed (decisions taken).",
        )
        faults_fired = registry.counter(
            "gust_faults_fired_total", help="Injected faults that fired."
        )
        state_values = {"closed": 0, "half-open": 1, "open": 2}

        def collect() -> None:
            stats = self.stats()
            for state, value in (
                ("submitted", stats.submitted),
                ("completed", stats.completed),
                ("rejected", stats.rejected),
                ("failed", stats.failed),
                ("deadline_expired", stats.deadline_expired),
            ):
                requests.set_total(value, state=state)
            batches.set_total(stats.batches)
            quantiles.set(stats.p50_ms / 1e3, quantile="0.5")
            quantiles.set(stats.p99_ms / 1e3, quantile="0.99")
            uptime.set(stats.uptime_s)
            workers.set_total(stats.workers_respawned, event="respawned")
            workers.set_total(stats.workers_lost, event="lost")

            cache = stats.cache
            for event, value in (
                ("hit", cache.hits),
                ("refresh", cache.refreshes),
                ("miss", cache.misses),
                ("eviction", cache.evictions),
                ("disk_hit", cache.disk_hits),
                ("disk_miss", cache.disk_misses),
            ):
                cache_events.set_total(value, event=event)
            disk_lookups = cache.disk_hits + cache.disk_misses
            cache_rates.set(cache.hit_rate, tier="overall")
            cache_rates.set(
                (cache.hits + cache.refreshes - cache.disk_hits)
                / cache.lookups if cache.lookups else 0.0,
                tier="memory",
            )
            cache_rates.set(
                cache.disk_hits / disk_lookups if disk_lookups else 0.0,
                tier="disk",
            )

            store = getattr(self.registry.cache, "store", None)
            if store is not None:
                disk = store.stats
                for event, value in (
                    ("hit", disk.hits),
                    ("miss", disk.misses),
                    ("write", disk.writes),
                    ("write_error", disk.write_errors),
                    ("corrupt_dropped", disk.corrupt_dropped),
                    ("eviction", disk.evictions),
                    ("io_error", disk.io_errors),
                    ("stat_walk", disk.stat_walks),
                ):
                    store_events.set_total(value, event=event)

            circuits = stats.circuits
            for tenant, state in circuits.states.items():
                circuit_state.set(state_values[state], tenant=tenant)
            for event, value in (
                ("opened", circuits.opened),
                ("half_opened", circuits.half_opened),
                ("closed", circuits.closed),
                ("rejected", circuits.rejected),
                ("probe_aborted", circuits.probes_aborted),
                ("probe_reclaimed", circuits.probes_reclaimed),
            ):
                circuit_events.set_total(value, event=event)

            plan = _faults.resolve(self._faults)
            probes = plan.probes() if plan is not None else {}
            fired: dict[str, int] = {}
            if plan is not None:
                for event in plan.history():
                    fired[event.site] = fired.get(event.site, 0) + 1
            for site in _faults.SITES:
                fault_probes.set_total(probes.get(site, 0), site=site)
                faults_fired.set_total(fired.get(site, 0), site=site)

        registry.register_collector(collect)

    def stats(self) -> ServerStats:
        """Snapshot of counters, latency percentiles, histogram, circuit
        states, worker supervision totals, and the shared schedule
        cache's hit rates.

        While the server is running the snapshot is eventually
        consistent: a worker resolves a batch's futures *before* it
        records their metrics, so a client that just received its result
        may not be counted yet.  After :meth:`stop` returns (workers
        joined) the counters are exact.
        """
        return self.metrics.snapshot(
            cache=self.registry.cache_stats,
            circuits=self.circuits.snapshot(),
        )
