"""Server tests: concurrency smoke, shutdown draining, metrics, errors."""

import threading

import numpy as np
import pytest

from repro import (
    BatchPolicy,
    GustPipeline,
    MatrixRegistry,
    SpmvClient,
    SpmvServer,
    uniform_random,
)
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    HardwareConfigError,
    InjectedFaultError,
    QueueFullError,
    ServeError,
    ServerStoppedError,
    WorkerCrashedError,
)
from repro.faults import FaultPlan
from tests.serve.helpers import KernelGate, wait_for_waiters


def _make_server(**policy_kwargs) -> SpmvServer:
    policy = BatchPolicy(**policy_kwargs) if policy_kwargs else BatchPolicy()
    return SpmvServer(registry=MatrixRegistry(length=16), policy=policy)


class TestHundredConcurrentClients:
    def test_smoke(self):
        """The CI acceptance smoke: 100 threads, zero lost or wrong
        responses, a non-trivial batch-size histogram, and no lock-order
        inversions across the server's whole lock set.

        Results are checked against the pre-plan scatter path
        (``backend="legacy-scatter"``), the reference the whole replay
        stack is pinned to.
        """
        from repro.analysis import LockOrderMonitor

        matrices = {
            "alpha": uniform_random(96, 96, 0.08, seed=5),
            "beta": uniform_random(64, 64, 0.1, seed=6),
        }
        reference = {}
        for name, matrix in matrices.items():
            pipeline = GustPipeline(16, backend="legacy-scatter")
            schedule, balanced, _ = pipeline.preprocess(matrix)
            reference[name] = (
                lambda x, p=pipeline, s=schedule, b=balanced:
                p.execute_scatter(s, b, x)
            )
        server = _make_server(max_batch=16, max_queue=256)
        # Instrument every lock the serve path can take (the batcher's
        # Condition stays native: wrapping would change its wait/notify
        # surface) before any request-side acquisition happens.
        monitor = LockOrderMonitor()
        server._state_lock = monitor.wrap(
            server._state_lock, "server._state_lock"
        )
        server.metrics._lock = monitor.wrap(
            server.metrics._lock, "metrics._lock"
        )
        server.registry._lock = monitor.wrap(
            server.registry._lock, "registry._lock"
        )
        server.registry.cache._lock = monitor.wrap(
            server.registry.cache._lock, "cache._lock"
        )
        for name, matrix in matrices.items():
            entry = server.register(name, matrix)
            entry.pipeline._plan_lock = monitor.wrap(
                entry.pipeline._plan_lock, f"pipeline[{name}]._plan_lock"
            )
        client = SpmvClient(server)
        names = sorted(matrices)
        mismatches = []
        lock = threading.Lock()
        barrier = threading.Barrier(100)

        def one_request(index: int) -> None:
            rng = np.random.default_rng(index)
            name = names[index % len(names)]
            x = rng.normal(size=matrices[name].shape[1])
            barrier.wait(timeout=30)
            y = client.spmv(name, x, timeout=30.0, retries=100)
            if not (np.asarray(y) == reference[name](x)).all():
                with lock:
                    mismatches.append(index)

        with server:
            threads = [
                threading.Thread(target=one_request, args=(i,))
                for i in range(100)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Stats only after stop() joined the workers — counters are
        # eventually consistent while the server runs.
        stats = server.stats()
        assert mismatches == []
        assert stats.completed == 100
        assert stats.submitted == 100
        assert stats.failed == 0
        # Non-trivial histogram: the barrier makes requests concurrent, so
        # at least some must have coalesced into real batches.
        assert sum(
            size * count for size, count in stats.batch_histogram.items()
        ) == 100
        assert max(stats.batch_histogram) > 1
        assert stats.batches < 100
        assert stats.p99_ms >= stats.p50_ms > 0.0
        # Lock-order check: the instrumentation must actually have seen
        # traffic, and the acquisition graph must be inversion-free.
        assert monitor.acquisitions > 100
        monitor.assert_no_inversions()


class TestWorkConservingAdmission:
    @pytest.mark.parametrize(
        "queued, sizes", [(5, [1, 5]), (20, [1, 16, 4])]
    )
    def test_requests_queued_while_worker_busy_form_one_batch(
        self, square_matrix, rng, monkeypatch, queued, sizes
    ):
        """A lone request runs at once; what arrives while the only
        worker is busy comes out as batches of min(n, max_batch)."""
        server = _make_server(max_batch=16, max_queue=64)
        entry = server.register("A", square_matrix)
        gate = KernelGate(entry, monkeypatch)
        xs = rng.normal(size=(queued + 1, square_matrix.shape[1]))
        with server:
            futures = [server.submit("A", xs[0])]
            gate.wait_entered(1)
            futures += [server.submit("A", x) for x in xs[1:]]
            gate.release.set()
            for x, future in zip(xs, futures):
                got = np.asarray(future.result(timeout=10.0))
                assert (got == entry.execute(x)).all()
        assert gate.sizes == sizes

    def test_leftovers_reach_the_second_worker(
        self, square_matrix, rng, monkeypatch
    ):
        """Twenty requests land while both workers wait: one takes 16,
        and the four left behind reach the other worker while the first
        is still held in the kernel — with no further submit."""
        server = SpmvServer(
            registry=MatrixRegistry(length=16),
            policy=BatchPolicy(max_batch=16, max_queue=64),
            workers=2,
        )
        entry = server.register("A", square_matrix)
        gate = KernelGate(entry, monkeypatch)
        xs = rng.normal(size=(20, square_matrix.shape[1]))
        with server:
            wait_for_waiters(server.batcher, 2)
            with server.batcher._cond:  # no worker scans until all 20 wait
                futures = [server.submit("A", x) for x in xs]
            gate.wait_entered(2)
            assert sorted(gate.sizes) == [4, 16]
            gate.release.set()
            for x, future in zip(xs, futures):
                got = np.asarray(future.result(timeout=10.0))
                assert (got == entry.execute(x)).all()


    def test_stress_no_request_strands_with_idle_workers(self):
        """More workers than cores, a tiny switch interval, two tenants:
        every request resolves exactly (a lost wake-up would leave a
        queued request behind sleeping workers and hang its future)."""
        import sys

        matrices = {
            "alpha": uniform_random(64, 64, 0.1, seed=7),
            "beta": uniform_random(48, 48, 0.1, seed=8),
        }
        server = SpmvServer(
            registry=MatrixRegistry(length=16),
            policy=BatchPolicy(max_batch=4, max_queue=256),
            workers=4,
        )
        entries = {
            name: server.register(name, matrix)
            for name, matrix in matrices.items()
        }
        outcomes = []
        lock = threading.Lock()

        def client(index: int) -> None:
            local = np.random.default_rng(index)
            for request in range(40):
                name = ("alpha", "beta")[(index + request) % 2]
                x = local.normal(size=entries[name].shape[1])
                y = server.submit(name, x).result(timeout=30.0)
                with lock:
                    outcomes.append((y == entries[name].execute(x)).all())

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                clients = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(8)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(previous)
        assert len(outcomes) == 320 and all(outcomes)
        assert server.stats().completed == 320


class TestLifecycle:
    def test_stop_drains_in_flight_requests(self, square_matrix, rng):
        """Queued requests complete before stop() returns."""
        server = _make_server(max_batch=64, max_queue=128)
        entry = server.register("A", square_matrix)
        xs = rng.normal(size=(10, square_matrix.shape[1]))
        server.start()
        futures = [server.submit("A", x) for x in xs]
        server.stop(drain=True)
        for j, future in enumerate(futures):
            got = np.asarray(future.result(timeout=0))
            assert (got == entry.execute(xs[j])).all()
        stats = server.stats()
        assert stats.completed == 10
        assert stats.failed == 0

    def test_stop_without_drain_fails_queued_requests(self, square_matrix, rng):
        server = _make_server(max_batch=64, max_queue=128)
        server.register("A", square_matrix)
        # Never started: nothing drains the queue, so the requests are
        # still pending when the server stops.
        futures = [
            server.submit("A", rng.normal(size=square_matrix.shape[1]))
            for _ in range(3)
        ]
        server.stop(drain=False)
        for future in futures:
            with pytest.raises(ServeError, match="stopped"):
                future.result(timeout=0)
        assert server.stats().failed == 3

    def test_stop_is_idempotent_and_restart_rejected(self, square_matrix):
        server = _make_server()
        server.register("A", square_matrix)
        server.start()
        server.stop()
        server.stop()
        with pytest.raises(ServeError, match="restart"):
            server.start()
        with pytest.raises(ServeError, match="not accepting"):
            server.submit("A", np.zeros(square_matrix.shape[1]))

    def test_double_start_rejected(self):
        server = _make_server()
        server.start()
        try:
            with pytest.raises(ServeError, match="already running"):
                server.start()
        finally:
            server.stop()

    def test_invalid_worker_count(self):
        with pytest.raises(ServeError, match="workers"):
            SpmvServer(workers=0)


class TestRequestPath:
    def test_unknown_tenant(self):
        server = _make_server()
        with pytest.raises(ServeError, match="unknown matrix"):
            server.submit("nope", np.zeros(4))

    def test_bad_shape_raises_synchronously(self, square_matrix):
        server = _make_server()
        server.register("A", square_matrix)
        with pytest.raises(HardwareConfigError, match="incompatible"):
            server.submit("A", np.zeros(square_matrix.shape[1] + 3))

    def test_backpressure_counts_rejections(self, square_matrix, rng):
        server = _make_server(max_batch=2, max_queue=2)
        server.register("A", square_matrix)
        # Not started: the queue cannot drain, so the third submit must
        # be rejected with QueueFullError.
        for _ in range(2):
            server.submit("A", rng.normal(size=square_matrix.shape[1]))
        with pytest.raises(QueueFullError):
            server.submit("A", rng.normal(size=square_matrix.shape[1]))
        assert server.stats().rejected == 1
        assert server.stats().submitted == 2
        server.stop(drain=False)

    def test_client_many_round_trip(self, square_matrix, rng):
        server = _make_server(max_batch=8, max_queue=64)
        entry = server.register("A", square_matrix)
        xs = [rng.normal(size=square_matrix.shape[1]) for _ in range(12)]
        with server:
            ys = SpmvClient(server).spmv_many("A", xs, timeout=30.0)
        for x, y in zip(xs, ys):
            assert (np.asarray(y) == entry.execute(x)).all()

    def test_stats_render_mentions_cache(self, square_matrix):
        server = _make_server()
        server.register("A", square_matrix)
        text = server.stats().render()
        assert "schedule cache" in text
        assert "batches" in text


class TestMetricsContracts:
    """Regression coverage for the serving-metrics satellites."""

    def test_operand_rejection_is_counted(self, square_matrix):
        """A shape-mismatched submit raises HardwareConfigError — and the
        operator-facing rejected counter must see it, exactly like a
        queue-full rejection (it used to count only ServeError)."""
        server = _make_server()
        server.register("A", square_matrix)
        with pytest.raises(HardwareConfigError, match="incompatible"):
            server.submit("A", np.zeros(square_matrix.shape[1] + 3))
        stats = server.stats()
        assert stats.rejected == 1
        assert stats.submitted == 0
        server.stop(drain=False)

    def test_uptime_rebases_on_start(self, square_matrix):
        """Uptime measures serving time: the construction-to-start() gap
        (registration, plan preparation) must not count.  Injected clock
        so the assertion is exact."""
        from repro.serve.metrics import ServerMetrics

        now = {"t": 100.0}
        server = _make_server()
        server.metrics = ServerMetrics(clock=lambda: now["t"])
        server.register("A", square_matrix)
        now["t"] = 160.0  # sixty seconds of setup before serving begins
        server.start()
        now["t"] = 170.0
        try:
            uptime = server.stats().uptime_s
            assert uptime == pytest.approx(10.0)
        finally:
            server.stop()

    def test_mean_batch_size_is_zero_before_any_batch(self, square_matrix):
        """An idle server has no mean batch size; fabricating 1.0 made it
        indistinguishable from one that ran every request unbatched."""
        server = _make_server()
        server.register("A", square_matrix)
        stats = server.stats()
        assert stats.batches == 0
        assert stats.mean_batch_size == 0.0
        assert "mean size 0.00" in stats.render()
        server.stop(drain=False)

    def test_stop_blocks_concurrent_callers_until_workers_exit(
        self, square_matrix, rng, monkeypatch
    ):
        """Every stop() caller — not just the first — must block until the
        workers are joined: "my stop() returned" has to mean "no worker is
        running".  The losing caller used to return immediately off the
        _stopped flag while batches were still in flight."""
        import time

        from repro.serve import server as server_module

        server = _make_server(max_batch=4, max_queue=16)
        server.register("A", square_matrix)
        entered = threading.Event()
        release = threading.Event()
        real_run_batch = server_module.run_batch

        def gated_run_batch(entry, batch, faults=None, on_phases=None):
            entered.set()
            assert release.wait(timeout=30.0), "test deadlock"
            return real_run_batch(entry, batch, faults, on_phases)

        monkeypatch.setattr(server_module, "run_batch", gated_run_batch)
        server.start()
        future = server.submit("A", rng.normal(size=square_matrix.shape[1]))
        assert entered.wait(timeout=30.0)

        stoppers = [
            threading.Thread(target=server.stop, name=f"stopper-{i}")
            for i in range(2)
        ]
        for thread in stoppers:
            thread.start()
        # Give the losing stopper ample time to (wrongly) return early:
        # the worker is still parked inside run_batch, so neither call
        # may complete yet.
        time.sleep(0.3)
        assert all(thread.is_alive() for thread in stoppers), (
            "stop() returned while a worker batch was still in flight"
        )
        release.set()
        for thread in stoppers:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in stoppers)
        assert future.result(timeout=5.0) is not None
        assert server.stats().completed == 1


class TestFailureHandling:
    """Fault-injected regression coverage for the robustness layer.

    Every test resolves its futures with bounded timeouts — a hang here
    is exactly the bug the failure model forbids.
    """

    def test_expired_deadline_fails_fast(self, square_matrix, rng):
        """A request whose deadline already passed gets
        DeadlineExceededError without running the kernel."""
        server = _make_server(max_batch=4, max_queue=16)
        server.register("A", square_matrix)
        past = server.batcher.clock() - 1.0
        with server:
            future = server.submit(
                "A", rng.normal(size=square_matrix.shape[1]), deadline=past
            )
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=10.0)
        assert server.stats().deadline_expired == 1
        assert server.stats().completed == 0

    def test_worker_crash_respawns_and_keeps_serving(
        self, square_matrix, rng
    ):
        """The first batch dies to an injected worker crash; its future
        gets WorkerCrashedError, the worker respawns in place, and the
        next request completes normally."""
        server = SpmvServer(
            registry=MatrixRegistry(length=16),
            policy=BatchPolicy(max_batch=1, max_queue=16),
            workers=1,
            faults=FaultPlan(counts={"worker-crash": 1}),
        )
        entry = server.register("A", square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        with server:
            doomed = server.submit("A", x)
            with pytest.raises(WorkerCrashedError):
                doomed.result(timeout=10.0)
            healthy = server.submit("A", x)
            got = np.asarray(healthy.result(timeout=10.0))
        assert (got == entry.execute(x)).all()
        stats = server.stats()
        assert stats.workers_respawned == 1
        assert stats.workers_lost == 0
        assert "1 respawned" in stats.render()

    def test_pool_exhaustion_fails_all_pending(self, square_matrix, rng):
        """Past the respawn cap, losing the last worker resolves every
        queued future with ServerStoppedError instead of stranding it."""
        server = SpmvServer(
            registry=MatrixRegistry(length=16),
            policy=BatchPolicy(max_batch=1, max_queue=16),
            workers=1,
            max_worker_respawns=0,
            faults=FaultPlan(counts={"worker-crash": 3}),
        )
        server.register("A", square_matrix)
        # Queue three one-request batches before any worker runs.
        futures = [
            server.submit("A", rng.normal(size=square_matrix.shape[1]))
            for _ in range(3)
        ]
        server.start()
        with pytest.raises(WorkerCrashedError):
            futures[0].result(timeout=10.0)
        for future in futures[1:]:
            with pytest.raises(ServerStoppedError, match="exhausted"):
                future.result(timeout=10.0)
        server.stop(drain=False)
        stats = server.stats()
        assert stats.workers_lost == 1
        assert stats.workers_respawned == 0
        assert stats.failed == 3
        assert "1 lost" in stats.render()

    def test_stop_without_drain_resolves_within_one_second(
        self, square_matrix, rng
    ):
        """The shutdown satellite: submit, stop without drain, and every
        pending future resolves (typed) well inside a second."""
        import time

        server = _make_server(max_batch=64, max_queue=64)
        server.register("A", square_matrix)
        futures = [
            server.submit("A", rng.normal(size=square_matrix.shape[1]))
            for _ in range(5)
        ]
        server.stop(drain=False)
        begin = time.perf_counter()
        for future in futures:
            with pytest.raises(ServerStoppedError):
                future.result(timeout=1.0)
        assert time.perf_counter() - begin < 1.0
        assert all(future.done() for future in futures)

    def test_circuit_opens_after_kernel_failures_and_rejects(
        self, square_matrix, rng
    ):
        """Consecutive injected kernel failures open the tenant's breaker;
        further submits are refused with CircuitOpenError and counted."""
        from repro.serve.circuit import OPEN, CircuitBoard

        server = SpmvServer(
            registry=MatrixRegistry(length=16),
            policy=BatchPolicy(max_batch=1, max_queue=16),
            workers=1,
            circuits=CircuitBoard(failure_threshold=1, reset_after_s=60.0),
            faults=FaultPlan(counts={"kernel-error": 1}),
        )
        server.register("A", square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        with server:
            doomed = server.submit("A", x)
            with pytest.raises(InjectedFaultError):
                doomed.result(timeout=10.0)
            # The worker resolves the future before reporting to the
            # breaker; give the report a bounded moment to land.
            import time

            deadline = time.perf_counter() + 10.0
            while (
                server.circuits.state_of("A") != OPEN
                and time.perf_counter() < deadline
            ):
                time.sleep(0.001)
            assert server.circuits.state_of("A") == OPEN
            with pytest.raises(CircuitOpenError, match="open"):
                server.submit("A", x)
        stats = server.stats()
        assert stats.circuits.opened == 1
        assert stats.circuits.rejected == 1
        assert stats.rejected == 1
        assert "circuits:" in stats.render()
        assert "unhealthy" in stats.render()

    def test_refused_submit_releases_half_open_probe(
        self, square_matrix, rng
    ):
        """A submit admitted as the half-open probe but refused by the
        batcher (full queue) must give the probe slot back — pre-fix the
        tenant was locked out forever on a probe nobody would report."""
        from repro.serve.circuit import HALF_OPEN, CircuitBoard

        clock = {"t": 0.0}
        board = CircuitBoard(
            failure_threshold=1, reset_after_s=1.0, clock=lambda: clock["t"]
        )
        server = SpmvServer(
            registry=MatrixRegistry(length=16),
            policy=BatchPolicy(max_batch=1, max_queue=1),
            circuits=board,
        )
        server.register("A", square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        # Fill the queue while the breaker is closed (no worker drains:
        # the server is never started).
        server.submit("A", x)
        board.record_failure("A")  # threshold 1: open
        clock["t"] = 1.5  # cooldown elapsed: the next submit is the probe
        with pytest.raises(QueueFullError):
            server.submit("A", x)
        assert board.snapshot().probes_aborted == 1
        # The slot is free again: this check becomes a fresh probe
        # instead of raising "probe in flight".
        board.check("A")
        assert board.state_of("A") == HALF_OPEN
        server.stop(drain=False)

    def test_expired_probe_batch_releases_half_open_slot(
        self, square_matrix, rng
    ):
        """A probe whose whole batch expires before the kernel runs has
        no outcome to report; the worker must release the slot."""
        from repro.serve.batcher import SpmvRequest
        from repro.serve.circuit import HALF_OPEN, CircuitBoard

        clock = {"t": 0.0}
        board = CircuitBoard(
            failure_threshold=1, reset_after_s=60.0, clock=lambda: clock["t"]
        )
        server = SpmvServer(registry=MatrixRegistry(length=16), circuits=board)
        entry = server.register("A", square_matrix)
        board.record_failure("A")
        clock["t"] = 100.0
        board.check("A")  # the probe is admitted...
        request = SpmvRequest(
            x=rng.normal(size=square_matrix.shape[1]), deadline=-1.0
        )
        # ...but expires in the worker's expiry pass, kernel untouched.
        server._run_one(entry, [request])
        with pytest.raises(DeadlineExceededError):
            request.future.result(timeout=1.0)
        board.check("A")  # pre-fix: "probe in flight" forever
        assert board.state_of("A") == HALF_OPEN
        server.stop(drain=False)

    def test_worker_crash_releases_probe_and_tenant_recovers(
        self, square_matrix, rng
    ):
        """A crashed worker holding the probe says nothing about the
        tenant's kernel: the slot is released (not failed), the next
        submit probes again, and its success closes the breaker."""
        from repro.serve.circuit import CLOSED, CircuitBoard

        clock = {"t": 0.0}
        board = CircuitBoard(
            failure_threshold=1, reset_after_s=60.0, clock=lambda: clock["t"]
        )
        server = SpmvServer(
            registry=MatrixRegistry(length=16),
            policy=BatchPolicy(max_batch=1, max_queue=16),
            workers=1,
            circuits=board,
            faults=FaultPlan(counts={"worker-crash": 1}),
        )
        entry = server.register("A", square_matrix)
        board.record_failure("A")  # threshold 1: open
        clock["t"] = 100.0  # cooldown elapsed: the next submit probes
        x = rng.normal(size=square_matrix.shape[1])
        with server:
            probe = server.submit("A", x)
            with pytest.raises(WorkerCrashedError):
                probe.result(timeout=10.0)
            # Pre-fix this raised CircuitOpenError ("probe in flight")
            # forever; now the respawned worker serves a fresh probe.
            retry = server.submit("A", x)
            y = retry.result(timeout=10.0)
        assert (np.asarray(y) == entry.execute(x)).all()
        assert board.state_of("A") == CLOSED
        stats = server.stats()
        assert stats.circuits.probes_aborted == 1
        assert stats.workers_respawned == 1


class TestCancelledFutures:
    """Client-side ``Future.cancel()`` must never read as a worker crash.

    ``submit`` hands the raw future to callers, and cancelling a queued
    request succeeds; pre-fix the resulting ``InvalidStateError`` escaped
    the worker, burned a respawn, and enough cancels exhausted the pool.
    """

    def test_expiry_pass_skips_settled_futures(self, square_matrix, rng):
        from repro.serve.batcher import SpmvRequest

        server = _make_server()
        server.register("A", square_matrix)
        cancelled = SpmvRequest(
            x=rng.normal(size=square_matrix.shape[1]), deadline=-1.0
        )
        assert cancelled.future.cancel()
        live = SpmvRequest(x=rng.normal(size=square_matrix.shape[1]))
        remaining = server._expire_requests([cancelled, live])
        assert len(remaining) == 1 and remaining[0] is live
        # The cancelled request is not an expiry — nothing was failed.
        assert server.stats().deadline_expired == 0
        server.stop(drain=False)

    def test_run_batch_tolerates_cancelled_future(self, square_matrix, rng):
        from repro.serve.batcher import SpmvRequest, run_batch

        server = _make_server()
        entry = server.register("A", square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        cancelled = SpmvRequest(x=rng.normal(size=square_matrix.shape[1]))
        assert cancelled.future.cancel()
        live = SpmvRequest(x=x)
        run_batch(entry, [cancelled, live])
        assert (
            np.asarray(live.future.result(timeout=1.0)) == entry.execute(x)
        ).all()
        assert cancelled.future.cancelled()
        server.stop(drain=False)

    def test_run_batch_error_path_tolerates_cancelled_future(
        self, square_matrix, rng
    ):
        from repro.serve.batcher import SpmvRequest, run_batch

        server = _make_server()
        entry = server.register("A", square_matrix)
        cancelled = SpmvRequest(x=rng.normal(size=square_matrix.shape[1]))
        assert cancelled.future.cancel()
        live = SpmvRequest(x=rng.normal(size=square_matrix.shape[1]))
        with pytest.raises(InjectedFaultError):
            run_batch(
                entry,
                [cancelled, live],
                FaultPlan(counts={"kernel-error": 1}),
            )
        with pytest.raises(InjectedFaultError):
            live.future.result(timeout=1.0)
        assert cancelled.future.cancelled()
        server.stop(drain=False)

    def test_cancelled_requests_burn_no_respawns(self, square_matrix, rng):
        """End-to-end: cancel queued requests, then serve normally — the
        worker must survive the settled futures with its respawn budget
        intact."""
        server = _make_server(max_batch=4, max_queue=64)
        entry = server.register("A", square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        # Enqueue while no worker is draining, so the cancels win the
        # race; the expired deadline routes them through the expiry pass.
        past = server.batcher.clock() - 1.0
        doomed = [server.submit("A", x, deadline=past) for _ in range(4)]
        for future in doomed:
            assert future.cancel()
        with server:
            y = server.submit("A", x).result(timeout=10.0)
        assert (np.asarray(y) == entry.execute(x)).all()
        stats = server.stats()
        assert stats.workers_respawned == 0
        assert stats.workers_lost == 0


class TestClientRetry:
    def test_backoff_retries_queue_full_then_succeeds(
        self, square_matrix, rng, monkeypatch
    ):
        """QueueFullError is retriable: the client backs off and resubmits
        instead of surfacing transient backpressure to the caller."""
        server = _make_server(max_batch=8, max_queue=64)
        entry = server.register("A", square_matrix)
        real_submit = server.submit
        calls = {"n": 0}

        def flaky_submit(name, x, deadline=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise QueueFullError("synthetic backpressure")
            return real_submit(name, x, deadline=deadline)

        monkeypatch.setattr(server, "submit", flaky_submit)
        x = rng.normal(size=square_matrix.shape[1])
        with server:
            y = SpmvClient(server).spmv(
                "A", x, timeout=30.0, retries=5, backoff_s=0.0001
            )
        assert calls["n"] == 3
        assert (np.asarray(y) == entry.execute(x)).all()

    def test_retries_exhausted_reraises_queue_full(self, square_matrix, rng):
        """A queue that never drains (server not started) surfaces
        QueueFullError once the retry budget is spent."""
        server = _make_server(max_batch=2, max_queue=2)
        server.register("A", square_matrix)
        client = SpmvClient(server)
        for _ in range(2):
            server.submit("A", rng.normal(size=square_matrix.shape[1]))
        with pytest.raises(QueueFullError):
            client.spmv(
                "A",
                rng.normal(size=square_matrix.shape[1]),
                retries=3,
                backoff_s=0.0001,
            )
        server.stop(drain=False)

    def test_timeout_bounds_total_wait(self, square_matrix, rng):
        """timeout= caps the whole call — retries included — so a stalled
        server cannot hold the client past its budget."""
        from concurrent.futures import TimeoutError as FutureTimeoutError

        server = _make_server(max_batch=2, max_queue=16)
        server.register("A", square_matrix)
        client = SpmvClient(server)
        # Not started: the future can never resolve.
        with pytest.raises(FutureTimeoutError):
            client.spmv(
                "A", rng.normal(size=square_matrix.shape[1]), timeout=0.05
            )
        server.stop(drain=False)
