"""ServerStats golden render, bounded reservoir, Prometheus scrape."""

import numpy as np
import pytest

from repro import BatchPolicy, MatrixRegistry, SpmvClient, SpmvServer
from repro import uniform_random
from repro.core.cache import CacheStats
from repro.obs.metrics import MetricsRegistry
from repro.serve.circuit import CircuitSnapshot
from repro.serve.metrics import (
    LATENCY_RESERVOIR,
    ServerMetrics,
    ServerStats,
)

pytestmark = pytest.mark.usefixtures("no_faults")


def _stats(**overrides) -> ServerStats:
    base = dict(
        submitted=10,
        completed=8,
        rejected=1,
        failed=1,
        batches=3,
        batch_histogram={4: 1, 2: 2},
        p50_ms=1.5,
        p99_ms=3.25,
        uptime_s=2.0,
        cache=CacheStats(hits=3, refreshes=1, misses=2, disk_hits=1),
        deadline_expired=1,
        workers_respawned=1,
        workers_lost=0,
        circuits=CircuitSnapshot(
            states={"A": "open", "B": "closed"},
            opened=2,
            half_opened=1,
            closed=1,
            rejected=4,
            probes_aborted=1,
            probes_reclaimed=0,
        ),
    )
    base.update(overrides)
    return ServerStats(**base)


class TestRenderGolden:
    def test_full_report_is_stable(self):
        expected = (
            "serving stats:\n"
            "  requests: 10 submitted, 8 completed, 1 rejected, 1 failed,"
            " 1 deadline-expired\n"
            "  batches:  3 (mean size 2.67)\n"
            "  batch histogram (size x batches): 2x2, 4x1\n"
            "  latency:  p50 1.500 ms, p99 3.250 ms\n"
            "  throughput: 4 req/s over 2.00 s\n"
            "  schedule cache: 3 hits, 1 refreshes, 2 misses"
            " (hit rate 67%; disk 1 hits)\n"
            "  workers:  1 respawned, 0 lost\n"
            "  circuits: 2 opened, 1 half-opened, 1 closed, 4 rejected,"
            " 1 probe-aborts, 0 probe-reclaims; unhealthy: A"
        )
        assert _stats().render() == expected

    def test_idle_server_renders_without_histogram_line(self):
        stats = _stats(
            batches=0,
            batch_histogram={},
            completed=0,
            circuits=CircuitSnapshot(states={}),
        )
        rendered = stats.render()
        assert "batch histogram" not in rendered
        assert "(mean size 0.00)" in rendered
        assert "unhealthy" not in rendered


class TestLatencyReservoir:
    def test_reservoir_stays_bounded_past_capacity(self):
        """Regression: sustained traffic must not grow latency memory.

        Feed well over the reservoir capacity and check both the bound
        and that percentiles reflect the *recent* window (the early
        500 ms outliers must have been evicted)."""
        metrics = ServerMetrics()
        chunk = LATENCY_RESERVOIR // 2
        metrics.record_batch(chunk, [0.5] * chunk)
        metrics.record_batch(chunk, [0.001] * chunk)
        metrics.record_batch(chunk, [0.002] * chunk)
        metrics.record_batch(chunk, [0.001] * chunk)
        assert len(metrics._latencies) == LATENCY_RESERVOIR
        assert metrics._latencies.maxlen == LATENCY_RESERVOIR
        stats = metrics.snapshot()
        assert stats.completed == 4 * chunk  # counters keep full totals
        assert 0.9 <= stats.p50_ms <= 2.1
        assert stats.p50_ms <= stats.p99_ms <= 2.5

    def test_registry_histograms_observe_at_record_time(self):
        registry = MetricsRegistry()
        metrics = ServerMetrics(registry=registry)
        metrics.record_batch(3, [0.01, 0.02, 0.03])
        latency = registry.histogram("gust_request_latency_seconds")
        batch = registry.histogram("gust_batch_size")
        assert latency.snapshot()["count"] == 3
        assert latency.snapshot()["sum"] == pytest.approx(0.06)
        assert batch.snapshot()["count"] == 1
        assert batch.snapshot()["buckets"][4.0] == 1


class TestPhaseMetrics:
    def test_phases_off_without_registry(self):
        assert not ServerMetrics().times_phases

    def test_phase_observations(self):
        registry = MetricsRegistry()
        metrics = ServerMetrics(registry=registry)
        assert metrics.times_phases
        metrics.record_queue_waits([0.001, 0.002, 0.003])
        metrics.record_batch_phases(0.0004, 0.0001)
        phases = registry.histogram("gust_request_phase_seconds")
        assert phases.snapshot(phase="queue")["count"] == 3
        assert phases.snapshot(phase="queue")["sum"] == pytest.approx(0.006)
        assert phases.snapshot(phase="kernel")["sum"] == pytest.approx(4e-4)
        assert phases.snapshot(phase="settle")["count"] == 1

    def test_server_without_registry_times_nothing(
        self, square_matrix, monkeypatch
    ):
        """No registry, no phase timing: run_batch gets no callback."""
        from repro.serve import server as server_module

        seen = []
        real_run_batch = server_module.run_batch

        def spy(entry, batch, faults=None, on_phases=None):
            seen.append(on_phases)
            return real_run_batch(entry, batch, faults, on_phases)

        monkeypatch.setattr(server_module, "run_batch", spy)
        server = SpmvServer(registry=MatrixRegistry(length=16))
        server.register("A", square_matrix)
        with server:
            SpmvClient(server).spmv(
                "A", np.ones(square_matrix.shape[1]), timeout=30.0
            )
        assert seen == [None]


class TestPrometheusScrape:
    def test_one_scrape_covers_every_subsystem(self):
        """The ISSUE acceptance: a single /metrics-equivalent scrape
        carries latency quantiles, the batch-size histogram, cache tier
        hit rates, circuit states, and fault-decision counters."""
        registry = MetricsRegistry()
        server = SpmvServer(
            registry=MatrixRegistry(length=16),
            policy=BatchPolicy(max_batch=8),
            metrics_registry=registry,
        )
        matrix = uniform_random(48, 48, 0.1, seed=3)
        server.register("demo", matrix)
        rng = np.random.default_rng(0)
        with server:
            client = SpmvClient(server)
            for _ in range(12):
                client.spmv("demo", rng.normal(size=48), timeout=30.0)
        scrape = registry.render_prometheus()
        assert 'gust_requests_total{state="completed"} 12' in scrape
        for needle in (
            'gust_request_latency_quantile_seconds{quantile="0.5"}',
            'gust_request_latency_quantile_seconds{quantile="0.99"}',
            'gust_batch_size_bucket{le="+Inf"} ',
            'gust_request_latency_seconds_count ',
            'gust_cache_hit_rate{tier="memory"}',
            'gust_cache_hit_rate{tier="disk"}',
            'gust_cache_hit_rate{tier="overall"}',
            'gust_cache_events_total{event="miss"} 1',
            'gust_circuit_state{tenant="demo"} 0',
            'gust_circuit_events_total{event="opened"} 0',
            'gust_fault_probes_total{site="kernel-error"}',
            'gust_faults_fired_total{site="kernel-error"} 0',
            "gust_uptime_seconds ",
            'gust_request_phase_seconds_count{phase="queue"} 12',
            'gust_request_phase_seconds_bucket{phase="kernel",le="+Inf"} ',
            'gust_request_phase_seconds_sum{phase="settle"} ',
        ):
            assert needle in scrape, f"scrape missing {needle}"
        # Queue is observed per request, kernel and settle per batch.
        phases = registry.histogram("gust_request_phase_seconds")
        batches = server.stats().batches
        assert phases.snapshot(phase="queue")["count"] == 12
        assert phases.snapshot(phase="kernel")["count"] == batches
        assert phases.snapshot(phase="settle")["count"] == batches
        # Second scrape still renders (collectors are re-entrant after
        # the server stopped) and stays a superset of the schema.
        assert "gust_batches_total" in registry.render_prometheus()
