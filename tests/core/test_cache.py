"""Tests for the pattern-keyed schedule cache."""

import numpy as np
import pytest

from repro import (
    CooMatrix,
    GustPipeline,
    GustSpmm,
    ScheduleCache,
    uniform_random,
)
from repro.errors import HardwareConfigError
from repro.solvers.cg import conjugate_gradient


def _spd_matrix(n: int, seed: int) -> CooMatrix:
    """A small diagonally dominant SPD matrix."""
    base = uniform_random(n, n, density=0.08, seed=seed)
    sym_rows = np.concatenate([base.rows, base.cols, np.arange(n)])
    sym_cols = np.concatenate([base.cols, base.rows, np.arange(n)])
    sym_data = np.concatenate(
        [np.abs(base.data), np.abs(base.data), np.full(n, 50.0)]
    )
    return CooMatrix.from_arrays(sym_rows, sym_cols, sym_data, (n, n))


class TestCacheSemantics:
    def test_miss_then_hit(self, square_matrix):
        cache = ScheduleCache()
        pipeline = GustPipeline(32, cache=cache)
        _, _, first = pipeline.preprocess(square_matrix)
        assert first.notes["cache_hit"] == 0.0
        assert cache.stats.misses == 1

        schedule, balanced, second = pipeline.preprocess(square_matrix)
        assert second.notes["cache_hit"] == 1.0
        assert cache.stats.hits == 1
        # The cached schedule is still numerically exact.
        x = np.random.default_rng(0).normal(size=square_matrix.shape[1])
        np.testing.assert_allclose(
            pipeline.execute(schedule, balanced, x), square_matrix.matvec(x)
        )

    def test_value_change_refreshes_without_recoloring(self, square_matrix, rng):
        cache = ScheduleCache()
        pipeline = GustPipeline(32, cache=cache)
        cold_schedule, _, _ = pipeline.preprocess(square_matrix)

        updated = square_matrix.with_data(
            rng.uniform(1.0, 2.0, size=square_matrix.nnz)
        )
        schedule, balanced, report = pipeline.preprocess(updated)
        assert report.notes["cache_refresh"] == 1.0
        assert cache.stats.refreshes == 1
        # Coloring (structure) identical; only values moved.
        assert schedule.window_colors == cold_schedule.window_colors
        np.testing.assert_array_equal(schedule.row_sch, cold_schedule.row_sch)
        np.testing.assert_array_equal(schedule.col_sch, cold_schedule.col_sch)
        x = rng.normal(size=updated.shape[1])
        np.testing.assert_allclose(
            pipeline.execute(schedule, balanced, x), updated.matvec(x)
        )

    def test_refreshed_schedule_equals_cold_schedule(self, square_matrix, rng):
        """A refresh must equal scheduling the updated matrix from scratch."""
        updated = square_matrix.with_data(
            rng.uniform(1.0, 2.0, size=square_matrix.nnz)
        )
        for algorithm in ("matching", "first_fit", "euler"):
            cached = GustPipeline(32, algorithm=algorithm, cache=True)
            cached.preprocess(square_matrix)
            via_cache, _, _ = cached.preprocess(updated)
            cold, _, _ = GustPipeline(32, algorithm=algorithm).preprocess(
                updated
            )
            assert via_cache.window_colors == cold.window_colors
            np.testing.assert_array_equal(via_cache.m_sch, cold.m_sch)
            np.testing.assert_array_equal(via_cache.row_sch, cold.row_sch)
            np.testing.assert_array_equal(via_cache.col_sch, cold.col_sch)

    def test_refresh_then_hit_on_same_values(self, square_matrix, rng):
        pipeline = GustPipeline(32, cache=True)
        pipeline.preprocess(square_matrix)
        updated = square_matrix.with_data(
            rng.uniform(1.0, 2.0, size=square_matrix.nnz)
        )
        pipeline.preprocess(updated)
        pipeline.preprocess(updated)
        assert pipeline.cache.stats.refreshes == 1
        assert pipeline.cache.stats.hits == 1

    def test_in_place_value_mutation_is_not_a_stale_hit(self, square_matrix, rng):
        """Mutating matrix.data in place must not return the old schedule."""
        pipeline = GustPipeline(32, cache=True)
        pipeline.preprocess(square_matrix)
        square_matrix.data[:] = rng.uniform(1.0, 2.0, size=square_matrix.nnz)
        schedule, balanced, report = pipeline.preprocess(square_matrix)
        assert report.notes["cache_refresh"] == 1.0
        x = rng.normal(size=square_matrix.shape[1])
        np.testing.assert_allclose(
            pipeline.execute(schedule, balanced, x), square_matrix.matvec(x)
        )

    def test_keyed_refresh_is_observed_like_fetch(self, square_matrix):
        """``refresh`` by key records the ``cache.fetch`` span the
        benchmark reads, the memory-tier lookup latency and the counter."""
        from repro import obs

        cache = ScheduleCache()
        pipeline = GustPipeline(32, cache=cache)
        pipeline.preprocess(square_matrix)
        key = pipeline.pattern_key(square_matrix)
        latency = obs.default_registry().histogram(
            "gust_cache_lookup_seconds",
            help="Schedule-cache lookup latency by resolving tier.",
        )
        before = latency.snapshot(tier="memory")["count"]
        tracer = obs.Tracer()
        with obs.overridden(tracer):
            lookup = cache.refresh(key, square_matrix.data * 2.0)
            again = cache.refresh(key, square_matrix.data * 2.0)
        assert lookup.refreshed and not again.refreshed
        outcomes = [
            e["args"]["outcome"]
            for e in tracer.events()
            if e["name"] == "cache.fetch"
        ]
        assert outcomes == ["refresh", "hit"]
        assert latency.snapshot(tier="memory")["count"] == before + 2
        assert (cache.stats.refreshes, cache.stats.hits) == (1, 1)
        cache.clear()
        assert cache.refresh(key, square_matrix.data) is None
        assert cache.stats.lookups == 3

    def test_keyed_refresh_snapshots_values(self, square_matrix):
        """An in-place edit of the array passed to ``refresh`` reads as
        new values on the next keyed refresh, as it does for ``fetch``."""
        pipeline = GustPipeline(32, cache=True)
        pipeline.preprocess(square_matrix)
        key = pipeline.pattern_key(square_matrix)
        values = square_matrix.data * 3.0
        assert pipeline.cache.refresh(key, values).refreshed
        values *= 2.0
        lookup = pipeline.cache.refresh(key, values)
        assert lookup.refreshed
        np.testing.assert_array_equal(
            lookup.plan.values,
            pipeline.cache.refresh(key, values.copy()).plan.values,
        )

    def test_different_pattern_misses(self, square_matrix, small_matrix):
        pipeline = GustPipeline(32, cache=True)
        pipeline.preprocess(square_matrix)
        pipeline.preprocess(small_matrix)
        assert pipeline.cache.stats.misses == 2
        assert len(pipeline.cache) == 2

    def test_configuration_is_part_of_the_key(self, square_matrix):
        cache = ScheduleCache()
        GustPipeline(32, cache=cache).preprocess(square_matrix)
        GustPipeline(32, algorithm="first_fit", cache=cache).preprocess(
            square_matrix
        )
        GustPipeline(16, cache=cache).preprocess(square_matrix)
        assert cache.stats.misses == 3
        assert cache.stats.hits == 0

    def test_lru_eviction(self, rng):
        cache = ScheduleCache(capacity=2)
        pipeline = GustPipeline(16, cache=cache)
        matrices = [uniform_random(40, 40, 0.1, seed=s) for s in range(3)]
        for matrix in matrices:
            pipeline.preprocess(matrix)
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        # The oldest entry (seed 0) was evicted; re-preprocessing misses.
        pipeline.preprocess(matrices[0])
        assert cache.stats.misses == 4

    def test_clear(self, square_matrix):
        pipeline = GustPipeline(32, cache=True)
        pipeline.preprocess(square_matrix)
        pipeline.cache.clear()
        assert len(pipeline.cache) == 0
        pipeline.preprocess(square_matrix)
        assert pipeline.cache.stats.misses == 2

    def test_invalid_capacity(self):
        with pytest.raises(HardwareConfigError, match="capacity"):
            ScheduleCache(capacity=0)

    def test_pipeline_cache_parameter_forms(self, small_matrix):
        assert GustPipeline(16).cache is None
        assert GustPipeline(16, cache=False).cache is None
        assert GustPipeline(16, cache=True).cache is not None
        sized = GustPipeline(16, cache=3)
        assert sized.cache.capacity == 3
        shared = ScheduleCache()
        assert GustPipeline(16, cache=shared).cache is shared


class TestCacheIntegration:
    def test_shared_cache_across_pipelines(self, square_matrix):
        cache = ScheduleCache()
        GustPipeline(32, cache=cache).preprocess(square_matrix)
        _, _, report = GustPipeline(32, cache=cache).preprocess(square_matrix)
        assert report.notes["cache_hit"] == 1.0

    def test_spmm_reuses_schedule_across_blocks(self, square_matrix, rng):
        spmm = GustSpmm(32, cache=True)
        dense = rng.normal(size=(square_matrix.shape[1], 3))
        first = spmm.spmm(square_matrix, dense)
        second = spmm.spmm(square_matrix, dense)
        assert spmm.pipeline.cache.stats.hits == 1
        np.testing.assert_allclose(first.y, second.y)
        # New values, same pattern: refresh, not a cold pass.
        reweighted = square_matrix.with_data(
            rng.uniform(1.0, 2.0, size=square_matrix.nnz)
        )
        result = spmm.spmm(reweighted, dense)
        assert spmm.pipeline.cache.stats.refreshes == 1
        expected = np.column_stack(
            [reweighted.matvec(dense[:, j]) for j in range(3)]
        )
        np.testing.assert_allclose(result.y, expected)

    def test_solver_sequence_amortizes_preprocessing(self, rng):
        matrix = _spd_matrix(48, seed=1)
        pipeline = GustPipeline(16, cache=True)
        b = rng.normal(size=48)
        first = conjugate_gradient(matrix, b, pipeline=pipeline)
        assert first.converged
        # Same pattern, re-assembled values: the coloring is not repeated.
        reassembled = matrix.with_data(matrix.data * 1.5)
        second = conjugate_gradient(reassembled, b, pipeline=pipeline)
        assert second.converged
        stats = pipeline.cache.stats
        assert stats.misses == 1
        assert stats.refreshes == 1
        np.testing.assert_allclose(
            reassembled.matvec(second.x), b, atol=1e-6 * np.linalg.norm(b)
        )

    def test_naive_stalls_survive_caching(self, square_matrix):
        pipeline = GustPipeline(32, algorithm="naive", cache=True)
        pipeline.preprocess(square_matrix)
        cold_stalls = pipeline.scheduler.last_stalls
        assert cold_stalls > 0
        pipeline.scheduler.last_stalls = -1
        _, _, report = pipeline.preprocess(square_matrix)
        assert report.notes["cache_hit"] == 1.0
        assert pipeline.scheduler.last_stalls == cold_stalls


class TestThreadSafety:
    """The cache is shared by a serving registry across threads."""

    def test_concurrent_lookups_and_inserts(self):
        import threading

        matrices = [uniform_random(64, 64, 0.08, seed=s) for s in range(4)]
        cache = ScheduleCache(capacity=3)  # smaller than the working set
        errors = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            pipeline = GustPipeline(16, cache=cache)
            rng = np.random.default_rng(index)
            try:
                for round_ in range(12):
                    matrix = matrices[(index + round_) % len(matrices)]
                    schedule, balanced, _ = pipeline.preprocess(matrix)
                    x = rng.normal(size=matrix.shape[1])
                    y = pipeline.execute(schedule, balanced, x)
                    if not np.allclose(y, matrix.matvec(x)):
                        raise AssertionError("wrong result under threads")
            except Exception as error:  # noqa: BLE001 - recorded for assert
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = cache.stats
        assert stats.lookups == 8 * 12
        assert stats.hits + stats.refreshes + stats.misses == stats.lookups
        assert len(cache) <= 3

    def test_concurrent_value_refreshes_stay_consistent(self):
        import threading

        base = uniform_random(48, 48, 0.1, seed=7)
        cache = ScheduleCache(capacity=2)
        variants = [
            base.with_data(base.data * factor)
            for factor in (1.0, 2.0, 3.0, 4.0)
        ]
        errors = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            pipeline = GustPipeline(16, cache=cache)
            rng = np.random.default_rng(index)
            try:
                for round_ in range(10):
                    matrix = variants[(index + round_) % len(variants)]
                    schedule, balanced, _ = pipeline.preprocess(matrix)
                    x = rng.normal(size=matrix.shape[1])
                    y = pipeline.execute(schedule, balanced, x)
                    # The schedule/balanced pair handed back must be
                    # internally consistent even while other threads
                    # refresh the shared entry to different values.
                    if not np.allclose(
                        y,
                        balanced.unpermute_output(
                            balanced.matrix.matvec(x)
                        ),
                    ):
                        raise AssertionError("torn refresh observed")
            except Exception as error:  # noqa: BLE001 - recorded for assert
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.stats.refreshes > 0


def _frozen_eager_refresh(entry, data):
    """The value refresh's dense rebuild as ``ScheduleCache._serve`` ran
    it before refreshed schedules went compact: a fresh ``M_sch`` with the
    permuted values scattered in, ``Row_sch``/``Col_sch`` shared."""
    order = entry.data_order
    if order is None:
        order = np.empty(entry.inv_order.size, dtype=np.int64)
        order[entry.inv_order] = np.arange(entry.inv_order.size)
    permuted = data[order]
    m_sch = np.zeros_like(entry.schedule.m_sch)
    steps, lanes = np.divmod(entry.schedule.flat, entry.schedule.length)
    m_sch[steps, lanes] = permuted[entry.slot_source]
    return m_sch, entry.schedule.row_sch, entry.schedule.col_sch


class TestRefreshBuildsNoDenseArrays:
    """A value refresh hands out a compact schedule and never builds
    ``m_sch``/``row_sch``/``col_sch``; read later, they equal the eager
    rebuild bit for bit."""

    @pytest.fixture
    def materialized(self, monkeypatch):
        from repro.core.schedule import CompactSchedule

        counts = []
        original = CompactSchedule._materialize

        def counted(schedule):
            counts.append(schedule)
            return original(schedule)

        monkeypatch.setattr(CompactSchedule, "_materialize", counted)
        return counts

    @staticmethod
    def _snapshot(cache, matrix):
        import copy

        key = cache.pattern_key(matrix, 32, "matching", True)
        return copy.copy(cache._entries[key])

    @staticmethod
    def _check(schedule, snapshot, data, materialized):
        from repro.core.schedule import CompactSchedule

        assert isinstance(schedule, CompactSchedule)
        assert materialized == []
        for got, want in zip(
            (schedule.m_sch, schedule.row_sch, schedule.col_sch),
            _frozen_eager_refresh(snapshot, data),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        schedule.validate()

    def test_memory_entry(self, square_matrix, rng, materialized):
        cache = ScheduleCache()
        pipeline = GustPipeline(32, cache=cache)
        pipeline.preprocess(square_matrix)
        for _ in range(2):
            snapshot = self._snapshot(cache, square_matrix)
            updated = square_matrix.with_data(
                rng.uniform(1.0, 2.0, size=square_matrix.nnz)
            )
            del materialized[:]
            schedule, _, report = pipeline.preprocess(updated)
            assert report.notes["cache_refresh"] == 1.0
            self._check(schedule, snapshot, updated.data, materialized)

    @pytest.mark.usefixtures("no_faults")
    def test_disk_loaded_entry(self, square_matrix, rng, tmp_path, materialized):
        from repro import DiskScheduleStore

        store = DiskScheduleStore(directory=tmp_path / "store")
        GustPipeline(32, store=store).preprocess(square_matrix)
        warm = GustPipeline(32, store=store)
        _, _, report = warm.preprocess(square_matrix)
        assert report.notes["disk_hit"] == 1.0
        snapshot = self._snapshot(warm.cache, square_matrix)
        updated = square_matrix.with_data(
            rng.uniform(1.0, 2.0, size=square_matrix.nnz)
        )
        # A validating load (GUST_VALIDATE=1) reads the loaded schedule's
        # dense arrays; only the refresh is under test.
        del materialized[:]
        schedule, _, report = warm.preprocess(updated)
        assert report.notes["cache_refresh"] == 1.0
        self._check(schedule, snapshot, updated.data, materialized)

    @pytest.mark.usefixtures("no_faults")
    def test_cold_compile_through_store(
        self, square_matrix, rng, tmp_path, materialized, monkeypatch
    ):
        """A cold compile builds its plan, entry and artifact from the
        schedule's slots: no dense array and no slot join."""
        from repro import DiskScheduleStore
        from repro.core import cache, scheduler, serialize

        def no_join(*args):
            raise AssertionError("slot join on the cold path")

        for module in (cache, scheduler, serialize):
            monkeypatch.setattr(
                module, "slot_value_sources", no_join, raising=False
            )
        store = DiskScheduleStore(directory=tmp_path / "store")
        handle = GustPipeline(32, store=store).compile(square_matrix)
        assert handle.stats.preprocess.notes["cache_hit"] == 0.0
        assert store.stats.writes == 1
        assert materialized == []
        x = rng.normal(size=square_matrix.shape[1])
        np.testing.assert_allclose(handle.matvec(x), square_matrix.matvec(x))
        assert materialized == []

    def test_registry_reregister(self, square_matrix, rng, materialized):
        from repro import MatrixRegistry

        registry = MatrixRegistry(length=32)
        registry.register("A", square_matrix)
        snapshot = self._snapshot(registry.cache, square_matrix)
        updated = square_matrix.with_data(
            rng.uniform(1.0, 2.0, size=square_matrix.nnz)
        )
        del materialized[:]
        entry = registry.register("A", updated, replace=True)
        assert entry.preprocess.notes["cache_refresh"] == 1.0
        self._check(entry.schedule, snapshot, updated.data, materialized)
