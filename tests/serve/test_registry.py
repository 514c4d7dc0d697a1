"""Tests for the serving tenant registry."""

import numpy as np
import pytest

from repro import MatrixRegistry, uniform_random

# Exact store/cache/validation counter assertions: opt out of the
# ambient GUST_FAULTS plan the fault-injection CI leg installs.
pytestmark = pytest.mark.usefixtures("no_faults")
from repro.core.store import DiskScheduleStore
from repro.errors import ServeError


@pytest.fixture
def registry() -> MatrixRegistry:
    return MatrixRegistry(length=16)


class TestRegistration:
    def test_register_and_get(self, registry, small_matrix):
        entry = registry.register("A", small_matrix)
        assert registry.get("A") is entry
        assert entry.shape == small_matrix.shape
        assert "A" in registry
        assert registry.names() == ["A"]
        assert len(registry) == 1

    def test_duplicate_name_rejected(self, registry, small_matrix):
        registry.register("A", small_matrix)
        with pytest.raises(ServeError, match="already registered"):
            registry.register("A", small_matrix)

    def test_replace_swaps_entry(self, registry, small_matrix, square_matrix):
        first = registry.register("A", small_matrix)
        second = registry.register("A", square_matrix, replace=True)
        assert registry.get("A") is second
        assert second is not first

    def test_unknown_name(self, registry):
        with pytest.raises(ServeError, match="unknown matrix"):
            registry.get("nope")
        with pytest.raises(ServeError, match="unknown matrix"):
            registry.unregister("nope")

    def test_unregister(self, registry, small_matrix):
        registry.register("A", small_matrix)
        registry.unregister("A")
        assert "A" not in registry

    def test_per_tenant_overrides(self, registry, square_matrix):
        entry = registry.register(
            "naive", square_matrix, length=8, algorithm="naive"
        )
        assert entry.pipeline.length == 8
        assert entry.pipeline.algorithm == "naive"


class TestPinnedPlan:
    def test_entry_execution_matches_oracle(self, registry, square_matrix, rng):
        entry = registry.register("A", square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        assert np.allclose(entry.execute(x), square_matrix.matvec(x))

    def test_plan_is_pinned_and_memoized(self, registry, square_matrix):
        entry = registry.register("A", square_matrix)
        assert entry.pipeline.plan_for(
            entry.schedule, entry.balanced
        ) is entry.plan

    def test_backend_override(self, registry, square_matrix):
        entry = registry.register(
            "np", square_matrix, force_numpy_backend=True
        )
        assert entry.stacked.backend == "bincount"


class TestSharedCacheTiers:
    def test_same_pattern_second_tenant_hits_cache(self, small_matrix):
        registry = MatrixRegistry(length=16)
        registry.register("A", small_matrix)
        entry = registry.register("B", small_matrix)
        assert entry.preprocess.notes["cache_hit"] == 1.0
        assert registry.cache_stats.hits == 1

    def test_value_refresh_on_reregister(self, small_matrix, rng):
        registry = MatrixRegistry(length=16)
        first = registry.register("A", small_matrix)
        refreshed = small_matrix.with_data(rng.normal(size=small_matrix.nnz))
        entry = registry.register("A", refreshed, replace=True)
        assert entry.preprocess.notes["cache_refresh"] == 1.0
        # Same structure: the pinned kernels are refreshed, not recompiled.
        assert entry.compiled is first.compiled
        assert entry.stacked is first.stacked
        x = rng.normal(size=small_matrix.shape[1])
        assert np.allclose(entry.execute(x), refreshed.matvec(x))

    def test_disk_store_warm_starts_new_registry(self, tmp_path, small_matrix):
        store_dir = tmp_path / "store"
        first = MatrixRegistry(length=16, store=DiskScheduleStore(store_dir))
        first.register("A", small_matrix)
        second = MatrixRegistry(length=16, store=DiskScheduleStore(store_dir))
        entry = second.register("A", small_matrix)
        assert entry.preprocess.notes["disk_hit"] == 1.0
