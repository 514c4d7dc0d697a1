"""A value refresh through a cached pipeline reuses the compiled structure.

``GustPipeline.compile`` on a same-pattern, new-values matrix must build a
new handle from the memoized one (no ``compile_plan``, no bit-identity
probe), replay exactly what a cold compile would, and leave every handle
returned earlier replaying its own values.
"""

import numpy as np
import pytest

from repro import GustPipeline, uniform_random
from repro.core import pipeline as pipeline_module
from repro.core.backends import registry
from repro.core.backends.scatter import scatter_matvec
from repro.core.cache import ScheduleCache

BACKENDS = ["scipy", "bincount", "scatter"]


@pytest.fixture(params=["0", "1"], ids=["plain", "validate"])
def validate_env(request, monkeypatch):
    """Every test runs with and without ``GUST_VALIDATE=1``."""
    monkeypatch.setenv("GUST_VALIDATE", request.param)


@pytest.fixture
def counters(monkeypatch):
    """Counts ``compile_plan`` calls made by the pipeline and probe runs."""
    calls = {"compile_plan": 0, "probe": 0}
    compile_plan = pipeline_module.compile_plan
    probe = registry.probe_bit_identity

    def counting_compile_plan(*args, **kwargs):
        calls["compile_plan"] += 1
        return compile_plan(*args, **kwargs)

    def counting_probe(*args, **kwargs):
        calls["probe"] += 1
        return probe(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "compile_plan", counting_compile_plan)
    monkeypatch.setattr(registry, "probe_bit_identity", counting_probe)
    return calls


@pytest.fixture
def matrix():
    return uniform_random(120, 120, density=0.05, seed=11)


def _new_values(matrix, step):
    rng = np.random.default_rng(100 + step)
    return matrix.with_data(rng.uniform(0.5, 1.5, matrix.nnz))


@pytest.mark.usefixtures("validate_env")
class TestRefreshCompile:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refreshed_handle_matches_scatter_oracle(
        self, matrix, rng, backend
    ):
        pipeline = GustPipeline(16, cache=ScheduleCache(), backend=backend)
        pipeline.compile(matrix)
        refreshed_matrix = _new_values(matrix, 1)
        handle = pipeline.compile(refreshed_matrix)
        assert handle.stats.preprocess.notes["cache_refresh"] == 1.0
        cold = GustPipeline(16, backend=backend).compile(refreshed_matrix)
        for _ in range(3):
            x = rng.normal(size=matrix.shape[1])
            y = handle.matvec(x)
            assert (y == scatter_matvec(handle.plan, x)).all()
            assert (y == cold.matvec(x)).all()
            np.testing.assert_allclose(y, refreshed_matrix.matvec(x))
        block = rng.normal(size=(matrix.shape[1], 3))
        assert (handle.matmat(block) == cold.matmat(block)).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_earlier_handles_keep_their_values(self, matrix, rng, backend):
        pipeline = GustPipeline(16, cache=ScheduleCache(), backend=backend)
        x = rng.normal(size=matrix.shape[1])
        handles, outputs = [], []
        for step in range(4):
            stepped = matrix if step == 0 else _new_values(matrix, step)
            handle = pipeline.compile(stepped)
            assert all(handle is not earlier for earlier in handles)
            handles.append(handle)
            outputs.append(handle.matvec(x))
        for handle, y in zip(handles, outputs):
            assert (handle.matvec(x) == y).all()
        assert not (outputs[0] == outputs[1]).all()

    def test_refresh_skips_compile_and_probe(self, matrix, counters):
        pipeline = GustPipeline(16, cache=ScheduleCache(), backend="scipy")
        cold = pipeline.compile(matrix)
        assert counters == {"compile_plan": 1, "probe": 1}
        assert cold.stats.probe_verdict is True
        for step in range(1, 4):
            handle = pipeline.compile(_new_values(matrix, step))
            assert handle.backend_name == "scipy"
            assert handle.stats.probe_verdict is True
            assert handle.stats.bit_identical is True
        assert counters == {"compile_plan": 1, "probe": 1}
        assert pipeline.cache.stats.refreshes == 3

    def test_refresh_keeps_the_memo_bounded(self, matrix):
        pipeline = GustPipeline(16, cache=ScheduleCache(), backend="scipy")
        pipeline.compile(matrix)
        for step in range(1, 2 * pipeline._PLAN_MEMO_CAPACITY):
            pipeline.compile(_new_values(matrix, step))
        # Each refresh replaces the entry whose schedule is gone.
        assert len(pipeline._compiled_memo) == 1

    def test_pattern_change_recompiles(self, matrix, rng, counters):
        pipeline = GustPipeline(16, cache=ScheduleCache(), backend="scipy")
        first = pipeline.compile(matrix)
        other = uniform_random(120, 120, density=0.05, seed=12)
        handle = pipeline.compile(other)
        assert counters == {"compile_plan": 2, "probe": 2}
        assert not handle.plan.shares_structure(first.plan)
        x = rng.normal(size=120)
        assert (handle.matvec(x) == scatter_matvec(handle.plan, x)).all()
        np.testing.assert_allclose(handle.matvec(x), other.matvec(x))

    def test_unchanged_values_return_the_memoized_handle(
        self, matrix, counters
    ):
        pipeline = GustPipeline(16, cache=ScheduleCache(), backend="scipy")
        first = pipeline.compile(matrix)
        assert pipeline.compile(matrix) is first
        assert counters["compile_plan"] == 1
