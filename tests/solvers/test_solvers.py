"""Tests for the iterative solvers on GUST-scheduled operators."""

import gc
import importlib

import numpy as np
import pytest

from repro import CooMatrix, GustPipeline
from repro.core.cache import ScheduleCache
from repro.errors import SolverError
from repro.solvers import conjugate_gradient, jacobi, power_iteration
from repro.sparse.convert import from_dense, to_dense


def _spd_matrix(n: int, seed: int = 0) -> CooMatrix:
    """Sparse diagonally dominant SPD matrix."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for i in range(n):
        neighbours = rng.choice(n, size=3, replace=False)
        for j in neighbours:
            if i != j:
                value = -abs(rng.normal())
                dense[i, j] += value
                dense[j, i] += value
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return from_dense(dense)


class TestConjugateGradient:
    def test_solves_spd_system(self, rng):
        matrix = _spd_matrix(120, seed=1)
        x_true = rng.normal(size=120)
        b = matrix.matvec(x_true)
        result = conjugate_gradient(matrix, b, tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, atol=1e-6)

    def test_matches_numpy_solve(self, rng):
        matrix = _spd_matrix(60, seed=2)
        b = rng.normal(size=60)
        result = conjugate_gradient(matrix, b, tol=1e-12)
        np.testing.assert_allclose(
            result.x, np.linalg.solve(to_dense(matrix), b), atol=1e-6
        )

    def test_accounting(self, rng):
        matrix = _spd_matrix(80, seed=3)
        b = rng.normal(size=80)
        result = conjugate_gradient(matrix, b)
        assert result.spmv_count == result.iterations
        assert result.total_accelerator_cycles > 0
        assert result.preprocess_seconds > 0

    def test_rejects_non_square(self):
        matrix = CooMatrix.from_arrays(
            np.array([0]), np.array([0]), np.ones(1), (2, 3)
        )
        with pytest.raises(SolverError, match="square"):
            conjugate_gradient(matrix, np.zeros(3))

    def test_rejects_indefinite(self):
        # -I is negative definite; CG must refuse.
        n = 8
        matrix = CooMatrix.from_arrays(
            np.arange(n), np.arange(n), -np.ones(n), (n, n)
        )
        with pytest.raises(SolverError, match="positive definite"):
            conjugate_gradient(matrix, np.ones(n))

    def test_wrong_b_length(self):
        matrix = _spd_matrix(10)
        with pytest.raises(SolverError, match="shape"):
            conjugate_gradient(matrix, np.zeros(11))

    def test_custom_pipeline(self, rng):
        matrix = _spd_matrix(64, seed=4)
        b = rng.normal(size=64)
        pipeline = GustPipeline(16, algorithm="first_fit")
        result = conjugate_gradient(matrix, b, pipeline=pipeline, tol=1e-10)
        assert result.converged


class TestJacobi:
    def test_solves_dominant_system(self, rng):
        matrix = _spd_matrix(100, seed=5)
        x_true = rng.normal(size=100)
        b = matrix.matvec(x_true)
        result = jacobi(matrix, b, tol=1e-10, max_iterations=2000)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, atol=1e-5)

    def test_rejects_zero_diagonal(self):
        matrix = CooMatrix.from_arrays(
            np.array([0, 1]), np.array([1, 0]), np.ones(2), (2, 2)
        )
        with pytest.raises(SolverError, match="diagonal"):
            jacobi(matrix, np.ones(2))

    def test_rejects_non_square(self):
        matrix = CooMatrix.from_arrays(
            np.array([0]), np.array([0]), np.ones(1), (1, 2)
        )
        with pytest.raises(SolverError, match="square"):
            jacobi(matrix, np.zeros(2))


def _two_spmv_jacobi(matrix, b, pipeline, tol, max_iterations):
    """Frozen reference: the former sweep, which applied R twice.

    Returns ``(x, iterations, residual_norm)``.
    """
    n = matrix.shape[0]
    on_diag = matrix.rows == matrix.cols
    diag = np.zeros(n)
    diag[matrix.rows[on_diag]] = matrix.data[on_diag]
    off = CooMatrix.from_arrays(
        matrix.rows[~on_diag],
        matrix.cols[~on_diag],
        matrix.data[~on_diag],
        matrix.shape,
    )
    apply_r = pipeline.compile(off, require_bit_identical=True).matvec
    x = np.zeros(n)
    threshold = tol * max(float(np.linalg.norm(b)), 1e-300)
    residual = float("inf")
    for iteration in range(1, max_iterations + 1):
        x = (b - apply_r(x)) / diag
        residual = float(np.linalg.norm(b - apply_r(x) - diag * x))
        if residual <= threshold:
            return x, iteration, residual
    return x, max_iterations, residual


class TestJacobiOneSpmvPerSweep:
    """Carrying R x from the residual check into the next sweep changes
    the SpMV count only: iterate, iterations and residual keep their bits."""

    @staticmethod
    def _check(result, reference):
        x, iterations, residual = reference
        assert (result.x == x).all()
        assert result.iterations == iterations
        assert result.residual_norm == residual
        assert result.spmv_count == result.iterations + 1

    def test_matches_reference_with_private_pipeline(self, rng):
        matrix = _spd_matrix(100, seed=5)
        b = rng.normal(size=100)
        result = jacobi(matrix, b, tol=1e-10, max_iterations=2000)
        assert result.converged
        reference = _two_spmv_jacobi(
            matrix, b, GustPipeline(64), tol=1e-10, max_iterations=2000
        )
        self._check(result, reference)

    def test_matches_reference_through_shared_cached_pipeline(self, rng):
        """Time-stepped values through one cached pipeline: every step
        after the first rides the value refresh, and still matches a cold
        compile of that step's matrix."""
        matrix = _spd_matrix(150, seed=8)
        b = rng.normal(size=150)
        pipeline = GustPipeline(32, cache=ScheduleCache())
        off = matrix.rows != matrix.cols
        for step in range(4):
            data = matrix.data.copy()
            data[off] *= 1.0 + 0.05 * step
            stepped = matrix.with_data(data)
            result = jacobi(stepped, b, pipeline=pipeline, tol=1e-10)
            assert result.converged
            reference = _two_spmv_jacobi(
                stepped, b, GustPipeline(32), tol=1e-10, max_iterations=500
            )
            self._check(result, reference)
        assert pipeline.cache.stats.refreshes == 3

    @staticmethod
    def _stepped(matrix, step):
        data = matrix.data.copy()
        data[matrix.rows != matrix.cols] *= 1.0 + 0.05 * step
        return matrix.with_data(data)

    @staticmethod
    def _spy_full_path(monkeypatch):
        """Count the calls only the full path makes: the split's
        canonicalization and the pattern digest."""
        from repro.core import cache as cache_module
        from repro.sparse import coo as coo_module

        calls = {"from_arrays": 0, "canonical_order": 0, "digest": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            CooMatrix,
            "from_arrays",
            classmethod(
                counted("from_arrays", CooMatrix.from_arrays.__func__)
            ),
        )
        for module in (coo_module, cache_module):
            monkeypatch.setattr(
                module,
                "canonical_order",
                counted("canonical_order", module.canonical_order),
            )
        monkeypatch.setattr(
            cache_module,
            "pattern_digest",
            counted("digest", cache_module.pattern_digest),
        )
        return calls

    def test_five_steps_ride_the_keyed_refresh(self, rng, monkeypatch):
        """After the first step, a step splits nothing, canonicalizes
        nothing and digests nothing, and keeps the reference's bits."""
        matrix = _spd_matrix(150, seed=11)
        b = rng.normal(size=150)
        steps = [self._stepped(matrix, step) for step in range(5)]
        references = [
            _two_spmv_jacobi(m, b, GustPipeline(32), 1e-10, 500) for m in steps
        ]
        pipeline = GustPipeline(32, cache=ScheduleCache())
        first = jacobi(steps[0], b, pipeline=pipeline, tol=1e-10)
        self._check(first, references[0])
        calls = self._spy_full_path(monkeypatch)
        for stepped, reference in zip(steps[1:], references[1:]):
            result = jacobi(stepped, b, pipeline=pipeline, tol=1e-10)
            self._check(result, reference)
        assert calls == {"from_arrays": 0, "canonical_order": 0, "digest": 0}
        stats = pipeline.cache.stats
        assert (stats.misses, stats.refreshes) == (1, 4)

    def test_in_place_edit_is_seen(self, rng):
        matrix = _spd_matrix(120, seed=12)
        b = rng.normal(size=120)
        pipeline = GustPipeline(32, cache=ScheduleCache())
        jacobi(matrix, b, pipeline=pipeline, tol=1e-10)
        matrix.data[matrix.rows != matrix.cols] *= 0.5
        result = jacobi(matrix, b, pipeline=pipeline, tol=1e-10)
        self._check(
            result, _two_spmv_jacobi(matrix, b, GustPipeline(32), 1e-10, 500)
        )
        assert pipeline.cache.stats.refreshes == 1

    def test_fresh_index_arrays_take_the_full_path(self, rng, monkeypatch):
        matrix = _spd_matrix(120, seed=13)
        b = rng.normal(size=120)
        pipeline = GustPipeline(32, cache=ScheduleCache())
        first = jacobi(matrix, b, pipeline=pipeline, tol=1e-10)
        calls = self._spy_full_path(monkeypatch)
        twin = CooMatrix(
            rows=matrix.rows.copy(),
            cols=matrix.cols.copy(),
            data=matrix.data.copy(),
            shape=matrix.shape,
        )
        result = jacobi(twin, b, pipeline=pipeline, tol=1e-10)
        assert calls["from_arrays"] == 1 and calls["digest"] == 1
        assert calls["canonical_order"] >= 1
        assert (result.x == first.x).all()
        assert result.iterations == first.iterations
        assert pipeline.cache.stats.hits == 1

    def test_evicted_entry_falls_back_to_the_full_path(self, rng):
        matrix = _spd_matrix(120, seed=14)
        other = _spd_matrix(120, seed=15)
        b = rng.normal(size=120)
        pipeline = GustPipeline(32, cache=ScheduleCache(capacity=1))
        jacobi(matrix, b, pipeline=pipeline, tol=1e-10)
        jacobi(other, b, pipeline=pipeline, tol=1e-10)
        stepped = self._stepped(matrix, 1)
        result = jacobi(stepped, b, pipeline=pipeline, tol=1e-10)
        self._check(
            result, _two_spmv_jacobi(stepped, b, GustPipeline(32), 1e-10, 500)
        )
        stats = pipeline.cache.stats
        assert (stats.misses, stats.refreshes, stats.evictions) == (3, 0, 2)

    def test_explicit_zero_off_diagonal_takes_the_full_path(self, rng):
        """``from_arrays`` drops an explicit zero, so ``R`` has another
        pattern: the keyed refresh must not serve the old one."""
        matrix = _spd_matrix(120, seed=16)
        b = rng.normal(size=120)
        pipeline = GustPipeline(32, cache=ScheduleCache())
        jacobi(matrix, b, pipeline=pipeline, tol=1e-10)
        data = matrix.data.copy()
        data[np.flatnonzero(matrix.rows != matrix.cols)[7]] = 0.0
        zeroed = CooMatrix(
            rows=matrix.rows, cols=matrix.cols, data=data, shape=matrix.shape
        )
        result = jacobi(zeroed, b, pipeline=pipeline, tol=1e-10)
        self._check(
            result, _two_spmv_jacobi(zeroed, b, GustPipeline(32), 1e-10, 500)
        )
        assert pipeline.cache.stats.misses == 2

    def test_split_memo_dies_with_the_index_arrays(self, rng):
        splits = importlib.import_module("repro.solvers.jacobi")._SPLITS
        pipeline = GustPipeline(16, cache=ScheduleCache())
        for seed in range(50):
            matrix = _spd_matrix(24, seed=100 + seed)
            jacobi(matrix, rng.normal(size=24), pipeline=pipeline)
        assert len(splits[pipeline]) >= 1
        del matrix
        gc.collect()
        assert len(splits[pipeline]) == 0

    def test_spmv_count_when_not_converged(self, rng):
        matrix = _spd_matrix(80, seed=9)
        b = rng.normal(size=80)
        result = jacobi(matrix, b, tol=1e-300, max_iterations=7)
        assert not result.converged
        assert result.iterations == 7
        assert result.spmv_count == 8
        reference = _two_spmv_jacobi(
            matrix, b, GustPipeline(64), tol=1e-300, max_iterations=7
        )
        self._check(result, reference)


class TestPowerIteration:
    def test_finds_dominant_eigenpair(self):
        matrix = _spd_matrix(60, seed=6)
        result = power_iteration(matrix, tol=1e-12, max_iterations=3000)
        dense = to_dense(matrix)
        eigenvalues = np.linalg.eigvalsh(dense)
        assert result.eigenvalue == pytest.approx(
            eigenvalues[-1], rel=1e-6
        )
        residual = dense @ result.vector - result.eigenvalue * result.vector
        assert np.linalg.norm(residual) < 1e-5

    def test_rejects_non_square(self):
        matrix = CooMatrix.from_arrays(
            np.array([0]), np.array([0]), np.ones(1), (1, 2)
        )
        with pytest.raises(SolverError, match="square"):
            power_iteration(matrix)

    def test_rejects_zero_matrix(self):
        matrix = CooMatrix.empty((4, 4))
        with pytest.raises(SolverError, match="annihilated"):
            power_iteration(matrix)
