"""Tests for the iterative solvers on GUST-scheduled operators."""

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
