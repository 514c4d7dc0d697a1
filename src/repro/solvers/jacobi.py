"""Jacobi iteration on a GUST-scheduled operator.

Solves ``A x = b`` for diagonally dominant ``A`` via
``x' = D^-1 (b - R x)``.  Exercises the paper's pattern-reuse path: the
off-diagonal operator ``R`` shares its schedule across all iterations.
Each sweep applies ``R`` once: the product ``R x`` that checks the new
iterate's residual is the one the next sweep starts from, so a solve of
``k`` sweeps costs ``k + 1`` SpMVs.

Pass a shared ``GustPipeline(..., cache=...)`` when solving a *sequence*
of systems whose matrices keep one sparsity pattern (time-stepped or
Newton-style re-assembly): the schedule cache then skips the edge coloring
for every solve after the first, refreshing only the value stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import GustPipeline
from repro.errors import SolverError
from repro.sparse.coo import CooMatrix


@dataclass(frozen=True)
class JacobiResult:
    """Outcome of :func:`jacobi`.

    ``residual_norm`` is ``||b - A x||`` of the returned iterate, and
    ``spmv_count`` is ``iterations + 1``: one ``R`` product per sweep plus
    the one for the starting guess.
    """

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    spmv_count: int


def jacobi(
    matrix: CooMatrix,
    b: np.ndarray,
    pipeline: GustPipeline | None = None,
    tol: float = 1e-8,
    max_iterations: int = 500,
) -> JacobiResult:
    """Solve ``A x = b`` with Jacobi sweeps, R applied through GUST."""
    m, n = matrix.shape
    if m != n:
        raise SolverError(f"Jacobi needs a square matrix, got {matrix.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise SolverError(f"b has shape {b.shape}, expected ({n},)")

    on_diag = matrix.rows == matrix.cols
    diag = np.zeros(n, dtype=np.float64)
    diag[matrix.rows[on_diag]] = matrix.data[on_diag]
    if (diag == 0.0).any():
        raise SolverError("Jacobi requires a nonzero diagonal")

    off = CooMatrix.from_arrays(
        matrix.rows[~on_diag],
        matrix.cols[~on_diag],
        matrix.data[~on_diag],
        matrix.shape,
    )
    pipeline = pipeline or GustPipeline(length=min(64, max(1, n)))
    # Compile the replay once (solver replay requires exact, bit-identical
    # accumulation — an allclose-only backend is a typed error here);
    # every sweep below calls the compiled handle.
    apply_r = pipeline.compile(off, require_bit_identical=True).matvec

    x = np.zeros(n, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    threshold = tol * max(b_norm, 1e-300)
    rx = apply_r(x)
    spmv_count = 1
    residual = float("inf")
    for iteration in range(1, max_iterations + 1):
        x = (b - rx) / diag
        # True residual of the new iterate: b - A x = b - R x - D x.  The
        # same R x starts the next sweep.
        rx = apply_r(x)
        spmv_count += 1
        residual = float(np.linalg.norm(b - rx - diag * x))
        if residual <= threshold:
            return JacobiResult(
                x=x,
                iterations=iteration,
                residual_norm=residual,
                converged=True,
                spmv_count=spmv_count,
            )
    return JacobiResult(
        x=x,
        iterations=max_iterations,
        residual_norm=residual,
        converged=False,
        spmv_count=spmv_count,
    )
