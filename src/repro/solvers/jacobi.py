"""Jacobi iteration on a GUST-scheduled operator.

Solves ``A x = b`` for diagonally dominant ``A`` via
``x' = D^-1 (b - R x)``.  Exercises the paper's pattern-reuse path: the
off-diagonal operator ``R`` shares its schedule across all iterations.
Each sweep applies ``R`` once: the product ``R x`` that checks the new
iterate's residual is the one the next sweep starts from, so a solve of
``k`` sweeps costs ``k + 1`` SpMVs.

Pass a shared ``GustPipeline(..., cache=...)`` when solving a *sequence*
of systems whose matrices keep one sparsity pattern and its index arrays
(time-stepped or Newton-style re-assembly through ``CooMatrix.with_data``).
The first solve splits the pattern into ``D`` and ``R`` and compiles
``R``; every later one gathers its values at the remembered positions and
refreshes ``R`` by cache key: no split, no canonicalization, no digest.
"""

from __future__ import annotations

import weakref
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

    pipeline = pipeline or GustPipeline(length=min(64, max(1, n)))
    splits = _SPLITS.setdefault(pipeline, {})
    memo_key = (id(matrix.rows), id(matrix.cols), matrix.shape)
    known = splits.get(memo_key)
    if known and known[0]() is matrix.rows and known[1]() is matrix.cols:
        _, _, diag_positions, off_positions, key = known
    else:
        known, key = None, None
        on_diag = matrix.rows == matrix.cols
        diag_positions = np.flatnonzero(on_diag)
        off_positions = np.flatnonzero(~on_diag)
    diag = np.zeros(n, dtype=np.float64)
    diag[matrix.rows[diag_positions]] = matrix.data[diag_positions]
    if (diag == 0.0).any():
        raise SolverError("Jacobi requires a nonzero diagonal")

    # Compile the replay once (solver replay requires exact, bit-identical
    # accumulation — an allclose-only backend is a typed error here);
    # every sweep below calls the compiled handle.
    off_data = np.take(matrix.data, off_positions)
    handle = None
    if key is not None and off_data.all():
        handle = pipeline.refresh(key, off_data, require_bit_identical=True)
    if handle is None:
        # A new pattern, an evicted entry, or an explicit zero off the
        # diagonal (from_arrays drops it: R has another pattern).
        off = CooMatrix.from_arrays(
            matrix.rows[off_positions],
            matrix.cols[off_positions],
            off_data,
            matrix.shape,
        )
        handle = pipeline.compile(off, require_bit_identical=True)
        if known is None:
            positions = (diag_positions, off_positions)
            _remember(splits, memo_key, matrix, off, positions, pipeline)
    apply_r = handle.matvec

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


#: pipeline -> {(id(rows), id(cols), shape): (rows ref, cols ref, diagonal
#: positions, off-diagonal positions, R's cache key)}.  Positions only, no
#: copy of the pattern; an entry leaves when either index array does.
_SPLITS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _remember(splits, memo_key, matrix, off, positions, pipeline) -> None:
    """Memoize a split whose ``R`` holds the off-diagonal entries in their
    own order (no explicit zero dropped, nothing re-sorted)."""
    diag_positions, off_positions = positions
    key = pipeline.pattern_key(off)
    if key is None or not all(
        np.array_equal(got, full[off_positions])
        for got, full in ((off.rows, matrix.rows), (off.cols, matrix.cols))
    ):
        return

    def forget(ref: weakref.ref) -> None:
        if any(ref is r for r in splits.get(memo_key, ())[:2]):
            splits.pop(memo_key, None)

    narrow = np.int32 if matrix.nnz < 2**31 else np.intp
    splits[memo_key] = (
        weakref.ref(matrix.rows, forget),
        weakref.ref(matrix.cols, forget),
        diag_positions.astype(narrow),
        off_positions.astype(narrow),
        key,
    )
