"""Coordinate-format sparse matrix container.

The COO layout (parallel ``rows``/``cols``/``data`` arrays) is the library's
interchange format: generators emit it, the scheduler consumes it, and the
paper's own scheduled storage (:class:`repro.core.schedule.Schedule`) notes
that it "can be viewed as a compressed storage format similar to the
Coordinate format".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MatrixFormatError


@dataclass(frozen=True)
class CooMatrix:
    """An immutable sparse matrix in coordinate format.

    Entries are stored deduplicated and sorted by (row, col).  Use
    :meth:`from_arrays` to build from raw, possibly messy triplets.

    Attributes:
        rows: int64 array of row indices, one per nonzero.
        cols: int64 array of column indices, one per nonzero.
        data: float64 array of values, one per nonzero.
        shape: (m, n) matrix dimensions.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    # -- construction -----------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        sum_duplicates: bool = True,
    ) -> "CooMatrix":
        """Build a canonical COO matrix from raw triplets.

        Triplets are validated against ``shape``, sorted by (row, col), and
        duplicates are summed (set ``sum_duplicates=False`` to reject them
        instead).  Explicit zeros are dropped.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if not (rows.ndim == cols.ndim == data.ndim == 1):
            raise MatrixFormatError("rows, cols and data must be 1-D arrays")
        if not (rows.size == cols.size == data.size):
            raise MatrixFormatError(
                f"triplet arrays disagree in length: "
                f"{rows.size}, {cols.size}, {data.size}"
            )
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise MatrixFormatError(f"shape must be non-negative, got {shape}")
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise MatrixFormatError("row index out of range")
            if cols.min() < 0 or cols.max() >= n:
                raise MatrixFormatError("column index out of range")

        order = canonical_order(rows, cols, (m, n))
        rows, cols, data = rows[order], cols[order], data[order]

        if rows.size:
            key_same = np.zeros(rows.size, dtype=bool)
            key_same[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if key_same.any():
                if not sum_duplicates:
                    raise MatrixFormatError("duplicate (row, col) entries present")
                group_id = np.cumsum(~key_same) - 1
                summed = np.zeros(group_id[-1] + 1, dtype=np.float64)
                np.add.at(summed, group_id, data)
                first = ~key_same
                rows, cols, data = rows[first], cols[first], summed

        keep = data != 0.0
        if not keep.all():
            rows, cols, data = rows[keep], cols[keep], data[keep]

        return cls(rows=rows, cols=cols, data=data, shape=(m, n))

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "CooMatrix":
        """An all-zero matrix of the given shape."""
        zero = np.zeros(0, dtype=np.int64)
        return cls.from_arrays(zero, zero, np.zeros(0), shape)

    # -- basic properties --------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.data.size)

    @property
    def density(self) -> float:
        """nnz divided by m*n (0.0 for degenerate shapes)."""
        m, n = self.shape
        if m == 0 or n == 0:
            return 0.0
        return self.nnz / (m * n)

    def row_counts(self) -> np.ndarray:
        """Array of length m: nonzeros in each row."""
        return np.bincount(self.rows, minlength=self.shape[0])

    def col_counts(self) -> np.ndarray:
        """Array of length n: nonzeros in each column."""
        return np.bincount(self.cols, minlength=self.shape[1])

    # -- operations ---------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference y = A @ x used as the library's numerical oracle."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise MatrixFormatError(
                f"vector length {x.shape} incompatible with shape {self.shape}"
            )
        y = np.zeros(self.shape[0], dtype=np.float64)
        np.add.at(y, self.rows, self.data * x[self.cols])
        return y

    def transpose(self) -> "CooMatrix":
        """Return the transpose as a new canonical COO matrix."""
        return CooMatrix.from_arrays(
            self.cols, self.rows, self.data, (self.shape[1], self.shape[0])
        )

    def permute_rows(self, perm: np.ndarray) -> "CooMatrix":
        """Return a copy with row i moved to position perm[i].

        ``perm`` must be a permutation of ``range(m)``.  Used by the load
        balancer, whose Step 1 sorts rows by nonzero count.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if not _is_permutation(perm, self.shape[0]):
            raise MatrixFormatError("perm is not a permutation of range(m)")
        return CooMatrix.from_arrays(
            perm[self.rows], self.cols, self.data, self.shape
        )

    def permute_cols(self, perm: np.ndarray) -> "CooMatrix":
        """Return a copy with column j moved to position perm[j]."""
        perm = np.asarray(perm, dtype=np.int64)
        if not _is_permutation(perm, self.shape[1]):
            raise MatrixFormatError("perm is not a permutation of range(n)")
        return CooMatrix.from_arrays(
            self.rows, perm[self.cols], self.data, self.shape
        )

    def row_window(self, start: int, stop: int) -> "CooMatrix":
        """Extract rows [start, stop) as a (stop-start, n) matrix.

        This is the windowing primitive: GUST processes an m-by-n matrix in
        consecutive sets of ``l`` rows.
        """
        if not (0 <= start <= stop <= self.shape[0]):
            raise MatrixFormatError(
                f"window [{start}, {stop}) outside 0..{self.shape[0]}"
            )
        mask = (self.rows >= start) & (self.rows < stop)
        return CooMatrix.from_arrays(
            self.rows[mask] - start,
            self.cols[mask],
            self.data[mask],
            (stop - start, self.shape[1]),
        )

    def with_data(self, data: np.ndarray) -> "CooMatrix":
        """Same sparsity pattern, new values (Jacobian/Hessian reuse case).

        The paper notes that when values change but the pattern does not, the
        edge-coloring need not be recomputed — only the value stream.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.data.shape:
            raise MatrixFormatError("data length must match nnz")
        if (data == 0.0).any():
            raise MatrixFormatError("with_data cannot introduce explicit zeros")
        return CooMatrix(rows=self.rows, cols=self.cols, data=data, shape=self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CooMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CooMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )


def canonical_order(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Stable permutation sorting entries by (row, col), i.e. row-major.

    Equal to ``np.lexsort((cols, rows))``.  The two keys are fused into one
    ``row * n + col`` integer, which is bijective and monotone in (row, col)
    for in-range indices, and sorted by :func:`stable_argsort`, where
    ``np.lexsort`` always pays two full passes.  Where ``m * n`` would
    overflow the int64 key, the choice falls back to ``np.lexsort``; it
    depends on ``shape`` alone.
    """
    m, n = int(shape[0]), int(shape[1])
    if m * n >= 2**63:
        return np.lexsort((cols, rows))
    keys = np.asarray(rows, dtype=np.int64) * np.int64(n)
    keys += np.asarray(cols, dtype=np.int64)
    return stable_argsort(keys, m * n)


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    Sorted keys return ``arange`` after one comparison pass.  Otherwise,
    while ``bound * size`` fits int64, the sort runs on ``key * size +
    index``: distinct keys have exactly one sorting permutation, the
    stable one, so NumPy's default SIMD argsort (~5x faster than the
    timsort behind ``kind="stable"``) finds it.  Larger inputs fall back.
    """
    keys = np.asarray(keys)
    size = keys.size
    if size < 2 or not (keys[1:] < keys[:-1]).any():
        return np.arange(size, dtype=np.intp)
    if int(bound) * size >= 2**63:
        return np.argsort(keys, kind="stable")
    fused = keys.astype(np.int64, copy=False) * np.int64(size)
    fused += np.arange(size, dtype=np.int64)
    return np.argsort(fused)


def _is_permutation(perm: np.ndarray, size: int) -> bool:
    if perm.shape != (size,):
        return False
    seen = np.zeros(size, dtype=bool)
    valid = (perm >= 0) & (perm < size)
    if not valid.all():
        return False
    seen[perm] = True
    return bool(seen.all())
