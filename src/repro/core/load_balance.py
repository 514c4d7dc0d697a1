"""The paper's three-step sort-based load balancer (Section 3.5).

Execution time per window is governed by the *maximum* nonzero count over
its rows and column segments (Eq. 1), so imbalance — not total work — costs
cycles.  The balancer:

* **Step 1** sorts matrix rows by nonzero count, grouping similarly heavy
  rows into the same windows.
* **Step 2** sorts, per window, the columns by their nonzero count within
  that window.
* **Step 3** deals the sorted columns into the ``l`` multipliers in
  alternating ("snake") order — the paper's "for even column segments,
  reverse the order" — so the heavy columns of one dealing round line up
  against the light columns of the next and per-multiplier loads even out.

Steps 2-3 are pure scheduling metadata: they decide which multiplier each
column feeds within a window and are realized through ``Col_sch`` — no data
is physically moved.  Step 1 is a real row permutation, which the pipeline
inverts on the output vector.  Reproducing the paper's Figure 6 example:
the 4x4 matrix costs 7 cycles unbalanced and 5 balanced
(``tests/core/test_load_balance.py``).

All three steps are fully vectorized: steps 2-3 run as one global
sort/run-length pass over every window at once, whose deal the scheduler
takes per entry (:attr:`BalancedMatrix.entry_lanes`).  Matrices the
balancer did not produce (disk loads, :func:`identity_balance`) resolve
lanes with :meth:`BalancedMatrix.colseg_of_all` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sparse.coo import CooMatrix, canonical_order, stable_argsort
from repro.sparse.stats import require_positive_length, window_count


@dataclass(frozen=True)
class BalancedMatrix:
    """Result of load balancing.

    Attributes:
        matrix: the row-permuted matrix to schedule.
        row_perm: ``row_perm[i]`` is the new position of original row ``i``
            (so ``y_original[i] = y_permuted[row_perm[i]]``).
        window_col_maps: per window, a pair of arrays ``(columns, lanes)``:
            ``columns`` is sorted ascending and ``lanes[k]`` is the
            multiplier assigned to ``columns[k]`` in that window.  Columns
            absent from the map default to ``col mod l``.
        entry_order: ``matrix`` entry ``k`` is input entry
            ``entry_order[k]``; ``None`` unless the balancer ran and kept
            every entry (no duplicates summed, no zeros dropped).
        entry_lanes: each ``matrix`` entry's lane (:meth:`colseg_of_all`
            under the balancer's length); ``None`` unless the balancer ran.
    """

    matrix: CooMatrix
    row_perm: np.ndarray
    window_col_maps: list[tuple[np.ndarray, np.ndarray]]
    entry_order: np.ndarray | None = None
    entry_lanes: np.ndarray | None = None

    @cached_property
    def _flat_col_map(self) -> tuple[np.ndarray, np.ndarray]:
        """All window column maps in one sorted (window*n + col, lane) table."""
        sizes = [cols.size for cols, _ in self.window_col_maps]
        total = int(sum(sizes))
        n = max(1, self.matrix.shape[1])
        keys = np.empty(total, dtype=np.int64)
        lanes = np.empty(total, dtype=np.int64)
        offset = 0
        for w, (cols, ln) in enumerate(self.window_col_maps):
            span = cols.size
            keys[offset : offset + span] = w * n + cols
            lanes[offset : offset + span] = ln
            offset += span
        return keys, lanes

    def colseg_of(self, window: int, cols: np.ndarray, length: int) -> np.ndarray:
        """Multiplier lane for each original column index in ``window``."""
        cols = np.asarray(cols, dtype=np.int64)
        mapped_cols, lanes = self.window_col_maps[window]
        base = cols % length
        if mapped_cols.size == 0 or cols.size == 0:
            return base
        positions = np.searchsorted(mapped_cols, cols)
        positions = np.minimum(positions, mapped_cols.size - 1)
        hit = mapped_cols[positions] == cols
        return np.where(hit, lanes[positions], base)

    def colseg_of_all(
        self, window_ids: np.ndarray, cols: np.ndarray, length: int
    ) -> np.ndarray:
        """Multiplier lane for every edge of the matrix in one pass.

        Vectorized across windows: equivalent to calling :meth:`colseg_of`
        window by window, but with a single binary search against the
        flattened column map.  ``window_ids`` is the per-edge owning window.
        """
        cols = np.asarray(cols, dtype=np.int64)
        base = cols % length
        keys, lanes = self._flat_col_map
        if keys.size == 0 or cols.size == 0:
            return base
        n = max(1, self.matrix.shape[1])
        wanted = np.asarray(window_ids, dtype=np.int64) * n + cols
        positions = np.searchsorted(keys, wanted)
        positions = np.minimum(positions, keys.size - 1)
        hit = keys[positions] == wanted
        return np.where(hit, lanes[positions], base)

    def unpermute_output(self, y_permuted: np.ndarray) -> np.ndarray:
        """Map the permuted output vector back to original row order."""
        return y_permuted[self.row_perm]

    def color_lower_bounds(self, length: int) -> list[int]:
        """Per-window Eq. (1) color lower bounds, as scheduled.

        The max bipartite degree of each window graph with this balancer's
        column-to-multiplier assignment applied.  Any proper coloring needs
        at least this many colors.
        """
        matrix = self.matrix
        m, _ = matrix.shape
        windows = window_count(m, length)
        if windows == 0:
            return []
        if matrix.nnz == 0:
            return [0] * windows
        window_ids = matrix.rows // length
        local_rows = matrix.rows % length
        colsegs = self.colseg_of_all(window_ids, matrix.cols, length)
        row_deg = np.bincount(
            window_ids * length + local_rows, minlength=windows * length
        ).reshape(windows, length)
        seg_deg = np.bincount(
            window_ids * length + colsegs, minlength=windows * length
        ).reshape(windows, length)
        bounds = np.maximum(row_deg.max(axis=1), seg_deg.max(axis=1))
        return [int(b) for b in bounds]


class LoadBalancer:
    """Applies the three-step balancing for a given accelerator length."""

    def __init__(self, length: int):
        require_positive_length(length)
        self.length = length

    def balance(self, matrix: CooMatrix) -> BalancedMatrix:
        """Run steps 1-3 and return the permuted matrix plus metadata."""
        length = self.length
        m, n = matrix.shape

        # Step 1: stable-sort rows by nonzero count (descending), so heavy
        # rows share windows with other heavy rows.
        counts = matrix.row_counts()
        cmax = int(counts.max(initial=0))
        order = stable_argsort(cmax - counts, cmax + 1)
        row_perm = np.empty(m, dtype=np.int64)
        row_perm[order] = np.arange(m, dtype=np.int64)
        permuted, entry_order = matrix, None
        if m:  # permute_rows, keeping the order of its one sort
            rows = row_perm[matrix.rows]
            entry_order = canonical_order(rows, matrix.cols, (m, n))
            permuted = CooMatrix.from_arrays(
                rows[entry_order],
                matrix.cols[entry_order],
                matrix.data[entry_order],
                (m, n),
            )
            if permuted.nnz != matrix.nnz:
                entry_order = None

        # Steps 2-3, every window at once: run-length encode the (window,
        # column) pairs, stable-sort each window's columns by descending
        # count, and deal them into lanes in snake order.
        windows = window_count(m, length)
        maps, lanes = self._window_maps(permuted, windows, n)

        return BalancedMatrix(
            matrix=permuted,
            row_perm=row_perm,
            window_col_maps=maps,
            entry_order=entry_order,
            entry_lanes=lanes,
        )

    def _window_maps(
        self, permuted: CooMatrix, windows: int, n: int
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Per-window column maps, and each entry's lane."""
        length = self.length
        empty = np.zeros(0, dtype=np.int64)
        if permuted.nnz == 0:
            return [(empty, empty) for _ in range(windows)], empty

        # Unique (window, column) pairs with counts.  The canonical COO
        # order is already sorted by (row, col); sorting its flat
        # window*n + col key groups duplicates of a column within a window.
        pair_key = (permuted.rows // length) * np.int64(n) + permuted.cols
        by_pair = stable_argsort(pair_key, windows * n)
        sorted_key = pair_key[by_pair]
        firsts = np.empty(sorted_key.size, dtype=bool)
        firsts[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=firsts[1:])
        unique_key = sorted_key[firsts]
        boundaries = np.flatnonzero(firsts)
        col_counts = np.diff(np.append(boundaries, sorted_key.size))
        win_of_unique = unique_key // n
        col_of_unique = unique_key % n

        by_load = _load_order(win_of_unique, col_counts)
        win_sorted = win_of_unique[by_load]
        window_starts = np.searchsorted(win_sorted, np.arange(windows + 1))
        rank = np.arange(by_load.size, dtype=np.int64) - window_starts[win_sorted]
        lanes_dealt = _snake_deal_ranks(rank, length)

        # Back to ascending-column order per window for binary-search maps.
        # win_sorted is a permutation of win_of_unique with identical
        # per-window multiplicities, so window_starts delimits both orders.
        lanes = np.empty(by_load.size, dtype=np.int64)
        lanes[by_load] = lanes_dealt
        entry_lanes = np.empty(pair_key.size, dtype=np.int64)
        entry_lanes[by_pair] = np.repeat(lanes, col_counts)
        maps = [
            (
                col_of_unique[window_starts[w] : window_starts[w + 1]],
                lanes[window_starts[w] : window_starts[w + 1]],
            )
            for w in range(windows)
        ]
        return maps, entry_lanes


def _load_order(win_of_unique: np.ndarray, col_counts: np.ndarray) -> np.ndarray:
    """Dealing order of unique (window, column) pairs given in (window,
    column) order: by window, then descending count, ties by ascending
    column (the seed's stable argsort).

    Equal to ``np.lexsort((cols, -col_counts, win_of_unique))``: the input
    is already column-ascending inside each window, so one stable argsort
    of the fused key ``win * (cmax + 1) + (cmax - count)`` keeps the column
    tie-break.  The key is at most ``windows * (l + 1)``.
    """
    cmax = int(col_counts.max())
    fused = win_of_unique * (cmax + 1) + (cmax - col_counts)
    return stable_argsort(fused, (int(win_of_unique[-1]) + 1) * (cmax + 1))


def _snake_deal_ranks(ranks: np.ndarray, length: int) -> np.ndarray:
    """Lane for each dealing rank, snake-wise into ``length`` lanes: round 0
    left-to-right, round 1 right-to-left, and so on."""
    rounds = ranks // length
    offsets = ranks % length
    return np.where(rounds % 2 == 0, offsets, length - 1 - offsets)


def identity_balance(matrix: CooMatrix, length: int) -> BalancedMatrix:
    """A no-op :class:`BalancedMatrix` (used when load balancing is off)."""
    require_positive_length(length)
    m, _ = matrix.shape
    empty_map = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    maps = [empty_map for _ in range(window_count(m, length))]
    return BalancedMatrix(
        matrix=matrix,
        row_perm=np.arange(m, dtype=np.int64),
        window_col_maps=maps,
    )
