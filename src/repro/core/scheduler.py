"""The GUST scheduler: windowing + per-window edge coloring -> Schedule.

Implements Section 3.3's "GUST Scheduling Algorithm": the matrix is split
into ceil(m/l) windows of ``l`` rows; each window becomes a bipartite
multigraph that an edge-coloring algorithm assigns buffer slots to; the
colored edges, listed in slot order, are the schedule (Listing 2's
M_sch / Row_sch / Col_sch are built from them only where read).

Vectorized batch engine
-----------------------

Scheduling is the paper's amortized preprocessing cost (Section 3.3), so its
wall clock is what RACE-style preprocessing budgets care about.  This module
therefore avoids every per-window Python pass over the nonzeros:

* **Partition** — the canonical COO order is already sorted by row, so one
  ``searchsorted`` against the window boundaries partitions the flat edge
  arrays into per-window slices (replacing the former O(windows x nnz)
  boolean-mask loop); every edge's multiplier lane is the one the load
  balancer dealt it (:attr:`~repro.core.load_balance.BalancedMatrix.
  entry_lanes`), or one binary search of
  :meth:`~repro.core.load_balance.BalancedMatrix.colseg_of_all` where
  the balancer did not run.
* **Coloring** — every built-in policy runs through a flat NumPy kernel
  that colors *all windows simultaneously* (windows are independent, so
  only the semantically sequential dimension of each algorithm remains a
  Python loop): "matching"/"first_fit" via the one first-fit kernel of
  :mod:`repro.graph.edge_coloring` (Listing 1 *is* row-major first-fit),
  "naive" via :func:`repro.core.naive.naive_coloring_flat`, and "euler" via
  :func:`repro.graph.edge_coloring.euler_coloring_flat`, whose per-color
  Hopcroft-Karp pass peels one perfect matching from every still-active
  window at once.
* **Process-pool scheduling** — ``jobs=`` partitions the window axis into
  contiguous, nnz-balanced chunks and colors them in a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Chunks are rebased,
  self-contained partitions of the same flat kernels, so the merged color
  array — and therefore every downstream artifact (schedule, serialized
  bytes, cache/store keys) — is identical to the single-process result.
* **Slots** — no dense scatter: each edge's flat slot is
  ``(window offset + color) * l + lane``, and one sort of those distinct
  keys lists the edges in slot order.  That permutation is the
  :class:`~repro.core.schedule.CompactSchedule`'s ``value_source``, which
  the cache, the plan and the artifact reuse instead of re-joining slots
  to entries.
* **Value reuse** — :meth:`GustScheduler.reschedule_values` refreshes a
  schedule for a same-pattern matrix via a ``searchsorted`` join on
  (row, col) keys instead of a per-nonzero Python dict.

The original pure-Python implementations are preserved verbatim in
:mod:`repro.graph._reference`; the vectorized engine reproduces their
colorings edge-for-edge (``tests/graph/test_vectorized_equivalence.py``)
and beats them by an order of magnitude on large matrices
(``benchmarks/bench_scheduling_throughput.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro import faults as _faults
from repro import obs as _obs
from repro.core.load_balance import BalancedMatrix, identity_balance
from repro.core.naive import naive_coloring_flat, naive_stalls_flat
from repro.core.schedule import CompactSchedule, Schedule
from repro.errors import ColoringError
from repro.graph.bipartite import WindowGraph
from repro.graph.edge_coloring import ALGORITHMS as _COLORING_ALGORITHMS
from repro.graph.edge_coloring import euler_coloring_flat, first_fit_lanes
from repro.graph.properties import validate_coloring
from repro.sparse.coo import CooMatrix, stable_argsort
from repro.sparse.stats import require_positive_length, window_count

#: Scheduling policies: the paper's greedy matching (default), the fast
#: first-fit variant, the optimal Euler/König coloring, and the naive
#: stall-on-collision strawman.
SCHEDULING_ALGORITHMS = tuple(sorted(_COLORING_ALGORITHMS)) + ("naive",)

#: Policies handled by the flat multi-window NumPy kernels.  Flat kernels
#: are window-local, which is also what makes them chunkable across a
#: process pool (``jobs=``) without changing a single color.
_FLAT_ALGORITHMS = ("matching", "first_fit", "euler", "naive")


def _color_window_range(
    algorithm: str,
    length: int,
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    window_starts: np.ndarray,
    n_windows: int,
) -> tuple[np.ndarray, dict[str, int]]:
    """Color one self-contained window range with its flat kernel.

    Module-level (picklable) so process-pool workers can run it; window ids
    and starts must already be rebased to the chunk (first window = 0).
    Returns the colors and, for the first-fit kernel, its lane split
    (``scalar_windows``, ``rank_steps``).  "matching" runs the first-fit
    kernel too: on row-major edges Listing 1 *is* first-fit
    (:mod:`repro.graph.edge_coloring`).
    """
    if algorithm in ("matching", "first_fit"):
        colors, scalar_windows, rank_steps = first_fit_lanes(
            local_rows, colsegs, window_ids, length, n_windows, window_starts
        )
        return colors, {
            "scalar_windows": scalar_windows,
            "rank_steps": rank_steps,
        }
    if algorithm == "euler":
        kernel = euler_coloring_flat
    elif algorithm == "naive":
        kernel = naive_coloring_flat
    else:
        raise ColoringError(f"no flat kernel for algorithm {algorithm!r}")
    return kernel(local_rows, colsegs, window_ids, length, n_windows), {}


def _color_chunk(payload):
    """Process-pool entry point: color one chunk, or die first.

    ``payload`` is ``(die, chunk_args)``.  A True ``die`` flag (decided by
    the parent's ``pool-kill`` fault probe) simulates a worker killed from
    outside Python — OOM killer, SIGKILL, a segfaulting extension —
    via ``os._exit``, which skips every cleanup hook and surfaces in the
    parent as :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    die, args = payload
    if die:
        os._exit(43)
    return _color_window_range(*args)


@dataclass(frozen=True)
class _Partition:
    """Flat per-edge window decomposition of a balanced matrix.

    Attributes:
        windows: window count ceil(m / l).
        window_ids: per-edge owning window (rows // l).
        window_starts: ``windows + 1`` offsets delimiting each window's
            contiguous slice of the canonical edge arrays.
        local_rows: per-edge window-local row (rows mod l).
        colsegs: per-edge multiplier lane (load-balanced column segment).
    """

    windows: int
    window_ids: np.ndarray
    window_starts: np.ndarray
    local_rows: np.ndarray
    colsegs: np.ndarray


class GustScheduler:
    """Produces collision-free :class:`~repro.core.schedule.Schedule` objects.

    Args:
        length: accelerator length ``l`` (multipliers = adders = l).
        algorithm: one of :data:`SCHEDULING_ALGORITHMS`.
        validate: if True, validate every window's coloring and the final
            schedule (slower; meant for tests and debugging).
        jobs: worker processes for the coloring pass.  ``1`` (the default)
            colors in-process; ``jobs > 1`` partitions the window axis
            across a process pool for very large matrices.  Windows are
            independent, so the merged schedule is *identical* — byte for
            byte once serialized — to the single-process result.  A broken
            pool (a worker killed from outside Python) is survived by
            re-dispatching every chunk serially, preserving that identity.
        faults: explicit :class:`~repro.faults.FaultPlan` for the
            ``pool-kill`` injection site; ``None`` uses the ambient plan.
    """

    def __init__(
        self,
        length: int,
        algorithm: str = "matching",
        validate: bool = False,
        jobs: int = 1,
        faults: _faults.FaultPlan | None = None,
    ):
        require_positive_length(length)
        if algorithm not in SCHEDULING_ALGORITHMS:
            raise ColoringError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {SCHEDULING_ALGORITHMS}"
            )
        if jobs < 1:
            raise ColoringError(f"jobs must be >= 1, got {jobs}")
        self.length = length
        self.algorithm = algorithm
        self.validate = validate
        self.jobs = jobs
        self.faults = faults
        #: Stall events observed by the naive policy in the last schedule()
        #: call (always 0 for coloring-based policies).
        self.last_stalls = 0
        # First-fit lane split of the last coloring pass, annotated on the
        # ``compile.coloring`` span (empty for the other policies).
        self._lanes: dict[str, int] = {}

    # -- public API ---------------------------------------------------------

    def schedule(self, matrix: CooMatrix) -> Schedule:
        """Schedule a matrix without load balancing."""
        return self.schedule_balanced(identity_balance(matrix, self.length))

    def color_counts(self, balanced: BalancedMatrix) -> list[int]:
        """Per-window color counts without materializing M_sch et al.

        The cycle/utilization analysis only needs the color counts; skipping
        the (C_total x l) arrays keeps memory flat even for the naive
        policy, whose color count approaches the nonzero count.
        """
        partition = self._partition(balanced)
        colors = self._color_flat(balanced, partition)
        return [int(c) for c in self._counts(partition, colors)]

    def schedule_balanced(self, balanced: BalancedMatrix) -> CompactSchedule:
        """Schedule a load-balanced matrix (the EC/LB configuration)."""
        matrix = balanced.matrix
        length = self.length
        m, n = matrix.shape

        with _obs.phase("partition"):
            partition = self._partition(balanced)
        with _obs.phase("coloring") as coloring:
            colors = self._color_flat(balanced, partition)
            counts = self._counts(partition, colors)
            coloring.annotate(**self._lanes)

        # Each edge's slot: timestep = window offset + edge color.  The
        # flat slots are distinct, so one sort lists the edges in slot
        # order, and that permutation is the schedule's value source.
        with _obs.phase("scatter"):
            total = int(counts.sum())
            offsets = np.zeros(partition.windows, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            flat = offsets[partition.window_ids] + colors
            flat *= length
            flat += partition.colsegs
            source = stable_argsort(flat, total * length)
        schedule = CompactSchedule(
            length=length,
            shape=(m, n),
            window_colors=tuple(int(c) for c in counts),
            total=total,
            flat=flat[source],
            slot_rows=partition.local_rows[source],
            slot_cols=matrix.cols[source],
            # A snapshot: without load balancing this is the caller's array.
            values=matrix.data.copy(),
            value_source=source,
        )
        if self.validate:
            schedule.validate()
        return schedule

    def reschedule_values(
        self, schedule: Schedule, balanced: BalancedMatrix
    ) -> Schedule:
        """Refresh M_sch for a matrix whose values changed but pattern did not.

        The paper's Jacobian/Hessian case: Listing 1 (the coloring) need not
        rerun; only Listing 2's value fill does.  ``balanced.matrix`` must
        have exactly the sparsity pattern the schedule was built from — a
        matrix with missing *or extra* nonzeros is rejected.

        The (row, col) -> value join runs as a binary search of the
        schedule's occupied slots against the matrix's canonical key order;
        no per-nonzero Python loop.
        """
        matrix = balanced.matrix
        length = self.length
        if matrix.nnz != schedule.nnz:
            raise ColoringError(
                f"pattern changed: matrix has {matrix.nnz} nonzeros but the "
                f"schedule holds {schedule.nnz}; full rescheduling required"
            )
        steps, lanes, source = slot_value_sources(schedule, matrix)
        m_sch = np.zeros_like(schedule.m_sch)
        m_sch[steps, lanes] = matrix.data[source]
        return Schedule(
            length=length,
            shape=schedule.shape,
            m_sch=m_sch,
            row_sch=schedule.row_sch,
            col_sch=schedule.col_sch,
            window_colors=schedule.window_colors,
        )

    # -- internals ----------------------------------------------------------

    def _partition(self, balanced: BalancedMatrix) -> _Partition:
        """Split the canonical edge arrays into window slices, mask-free."""
        matrix = balanced.matrix
        length = self.length
        m, _ = matrix.shape
        windows = window_count(m, length)
        if matrix.nnz:
            rows = matrix.rows
            window_ids = rows // length
            window_starts = np.searchsorted(
                rows, np.arange(windows + 1, dtype=np.int64) * length
            )
            local_rows = rows % length
            colsegs = balanced.entry_lanes
            if colsegs is None:
                colsegs = balanced.colseg_of_all(window_ids, matrix.cols, length)
        else:
            window_ids = np.zeros(0, dtype=np.int64)
            window_starts = np.zeros(windows + 1, dtype=np.int64)
            local_rows = np.zeros(0, dtype=np.int64)
            colsegs = np.zeros(0, dtype=np.int64)
        return _Partition(
            windows=windows,
            window_ids=window_ids,
            window_starts=window_starts,
            local_rows=local_rows,
            colsegs=colsegs,
        )

    def _color_flat(
        self, balanced: BalancedMatrix, partition: _Partition
    ) -> np.ndarray:
        """Color every edge of every window; flat array aligned with edges."""
        self.last_stalls = 0
        self._lanes = {}
        length = self.length
        windows = max(1, partition.windows)
        if self.algorithm in _FLAT_ALGORITHMS:
            jobs = self._effective_jobs(partition)
            if jobs > 1:
                colors, self._lanes = self._color_multiprocess(partition, jobs)
            else:
                colors, self._lanes = _color_window_range(
                    self.algorithm,
                    length,
                    partition.local_rows,
                    partition.colsegs,
                    partition.window_ids,
                    partition.window_starts,
                    windows,
                )
            if self.algorithm == "naive":
                self.last_stalls = naive_stalls_flat(
                    colors,
                    partition.colsegs,
                    partition.window_ids,
                    length,
                    windows,
                )
        else:
            colors = np.full(partition.local_rows.size, -1, dtype=np.int64)
            for graph, lo, hi in self._window_graphs(balanced, partition):
                colors[lo:hi] = _COLORING_ALGORITHMS[self.algorithm](graph)
        if self.validate:
            for graph, lo, hi in self._window_graphs(balanced, partition):
                validate_coloring(graph, colors[lo:hi])
        return colors

    def _effective_jobs(self, partition: _Partition) -> int:
        """Clamp the requested job count to the parallelism that exists."""
        if self.jobs <= 1 or partition.local_rows.size == 0:
            return 1
        return min(self.jobs, max(1, partition.windows))

    def _color_multiprocess(
        self, partition: _Partition, jobs: int
    ) -> tuple[np.ndarray, dict[str, int]]:
        """Color nnz-balanced window chunks in a process pool and merge.

        Each chunk is rebased into a standalone partition (window ids and
        starts shifted to zero), colored by the same flat kernel the
        single-process path runs, and concatenated back in window order —
        so the merged array is exactly the in-process result.

        A :class:`BrokenProcessPool` — a worker killed from outside Python
        mid-chunk — degrades to serial re-dispatch of every chunk: the
        kernels are deterministic and the chunks self-contained, so the
        recomputed merge is the exact array the pool would have produced
        (the ``jobs=N`` byte-identity contract holds even through worker
        death), at single-process speed for this one call.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        starts = partition.window_starts
        edge_count = int(partition.local_rows.size)
        # Cut the window axis where the cumulative nnz crosses each job's
        # even share; np.unique drops empty chunks (e.g. hub windows that
        # swallow several shares).
        targets = (np.arange(1, jobs, dtype=np.int64) * edge_count) // jobs
        cuts = np.searchsorted(starts, targets, side="left")
        bounds = np.unique(
            np.concatenate(([0], cuts, [partition.windows]))
        ).astype(np.int64)
        chunks = []
        for w_lo, w_hi in zip(bounds[:-1], bounds[1:]):
            lo, hi = int(starts[w_lo]), int(starts[w_hi])
            chunks.append(
                (
                    self.algorithm,
                    self.length,
                    partition.local_rows[lo:hi],
                    partition.colsegs[lo:hi],
                    partition.window_ids[lo:hi] - w_lo,
                    starts[w_lo : w_hi + 1] - lo,
                    int(w_hi - w_lo),
                )
            )
        if len(chunks) == 1:
            return _color_window_range(*chunks[0])
        plan = _faults.resolve(self.faults)
        payloads = [
            (plan is not None and plan.should_fire("pool-kill"), chunk)
            for chunk in chunks
        ]
        try:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                results = list(pool.map(_color_chunk, payloads))
        except BrokenProcessPool:
            results = [_color_window_range(*chunk) for chunk in chunks]
        lanes = {
            key: sum(chunk_lanes[key] for _, chunk_lanes in results)
            for key in results[0][1]
        }
        return np.concatenate([colors for colors, _ in results]), lanes

    def _window_graphs(self, balanced: BalancedMatrix, partition: _Partition):
        """Yield (WindowGraph, edge slice) per window, via partition slices."""
        matrix = balanced.matrix
        starts = partition.window_starts
        for w in range(partition.windows):
            lo, hi = int(starts[w]), int(starts[w + 1])
            yield (
                WindowGraph(
                    length=self.length,
                    local_rows=partition.local_rows[lo:hi],
                    colsegs=partition.colsegs[lo:hi],
                    cols=matrix.cols[lo:hi],
                    values=matrix.data[lo:hi],
                ),
                lo,
                hi,
            )

    def _counts(self, partition: _Partition, colors: np.ndarray) -> np.ndarray:
        """Per-window color counts (max color + 1; 0 for empty windows)."""
        counts = np.zeros(partition.windows, dtype=np.int64)
        if colors.size:
            np.maximum.at(counts, partition.window_ids, colors + 1)
        return counts


def slot_value_sources(
    schedule: Schedule, matrix: CooMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join occupied schedule slots to matrix entries by (row, col) key.

    Returns (steps, lanes, source) such that slot ``(steps[k], lanes[k])``
    carries ``matrix.data[source[k]]``.  Raises :class:`ColoringError` if
    any slot's (row, col) is absent from the matrix (pattern change).
    """
    steps, lanes, global_rows = schedule.occupied_slots()
    cols = schedule.col_sch[steps, lanes]
    n = max(1, schedule.shape[1])
    slot_keys = global_rows * np.int64(n) + cols
    # Widen explicitly: matrices reconstituted from disk artifacts carry
    # narrow index dtypes, and NumPy 1.x value-based casting would keep
    # the product in int16/int32 and overflow the key space.
    matrix_keys = (
        matrix.rows.astype(np.int64, copy=False) * np.int64(n)
        + matrix.cols.astype(np.int64, copy=False)
    )
    source = np.searchsorted(matrix_keys, slot_keys)
    in_range = np.minimum(source, max(0, matrix_keys.size - 1))
    missing = (source >= matrix_keys.size) | (matrix_keys[in_range] != slot_keys)
    if missing.any():
        bad = int(np.flatnonzero(missing)[0])
        entry = (int(global_rows[bad]), int(cols[bad]))
        raise ColoringError(
            f"schedule refers to entry {entry} missing from matrix; "
            "pattern changed, full rescheduling required"
        )
    return steps, lanes, source
