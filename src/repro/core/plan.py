"""Prepared execution plans: compile a schedule once, replay it many times.

GUST's economics (Section 3.3, Table 4) make scheduling a one-time cost and
replay the steady-state hot path — an iterative solver or an SpMM column
stream executes the *same* schedule thousands of times.  Before this module
every replay re-derived the occupied-slot coordinates with a dense
``np.nonzero`` over the (C_total, l) schedule arrays and accumulated with
``np.add.at``, the slowest scatter in NumPy.  An :class:`ExecutionPlan` pays
that structural work once:

* the occupied slots are flattened into three aligned arrays — values,
  source columns, destination rows — **pre-sorted by destination row** with
  CSR-style segment boundaries (``seg_starts`` / ``seg_rows``), the
  row-merged streaming layout of Serpens and ESC's batched conflict
  resolution: the shape NumPy reduces fastest;
* SpMV replay is then gather -> multiply -> segment reduction.  The 1-D
  reduction runs through ``np.bincount(weights=...)``, which accumulates
  strictly sequentially per destination — **bit-identical** to the
  ``np.add.at`` reference path (the stable row sort preserves each row's
  slot order) at a fraction of its cost;
* SpMM replay reuses one plan across every column tile and reduces each
  (slots x tile) product block with ``np.add.reduceat`` over the same
  segment boundaries — no per-tile scatter.

Plans are immutable.  A value refresh (same pattern, new data — the
Jacobian/Hessian case) produces a new plan via :meth:`ExecutionPlan.
with_values`, a single O(nnz) gather that reuses the sorted structure; the
schedule cache performs exactly that on a value-refresh lookup, and the
serialized artifact container persists ``slot_order`` so a disk warm start
rebuilds the plan without re-sorting (see :mod:`repro.core.serialize`).

Compiled and memoized by :class:`repro.core.pipeline.GustPipeline` (see
:meth:`~repro.core.pipeline.GustPipeline.plan_for`), used by
:class:`repro.core.spmm.GustSpmm` and every solver in
:mod:`repro.solvers`; gated by ``benchmarks/bench_replay_throughput.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.schedule import Schedule
from repro.errors import HardwareConfigError, ScheduleError

#: Element budget for the per-tile product temporary in
#: :meth:`ExecutionPlan.execute_block` (~512 MB of float64 at the default);
#: wide dense blocks are processed in column tiles of ``budget // nnz`` so
#: peak memory stays bounded while the replay remains vectorized.
DEFAULT_TILE_BUDGET = 1 << 26


@dataclass(frozen=True)
class ExecutionPlan:
    """An immutable, replay-ready compilation of one schedule.

    Attributes:
        length: accelerator length ``l``.
        shape: scheduled matrix shape ``(m, n)`` (post row permutation).
        values: (nnz,) float64 — slot values, grouped by destination row.
        sources: (nnz,) intp — original column of each slot (the gather
            index into the input vector), aligned with ``values``.
        rows: (nnz,) intp — permuted destination row of each slot,
            non-decreasing (the sort key).
        seg_starts: (segments,) intp — CSR-style offsets: segment ``s``
            spans ``values[seg_starts[s]:seg_starts[s+1]]``.
        seg_rows: (segments,) intp — destination row of each segment.
        slot_order: (nnz,) intp or None — the stable permutation taking
            the source slot arrays to the row-sorted plan order; ``None``
            means identity (the slots were already row-sorted, as in a
            version-3 artifact).  The serializer uses it to persist slots
            pre-sorted so a warm start skips the sort.
        row_perm: (m,) intp — ``row_perm[i]`` is the permuted position of
            original row ``i`` (the load balancer's output permutation).
        value_source: (nnz,) intp or None — index into the *balanced-order*
            value stream feeding each plan slot; enables O(nnz) value
            refreshes via :meth:`with_values`.
    """

    length: int
    shape: tuple[int, int]
    values: np.ndarray
    sources: np.ndarray
    rows: np.ndarray
    seg_starts: np.ndarray
    seg_rows: np.ndarray
    slot_order: np.ndarray | None
    row_perm: np.ndarray
    value_source: np.ndarray | None = None
    #: Per-thread scratch for the replay's product buffer: replay is the
    #: hot path, and at high call rates the per-call ``products`` temporary
    #: was the last allocation left in it.  Thread-local so one plan can be
    #: replayed concurrently from many server workers without sharing a
    #: buffer; excluded from comparison/replace (a refreshed plan starts
    #: with fresh scratch).
    _scratch: threading.local = field(
        default_factory=threading.local, init=False, repr=False, compare=False
    )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_components(
        cls,
        length: int,
        shape: tuple[int, int],
        global_rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        row_perm: np.ndarray,
        value_source: np.ndarray | None = None,
        order: np.ndarray | None = None,
    ) -> "ExecutionPlan":
        """Compile a plan from flat occupied-slot arrays.

        ``global_rows`` / ``cols`` / ``values`` are aligned per-slot arrays
        in the schedule's canonical (step, lane) order; ``order`` is an
        optional precomputed stable row sort (as persisted in artifacts) —
        derived here when omitted.  ``value_source`` indexes the
        balanced-order data stream per slot (pre-sort order) and unlocks
        :meth:`with_values`.
        """
        if order is None:
            order = np.argsort(global_rows, kind="stable")
        order = np.ascontiguousarray(order, dtype=np.intp)
        return cls.from_sorted(
            length=length,
            shape=shape,
            values=np.asarray(values, dtype=np.float64)[order],
            sources=np.asarray(cols)[order],
            rows=np.asarray(global_rows)[order],
            slot_order=order,
            row_perm=row_perm,
            value_source=(
                np.asarray(value_source)[order]
                if value_source is not None
                else None
            ),
        )

    @classmethod
    def from_sorted(
        cls,
        length: int,
        shape: tuple[int, int],
        values: np.ndarray,
        sources: np.ndarray,
        rows: np.ndarray,
        slot_order: np.ndarray | None,
        row_perm: np.ndarray,
        value_source: np.ndarray | None = None,
    ) -> "ExecutionPlan":
        """Assemble a plan from arrays *already in destination-row order*.

        The fast warm-start constructor: the artifact loader gathers each
        per-slot array straight into plan order (one gather per array,
        no re-sort), so all that remains is the O(nnz) segment-boundary
        scan.  ``slot_order=None`` records an identity order (the source
        arrays were already sorted).  Callers are responsible for the
        sort invariant; :meth:`validate` still checks it.
        """
        rows = np.ascontiguousarray(rows, dtype=np.intp)
        nnz = int(rows.size)
        if nnz:
            firsts = np.empty(nnz, dtype=bool)
            firsts[0] = True
            np.not_equal(rows[1:], rows[:-1], out=firsts[1:])
            seg_starts = np.flatnonzero(firsts)
            seg_rows = rows[seg_starts]
        else:
            seg_starts = np.zeros(0, dtype=np.intp)
            seg_rows = np.zeros(0, dtype=np.intp)
        return cls(
            length=int(length),
            shape=(int(shape[0]), int(shape[1])),
            values=np.ascontiguousarray(values, dtype=np.float64),
            sources=np.ascontiguousarray(sources, dtype=np.intp),
            rows=rows,
            seg_starts=seg_starts,
            seg_rows=seg_rows,
            slot_order=(
                np.ascontiguousarray(slot_order, dtype=np.intp)
                if slot_order is not None
                else None
            ),
            row_perm=np.ascontiguousarray(row_perm, dtype=np.intp),
            value_source=(
                np.ascontiguousarray(value_source, dtype=np.intp)
                if value_source is not None
                else None
            ),
        )

    @classmethod
    def from_schedule(
        cls,
        schedule: Schedule,
        row_perm: np.ndarray | None = None,
        slots: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> "ExecutionPlan":
        """Compile a plan from a schedule (and optionally its slot join).

        Args:
            schedule: the schedule to prepare.
            row_perm: the balancer's row permutation; identity when omitted.
            slots: precomputed ``(steps, lanes, source)`` occupied-slot join
                (as from :func:`~repro.core.scheduler.slot_value_sources`).
                When given, ``source`` is retained as :attr:`value_source`
                so the plan supports O(nnz) value refreshes; the dense
                ``np.nonzero`` pass is skipped either way after compile.
        """
        if slots is not None:
            steps, lanes, source = slots
            steps = np.ascontiguousarray(steps, dtype=np.intp)
            lanes = np.ascontiguousarray(lanes, dtype=np.intp)
            window_of_step = schedule.window_of_timestep()
            global_rows = (
                window_of_step[steps] * schedule.length
                + schedule.row_sch[steps, lanes]
            )
        else:
            steps, lanes, global_rows = schedule.occupied_slots()
            source = None
        m = schedule.shape[0]
        if row_perm is None:
            row_perm = np.arange(m, dtype=np.intp)
        return cls.from_components(
            length=schedule.length,
            shape=schedule.shape,
            global_rows=global_rows,
            cols=schedule.col_sch[steps, lanes],
            values=schedule.m_sch[steps, lanes],
            row_perm=row_perm,
            value_source=source,
        )

    # -- sizes ---------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Scheduled nonzeros (plan slots)."""
        return int(self.values.size)

    @property
    def segments(self) -> int:
        """Distinct destination rows (CSR segments)."""
        return int(self.seg_rows.size)

    # -- replay --------------------------------------------------------------

    def execute(self, x: np.ndarray) -> np.ndarray:
        """One SpMV replay: gather -> multiply -> segment-reduce -> unpermute.

        The reduction is ``np.bincount(rows, weights=products)``: strictly
        sequential per destination, so with the stable row sort preserving
        each row's slot order the result is bit-identical to the reference
        ``np.add.at`` scatter path — just several times faster, with no
        per-call ``np.nonzero``.

        The gather and multiply run through a reusable per-plan scratch
        buffer (``np.take``/``np.multiply`` with ``out=``), so steady-state
        replay allocates only its output vector.  The scratch is
        thread-local: the same plan object can be replayed concurrently
        from many threads (server workers, solver pools) without locking.
        """
        x = np.asarray(x, dtype=np.float64)
        m, n = self.shape
        if x.shape != (n,):
            raise HardwareConfigError(
                f"vector length {x.shape} incompatible with shape {self.shape}"
            )
        if self.nnz == 0:
            return np.zeros(m, dtype=np.float64)[self.row_perm]
        buf = getattr(self._scratch, "products", None)
        if buf is None:
            buf = np.empty(self.nnz, dtype=np.float64)
            self._scratch.products = buf
        # mode="clip" skips the per-element bounds check; sources were
        # bounds-validated against n at compile time, x against n above.
        np.take(x, self.sources, out=buf, mode="clip")
        np.multiply(self.values, buf, out=buf)
        y_permuted = np.bincount(self.rows, weights=buf, minlength=m)
        return y_permuted[self.row_perm]

    def execute_block(
        self, dense: np.ndarray, tile_budget: int = DEFAULT_TILE_BUDGET
    ) -> np.ndarray:
        """SpMM replay: one plan drives every column tile of ``dense``.

        Each (slots x tile) product block reduces with one
        ``np.add.reduceat`` over the CSR segment boundaries — contiguous
        segment sums instead of a scatter per tile.  Columns are tiled so
        the product temporary stays under ``tile_budget`` elements.
        """
        dense = np.asarray(dense, dtype=np.float64)
        m, n = self.shape
        if dense.ndim != 2 or dense.shape[0] != n:
            raise HardwareConfigError(
                f"dense operand must be ({n}, k), got {dense.shape}"
            )
        k = dense.shape[1]
        y_permuted = np.zeros((m, k), dtype=np.float64)
        if self.nnz and k:
            values = self.values[:, None]
            tile = max(1, int(tile_budget) // max(1, self.nnz))
            for start in range(0, k, tile):
                stop = min(k, start + tile)
                products = values * dense[self.sources, start:stop]
                # This IS the reduceat backend's block kernel; it lives
                # here because backends/ imports plan (no reverse edge).
                # Callers get it only via backends declaring
                # bit_identical=False.
                y_permuted[self.seg_rows, start:stop] = np.add.reduceat(  # lint: disable=R1
                    products, self.seg_starts, axis=0
                )
        return y_permuted[self.row_perm]

    def csr_layout(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR components in *original* row order, slot order preserved.

        Returns ``(indptr, cols, vals, order)``: a classic CSR triple whose
        row ``i`` is the plan segment destined for original row ``i`` (the
        :attr:`row_perm` un-permutation folded into the layout), plus the
        ``order`` gather taking plan-slot arrays into it.  Within each row
        the slots keep their plan order, so any consumer that accumulates
        rows sequentially in storage order — ``scipy.sparse`` CSR matvec,
        :class:`~repro.core.spmm.StackedReplay` — reproduces
        :meth:`execute` bit for bit while skipping the per-call
        ``row_perm`` gather entirely.  Computed once per plan and cached
        (the layout is value-independent apart from ``vals = values[order]``).
        """
        cached = self.__dict__.get("_csr_layout_cache")
        if cached is not None:
            return cached
        m, _ = self.shape
        seg_counts = np.diff(np.append(self.seg_starts, self.nnz))
        counts_perm = np.zeros(m, dtype=np.intp)
        counts_perm[self.seg_rows] = seg_counts
        counts = counts_perm[self.row_perm]
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        starts_perm = np.zeros(m, dtype=np.intp)
        starts_perm[self.seg_rows] = self.seg_starts
        if self.nnz:
            # order[indptr[i]:indptr[i+1]] = start_of(row_perm[i]) + 0..len
            offsets = np.arange(self.nnz, dtype=np.intp) - np.repeat(
                indptr[:-1], counts
            )
            order = np.repeat(starts_perm[self.row_perm], counts) + offsets
        else:
            order = np.zeros(0, dtype=np.intp)
        layout = (indptr, self.sources[order], self.values[order], order)
        # Lazy idempotent memo: concurrent first calls compute identical
        # arrays, last writer wins.  object.__setattr__ bypasses frozen.
        object.__setattr__(self, "_csr_layout_cache", layout)
        return layout

    # -- refresh -------------------------------------------------------------

    def with_values(self, balanced_data: np.ndarray) -> "ExecutionPlan":
        """New plan with refreshed values, reusing the sorted structure.

        ``balanced_data`` is the balanced-order value stream of a matrix
        with exactly this plan's sparsity pattern.  One O(nnz) gather; no
        sort, no schedule traversal.  Requires :attr:`value_source` (plans
        compiled through the cache/store tiers carry it).
        """
        if self.value_source is None:
            raise ScheduleError(
                "plan lacks value-source metadata; recompile from the "
                "refreshed schedule instead"
            )
        balanced_data = np.asarray(balanced_data, dtype=np.float64)
        if balanced_data.size != self.nnz:
            raise ScheduleError(
                f"value stream has {balanced_data.size} entries, plan holds "
                f"{self.nnz}; pattern changed, full rescheduling required"
            )
        return replace(self, values=balanced_data[self.value_source])

    def shares_structure(self, other: "ExecutionPlan") -> bool:
        """True when only values can differ between ``self`` and ``other``.

        :meth:`with_values` hands the index arrays of its source out by
        identity, so identity is the cheap, exact test for "same pattern":
        a genuinely new pattern always compiles fresh arrays.
        """
        return (
            self.shape == other.shape
            and self.rows is other.rows
            and self.sources is other.sources
            and self.row_perm is other.row_perm
        )

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check structural consistency (sorted rows, boundaries, bounds)."""
        m, n = self.shape
        nnz = self.nnz
        for name, arr in (
            ("sources", self.sources),
            ("rows", self.rows),
        ):
            if arr.size != nnz:
                raise ScheduleError(f"plan member {name!r} disagrees on nnz")
        if self.slot_order is not None and self.slot_order.size != nnz:
            raise ScheduleError("plan member 'slot_order' disagrees on nnz")
        if self.value_source is not None and self.value_source.size != nnz:
            raise ScheduleError("plan value_source disagrees on nnz")
        if self.row_perm.size != m:
            raise ScheduleError("plan row permutation does not match matrix")
        if nnz:
            if (np.diff(self.rows) < 0).any():
                raise ScheduleError("plan rows are not sorted")
            if int(self.rows[0]) < 0 or int(self.rows[-1]) >= max(m, 1):
                raise ScheduleError("plan destination row out of range")
            if self.sources.size and (
                int(self.sources.min()) < 0 or int(self.sources.max()) >= n
            ):
                raise ScheduleError("plan source column out of range")
            if self.slot_order is not None:
                counts = np.bincount(self.slot_order, minlength=nnz)
                if counts.max() != 1:
                    raise ScheduleError("plan slot_order is not a permutation")
            expected_starts = np.flatnonzero(
                np.concatenate(([True], self.rows[1:] != self.rows[:-1]))
            )
            if not np.array_equal(self.seg_starts, expected_starts):
                raise ScheduleError("plan segment boundaries are inconsistent")
            if not np.array_equal(self.seg_rows, self.rows[self.seg_starts]):
                raise ScheduleError("plan segment rows are inconsistent")
        elif self.seg_starts.size or self.seg_rows.size:
            raise ScheduleError("empty plan carries segment boundaries")
