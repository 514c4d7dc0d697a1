"""Sparse-matrix x dense-matrix multiplication on GUST (extension).

The paper's future-work section proposes extending resource sharing to
sparse matrix-*matrix* multiplication.  For the common SpMM case — sparse A
times a dense block of vectors B — GUST's schedule-reuse property already
does the heavy lifting: the edge coloring depends only on A's sparsity
pattern, so one schedule drives all columns of B.  Two execution layouts
are modeled:

* ``column_cycled`` — one GUST datapath replays the schedule once per
  column of B: cycles = k * (C_total) + pipeline fill (the dump of column
  j overlaps the first timestep of column j+1, as windows already do).
* ``replicated`` — ``r`` parallel GUSTs (Section 5.5 arrangement) each
  take a slice of B's columns: cycles = ceil(k / r) * C_total + fill.

Both reuse the single schedule and therefore pay preprocessing once.  The
software replay reuses the pipeline's prepared
:class:`~repro.core.plan.ExecutionPlan` across every column tile: the
occupied-slot flattening and destination-row sort are paid once per
schedule, and each tile reduces with one contiguous ``np.add.reduceat``
instead of a scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.backends import compile_plan
from repro.core.cache import ScheduleCache
from repro.core.load_balance import BalancedMatrix
from repro.core.pipeline import LEGACY_SCATTER, GustPipeline
from repro.core.plan import ExecutionPlan
from repro.core.store import DiskScheduleStore
from repro.core.schedule import PIPELINE_FILL_CYCLES, Schedule
from repro.errors import BackendCapabilityError, HardwareConfigError
from repro.sparse.coo import CooMatrix
from repro.types import CycleReport

#: Element budget for the per-tile product temporary in :meth:`GustSpmm.
#: multiply` (~512 MB of float64 at the default); wide dense blocks are
#: processed in column tiles of ``budget // occupied_slots`` so memory
#: stays bounded while keeping the replay vectorized.
_SPMM_PRODUCT_BUDGET = 1 << 26


class StackedReplay:
    """Batched SpMV: ``k`` stacked right-hand sides against one plan.

    Concurrent SpMV requests for the same matrix are algebraically an SpMM
    — ``k`` parallel replays of one schedule — so the serving layer's
    batcher coalesces them into a single stacked block and executes the
    block in one pass.  The kernel comes from the
    :mod:`~repro.core.backends` registry with
    ``require_bit_identical=True``: whichever backend wins (scipy CSR
    where its per-compile probe passes, the flat-``bincount`` block kernel
    otherwise — never ``reduceat``), every batched column is
    **bit-identical** to the per-request scatter oracle.

    ``force_numpy`` pins the ``"bincount"`` backend (useful for tests and
    for comparing backends).  :attr:`backend` reports the resolved
    registry name.

    Thread-safe: compiled state only changes through
    :meth:`refresh_from_plan`, which swaps value streams atomically while
    reusing all structure.
    """

    def __init__(self, plan: ExecutionPlan, force_numpy: bool = False):
        self.plan = plan
        compiled = compile_plan(
            plan,
            backend="bincount" if force_numpy else "auto",
            require_bit_identical=True,
        )
        self._kernel = compiled.kernel
        self.backend = compiled.name

    @classmethod
    def from_compiled(cls, compiled) -> "StackedReplay":
        """Wrap an already-compiled bit-identical handle's kernel.

        The serving registry compiles one
        :class:`~repro.core.compiled.CompiledSpmv` per tenant for
        per-request replay; its kernel serves batches just as well, so
        wrapping it skips a second compile + bit-identity probe (and a
        second resident CSR structure).  The handle must have been
        compiled with the bit-identity guarantee this kernel's contract
        requires.
        """
        if compiled.plan is None:
            raise BackendCapabilityError(
                f"backend {compiled.backend_name!r} carries no compiled "
                f"plan; the batched-replay kernel requires one — compile "
                f"on a registry backend instead"
            )
        if not compiled.stats.bit_identical:
            raise BackendCapabilityError(
                f"backend {compiled.backend_name!r} is not bit-identical; "
                f"the batched-replay contract requires exactness"
            )
        self = cls.__new__(cls)
        self.plan = compiled.plan
        self._kernel = compiled._kernel
        self.backend = compiled.backend_name
        return self

    def matvecs(self, stacked: np.ndarray) -> np.ndarray:
        """Execute ``k`` stacked requests; returns the ``(m, k)`` block.

        ``stacked`` is ``(k, n)`` — one request per row.  Column ``j`` of
        the result is bit-identical to the per-request replay of
        ``stacked[j]``, in original (un-permuted) row order.  A single
        request (``k == 1``) replays through the kernel's ``matvec``, the
        same call per-request replay makes, instead of a one-column SpMM.
        """
        stacked = np.asarray(stacked, dtype=np.float64)
        _, n = self.plan.shape
        if stacked.ndim != 2 or stacked.shape[1] != n:
            raise HardwareConfigError(
                f"stacked operand must be (k, {n}), got {stacked.shape}"
            )
        if stacked.shape[0] == 1:
            return self._kernel.matvec(stacked[0])[:, None]
        return self._kernel.matmat(stacked.T)

    def refresh_from_plan(self, plan: ExecutionPlan) -> None:
        """Same pattern, new values: re-gather in place, never recompile.

        ``plan`` must share this kernel's structure (it comes from the
        schedule cache's value-refresh path, i.e.
        :meth:`ExecutionPlan.with_values`).  The compiled structure — the
        scipy index arrays and cached layout gather, or the bincount
        kernel's sorted slot arrays — is reused verbatim; only the value
        stream moves.  This is what makes serving-tenant re-registration
        O(nnz) instead of a CSR recompile.
        """
        self._kernel.refresh_values(plan)
        self.plan = plan


@dataclass(frozen=True)
class SpmmResult:
    """Output block and cycle accounting for one SpMM run."""

    y: np.ndarray
    schedule: Schedule
    cycle_report: CycleReport
    columns: int
    replicas: int


class GustSpmm:
    """SpMM engine: schedule A once, stream every column of B through it.

    Args:
        length: accelerator length ``l``.
        replicas: parallel GUST count sharing the column work.
        algorithm / load_balance: forwarded to the scheduling pipeline.
        cache: forwarded to :class:`~repro.core.pipeline.GustPipeline`; with
            a cache attached, calling :meth:`spmm` repeatedly on operands
            sharing one sparsity pattern (e.g. a re-assembled Jacobian
            against fresh blocks) pays the coloring once and refreshes only
            the value stream thereafter.
        store: forwarded to the pipeline; a persistent
            :class:`~repro.core.store.DiskScheduleStore` tier makes the
            schedule survive process restarts, so a restarted SpMM worker
            warm-starts from disk instead of recoloring.
        backend: execution backend for the block replay (``"auto"``
            selects a bit-identical kernel; name ``"reduceat"`` explicitly
            for the fastest allclose-grade segmented reduction).
        require_bit_identical: demand exact per-column reproduction of the
            scatter oracle; combined with a backend that cannot honor it
            (``"reduceat"``), compilation raises a typed
            :class:`~repro.errors.BackendCapabilityError` instead of
            silently returning allclose-grade results.
    """

    def __init__(
        self,
        length: int,
        replicas: int = 1,
        algorithm: str = "matching",
        load_balance: bool = True,
        cache: ScheduleCache | int | bool | None = None,
        store: DiskScheduleStore | str | Path | bool | None = None,
        backend: str = "auto",
        require_bit_identical: bool = False,
    ):
        if replicas <= 0:
            raise HardwareConfigError(f"replicas must be positive, got {replicas}")
        self.replicas = replicas
        self.pipeline = GustPipeline(
            length,
            algorithm=algorithm,
            load_balance=load_balance,
            cache=cache,
            store=store,
            backend=backend,
            require_bit_identical=require_bit_identical,
        )

    def preprocess(self, matrix: CooMatrix) -> tuple[Schedule, BalancedMatrix]:
        """One-time scheduling of the sparse operand."""
        schedule, balanced, _ = self.pipeline.preprocess(matrix)
        return schedule, balanced

    def multiply(
        self,
        schedule: Schedule,
        balanced: BalancedMatrix,
        dense: np.ndarray,
    ) -> SpmmResult:
        """Compute ``A @ B`` column by column over the shared schedule."""
        dense = np.asarray(dense, dtype=np.float64)
        m, n = schedule.shape
        if dense.ndim != 2 or dense.shape[0] != n:
            raise HardwareConfigError(
                f"dense operand must be ({n}, k), got {dense.shape}"
            )
        k = dense.shape[1]
        # Compiled replay: the backend kernel (memoized per schedule by
        # the pipeline, capability-checked at compile) drives every column
        # tile; the legacy baseline re-derives the occupied slots per call
        # inside its adapter, exactly as the pre-plan code did.
        handle = self.pipeline.compile_schedule(schedule, balanced)
        y = handle.matmat(dense, tile_budget=_SPMM_PRODUCT_BUDGET)
        report = self.cycle_report(schedule, k)
        return SpmmResult(
            y=y,
            schedule=schedule,
            cycle_report=report,
            columns=k,
            replicas=self.replicas,
        )

    def spmm(self, matrix: CooMatrix, dense: np.ndarray) -> SpmmResult:
        """Preprocess + multiply in one call."""
        schedule, balanced = self.preprocess(matrix)
        return self.multiply(schedule, balanced, dense)

    def cycle_report(self, schedule: Schedule, columns: int) -> CycleReport:
        """Cycles for ``columns`` replays split over the replicas."""
        if columns < 0:
            raise HardwareConfigError("columns must be non-negative")
        if columns == 0 or schedule.nnz == 0:
            return CycleReport(
                cycles=0,
                useful_ops=0,
                total_units=2 * schedule.length * self.replicas,
            )
        per_replica = -(-columns // self.replicas)
        cycles = per_replica * schedule.total_colors + PIPELINE_FILL_CYCLES
        return CycleReport(
            cycles=cycles,
            useful_ops=2 * schedule.nnz * columns,
            total_units=2 * schedule.length * self.replicas,
        )
