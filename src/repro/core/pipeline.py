"""End-to-end GUST SpMV: preprocess once, execute many times.

This is the library's main entry point.  It mirrors the paper's software
flow: (optional) load balancing, edge-coloring scheduling (the one-time
preprocessing step), then repeated SpMV execution — either the fast
vectorized replay (used by the experiment harness) or the cycle-accurate
:class:`~repro.core.machine.GustMachine`.

Pass ``cache=`` to layer a :class:`~repro.core.cache.ScheduleCache` under
:meth:`GustPipeline.preprocess`: repeated preprocessing of the same
sparsity pattern returns the stored schedule (identical values) or runs
only the value scatter (same pattern, new values — the Jacobian/Hessian
case), so iterative solvers and SpMM replays pay the coloring once.

Pass ``store=`` to add the persistent tier: a
:class:`~repro.core.store.DiskScheduleStore` (or a directory path, or
``True`` for the default ``~/.cache/gust`` location) layered under the
memory cache, so lookups go memory -> disk -> compute and schedules
survive process restarts — the paper's Table 4 deployment model, where a
fleet of workers shares one schedule artifact store.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs as _obs
from repro.analysis.runtime import validation_enabled
from repro.obs import clock as _obs_clock
from repro.obs import trace as _trace
from repro.core.backends import compile_plan
from repro.core.backends.base import BackendCapabilities
from repro.core.backends.scatter import scatter_matmat
from repro.core.cache import CacheLookup, ScheduleCache
from repro.core.compiled import CompiledSpmv, CompiledStats
from repro.core.store import DiskScheduleStore
from repro.core.load_balance import BalancedMatrix, LoadBalancer, identity_balance
from repro.core.machine import GustMachine, MachineResult
from repro.core.plan import DEFAULT_TILE_BUDGET, ExecutionPlan
from repro.core.schedule import PIPELINE_FILL_CYCLES, Schedule
from repro.core.scheduler import GustScheduler
from repro.errors import BackendError, HardwareConfigError
from repro.sparse.coo import CooMatrix
from repro.types import CycleReport, PreprocessReport

#: Pipeline-level pseudo-backend: the *uncompiled* pre-plan replay (a dense
#: ``np.nonzero`` over the schedule arrays plus ``np.add.at``, every call).
#: Not in the backend registry — it needs schedule context a compiled
#: :class:`ExecutionPlan` no longer carries — and kept only as the
#: reference baseline ``benchmarks/bench_replay_throughput.py`` gates the
#: compiled backends against.
LEGACY_SCATTER = "legacy-scatter"

_LEGACY_CAPABILITIES = BackendCapabilities(
    bit_identical=True, supports_block=True, thread_safe=True, probed=False
)


class _LegacyScatterKernel:
    """Adapter giving the pre-plan replay the ``CompiledKernel`` surface.

    Binds the schedule/balanced pair the way the old ``executor()``
    closure did; every call re-derives the occupied slots (that per-call
    ``np.nonzero`` is the point — it is the cost the compiled backends
    are measured against).  Values cannot be refreshed in place: there is
    no compiled structure to reuse.
    """

    def __init__(
        self,
        pipeline: "GustPipeline",
        schedule: Schedule,
        balanced: BalancedMatrix,
    ):
        self._pipeline = pipeline
        self._schedule = schedule
        self._balanced = balanced

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._pipeline.execute_scatter(
            self._schedule, self._balanced, x
        )

    def matmat(
        self, dense: np.ndarray, tile_budget: int = DEFAULT_TILE_BUDGET
    ) -> np.ndarray:
        dense = np.asarray(dense, dtype=np.float64)
        schedule, balanced = self._schedule, self._balanced
        m, n = schedule.shape
        if dense.ndim != 2 or dense.shape[0] != n:
            raise HardwareConfigError(
                f"dense operand must be ({n}, k), got {dense.shape}"
            )
        steps, lanes, global_rows = schedule.occupied_slots()
        block = scatter_matmat(
            schedule.m_sch[steps, lanes],
            schedule.col_sch[steps, lanes],
            global_rows,
            m,
            dense,
            tile_budget,
        )
        return balanced.unpermute_output(block)

    def refresh_values(self, plan: ExecutionPlan) -> None:
        raise BackendError(
            "the legacy-scatter baseline replays the schedule arrays "
            "directly and cannot refresh values in place; re-preprocess "
            "instead"
        )


@dataclass(frozen=True)
class PipelineResult:
    """Everything produced by one full preprocess-plus-execute run."""

    y: np.ndarray
    schedule: Schedule
    balanced: BalancedMatrix
    preprocess: PreprocessReport
    cycle_report: CycleReport


class GustPipeline:
    """GUST's hardware/software co-design as a reusable object.

    Args:
        length: accelerator length ``l``.
        algorithm: scheduling policy ("matching", "first_fit", "euler", or
            "naive"); see :data:`repro.core.scheduler.SCHEDULING_ALGORITHMS`.
        load_balance: apply the Section 3.5 three-step balancer (the paper's
            EC/LB configuration).  Ignored for "naive", matching the paper's
            series (Naive has no LB variant).
        validate: run structural validation on every schedule (slow).
        cache: pattern-keyed schedule cache.  Pass a
            :class:`~repro.core.cache.ScheduleCache` (shareable across
            pipelines), ``True`` for a private default-capacity cache, an
            ``int`` for a private cache of that capacity, or ``None``/
            ``False`` (default) to schedule cold every time.
        store: persistent schedule tier.  Pass a
            :class:`~repro.core.store.DiskScheduleStore` (shareable across
            pipelines *and* processes), a directory path, or ``True`` for
            the default store location.  A store implies a memory cache: if
            ``cache`` is unset, a private default-capacity one is created
            to front it; if ``cache`` is an existing :class:`ScheduleCache`
            without a store, the store is attached to it.
        backend: default execution backend for :meth:`compile`,
            :meth:`compile_schedule`, and :meth:`execute` — a name from
            :func:`repro.core.backends.available_backends`, ``"auto"``
            (first bit-identical candidate, honoring the ``GUST_BACKEND``
            environment override), or :data:`LEGACY_SCATTER` for the
            uncompiled pre-plan baseline.
        require_bit_identical: demand exact scatter-oracle reproduction
            from every compile through this pipeline; a backend that
            cannot guarantee it raises
            :class:`~repro.errors.BackendCapabilityError` instead of
            silently drifting to allclose-grade results.
        jobs: worker processes for cold scheduling passes (forwarded to
            :class:`~repro.core.scheduler.GustScheduler`).  ``jobs > 1``
            partitions the window axis across a process pool for very
            large matrices; schedules — and the cache/store artifacts
            written through the usual tiers — are byte-identical to the
            single-process result.
    """

    #: Plans memoized per pipeline (keyed by schedule identity).
    _PLAN_MEMO_CAPACITY = 8

    def __init__(
        self,
        length: int,
        algorithm: str = "matching",
        load_balance: bool = True,
        validate: bool = False,
        cache: ScheduleCache | int | bool | None = None,
        store: DiskScheduleStore | str | Path | bool | None = None,
        backend: str = "auto",
        require_bit_identical: bool = False,
        jobs: int = 1,
    ):
        self.length = length
        self.backend = backend
        self.require_bit_identical = require_bit_identical
        # id() -> (weakref to the schedule, plan): identity keys are only
        # trusted while the schedule object is alive, so a recycled id()
        # can never alias a dead entry.  Guarded by a lock: the serving
        # layer replays one pipeline's plans from many worker threads.
        self._plan_memo: dict[int, tuple] = {}
        # (id(schedule), backend, require) ->
        # (weakref(schedule), token, handle, weakref(balanced)): compiled
        # handles memoized alongside plans so the per-call execute path
        # and re-compiling callers (solvers with a shared cache) pay
        # kernel compilation and the bit-identity probe once per
        # structure: an entry whose schedule is gone still serves as the
        # template for value-refreshed schedules sharing its plan's index
        # arrays (see _refresh_memoized).  ``token`` is the plan (compiled
        # backends) or the BalancedMatrix (legacy) the handle was built
        # against; the balanced weakref makes the common hit a pure
        # identity check.
        self._compiled_memo: dict[tuple, tuple] = {}
        self._plan_lock = threading.Lock()
        self.algorithm = algorithm
        self.load_balance = load_balance and algorithm != "naive"
        self.scheduler = GustScheduler(
            length, algorithm, validate=validate, jobs=jobs
        )
        self._balancer = LoadBalancer(length) if self.load_balance else None
        if store is True:
            store = DiskScheduleStore()
        elif store is False:
            store = None
        elif isinstance(store, (str, Path)):
            store = DiskScheduleStore(directory=store)
        if cache is False and store is not None:
            # The store is only reachable through the memory tier, so this
            # combination would silently never persist anything.
            raise HardwareConfigError(
                "cache=False disables all caching and is incompatible with "
                "a persistent store; drop one of the two arguments"
            )
        if cache is True:
            cache = ScheduleCache(store=store)
        elif cache is False:
            cache = None
        elif isinstance(cache, int):
            cache = ScheduleCache(capacity=cache, store=store)
        elif cache is None and store is not None:
            cache = ScheduleCache(store=store)
        if cache is not None and store is not None and cache.store is None:
            cache.store = store
        self.cache = cache
        self.store = store if store is not None else (
            cache.store if cache is not None else None
        )

    # -- preprocessing -------------------------------------------------------

    def preprocess(
        self, matrix: CooMatrix
    ) -> tuple[Schedule, BalancedMatrix, PreprocessReport]:
        """One-time scheduling of a matrix (the paper's preprocessing phase).

        Returns the schedule, the balanced matrix (identity when load
        balancing is off), and a wall-clock report.  With a cache attached,
        a previously seen pattern skips the coloring entirely: the report's
        ``notes["cache_hit"]`` / ``notes["cache_refresh"]`` flags record
        which path ran, and ``notes["disk_hit"]`` whether the persistent
        tier (rather than process memory) supplied the schedule.
        """
        started = _obs_clock.monotonic()
        cached = None
        if self.cache is not None:
            cached = self.cache.fetch(
                matrix, self.length, self.algorithm, self.load_balance
            )
        if cached is not None:
            return self._served(cached, started)
        with _obs.phase("load_balance"):
            if self._balancer is not None:
                balanced = self._balancer.balance(matrix)
            else:
                balanced = identity_balance(matrix, self.length)
        schedule = self.scheduler.schedule_balanced(balanced)
        if self.cache is not None:
            with _obs.phase("plan_build"):
                plan = self.cache.insert(
                    matrix,
                    self.length,
                    self.algorithm,
                    self.load_balance,
                    schedule,
                    balanced,
                    stalls=self.scheduler.last_stalls,
                )
            if plan is not None:
                self._memoize_plan(schedule, plan)
        elapsed = _obs_clock.monotonic() - started
        if self.cache is not None:
            # The compute tier of the memory -> disk -> compute lookup
            # ladder: what a cold pattern actually cost end to end.
            _obs.default_registry().histogram(
                "gust_cache_lookup_seconds",
                help="Schedule-cache lookup latency by resolving tier.",
            ).observe(elapsed, tier="compute")
        notes = {"stalls": float(self.scheduler.last_stalls)}
        if self.cache is not None:
            notes["cache_hit"] = 0.0
            notes["cache_refresh"] = 0.0
            notes["disk_hit"] = 0.0
        report = PreprocessReport(
            seconds=elapsed,
            windows=schedule.window_count,
            total_colors=schedule.total_colors,
            notes=notes,
        )
        return schedule, balanced, report

    def _served(
        self, cached: CacheLookup, started: float
    ) -> tuple[Schedule, BalancedMatrix, PreprocessReport]:
        """The :meth:`preprocess` result for a lookup the cache served."""
        self.scheduler.last_stalls = cached.stalls
        if cached.plan is not None:
            self._memoize_plan(cached.schedule, cached.plan)
        report = PreprocessReport(
            seconds=_obs_clock.monotonic() - started,
            windows=cached.schedule.window_count,
            total_colors=cached.schedule.total_colors,
            notes={
                "stalls": float(cached.stalls),
                "cache_hit": 0.0 if cached.refreshed else 1.0,
                "cache_refresh": 1.0 if cached.refreshed else 0.0,
                "disk_hit": 1.0 if cached.from_disk else 0.0,
            },
        )
        return cached.schedule, cached.balanced, report

    def pattern_key(self, matrix: CooMatrix) -> bytes | None:
        """``matrix``'s cache key under this pipeline's configuration, for
        :meth:`refresh`; ``None`` without a cache."""
        if self.cache is None:
            return None
        return self.cache.pattern_key(
            matrix, self.length, self.algorithm, self.load_balance
        )

    def refresh(
        self,
        key: bytes,
        data: np.ndarray,
        require_bit_identical: bool | None = None,
    ) -> CompiledSpmv | None:
        """:meth:`compile` by :meth:`pattern_key`, for a pattern the caller
        keeps: ``data`` holds the new values in the pattern's entry order.
        ``None`` without a cache or once the entry has left it."""
        if self.cache is None:
            return None
        started = _obs_clock.monotonic()
        cached = self.cache.refresh(key, data)
        if cached is None:
            return None
        schedule, balanced, report = self._served(cached, started)
        handle = self.compile_schedule(
            schedule, balanced, require_bit_identical=require_bit_identical
        )
        handle.stats.preprocess = report
        return handle

    def preprocess_stats(
        self, matrix: CooMatrix
    ) -> tuple[CycleReport, PreprocessReport]:
        """Cycle statistics without building the schedule arrays.

        Equivalent to :meth:`preprocess` + :meth:`cycle_report` but O(nnz)
        memory, which matters for the naive policy on dense inputs.
        """
        started = _obs_clock.monotonic()
        if self._balancer is not None:
            balanced = self._balancer.balance(matrix)
        else:
            balanced = identity_balance(matrix, self.length)
        counts = self.scheduler.color_counts(balanced)
        elapsed = _obs_clock.monotonic() - started
        total = int(sum(counts))
        cycles = total + PIPELINE_FILL_CYCLES if matrix.nnz else 0
        cycle_report = CycleReport(
            cycles=cycles,
            useful_ops=2 * matrix.nnz,
            total_units=2 * self.length,
            stalls=self.scheduler.last_stalls,
        )
        preprocess = PreprocessReport(
            seconds=elapsed,
            windows=len(counts),
            total_colors=total,
            notes={"stalls": float(self.scheduler.last_stalls)},
        )
        return cycle_report, preprocess

    # -- execution -----------------------------------------------------------

    def _memoize_plan(self, schedule: Schedule, plan: ExecutionPlan) -> None:
        """Remember a compiled plan for this schedule object's lifetime."""
        with self._plan_lock:
            self._plan_memo[id(schedule)] = (weakref.ref(schedule), plan)
            while len(self._plan_memo) > self._PLAN_MEMO_CAPACITY:
                self._plan_memo.pop(next(iter(self._plan_memo)))

    def plan_for(
        self, schedule: Schedule, balanced: BalancedMatrix
    ) -> ExecutionPlan:
        """The prepared :class:`ExecutionPlan` for a schedule, compiled once.

        Plans are memoized per schedule object (and pre-seeded by the
        schedule cache, whose entries carry their plan), so iterative
        callers — solvers, SpMM column streams — pay the structural sort
        exactly once and every subsequent call is a dictionary lookup.
        A memoized plan is only served for the ``balanced`` it was
        compiled against: pairing the schedule with a different row
        permutation recompiles, preserving the scatter path's contract.

        Thread-safe: the memo is lock-guarded, and a rare concurrent
        compile of the same schedule is benign (identical plans; last
        writer's is memoized).
        """
        with self._plan_lock:
            memoized = self._plan_memo.get(id(schedule))
        if memoized is not None and memoized[0]() is schedule:
            plan = memoized[1]
            # Identity check first: every internal producer hands the
            # plan and the BalancedMatrix the same row_perm array, so the
            # O(m) comparison only runs for exotic caller pairings.
            if plan.row_perm is balanced.row_perm or np.array_equal(
                plan.row_perm, balanced.row_perm
            ):
                return plan
        plan = ExecutionPlan.from_schedule(schedule, row_perm=balanced.row_perm)
        if validation_enabled():
            plan.validate()
        self._memoize_plan(schedule, plan)
        return plan

    def compile_schedule(
        self,
        schedule: Schedule,
        balanced: BalancedMatrix,
        backend: str | None = None,
        require_bit_identical: bool | None = None,
    ) -> CompiledSpmv:
        """Compile an already-preprocessed schedule onto a backend.

        The :class:`~repro.core.compiled.CompiledSpmv` handle is memoized
        per (schedule, backend, requirement) for the schedule object's
        lifetime — kernel compilation and the bit-identity probe run once,
        every subsequent call is a dictionary lookup.  A value-refreshed
        schedule (a new object from the cache's refresh path) whose plan
        shares its index structure with a memoized handle's plan gets a
        *new* handle built from a copy of that handle's kernel with the
        new values swapped in: no recompile, no probe (the verdict is
        structural), and handles returned earlier keep replaying their
        own values.  Safe to share across threads for every built-in
        backend.
        """
        backend = backend if backend is not None else self.backend
        require = (
            require_bit_identical
            if require_bit_identical is not None
            else self.require_bit_identical
        )
        key = (id(schedule), backend, require)
        with self._plan_lock:
            memoized = self._compiled_memo.get(key)
        if memoized is not None and memoized[0]() is schedule:
            token, handle = memoized[1], memoized[2]
            # Steady-state hit: the exact (schedule, balanced) pair the
            # handle was compiled for — two identity checks, no plan_for
            # lookup.  This is the per-call cost of ``execute``.
            if memoized[3]() is balanced:
                return handle
            # Same schedule, different BalancedMatrix object: fall back
            # to the plan-token comparison, which recompiles when the
            # pairing carries a different row permutation.
            if backend == LEGACY_SCATTER:
                if token is balanced:
                    return handle
            elif token is self.plan_for(schedule, balanced):
                return handle
        handle = None
        if backend != LEGACY_SCATTER:
            handle = self._refresh_memoized(
                self.plan_for(schedule, balanced), backend, require
            )
        if handle is None:
            handle = self._compile_uncached(
                schedule, balanced, backend, require
            )
        token = balanced if backend == LEGACY_SCATTER else handle.plan
        with self._plan_lock:
            self._compiled_memo[key] = (
                weakref.ref(schedule),
                token,
                handle,
                weakref.ref(balanced),
            )
            while len(self._compiled_memo) > self._PLAN_MEMO_CAPACITY:
                self._compiled_memo.pop(next(iter(self._compiled_memo)))
        return handle

    def _refresh_memoized(
        self, plan: ExecutionPlan, backend: str, require: bool
    ) -> CompiledSpmv | None:
        """A handle for ``plan`` derived from a memoized handle, if any
        shares its structure (``ExecutionPlan.with_values`` hands out the
        index arrays by identity); ``None`` when ``plan`` needs a compile.

        The memoized handle is copied, never mutated.  Its entry is
        dropped once its schedule is gone: the caller memoizes the new
        handle, which serves the same structure from then on.
        """
        started = _obs_clock.monotonic()
        with self._plan_lock:
            entries = list(self._compiled_memo.items())
        for key, (schedule_ref, _, template, _) in reversed(entries):
            if (
                key[1:] != (backend, require)
                or template.plan is None
                or not template.plan.shares_structure(plan)
            ):
                continue
            handle = template.with_plan(plan)
            handle.stats.compile_seconds = _obs_clock.monotonic() - started
            if schedule_ref() is None:
                with self._plan_lock:
                    self._compiled_memo.pop(key, None)
            return handle
        return None

    def _compile_uncached(
        self,
        schedule: Schedule,
        balanced: BalancedMatrix,
        backend: str,
        require: bool,
    ) -> CompiledSpmv:
        started = _obs_clock.monotonic()
        if backend == LEGACY_SCATTER:
            kernel = _LegacyScatterKernel(self, schedule, balanced)
            stats = CompiledStats(
                backend=LEGACY_SCATTER,
                capabilities=_LEGACY_CAPABILITIES,
                bit_identical=True,
                probe_verdict=None,
                shape=schedule.shape,
                nnz=schedule.nnz,
                segments=0,
                length=self.length,
                cycles_per_replay=schedule.execution_cycles,
                compile_seconds=_obs_clock.monotonic() - started,
            )
            return CompiledSpmv(kernel, LEGACY_SCATTER, stats, plan=None)
        plan = self.plan_for(schedule, balanced)
        compiled = compile_plan(
            plan, backend=backend, require_bit_identical=require
        )
        stats = CompiledStats(
            backend=compiled.name,
            capabilities=compiled.capabilities,
            bit_identical=compiled.bit_identical,
            probe_verdict=compiled.probe_verdict,
            shape=plan.shape,
            nnz=plan.nnz,
            segments=plan.segments,
            length=self.length,
            cycles_per_replay=schedule.execution_cycles,
            compile_seconds=_obs_clock.monotonic() - started,
        )
        return CompiledSpmv(compiled.kernel, compiled.name, stats, plan=plan)

    def compile(
        self,
        matrix: CooMatrix,
        backend: str | None = None,
        require_bit_identical: bool | None = None,
    ) -> CompiledSpmv:
        """Preprocess ``matrix`` and compile it onto an execution backend.

        The main entry point of the redesigned API: schedule once (through
        whatever cache tiers this pipeline carries), compile once, then
        replay through the returned handle's ``matvec``/``matmat`` as many
        times as the workload wants.  The handle's ``stats.preprocess``
        records which cache path served the scheduling pass.
        """
        schedule, balanced, report = self.preprocess(matrix)
        handle = self.compile_schedule(
            schedule,
            balanced,
            backend=backend,
            require_bit_identical=require_bit_identical,
        )
        handle.stats.preprocess = report
        return handle

    def execute(
        self, schedule: Schedule, balanced: BalancedMatrix, x: np.ndarray
    ) -> np.ndarray:
        """Fast vectorized replay of a schedule (not cycle-accurate).

        Numerically identical to the machine: one product per occupied slot,
        accumulated into its destination row, then un-permuted.  Runs
        through the memoized :class:`~repro.core.compiled.CompiledSpmv`
        handle for this pipeline's backend (compile once, replay many);
        ``backend="legacy-scatter"`` selects :meth:`execute_scatter`.
        """
        if self.backend == LEGACY_SCATTER:
            return self.execute_scatter(schedule, balanced, x)
        # The replay hot loop: with tracing disabled this span is the
        # shared no-op (one ambient lookup, no allocation) — the bench
        # gates the whole path at <=3% over the bare kernel.
        with _trace.span("replay.execute"):
            return self.compile_schedule(schedule, balanced).matvec(x)

    def execute_scatter(
        self, schedule: Schedule, balanced: BalancedMatrix, x: np.ndarray
    ) -> np.ndarray:
        """The pre-plan replay: per-call ``np.nonzero`` plus ``np.add.at``.

        Kept verbatim as the reference baseline ``benchmarks/
        bench_replay_throughput.py`` gates the plan path against (>= 3x)
        and the bit-identity oracle for plan replay tests.
        """
        x = np.asarray(x, dtype=np.float64)
        m, n = schedule.shape
        if x.shape != (n,):
            raise HardwareConfigError(
                f"vector length {x.shape} incompatible with shape {schedule.shape}"
            )
        steps, lanes, global_rows = schedule.occupied_slots()
        products = schedule.m_sch[steps, lanes] * x[schedule.col_sch[steps, lanes]]
        y_permuted = np.zeros(m, dtype=np.float64)
        # The one sanctioned registry bypass: this *is* the pre-plan
        # baseline the registry backends are benchmarked against.
        np.add.at(y_permuted, global_rows, products)  # lint: disable=R1
        return balanced.unpermute_output(y_permuted)

    def execute_cycle_accurate(
        self, schedule: Schedule, balanced: BalancedMatrix, x: np.ndarray
    ) -> tuple[np.ndarray, MachineResult]:
        """Run the cycle-accurate machine; returns (y, machine result)."""
        machine = GustMachine(self.length)
        result = machine.run(schedule, np.asarray(x, dtype=np.float64))
        return balanced.unpermute_output(result.y_permuted), result

    def cycle_report(self, schedule: Schedule) -> CycleReport:
        """Analytic cycle/utilization report for a schedule.

        Each scheduled nonzero performs one multiply and one accumulate, on
        a datapath of ``l`` multipliers plus ``l`` adders.
        """
        return CycleReport(
            cycles=schedule.execution_cycles,
            useful_ops=2 * schedule.nnz,
            total_units=2 * self.length,
            stalls=self.scheduler.last_stalls,
        )

    # -- convenience -----------------------------------------------------------

    def spmv(self, matrix: CooMatrix, x: np.ndarray) -> PipelineResult:
        """Preprocess + execute in one call."""
        schedule, balanced, report = self.preprocess(matrix)
        y = self.execute(schedule, balanced, x)
        return PipelineResult(
            y=y,
            schedule=schedule,
            balanced=balanced,
            preprocess=report,
            cycle_report=self.cycle_report(schedule),
        )
