"""Named-tenant matrix registry: preprocess once, pin the plan, serve.

A serving fleet's tenants are sparsity patterns: each registered matrix is
scheduled exactly once — through the existing two-tier
:class:`~repro.core.cache.ScheduleCache` /
:class:`~repro.core.store.DiskScheduleStore`, so a warm store turns
registration into a file read — and pinned to its prepared
:class:`~repro.core.plan.ExecutionPlan` plus a compiled
:class:`~repro.core.spmm.StackedReplay` batch kernel.  Everything a worker
thread touches afterwards (plan, kernel, executor) is immutable, so the
steady-state serving path takes no registry lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.cache import CacheStats, ScheduleCache
from repro.core.compiled import CompiledSpmv
from repro.core.load_balance import BalancedMatrix
from repro.core.pipeline import GustPipeline
from repro.core.plan import ExecutionPlan
from repro.core.schedule import Schedule
from repro.core.spmm import StackedReplay
from repro.core.store import DiskScheduleStore
from repro.errors import ServeError
from repro.sparse.coo import CooMatrix
from repro.types import PreprocessReport


@dataclass(frozen=True)
class RegisteredMatrix:
    """One tenant: a scheduled matrix pinned to its replay machinery."""

    name: str
    matrix: CooMatrix
    pipeline: GustPipeline
    schedule: Schedule
    balanced: BalancedMatrix
    #: The prepared per-request replay (the plan the tenant is pinned to).
    plan: ExecutionPlan
    #: The compiled per-request handle (bit-identity required at compile).
    compiled: CompiledSpmv
    #: The compiled batched-replay kernel (bit-identical to ``plan``).
    stacked: StackedReplay
    preprocess: PreprocessReport

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Single-request reference replay through the pinned handle."""
        return self.compiled.matvec(x)


class MatrixRegistry:
    """Thread-safe registry of named matrices sharing one schedule cache.

    Args:
        cache: shared memory tier — a :class:`ScheduleCache`, a capacity
            ``int``, or ``None`` for a default-capacity private cache.
        store: optional persistent tier (a :class:`DiskScheduleStore`, a
            directory path, or ``True`` for the default location); a fleet
            of servers pointing at one directory shares schedules across
            processes.
        length / algorithm / load_balance: scheduling defaults for
            :meth:`register`, overridable per tenant.
    """

    def __init__(
        self,
        cache: ScheduleCache | int | None = None,
        store: DiskScheduleStore | str | Path | bool | None = None,
        length: int = 64,
        algorithm: str = "matching",
        load_balance: bool = True,
    ):
        if isinstance(cache, int):
            cache = ScheduleCache(capacity=cache)
        self.cache = cache if cache is not None else ScheduleCache()
        self.store = store
        self.default_length = length
        self.default_algorithm = algorithm
        self.default_load_balance = load_balance
        self._lock = threading.Lock()
        self._entries: dict[str, RegisteredMatrix] = {}

    def register(
        self,
        name: str,
        matrix: CooMatrix,
        length: int | None = None,
        algorithm: str | None = None,
        load_balance: bool | None = None,
        force_numpy_backend: bool = False,
        replace: bool = False,
    ) -> RegisteredMatrix:
        """Schedule ``matrix`` under ``name`` and pin its execution plan.

        Preprocessing runs through the shared cache tiers: re-registering
        a pattern another tenant (or a previous process, with a store
        attached) already scheduled costs a cache hit, and a re-register
        of the same pattern with fresh values costs only the value
        refresh.  ``force_numpy_backend`` pins the batch kernel to the
        NumPy fallback (useful for tests and for comparing backends).

        Raises :class:`~repro.errors.ServeError` when ``name`` is already
        taken and ``replace`` is false — checked up front so a duplicate
        costs O(1), not a full scheduling pass (the install re-checks, so
        two threads racing on one name still cannot both win).

        Re-registering a tenant with the *same sparsity pattern* and new
        values (the live-model-update case: a re-assembled Jacobian, a
        reweighted graph) rides the schedule cache's value refresh all the
        way down: the refreshed plan shares its structure with the pinned
        one, so the existing batch kernel re-gathers its value stream in
        place (:meth:`StackedReplay.refresh_from_plan`) instead of
        recompiling the CSR, and the per-request handle refreshes the same
        way.
        """
        if not replace:
            with self._lock:
                if name in self._entries:
                    raise ServeError(
                        f"matrix name {name!r} is already registered; pass "
                        f"replace=True to swap it"
                    )
        pipeline = GustPipeline(
            length if length is not None else self.default_length,
            algorithm=(
                algorithm if algorithm is not None else self.default_algorithm
            ),
            load_balance=(
                load_balance
                if load_balance is not None
                else self.default_load_balance
            ),
            cache=self.cache,
            store=self.store,
            # The serving contract is exactness: every batched column must
            # reproduce the per-request replay bit for bit, so an
            # allclose-only backend can never be selected here.
            require_bit_identical=True,
        )
        schedule, balanced, report = pipeline.preprocess(matrix)
        plan = pipeline.plan_for(schedule, balanced)

        def build_entry(compiled, stacked):
            return RegisteredMatrix(
                name=name,
                matrix=matrix,
                pipeline=pipeline,
                schedule=schedule,
                balanced=balanced,
                plan=plan,
                compiled=compiled,
                stacked=stacked,
                preprocess=report,
            )

        if replace:
            # Same pattern, (possibly) new values: refresh the pinned
            # kernels in place instead of recompiling them.  Checked,
            # refreshed, and installed under ONE lock acquisition — the
            # kernels are shared with the live entry, so two racing
            # re-registrations must not interleave their value swaps
            # (and a reader must never see the swap without the new
            # entry installed, or vice versa, mid-register).
            with self._lock:
                previous = self._entries.get(name)
                if previous is not None and plan.shares_structure(
                    previous.plan
                ):
                    compiled = previous.compiled
                    stacked = previous.stacked
                    if plan is not compiled.plan:
                        compiled.refresh_from_plan(plan)
                    if force_numpy_backend:
                        if stacked.backend != "bincount":
                            stacked = StackedReplay(plan, force_numpy=True)
                        elif plan is not stacked.plan:
                            stacked.refresh_from_plan(plan)
                    elif stacked._kernel is compiled._kernel:
                        # Shared kernel: already refreshed through the
                        # handle above — just retag the wrapper's plan.
                        stacked.plan = plan
                    else:
                        # Previously pinned (force_numpy) but the pin was
                        # dropped: restore the default kernel sharing, the
                        # same state a fresh registration would produce.
                        stacked = StackedReplay.from_compiled(compiled)
                    entry = build_entry(compiled, stacked)
                    self._entries[name] = entry
                    return entry

        # Fresh pattern (or first registration): compile outside the lock
        # — scheduling already ran there, and kernel compilation can cost
        # O(nnz).  The per-request handle's kernel serves batches too, so
        # the batch wrapper shares it instead of compiling a second CSR.
        compiled = pipeline.compile_schedule(schedule, balanced)
        if force_numpy_backend:
            stacked = StackedReplay(plan, force_numpy=True)
        else:
            stacked = StackedReplay.from_compiled(compiled)
        entry = build_entry(compiled, stacked)
        with self._lock:
            if not replace and name in self._entries:
                raise ServeError(
                    f"matrix name {name!r} is already registered; pass "
                    f"replace=True to swap it"
                )
            self._entries[name] = entry
        return entry

    def get(self, name: str) -> RegisteredMatrix:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                known = sorted(self._entries) or "none"
                raise ServeError(
                    f"unknown matrix {name!r}; registered: {known}"
                )
        return entry

    def unregister(self, name: str) -> None:
        with self._lock:
            if self._entries.pop(name, None) is None:
                raise ServeError(f"unknown matrix {name!r}")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    @property
    def cache_stats(self) -> CacheStats:
        """Counters of the shared schedule cache (both tiers)."""
        return self.cache.stats
