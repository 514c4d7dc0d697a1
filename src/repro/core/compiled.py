"""``CompiledSpmv``: the compiled-operator handle the public API returns.

The paper's deployment model is *schedule once, replay everywhere*.  This
module is the "replay everywhere" half as one object:
``GustPipeline.compile(matrix, backend="auto")`` returns a
:class:`CompiledSpmv` carrying

* ``matvec(x)`` / ``matmat(B)`` — replay through the resolved
  :mod:`~repro.core.backends` kernel;
* ``refresh_values(...)`` — same pattern, new values, in place: one
  O(nnz) gather over the compiled structure (the Jacobian/Hessian case),
  no recompile; ``with_plan(plan)`` does the same on a new handle and
  leaves this one untouched (the pipeline's memo uses it on a cache
  value refresh);
* ``backend_name`` / ``stats`` — which backend was chosen and what it
  guarantees (capability flags, probe verdict, plan sizes, compile and
  preprocessing cost).

Solvers bind a handle once and iterate; the serving layer pins one per
tenant; benchmarks gate through it.  The handle replaces the old scatter
of ``use_plans=`` kwargs and direct ``ExecutionPlan.execute*`` call
sites.

Thread-safety: replay methods are safe to share when the backend declares
``thread_safe`` (all built-ins do).  ``refresh_values`` swaps value
streams atomically — concurrent replays observe the old or the new
values, never a mixture — but interleaving refreshes with replays still
means a caller cannot know *which* stream a given result used; quiesce or
version externally if that matters.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.backends.base import BackendCapabilities, CompiledKernel
from repro.core.plan import DEFAULT_TILE_BUDGET, ExecutionPlan
from repro.errors import BackendError
from repro.types import PreprocessReport


@dataclass
class CompiledStats:
    """What one compile resolved to, and what it cost.

    ``bit_identical`` is the *effective* guarantee: the backend's declared
    flag, downgraded by a failed probe for ``probed`` backends.
    ``probe_verdict`` is ``None`` when no probe ran.
    """

    backend: str
    capabilities: BackendCapabilities
    bit_identical: bool
    probe_verdict: bool | None
    shape: tuple[int, int]
    nnz: int
    segments: int
    length: int
    #: Analytic accelerator cycles for one replay of the schedule.
    cycles_per_replay: int
    compile_seconds: float
    #: Scheduling report when the handle came from ``compile(matrix)``;
    #: updated on every compile call that served this handle from memo.
    preprocess: PreprocessReport | None = field(default=None, repr=False)


class CompiledSpmv:
    """A matrix compiled onto one execution backend, ready to replay.

    Produced by :meth:`GustPipeline.compile` /
    :meth:`GustPipeline.compile_schedule`; not constructed directly.
    """

    def __init__(
        self,
        kernel: CompiledKernel,
        backend_name: str,
        stats: CompiledStats,
        plan: ExecutionPlan | None,
    ):
        self._kernel = kernel
        self.backend_name = backend_name
        self.stats = stats
        #: The compiled plan (``None`` for the uncompiled ``legacy-scatter``
        #: baseline, which replays straight off the schedule arrays).
        self.plan = plan

    # -- replay --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.stats.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """One SpMV replay; ``y`` in original row order."""
        return self._kernel.matvec(x)

    def matmat(
        self, dense: np.ndarray, tile_budget: int = DEFAULT_TILE_BUDGET
    ) -> np.ndarray:
        """SpMM replay of a dense ``(n, k)`` block; returns ``(m, k)``."""
        return self._kernel.matmat(dense, tile_budget=tile_budget)

    __call__ = matvec

    # -- value refresh -------------------------------------------------------

    def refresh_values(self, balanced_data: np.ndarray) -> None:
        """Swap in new values for the same sparsity pattern, in place.

        ``balanced_data`` is the balanced-order value stream of a matrix
        with exactly this handle's pattern (what
        :meth:`ExecutionPlan.with_values` consumes).  One O(nnz) gather;
        the backend kernel reuses every structural artifact of the
        original compile.
        """
        if self.plan is None:
            raise BackendError(
                f"backend {self.backend_name!r} replays the schedule "
                f"arrays directly and cannot refresh values in place; "
                f"re-preprocess instead"
            )
        self.refresh_from_plan(self.plan.with_values(balanced_data))

    def refresh_from_plan(self, plan: ExecutionPlan) -> None:
        """In-place refresh from an already value-refreshed plan.

        The cache tiers hand refreshed plans out directly
        (:meth:`ScheduleCache.fetch` on a value change), so callers
        sitting on one — the serving registry re-registering a tenant —
        skip the gather in :meth:`refresh_values`.
        """
        if self.plan is None:
            raise BackendError(
                f"backend {self.backend_name!r} cannot refresh values in "
                f"place; re-preprocess instead"
            )
        self._kernel.refresh_values(plan)
        self.plan = plan

    def with_plan(self, plan: ExecutionPlan) -> "CompiledSpmv":
        """A new handle for a value-refreshed ``plan``; this one is untouched.

        ``plan`` must share this handle's structure (as
        :meth:`ExecutionPlan.with_values` produces).  The new kernel is a
        shallow copy of this one with the values refreshed; kernels rebind
        rather than write on refresh, so this handle keeps its values.  The
        backend choice and probe verdict carry over: bit-identity depends
        on the accumulation order, which is structural.
        """
        if self.plan is None:
            raise BackendError(
                f"backend {self.backend_name!r} cannot refresh values; "
                f"re-preprocess instead"
            )
        kernel = copy.copy(self._kernel)
        kernel.refresh_values(plan)
        stats = replace(self.stats, preprocess=None)
        return CompiledSpmv(kernel, self.backend_name, stats, plan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        m, n = self.shape
        return (
            f"<CompiledSpmv {m}x{n} nnz={self.stats.nnz} "
            f"backend={self.backend_name!r} "
            f"bit_identical={self.stats.bit_identical}>"
        )
