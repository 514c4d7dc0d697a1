"""The ``ReplayBackend`` protocol: one contract for every execution path.

The repository grew four ways to execute a compiled schedule — ``np.add.at``
scatter, ``np.bincount`` segment reduction, ``np.add.reduceat`` block
reduction, and scipy CSR — selected by an ad-hoc mix of ``use_plans=``
kwargs and hardcoded call sites.  This module defines the single pluggable
contract they all implement, mirroring how RACE (Alappat et al.) and the
GPU SpMV literature structure their systems: one coloring/preprocessing
front end over interchangeable, capability-tagged execution kernels.

A :class:`ReplayBackend` compiles an immutable
:class:`~repro.core.plan.ExecutionPlan` into a :class:`CompiledKernel`
(``compile(plan) -> kernel``).  The kernel exposes:

* ``matvec(x)`` — one SpMV replay, result in original row order;
* ``matmat(dense)`` — SpMM replay over a dense ``(n, k)`` block;
* ``refresh_values(plan)`` — swap in a value-refreshed plan *in place*,
  reusing every structural artifact of the original compile (sort order,
  CSR layout, scipy index arrays): the structure is value-independent,
  so a Jacobian/Hessian refresh never pays a recompile.

Capabilities are declared, not discovered: :class:`BackendCapabilities`
tags each backend with ``bit_identical`` (strictly sequential per-row
accumulation, reproducing the scatter oracle bit for bit),
``supports_block`` (native ``matmat``), and ``thread_safe`` (one compiled
kernel may be replayed concurrently).  A backend with ``probed=True``
(scipy, whose accumulation order is an implementation detail of someone
else's kernel) must have its ``bit_identical`` claim re-verified per
compile by the registry's probe — see
:func:`repro.core.backends.registry.probe_bit_identity`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.plan import DEFAULT_TILE_BUDGET, ExecutionPlan
from repro.errors import HardwareConfigError, ScheduleError


@dataclass(frozen=True)
class BackendCapabilities:
    """Capability flags advertised by a :class:`ReplayBackend`.

    Attributes:
        bit_identical: replay accumulates each destination row strictly
            sequentially in plan slot order, so results reproduce the
            ``np.add.at`` scatter oracle bit for bit.  ``False`` means
            results are only numerically close (``allclose``-grade) — the
            NumPy >= 2.x ``np.add.reduceat`` hazard.
        supports_block: ``matmat`` is implemented natively (every shipped
            backend supports it; a future GPU segment-reduce backend may
            not).
        thread_safe: one compiled kernel may be shared across threads —
            replay touches no unguarded mutable state.
        probed: the ``bit_identical`` claim depends on a third-party
            kernel's accumulation order and must be confirmed per compile
            by the registry's bit-identity probe before it is trusted.
    """

    bit_identical: bool
    supports_block: bool
    thread_safe: bool
    probed: bool = False

    def describe(self) -> str:
        """Compact human-readable flag string (used by ``repro backends``)."""
        flags = []
        if self.bit_identical:
            flags.append("bit-identical" + ("(probed)" if self.probed else ""))
        else:
            flags.append("allclose-only")
        if self.supports_block:
            flags.append("block")
        if self.thread_safe:
            flags.append("thread-safe")
        return ",".join(flags)


class CompiledKernel(abc.ABC):
    """One plan compiled for one backend: the replay-ready object.

    Kernels hold the compiled plan plus whatever structural artifacts the
    backend derived from it (a scipy CSR matrix, a cached gather order).
    They are cheap to call and safe to share when the backend declares
    ``thread_safe``; mutation is limited to :meth:`refresh_values`, which
    swaps the value stream while reusing all structure.
    """

    def __init__(self, plan: ExecutionPlan):
        self._plan = plan

    @property
    def plan(self) -> ExecutionPlan:
        """The (possibly value-refreshed) plan this kernel replays."""
        return self._plan

    @property
    def shape(self) -> tuple[int, int]:
        return self._plan.shape

    # -- replay --------------------------------------------------------------

    @abc.abstractmethod
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """One SpMV replay; returns ``y`` in original row order."""

    @abc.abstractmethod
    def matmat(
        self, dense: np.ndarray, tile_budget: int = DEFAULT_TILE_BUDGET
    ) -> np.ndarray:
        """SpMM replay over a dense ``(n, k)`` operand; returns ``(m, k)``.

        ``tile_budget`` bounds the per-tile product temporary (in
        elements) for backends that materialize one; backends that stream
        (scipy) ignore it.
        """

    # -- value refresh -------------------------------------------------------

    def refresh_values(self, plan: ExecutionPlan) -> None:
        """Swap in a value-refreshed plan, reusing the compiled structure.

        ``plan`` must share this kernel's structure — in practice it comes
        from :meth:`ExecutionPlan.with_values`, which replaces only the
        value array and shares the index arrays by identity.  The swap is
        a single reference assignment (atomic in CPython), so concurrent
        replays observe either the old or the new value stream, never a
        mixture; backends with derived value storage override
        :meth:`_refresh_compiled` to rebuild it (still structure-reusing).
        """
        self._check_same_structure(plan)
        self._refresh_compiled(plan)
        self._plan = plan

    def _refresh_compiled(self, plan: ExecutionPlan) -> None:
        """Hook for backends with derived value storage (scipy CSR data).

        Must rebind rather than write in place: ``CompiledSpmv.with_plan``
        refreshes a shallow copy of the kernel and relies on the original
        keeping its values.
        """

    def _check_same_structure(self, plan: ExecutionPlan) -> None:
        old = self._plan
        if plan.shape != old.shape or plan.nnz != old.nnz:
            raise ScheduleError(
                f"refreshed plan has shape {plan.shape}/{plan.nnz} slots, "
                f"kernel was compiled for {old.shape}/{old.nnz}; pattern "
                f"changed, recompile instead"
            )
        # Identity first: ExecutionPlan.with_values shares the index arrays
        # of its source, so the O(nnz) comparisons only run for exotic
        # caller pairings (e.g. a plan recompiled from a warm store).
        # Both index arrays matter — a plan with matching rows but moved
        # source columns is a different matrix, and a backend with derived
        # structure (scipy's CSR indices) would silently keep the old one.
        for name, new, old_arr in (
            ("rows", plan.rows, old.rows),
            ("sources", plan.sources, old.sources),
        ):
            if new is not old_arr and not np.array_equal(new, old_arr):
                raise ScheduleError(
                    f"refreshed plan does not share this kernel's "
                    f"structure ({name} differ); pattern changed, "
                    f"recompile instead"
                )

    # -- shared validation ---------------------------------------------------

    def _as_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        _, n = self._plan.shape
        if x.shape != (n,):
            raise HardwareConfigError(
                f"vector length {x.shape} incompatible with shape "
                f"{self._plan.shape}"
            )
        return x

    def _as_block(self, dense: np.ndarray) -> np.ndarray:
        dense = np.asarray(dense, dtype=np.float64)
        _, n = self._plan.shape
        if dense.ndim != 2 or dense.shape[0] != n:
            raise HardwareConfigError(
                f"dense operand must be ({n}, k), got {dense.shape}"
            )
        return dense


class ReplayBackend(abc.ABC):
    """A named, capability-tagged compiler from plans to kernels."""

    #: Registry name (``"scatter"``, ``"bincount"``, ``"reduceat"``,
    #: ``"scipy"``, ...).
    name: str
    #: Declared capability flags; see :class:`BackendCapabilities`.
    capabilities: BackendCapabilities

    def available(self) -> bool:
        """Whether the backend's runtime dependencies are importable."""
        return True

    @abc.abstractmethod
    def compile(self, plan: ExecutionPlan) -> CompiledKernel:
        """Compile ``plan`` into a replay-ready kernel."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"[{self.capabilities.describe()}]>"
        )
