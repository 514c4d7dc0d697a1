"""Request batching: coalesce concurrent SpMV requests into SpMM tiles.

k concurrent requests against one registered matrix are algebraically an
SpMM — k replays of a single schedule, the paper's parallel-GUST
arrangement — so the batcher stacks them into one right-hand-side block
and executes the block through the tenant's compiled
:class:`~repro.core.spmm.StackedReplay` kernel, bit-identical to
per-request replay.

Admission policy (:class:`BatchPolicy`), work-conserving:

* an idle worker takes what is queued at once — up to ``max_batch``
  requests from the queue whose head is oldest.  A worker waits only
  when every queue is empty, so no request waits on a timer while a
  worker sleeps; batches form from the requests that arrive while every
  worker is busy;
* each per-matrix queue is bounded at ``max_queue``; a submit against a
  full queue raises :class:`~repro.errors.QueueFullError` synchronously —
  backpressure reaches the client instead of growing memory inside the
  server.

The batcher owns queues and admission only; threads live in
:class:`~repro.serve.server.SpmvServer`, which drains batches via
:meth:`RequestBatcher.take_batch` and executes them with
:func:`run_batch`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import faults as _faults
from repro.obs import clock as _obs_clock
from repro.obs import trace as _trace
from repro.errors import (
    HardwareConfigError,
    InjectedFaultError,
    QueueFullError,
    ServeError,
)
from repro.serve.registry import RegisteredMatrix


@dataclass(frozen=True)
class BatchPolicy:
    """Admission policy for :class:`RequestBatcher`.

    Args:
        max_batch: largest stacked right-hand side executed as one block.
        max_queue: per-matrix queue bound; submits beyond it are rejected.
    """

    max_batch: int = 16
    max_queue: int = 256

    def __post_init__(self):
        if self.max_batch <= 0:
            raise HardwareConfigError(
                f"max_batch must be positive, got {self.max_batch}"
            )
        if self.max_queue < self.max_batch:
            raise HardwareConfigError(
                f"max_queue ({self.max_queue}) must be >= max_batch "
                f"({self.max_batch})"
            )


@dataclass
class SpmvRequest:
    """One queued request: operand, future, enqueue time, and deadline.

    ``deadline`` is an absolute instant on the batcher's clock (``None``
    means no deadline); the worker that dequeues an expired request fails
    it with :class:`~repro.errors.DeadlineExceededError` without running
    the kernel.
    """

    x: np.ndarray
    future: Future = field(default_factory=Future)
    enqueued: float = field(default_factory=_obs_clock.monotonic)
    deadline: float | None = None


class RequestBatcher:
    """Per-matrix bounded queues drained by work-conserving admission.

    Args:
        policy: admission policy (defaults to :class:`BatchPolicy`).
        clock: monotonic time source; injectable so deadline arithmetic is
            testable without sleeping.  Defaults to the shared obs clock
            seam (:data:`repro.obs.clock.monotonic`), the same time base
            the circuit breakers and metrics use.
    """

    def __init__(
        self,
        policy: BatchPolicy | None = None,
        clock=None,
    ):
        self.policy = policy or BatchPolicy()
        self.clock = clock or _obs_clock.monotonic
        self._cond = threading.Condition()
        self._queues: dict[str, deque[SpmvRequest]] = {}
        self._entries: dict[str, RegisteredMatrix] = {}
        self._accepting = True

    # -- admission -----------------------------------------------------------

    def bind(self, entry: RegisteredMatrix) -> None:
        """Open (or refresh) the queue for one registered matrix."""
        with self._cond:
            self._entries[entry.name] = entry
            self._queues.setdefault(entry.name, deque())

    def submit(
        self,
        entry: RegisteredMatrix,
        x: np.ndarray,
        deadline: float | None = None,
    ) -> Future:
        """Enqueue one request; returns its future.

        Shape/dtype validation is synchronous (a malformed operand raises
        here, in the caller, not in a worker), as is backpressure: a full
        queue raises :class:`QueueFullError` immediately.  ``deadline`` is
        absolute on this batcher's clock; expired requests fail fast in
        the worker instead of computing.
        """
        x = np.asarray(x, dtype=np.float64)
        n = entry.shape[1]
        if x.shape != (n,):
            raise HardwareConfigError(
                f"vector length {x.shape} incompatible with matrix "
                f"{entry.name!r} of shape {entry.shape}"
            )
        request = SpmvRequest(x=x, enqueued=self.clock(), deadline=deadline)
        _trace.instant("serve.enqueue", cat="serve", tenant=entry.name)
        with self._cond:
            if not self._accepting:
                raise ServeError(
                    "server is not accepting requests (stopped or draining)"
                )
            queue = self._queues.get(entry.name)
            if queue is None:
                self._entries[entry.name] = entry
                queue = self._queues[entry.name] = deque()
            if len(queue) >= self.policy.max_queue:
                raise QueueFullError(
                    f"queue for matrix {entry.name!r} is at capacity "
                    f"({self.policy.max_queue}); retry later"
                )
            queue.append(request)
            # A fresh queue head wakes one idle worker.  Requests that
            # join a non-empty queue need no wake-up: a worker is already
            # on its way (woken for the head) or every worker is busy and
            # will scan before it waits again.
            if len(queue) == 1:
                self._cond.notify()
        return request.future

    # -- draining ------------------------------------------------------------

    def _oldest_queue(self) -> str | None:
        """The non-empty queue whose head request is oldest, or ``None``
        when every queue is empty (caller holds the lock)."""
        best_name = None
        oldest = None
        for name, queue in self._queues.items():
            if queue and (oldest is None or queue[0].enqueued < oldest):
                best_name, oldest = name, queue[0].enqueued
        return best_name

    def take_batch(
        self,
    ) -> tuple[RegisteredMatrix, list[SpmvRequest]] | None:
        """Take a batch at once; block only while every queue is empty.

        Returns up to ``max_batch`` requests from the queue whose head is
        oldest (global FIFO fairness across tenants), or ``None`` once the
        batcher is closed and drained.  When requests stay behind (a queue
        longer than ``max_batch``, or another tenant's queue), one more
        waiting worker is woken for them, so no request waits on a busy
        worker while another worker sleeps.
        """
        with self._cond:
            while True:
                best_name = self._oldest_queue()
                if best_name is not None:
                    queue = self._queues[best_name]
                    size = min(len(queue), self.policy.max_batch)
                    batch = [queue.popleft() for _ in range(size)]
                    if not self._all_empty():
                        self._cond.notify()
                    return self._entries[best_name], batch
                if not self._accepting:
                    return None
                self._cond.wait()

    def _all_empty(self) -> bool:
        return all(not queue for queue in self._queues.values())

    def pending(self) -> int:
        """Requests currently queued across all matrices."""
        with self._cond:
            return sum(len(queue) for queue in self._queues.values())

    # -- shutdown ------------------------------------------------------------

    def close(self, drain: bool = True) -> list[SpmvRequest]:
        """Stop admissions; returns the requests abandoned (empty if
        draining).

        With ``drain`` (default), queued requests stay put — workers take
        them as usual and observe shutdown once every queue is empty.
        Without it, queues are emptied and the abandoned requests are
        returned so the caller can fail their futures.
        """
        with self._cond:
            self._accepting = False
            abandoned: list[SpmvRequest] = []
            if not drain:
                for queue in self._queues.values():
                    abandoned.extend(queue)
                    queue.clear()
            self._cond.notify_all()
            return abandoned


def run_batch(
    entry: RegisteredMatrix,
    batch: list[SpmvRequest],
    faults: _faults.FaultPlan | None = None,
    on_phases: Callable[[float, float], None] | None = None,
) -> np.ndarray:
    """Execute one batch and resolve its futures; returns the block.

    The k requests stack into a ``(k, n)`` block, execute through the
    tenant's :class:`~repro.core.spmm.StackedReplay` kernel as one SpMM
    tile, and each future resolves with its column of the ``(m, k)``
    result — a view into the shared block (columns never alias each
    other; copy on the client side if contiguity matters).  Column ``j``
    is bit-identical to ``entry.execute(batch[j].x)``.  A batch of one
    is not copied: its operand goes to the kernel as a ``(1, n)`` view.

    A kernel exception — including an injected ``kernel-error`` fault —
    is set on every future in the batch and re-raised for the caller's
    failure accounting; ``kernel-slow`` stalls execution first, which is
    how the chaos harness manufactures deadline pressure.

    ``on_phases``, when given, is called once after settling with the
    batch's kernel seconds (assembly included) and settle seconds, on the
    obs clock; without it nothing is timed.

    Shared by the server's worker loop and the serving benchmark, so what
    the benchmark gates is exactly what the server runs.
    """
    if on_phases is not None:
        started = _obs_clock.monotonic()
    # The ambient tracer and fault plan are looked up once per batch.
    tracer = _trace.active_tracer()
    span = tracer.span if tracer is not None else _null_span
    plan = _faults.resolve(faults)
    with span("serve.assemble", "serve", size=len(batch)):
        if len(batch) == 1:
            stacked = batch[0].x[None, :]
        else:
            stacked = np.stack([request.x for request in batch])
    try:
        with span("serve.kernel", "serve", tenant=entry.name, size=len(batch)):
            if plan is not None:
                if plan.should_fire("kernel-slow"):
                    time.sleep(_faults.SLOW_KERNEL_SLEEP_S)
                if plan.should_fire("kernel-error"):
                    raise InjectedFaultError("injected kernel-error fault")
            block = entry.stacked.matvecs(stacked)
    except Exception as error:
        for request in batch:
            _settle(request.future, error=error)
        raise
    if on_phases is not None:
        computed = _obs_clock.monotonic()
    with span("serve.settle", "serve", size=len(batch)):
        for j, request in enumerate(batch):
            _settle(request.future, result=block[:, j])
    if on_phases is not None:
        on_phases(computed - started, _obs_clock.monotonic() - computed)
    return block


def _null_span(*args, **kwargs):
    return _trace.NULL_SPAN


def _settle(future: Future, result=None, error=None) -> None:
    """Resolve one future, tolerating client-side settlement races.

    Clients hold these futures and may cancel a queued request at any
    moment; re-setting a settled future raises ``InvalidStateError``,
    which callers up the stack would misread as a worker crash.  A future
    already done keeps its state — it was settled either way, which is
    all the no-hung-futures contract needs.
    """
    if future.done():
        return
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        # Lost the race to a concurrent canceller/resolver.
        pass
