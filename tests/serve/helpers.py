"""Shared helpers for the serving tests: observe and hold workers."""

import threading
import time

from repro.serve.batcher import RequestBatcher


def wait_for_waiters(batcher: RequestBatcher, count: int) -> None:
    """Spin until ``count`` threads wait on the batcher's condition."""
    deadline = time.perf_counter() + 5.0
    while len(batcher._cond._waiters) < count:
        assert time.perf_counter() < deadline, "workers never waited"
        time.sleep(0.001)


class KernelGate:
    """Hold every batch of one tenant inside its kernel until released.

    Records each batch's size as it enters ``StackedReplay.matvecs``;
    :meth:`wait_entered` blocks until enough batches are inside.
    """

    def __init__(self, entry, monkeypatch):
        self.sizes: list[int] = []
        self.release = threading.Event()
        self._entered = threading.Condition()
        kernel = entry.stacked.matvecs

        def gated(stacked):
            with self._entered:
                self.sizes.append(len(stacked))
                self._entered.notify_all()
            self.release.wait(timeout=10.0)
            return kernel(stacked)

        monkeypatch.setattr(entry.stacked, "matvecs", gated)

    def wait_entered(self, count: int) -> None:
        with self._entered:
            assert self._entered.wait_for(
                lambda: len(self.sizes) >= count, timeout=5.0
            ), f"only {self.sizes} batches reached the kernel"
