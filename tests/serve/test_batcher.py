"""Batcher edge cases: admission, work-conserving take, interleaving,
bit-identity."""

import threading

import numpy as np
import pytest

from repro import GustPipeline, MatrixRegistry, uniform_random
from repro.errors import HardwareConfigError, QueueFullError, ServeError
from repro.serve.batcher import (
    BatchPolicy,
    RequestBatcher,
    SpmvRequest,
    run_batch,
)
from tests.serve.helpers import wait_for_waiters


@pytest.fixture
def registry() -> MatrixRegistry:
    return MatrixRegistry(length=16)


@pytest.fixture
def entry(registry, square_matrix):
    return registry.register("A", square_matrix)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(HardwareConfigError, match="max_batch"):
            BatchPolicy(max_batch=0)
        with pytest.raises(HardwareConfigError, match="max_queue"):
            BatchPolicy(max_batch=8, max_queue=4)


class TestRunBatch:
    def test_batch_of_one_bit_identical_to_pipeline_execute(
        self, entry, square_matrix, rng
    ):
        """A batch of 1 must reproduce GustPipeline.execute exactly."""
        pipeline = GustPipeline(16)
        schedule, balanced, _ = pipeline.preprocess(square_matrix)
        x = rng.normal(size=square_matrix.shape[1])
        request = SpmvRequest(x=np.asarray(x, dtype=np.float64))
        run_batch(entry, [request])
        got = np.asarray(request.future.result(timeout=0))
        want = pipeline.execute(schedule, balanced, x)
        assert (got == want).all()

    def test_every_batch_size_bit_identical(self, entry, rng):
        n = entry.shape[1]
        for size in (1, 2, 3, 8, 13):
            xs = rng.normal(size=(size, n))
            batch = [SpmvRequest(x=x) for x in xs]
            run_batch(entry, batch)
            for j, request in enumerate(batch):
                got = np.asarray(request.future.result(timeout=0))
                assert (got == entry.execute(xs[j])).all()

    @pytest.mark.parametrize("force_numpy", [False, True])
    def test_batch_of_one_bit_identical_to_entry_execute(
        self, registry, square_matrix, rng, force_numpy
    ):
        """k=1 replays through matvec, on the scipy kernel and the pinned
        numpy one alike, and reproduces the per-request replay exactly."""
        entry = registry.register(
            "one", square_matrix, force_numpy_backend=force_numpy
        )
        assert (entry.stacked.backend == "bincount") == force_numpy
        for x in rng.normal(size=(4, entry.shape[1])):
            request = SpmvRequest(x=x)
            block = run_batch(entry, [request])
            assert block.shape == (entry.shape[0], 1)
            got = np.asarray(request.future.result(timeout=0))
            assert (got == entry.execute(x)).all()

    def test_batch_of_one_skips_the_spmm_kernel(self, entry, rng, monkeypatch):
        def no_matmat(*args, **kwargs):
            raise AssertionError("a batch of one must not run matmat")

        monkeypatch.setattr(entry.stacked._kernel, "matmat", no_matmat)
        x = rng.normal(size=entry.shape[1])
        request = SpmvRequest(x=x)
        run_batch(entry, [request])
        assert (request.future.result(timeout=0) == entry.execute(x)).all()

    def test_numpy_backend_bit_identical(self, registry, square_matrix, rng):
        entry = registry.register(
            "np", square_matrix, force_numpy_backend=True
        )
        xs = rng.normal(size=(5, entry.shape[1]))
        batch = [SpmvRequest(x=x) for x in xs]
        run_batch(entry, batch)
        for j, request in enumerate(batch):
            got = np.asarray(request.future.result(timeout=0))
            assert (got == entry.execute(xs[j])).all()


class TestAdmission:
    def test_queue_full_rejection(self, entry, rng):
        batcher = RequestBatcher(BatchPolicy(max_batch=2, max_queue=3))
        batcher.bind(entry)
        x = rng.normal(size=entry.shape[1])
        for _ in range(3):
            batcher.submit(entry, x)
        with pytest.raises(QueueFullError, match="capacity"):
            batcher.submit(entry, x)
        assert batcher.pending() == 3

    def test_shape_validated_synchronously(self, entry):
        batcher = RequestBatcher()
        with pytest.raises(HardwareConfigError, match="incompatible"):
            batcher.submit(entry, np.zeros(entry.shape[1] + 1))
        assert batcher.pending() == 0

    def test_submit_after_close_rejected(self, entry, rng):
        batcher = RequestBatcher()
        batcher.close()
        with pytest.raises(ServeError, match="not accepting"):
            batcher.submit(entry, rng.normal(size=entry.shape[1]))


class TestFlush:
    def test_full_batch_flushes_immediately(self, entry, rng):
        batcher = RequestBatcher(BatchPolicy(max_batch=4, max_queue=64))
        batcher.bind(entry)
        for _ in range(6):
            batcher.submit(entry, rng.normal(size=entry.shape[1]))
        got_entry, batch = batcher.take_batch()
        assert got_entry is entry
        # Capped at max_batch even though 6 requests are queued.
        assert len(batch) == 4
        assert batcher.pending() == 2

    def test_partial_batch_taken_at_once(self, entry, rng):
        """An idle worker does not wait for a batch to fill."""
        batcher = RequestBatcher(BatchPolicy(max_batch=8, max_queue=64))
        batcher.bind(entry)
        for _ in range(3):
            batcher.submit(entry, rng.normal(size=entry.shape[1]))
        _, batch = batcher.take_batch()
        assert len(batch) == 3
        assert batcher.pending() == 0

    def test_mixed_matrix_interleaving(self, registry, rng):
        """Interleaved tenants never share a batch; FIFO across tenants."""
        a = registry.register("A", uniform_random(40, 40, 0.1, seed=1))
        b = registry.register("B", uniform_random(30, 30, 0.1, seed=2))
        batcher = RequestBatcher(BatchPolicy(max_batch=8, max_queue=64))
        xs = {}
        for name, entry in (("A", a), ("B", b)):
            batcher.bind(entry)
            xs[name] = rng.normal(size=(3, entry.shape[1]))
        for j in range(3):  # interleave: A B A B A B
            batcher.submit(a, xs["A"][j])
            batcher.submit(b, xs["B"][j])
        first_entry, first = batcher.take_batch()
        second_entry, second = batcher.take_batch()
        # Oldest head first: A was submitted before B.
        assert first_entry is a and second_entry is b
        assert len(first) == 3 and len(second) == 3
        for entry, batch, name in ((a, first, "A"), (b, second, "B")):
            run_batch(entry, batch)
            for j, request in enumerate(batch):
                got = np.asarray(request.future.result(timeout=0))
                assert (got == entry.execute(xs[name][j])).all()


class TestShutdown:
    def test_drain_makes_partial_batches_immediate(self, entry, rng):
        batcher = RequestBatcher(BatchPolicy(max_batch=8, max_queue=64))
        batcher.bind(entry)
        for _ in range(3):
            batcher.submit(entry, rng.normal(size=entry.shape[1]))
        abandoned = batcher.close(drain=True)
        assert abandoned == []
        _, batch = batcher.take_batch()
        assert len(batch) == 3
        assert batcher.take_batch() is None  # shut down, queues empty

    def test_close_without_drain_returns_abandoned(self, entry, rng):
        batcher = RequestBatcher()
        batcher.bind(entry)
        for _ in range(2):
            batcher.submit(entry, rng.normal(size=entry.shape[1]))
        abandoned = batcher.close(drain=False)
        assert len(abandoned) == 2
        assert batcher.take_batch() is None


class TestInjectedClock:
    """Admission never reads the clock: on a frozen injected clock a
    worker still takes what is queued at once, in global FIFO order."""

    def _batcher(self, now, **policy_kwargs):
        return RequestBatcher(
            BatchPolicy(**policy_kwargs), clock=lambda: now["t"]
        )

    def test_lone_request_taken_at_once_on_frozen_clock(self, entry, rng):
        now = {"t": 100.0}
        batcher = self._batcher(now, max_batch=8, max_queue=64)
        batcher.submit(entry, rng.normal(size=entry.shape[1]))
        taken = []
        worker = threading.Thread(
            target=lambda: taken.append(batcher.take_batch()), daemon=True
        )
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        taken_entry, batch = taken[0]
        assert taken_entry is entry
        assert len(batch) == 1
        assert now["t"] == 100.0  # time never moved

    def test_oldest_head_queue_taken_first(self, registry, rng):
        """The queue whose head is oldest wins, however short it is."""
        a = registry.register("A", uniform_random(48, 48, 0.1, seed=1))
        b = registry.register("B", uniform_random(32, 32, 0.1, seed=2))
        now = {"t": 100.0}
        batcher = self._batcher(now, max_batch=8, max_queue=64)
        batcher.submit(b, rng.normal(size=b.shape[1]))
        now["t"] = 100.4
        for _ in range(5):
            batcher.submit(a, rng.normal(size=a.shape[1]))
        first_entry, first = batcher.take_batch()
        second_entry, second = batcher.take_batch()
        assert (first_entry, len(first)) == (b, 1)
        assert (second_entry, len(second)) == (a, 5)

    def test_request_records_enqueue_instant_and_absolute_deadline(
        self, entry, rng
    ):
        now = {"t": 100.0}
        batcher = self._batcher(now, max_batch=8, max_queue=64)
        batcher.submit(entry, rng.normal(size=entry.shape[1]), deadline=123.4)
        now["t"] = 160.0
        with batcher._cond:
            request = batcher._queues["A"][0]
        assert request.enqueued == 100.0  # stamped at submit time
        assert request.deadline == 123.4  # absolute, not relative


class TestWorkConserving:
    def test_idle_worker_blocks_until_submit(self, entry, rng):
        """With every queue empty a worker waits (no timeout, no spin)
        and wakes on the next submit."""
        batcher = RequestBatcher(BatchPolicy(max_batch=8, max_queue=64))
        batcher.bind(entry)
        taken = []
        worker = threading.Thread(
            target=lambda: taken.append(batcher.take_batch()), daemon=True
        )
        worker.start()
        wait_for_waiters(batcher, 1)
        assert not taken
        batcher.submit(entry, rng.normal(size=entry.shape[1]))
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert len(taken[0][1]) == 1

    def test_leftovers_wake_a_second_waiter(self, entry, rng):
        """A take that leaves requests behind wakes another waiting
        worker; only the first submit notified anyone."""
        batcher = RequestBatcher(BatchPolicy(max_batch=16, max_queue=64))
        batcher.bind(entry)
        sizes = []
        workers = [
            threading.Thread(
                target=lambda: sizes.append(len(batcher.take_batch()[1])),
                daemon=True,
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        wait_for_waiters(batcher, 2)
        # Both workers are waiting; queue all 20 before either can scan.
        with batcher._cond:
            for _ in range(20):
                batcher.submit(entry, rng.normal(size=entry.shape[1]))
        for worker in workers:
            worker.join(timeout=5.0)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(sizes) == [4, 16]

