"""The chaos harness: the serve workload under a seeded :class:`FaultPlan`.

``repro chaos --seed N`` (and ``tests/serve/test_chaos.py``) run three
phases against one aggressive fault plan and verify the failure model
end to end:

1. **Scheduling survival** — ``GustScheduler(jobs=2)`` with an injected
   pool-worker kill must produce arrays byte-identical to ``jobs=1``
   (the ``BrokenProcessPool`` serial re-dispatch preserves the identity
   contract).
2. **Store degradation** — a :class:`DiskScheduleStore` hammered with
   read/write ``OSError`` and artifact corruption must absorb every
   fault into counters (``io_errors``, ``corrupt_dropped``) and keep
   answering; no exception escapes to the caller.
3. **Serve chaos** — ``threads`` concurrent clients (default 100)
   against a server injected with kernel exceptions, slow kernels, and
   worker crashes, while tenant registrations run through the sick
   store.  The gate: **zero hangs** (every wait returns), **zero lost
   futures** (every submitted future resolves with a value or a typed
   :class:`~repro.errors.ReproError`), and **bit-identical results** on
   every success.

The serve phase runs twice with fresh plans from the same seed; the
per-site fault decisions of the two runs must agree on their common
prefix — the seeded-replay contract, asserted rather than assumed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from tempfile import TemporaryDirectory

import numpy as np

from repro import faults as _faults
from repro.core.load_balance import identity_balance
from repro.core.scheduler import GustScheduler
from repro.core.store import DiskScheduleStore
from repro.errors import QueueFullError, ReproError
from repro.serve.batcher import BatchPolicy
from repro.serve.registry import MatrixRegistry
from repro.serve.server import SpmvServer
from repro.sparse.generators import uniform_random

#: The aggressive spec the acceptance gate names: store IO faults, two
#: worker deaths, one pool-worker kill, kernel exceptions above 5%.
CHAOS_SPEC = (
    "store-io:0.2,store-corrupt:1,kernel-error:0.08,kernel-slow:0.1,"
    "worker-crash:2,pool-kill:1"
)

#: Accelerator length for the chaos tenants (small: chaos stresses the
#: failure paths, not the kernels).
_LENGTH = 16


@dataclass
class ChaosPhaseResult:
    """Outcome counters for one serve-phase run."""

    submitted: int = 0
    ok: int = 0
    mismatches: int = 0
    hangs: int = 0
    lost_futures: int = 0
    rejected: int = 0
    typed_failures: dict[str, int] = field(default_factory=dict)
    fired: dict[str, list[int]] = field(default_factory=dict)
    stats_text: str = ""

    def note_failure(self, error: BaseException) -> None:
        name = type(error).__name__
        self.typed_failures[name] = self.typed_failures.get(name, 0) + 1


@dataclass(frozen=True)
class ChaosReport:
    """Everything ``repro chaos`` gates on and prints."""

    seed: int
    threads: int
    spec: str
    pool_identical: bool
    store_io_errors: int
    store_corrupt_dropped: int
    store_survived: bool
    runs: tuple[ChaosPhaseResult, ChaosPhaseResult]
    replay_consistent: bool

    def passed(self) -> bool:
        serve_ok = all(
            run.hangs == 0 and run.lost_futures == 0 and run.mismatches == 0
            for run in self.runs
        )
        return (
            serve_ok
            and self.pool_identical
            and self.store_survived
            and self.store_io_errors > 0
            and self.replay_consistent
        )

    def render(self) -> str:
        lines = [
            f"chaos run: seed={self.seed} threads={self.threads}",
            f"  fault spec: {self.spec}",
            f"  [1] scheduler: pool-kill survived, jobs=2 byte-identical "
            f"to jobs=1: {self.pool_identical}",
            f"  [2] store: survived={self.store_survived}, "
            f"{self.store_io_errors} io_errors absorbed, "
            f"{self.store_corrupt_dropped} corrupt artifacts quarantined",
        ]
        for index, run in enumerate(self.runs):
            failures = ", ".join(
                f"{name}:{count}"
                for name, count in sorted(run.typed_failures.items())
            ) or "none"
            lines.append(
                f"  [3] serve run {index + 1}: {run.submitted} submitted, "
                f"{run.ok} bit-identical, {run.rejected} rejected at "
                f"admission, {run.mismatches} mismatches, {run.hangs} hangs, "
                f"{run.lost_futures} lost futures; typed failures: {failures}"
            )
        lines.append(
            f"  seeded replay consistent across runs: {self.replay_consistent}"
        )
        lines.append(f"  verdict: {'PASS' if self.passed() else 'FAIL'}")
        stats = self.runs[-1].stats_text
        if stats:
            lines.append("server stats (final run):")
            lines.extend("  " + line for line in stats.splitlines())
        return "\n".join(lines)


def _fired_by_site(plan: _faults.FaultPlan) -> dict[str, list[int]]:
    fired: dict[str, list[int]] = {}
    for event in plan.history():
        fired.setdefault(event.site, []).append(event.probe)
    return fired


def _scheduler_phase(seed: int) -> bool:
    """Pool-kill survival: jobs=2 under a broken pool vs jobs=1 arrays."""
    matrix = uniform_random(96, 96, 0.08, seed=seed % (2**31))
    balanced = identity_balance(matrix, _LENGTH)
    plan = _faults.FaultPlan(seed=seed, counts={"pool-kill": 1})
    chaotic = GustScheduler(_LENGTH, jobs=2, faults=plan).schedule_balanced(
        balanced
    )
    serial = GustScheduler(_LENGTH, jobs=1).schedule_balanced(balanced)
    return (
        chaotic.m_sch.tobytes() == serial.m_sch.tobytes()
        and chaotic.row_sch.tobytes() == serial.row_sch.tobytes()
        and chaotic.col_sch.tobytes() == serial.col_sch.tobytes()
        and chaotic.window_colors == serial.window_colors
    )


def _store_phase(seed: int, rounds: int = 24) -> tuple[int, int, bool]:
    """Hammer a store with IO faults; returns (io_errors, corrupt, ok)."""
    matrix = uniform_random(48, 48, 0.1, seed=(seed + 1) % (2**31))
    balanced = identity_balance(matrix, _LENGTH)
    schedule = GustScheduler(_LENGTH).schedule_balanced(balanced)
    plan = _faults.FaultPlan(
        seed=seed,
        rates={"store-read": 0.2, "store-write": 0.2},
        counts={"store-corrupt": 1},
    )
    survived = True
    with TemporaryDirectory(prefix="gust-chaos-store-") as tmp:
        store = DiskScheduleStore(tmp, faults=plan)
        key = store.key_for(matrix, _LENGTH, "matching", False)
        for _ in range(rounds):
            try:
                store.store(key, schedule, balanced)
                store.load(key)
            except ReproError:
                survived = False
            except OSError:
                survived = False
        stats = store.stats
    return stats.io_errors, stats.corrupt_dropped, survived


def _serve_phase(
    seed: int, threads: int, store_dir: str
) -> tuple[ChaosPhaseResult, _faults.FaultPlan]:
    """One full concurrent serve run under the aggressive plan."""
    result = ChaosPhaseResult()
    plan = _faults.FaultPlan.from_spec(CHAOS_SPEC, seed=seed)
    store = DiskScheduleStore(store_dir, faults=plan)
    registry = MatrixRegistry(length=_LENGTH, store=store)
    matrices = {
        "alpha": uniform_random(96, 96, 0.08, seed=(seed + 2) % (2**31)),
        "beta": uniform_random(64, 64, 0.1, seed=(seed + 3) % (2**31)),
    }
    server = SpmvServer(
        registry=registry,
        policy=BatchPolicy(max_batch=8, max_queue=64),
        workers=2,
        max_worker_respawns=8,
        faults=plan,
    )
    reference = {}
    for name, matrix in matrices.items():
        entry = server.register(name, matrix)
        reference[name] = entry
    names = sorted(matrices)

    futures = []
    futures_lock = threading.Lock()
    result_lock = threading.Lock()
    barrier = threading.Barrier(threads)
    clock = server.batcher.clock

    def one_request(index: int) -> None:
        rng = np.random.default_rng(seed * 100_000 + index)
        name = names[index % len(names)]
        x = rng.normal(size=matrices[name].shape[1])
        # Every fifth request runs on a deliberately tight deadline so
        # kernel-slow stalls push it past expiry: the fail-fast path must
        # answer with DeadlineExceededError, not compute into the void.
        tight = index % 5 == 0
        deadline = clock() + (0.01 if tight else 30.0)
        barrier.wait(timeout=30)
        future = None
        for attempt in range(50):
            try:
                future = server.submit(name, x, deadline=deadline)
                break
            except QueueFullError:
                time.sleep(0.0005 * (attempt + 1))
            except ReproError as error:
                # Typed admission refusal (circuit open, stopped, ...).
                with result_lock:
                    result.rejected += 1
                    result.note_failure(error)
                return
        if future is None:
            with result_lock:
                result.rejected += 1
                result.typed_failures["QueueFullError"] = (
                    result.typed_failures.get("QueueFullError", 0) + 1
                )
            return
        with futures_lock:
            futures.append(future)
        with result_lock:
            result.submitted += 1
        try:
            y = future.result(timeout=30)
        except ReproError as error:
            with result_lock:
                result.note_failure(error)
            return
        except FutureTimeoutError:
            with result_lock:
                result.hangs += 1
            return
        expected = reference[name].execute(x)
        match = (np.asarray(y) == expected).all()
        with result_lock:
            if match:
                result.ok += 1
            else:
                result.mismatches += 1

    with server:
        workers = [
            threading.Thread(target=one_request, args=(i,))
            for i in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        if any(thread.is_alive() for thread in workers):
            result.hangs += sum(
                1 for thread in workers if thread.is_alive()
            )
    # stop() has joined the server's workers: every accepted future must
    # now be settled — an unsettled one is a lost future, the exact bug
    # class this harness exists to catch.
    result.lost_futures = sum(1 for future in futures if not future.done())
    result.fired = _fired_by_site(plan)
    result.stats_text = server.stats().render()
    return result, plan


def _replay_consistent(
    first: _faults.FaultPlan, second: _faults.FaultPlan
) -> bool:
    """Per-site fault decisions must agree on the runs' common prefix.

    Thread timing makes the two runs consume different probe *counts*,
    but the k-th probe of a site must decide identically — compare each
    site's fired-probe set restricted to the shared prefix.
    """
    probes_a, probes_b = first.probes(), second.probes()
    fired_a, fired_b = _fired_by_site(first), _fired_by_site(second)
    for site in set(probes_a) | set(probes_b):
        common = min(probes_a.get(site, 0), probes_b.get(site, 0))
        a = {p for p in fired_a.get(site, []) if p < common}
        b = {p for p in fired_b.get(site, []) if p < common}
        if a != b:
            return False
    return True


def run_chaos(seed: int = 1234, threads: int = 100) -> ChaosReport:
    """Run all three chaos phases; see the module docstring for the gate."""
    pool_identical = _scheduler_phase(seed)
    io_errors, corrupt_dropped, store_survived = _store_phase(seed)
    with TemporaryDirectory(prefix="gust-chaos-serve-") as tmp_a:
        first, plan_a = _serve_phase(seed, threads, tmp_a)
    with TemporaryDirectory(prefix="gust-chaos-serve-") as tmp_b:
        second, plan_b = _serve_phase(seed, threads, tmp_b)
    return ChaosReport(
        seed=seed,
        threads=threads,
        spec=CHAOS_SPEC,
        pool_identical=pool_identical,
        store_io_errors=io_errors,
        store_corrupt_dropped=corrupt_dropped,
        store_survived=store_survived,
        runs=(first, second),
        replay_consistent=_replay_consistent(plan_a, plan_b),
    )
