"""The three end-to-end paths, timed, each with its correctness oracle.

Each path is a session object that keeps its state and results between
calls, so a pass can run the paths in interleaved slices (a metric's
samples then spread over the whole run instead of one window of it).
Every call takes a :class:`Checker` that counts operations attempted and
failed, and a ``probe`` — the traced run's
:class:`~gustbench.layers.Instrument` or the untraced stand-in — whose
``paused()`` keeps oracle work out of the trace.  Oracles always run
outside the timed regions.
"""

from __future__ import annotations

import bisect
import concurrent.futures
import contextlib
import gc
import importlib
import math
import shutil
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse

from repro.core.backends.registry import compile_plan as registry_compile_plan
from repro.core.cache import ScheduleCache
from repro.core.pipeline import GustPipeline
from repro.core.store import DiskScheduleStore
from repro.errors import DeadlineExceededError, ServeError
from repro.serve.registry import MatrixRegistry
from repro.serve.server import SpmvServer

from gustbench.hostspeed import Speedometer
from gustbench.inputs import RawTriplets, SolveProblem, Tenant, rng_for

#: Accelerator length ``l`` of every pipeline the benchmark builds.
LENGTH = 64

#: Relative max-norm distance allowed between a compiled handle and scipy
#: CSR on the original triplets (different summation order).
SCIPY_RTOL = 1e-12

#: Fresh caches that reload each round's set from its store, timed
#: together as one ``disk_load_s`` sample (their mean): one reload of a
#: small set takes milliseconds, too short to time alone on a busy host.
DISK_RELOADS = 4

#: Jacobi tolerance and sweep cap.
SOLVE_TOL = 1e-8
SOLVE_MAX_ITERATIONS = 500

#: Serving: how often the refresher re-registers the first tenant; the
#: tail latency limit of a ladder step (also its requests' deadline); the
#: deadline of low-rate requests; queue-depth samples per segment.
REFRESH_PERIOD_S = 0.1
LIMIT_S = 0.1
LOW_DEADLINE_S = 1.0
DEPTH_SAMPLES = 80

#: The generator fingerprints settled replies only while the next request
#: is at least this far from due; past ``MAX_HELD_REPLIES`` unfingerprinted
#: replies it fingerprints anyway (and runs late, which shows as its lag).
DRAIN_MARGIN_S = 2e-4
MAX_HELD_REPLIES = 256

#: Runs of a ladder step before it counts as failed: a host stall of tens
#: of milliseconds can sink one run of a step the server can sustain.
LADDER_TRIES = 2

clock = time.perf_counter


def _jacobi(*args, **kwargs):
    # Looked up at call time, so the traced run's wrapper is the one used.
    return importlib.import_module("repro.solvers.jacobi").jacobi(*args, **kwargs)


class Checker:
    """Operations attempted and failed, with the reason for each failure.

    ``wrong`` counts failures that are wrong answers (the run is then not
    correct); refused or expired requests fail without being wrong.
    ``corrupt_first`` flips one element of the first output an oracle
    checks, to prove the oracles count what they should.
    """

    def __init__(self, corrupt_first: bool = False):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter[str] = Counter()
        self._corrupt = corrupt_first

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, wrong: bool = True, count: int = 1) -> None:
        self.failed += count
        if wrong:
            self.wrong += count
        self.reasons[reason] += count

    def observed(self, output):
        """An output (array or reply fingerprint) as the oracle sees it.

        Returned unchanged, except the first one when ``corrupt_first``:
        an array then gets one element changed, a fingerprint one bit.
        """
        if not self._corrupt:
            return output
        self._corrupt = False
        if isinstance(output, int):
            return output ^ 1
        output = np.array(output, copy=True)
        output.flat[0] = output.flat[0] * 2.0 + 1.0
        return output

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def _keep_going(deadline: float, done: int, total: int, maximum: int | None):
    """At least one unit per call; then until the deadline or ``maximum``."""
    if maximum is not None and total >= maximum:
        return False
    return done == 0 or clock() < deadline


# -- cold compile and disk load ----------------------------------------------


@dataclass
class CompileResult:
    cold_s: list[float] = field(default_factory=list)
    disk_s: list[float] = field(default_factory=list)
    #: The same samples scaled to the reference host speed.
    cold_scaled_s: list[float] = field(default_factory=list)
    disk_scaled_s: list[float] = field(default_factory=list)
    useful_ops: int = 0
    slot_capacity: int = 0
    nnz: int = 0

    @property
    def rounds(self) -> int:
        return len(self.cold_s)

    @property
    def utilization(self) -> float:
        """2·nnz / (cycles·2l) over the schedules of one round."""
        return self.useful_ops / self.slot_capacity


def _fresh_pipeline(store_dir: Path) -> GustPipeline:
    return GustPipeline(
        LENGTH, cache=ScheduleCache(store=DiskScheduleStore(store_dir))
    )


class CompileSession:
    """Rounds of: cold compile of the set, then reload from disk.

    A round compiles every matrix from its raw triplets through an empty
    memory cache and a fresh store directory, then gets replay-ready
    handles for the same set through ``DISK_RELOADS`` fresh caches on that
    store, then asks the first pipeline again (memory hits).  Only the
    first two are timed.
    """

    def __init__(self, raws: list[RawTriplets], work_dir: Path, seed: int):
        self.raws = raws
        self.work_dir = work_dir
        self.references = [_scipy_reference(raw, seed, i) for i, raw in enumerate(raws)]
        self.result = CompileResult()

    def run(
        self,
        seconds: float,
        checker: Checker,
        probe,
        speed: Speedometer,
        max_rounds: int | None = None,
    ) -> None:
        result = self.result
        deadline = clock() + seconds
        done = 0
        while _keep_going(deadline, done, result.rounds, max_rounds):
            store_dir = self.work_dir / f"store-{result.rounds}"
            pipeline = _fresh_pipeline(store_dir)
            started = clock()
            matrices, handles = [], []
            for raw in self.raws:
                matrix = raw.canonical()
                matrices.append(matrix)
                handles.append(pipeline.compile(matrix))
            result.cold_s.append(clock() - started)
            speed.add(result.cold_scaled_s, result.cold_s[-1])

            restarted = [_fresh_pipeline(store_dir) for _ in range(DISK_RELOADS)]
            started = clock()
            reloads = [
                [fresh.compile(matrix) for matrix in matrices] for fresh in restarted
            ]
            result.disk_s.append((clock() - started) / DISK_RELOADS)
            speed.add(result.disk_scaled_s, result.disk_s[-1])

            hits = [pipeline.compile(matrix) for matrix in matrices]
            with probe.paused():
                _check_compiled(handles, reloads, hits, self.references, checker)
            if result.rounds == 1:
                for handle in handles:
                    stats = handle.stats
                    result.useful_ops += 2 * stats.nnz
                    result.slot_capacity += stats.cycles_per_replay * 2 * stats.length
                    result.nnz += stats.nnz
            shutil.rmtree(store_dir, ignore_errors=True)
            done += 1
        speed.flush()


def _scipy_reference(raw: RawTriplets, seed: int, index: int):
    x = rng_for(seed, 6, index).normal(size=raw.shape[1])
    csr = scipy.sparse.coo_matrix(
        (raw.data, (raw.rows, raw.cols)), shape=raw.shape
    ).tocsr()
    return x, csr @ x


def _check_compiled(handles, reloads, hits, references, checker: Checker) -> None:
    """One operation per cold handle and one per disk-loaded handle."""
    for i, (handle, hit, (x, scipy_y)) in enumerate(zip(handles, hits, references)):
        checker.attempt(1 + len(reloads))
        exact = registry_compile_plan(handle.plan, backend="scatter").kernel.matvec(x)
        y = checker.observed(handle.matvec(x))
        scale = max(float(np.abs(scipy_y).max(initial=0.0)), np.finfo(float).tiny)
        if not np.array_equal(y, exact):
            checker.fail("compiled handle differs from the scatter oracle")
        elif float(np.abs(y - scipy_y).max(initial=0.0)) > SCIPY_RTOL * scale:
            checker.fail("compiled handle differs from scipy CSR")
        elif hit.stats.preprocess.notes.get("cache_hit") != 1.0:
            checker.fail("repeated compile missed the memory cache")
        for loaded in reloads:
            disk = loaded[i]
            if disk.stats.preprocess.notes.get("disk_hit") != 1.0:
                checker.fail("fresh cache did not load the schedule from disk")
            elif not np.array_equal(disk.matvec(x), exact):
                checker.fail("disk-loaded handle replays differently")


# -- warm solve ---------------------------------------------------------------


@dataclass
class SolveResult:
    step_s: list[float] = field(default_factory=list)
    #: The same steps scaled to the reference host speed.
    step_scaled_s: list[float] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    spmv_counts: list[int] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.step_s)


class SolveSession:
    """Time steps through one shared cached pipeline.

    Built at set-up, where step 0 is solved cold (the coloring runs
    there); the measured steps 1, 2, ... each bring new values, ride the
    cache's value refresh and solve with Jacobi to the tolerance.
    """

    def __init__(self, problem: SolveProblem):
        self.problem = problem
        self.pipeline = GustPipeline(LENGTH, cache=ScheduleCache())
        self.result = SolveResult()
        self._first = None
        first = _jacobi(
            problem.matrix,
            problem.rhs,
            pipeline=self.pipeline,
            tol=SOLVE_TOL,
            max_iterations=SOLVE_MAX_ITERATIONS,
        )
        if not first.converged:
            raise RuntimeError("the step-0 solve did not converge")
        matrix = problem.matrix
        self._indptr = np.searchsorted(
            matrix.rows, np.arange(matrix.shape[0] + 1)
        )

    def step(self, number: int):
        """Solve one time step; returns (seconds, result, values)."""
        values = self.problem.step_values(number)
        started = clock()
        matrix = self.problem.matrix.with_data(values)
        result = _jacobi(
            matrix,
            self.problem.rhs,
            pipeline=self.pipeline,
            tol=SOLVE_TOL,
            max_iterations=SOLVE_MAX_ITERATIONS,
        )
        return clock() - started, result, values

    def residual_ok(self, values: np.ndarray, x: np.ndarray) -> bool:
        """True when ``||b - A x|| <= tol·||b||``, A rebuilt through scipy."""
        matrix = self.problem.matrix
        csr = scipy.sparse.csr_matrix(
            (values, matrix.cols, self._indptr), shape=matrix.shape
        )
        b = self.problem.rhs
        residual = float(np.linalg.norm(b - csr @ x))
        return residual <= SOLVE_TOL * float(np.linalg.norm(b)) * (1 + 1e-6)

    def run(
        self,
        seconds: float,
        checker: Checker,
        probe,
        speed: Speedometer,
        max_steps: int | None = None,
    ) -> None:
        """The next steps until ``seconds`` are spent, each checked for
        convergence with an independent residual."""
        result = self.result
        deadline = clock() + seconds
        done = 0
        while _keep_going(deadline, done, result.steps, max_steps):
            seconds_taken, solved, values = self.step(result.steps + 1)
            result.step_s.append(seconds_taken)
            speed.add(result.step_scaled_s, seconds_taken)
            result.iterations.append(solved.iterations)
            result.spmv_counts.append(solved.spmv_count)
            with probe.paused():
                checker.attempt()
                x = checker.observed(solved.x)
                if not solved.converged or not self.residual_ok(values, x):
                    checker.fail("Jacobi step did not reach the tolerance")
                if self._first is None:
                    self._first = solved
            done += 1
        speed.flush()

    def check_repeatable(self, checker: Checker, probe) -> None:
        """Step 1 solved again must take the same iterations and bits."""
        with probe.paused():
            checker.attempt()
            _, again, _ = self.step(1)
            first = self._first
            if again.iterations != first.iterations or not np.array_equal(
                again.x, first.x
            ):
                checker.fail("repeating step 1 changed the iterations or result")


# -- open-loop serving -------------------------------------------------------


def fingerprint(vector: np.ndarray) -> int:
    """Position-weighted wrapping sum of a float64 vector's raw words.

    Any changed, missing or permuted element changes it, so replies are
    compared exactly without keeping every reply alive (a reply is a
    column view of its whole batch block).
    """
    words = np.ascontiguousarray(vector).view(np.uint64)
    weights = np.arange(1, words.size + 1, dtype=np.uint64)
    return int(np.dot(words, weights))


@dataclass
class Request:
    tenant: int
    vector: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    outcome: str = "pending"
    #: The reply array until the generator fingerprints it into ``reply``.
    value: np.ndarray | None = None
    reply: int | None = None


@dataclass
class Segment:
    """One open-loop run at a fixed rate."""

    rate: float
    requests: list[Request]
    depth_samples: list[int]

    @property
    def lags_s(self) -> np.ndarray:
        return np.array([r.sent - r.due for r in self.requests])

    @property
    def answered_rps(self) -> float:
        """Replies per second, from the first due time to the last reply."""
        done = [r.done for r in self.requests if r.outcome == "ok"]
        if not done:
            return 0.0
        return len(done) / (max(done) - self.requests[0].due)

    def latencies_s(self, failed_s: float) -> np.ndarray:
        """Due-to-result latency; a failed request counts as ``failed_s``."""
        return np.array(
            [r.done - r.due if r.outcome == "ok" else failed_s
             for r in self.requests]
        )

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.requests if r.outcome == outcome)


@dataclass
class Rung:
    rate: float
    tail_ms: float
    percentile: float
    failed: int
    depth_start: int
    depth_end: int
    passed: bool
    #: 0 for a step's first run, 1 for its retry.
    attempt: int
    #: How late the generator submitted (a generator-bound step shows here).
    lag_ms: float
    lag_max_ms: float
    answered_rps: float


@dataclass
class ServeResult:
    lows: list[Segment] = field(default_factory=list)
    ladder: list[Segment] = field(default_factory=list)
    rungs: list[Rung] = field(default_factory=list)
    versions: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0

    @property
    def low(self) -> Segment:
        """Every low-rate request, as one segment."""
        return Segment(
            rate=self.lows[0].rate,
            requests=[r for segment in self.lows for r in segment.requests],
            depth_samples=[],
        )

    @property
    def max_rps(self) -> float:
        passed = [r.rate for r in self.rungs if r.passed]
        return max(passed) if passed else 0.0

    @property
    def capacity_rps(self) -> float:
        """Best replies per second on the first failing step (else the
        last step): finer than ``max_rps``, whose steps are 4x apart."""
        failing = [r.rate for r in self.rungs if not r.passed]
        rate = failing[0] if failing else self.rungs[-1].rate
        return max(r.answered_rps for r in self.rungs if r.rate == rate)

    @property
    def ladder_lags_s(self) -> np.ndarray:
        return np.concatenate([segment.lags_s for segment in self.ladder])


class _Refresher(threading.Thread):
    """Re-registers one tenant with its next value version on a cadence.

    Appends ``[version, register call began, register call returned]`` to
    the shared ``versions`` list; the end stays infinite while the call is
    in flight.
    """

    def __init__(self, server: SpmvServer, tenant: Tenant, versions: list):
        super().__init__(name="bench-refresher", daemon=True)
        self.server = server
        self.tenant = tenant
        self.versions = versions
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(REFRESH_PERIOD_S):
            number = self.versions[-1][0] + 1
            matrix = self.tenant.version(number)
            record = [number, clock(), math.inf]
            self.versions.append(record)
            self.server.register(self.tenant.name, matrix, replace=True)
            record[2] = clock()


class ServeSession:
    """A one-worker server with registered tenants (built at set-up).

    While requests run, a refresher thread re-registers the first tenant
    with new values every ``REFRESH_PERIOD_S``, so the registry and cache
    refresh run beside the request path.  :meth:`finish` stops the server
    and checks every reply against ``RegisteredMatrix.execute`` for one of
    the value versions live while it was in flight.
    """

    def __init__(self, tenants: list[Tenant]):
        self.tenants = tenants
        self.server = SpmvServer(registry=MatrixRegistry(length=LENGTH), workers=1)
        for tenant in tenants:
            self.server.register(tenant.name, tenant.matrix)
        self.result = ServeResult()
        self.versions: list[list] = [[0, -math.inf, -math.inf]]
        self._rng = None
        self._before = None

    def start(self, seed: int) -> None:
        self._rng = rng_for(seed, 7)
        self._before = self.server.stats()
        self.server.start()

    def close(self) -> None:
        self.server.stop()

    @contextlib.contextmanager
    def _refreshing(self):
        refresher = _Refresher(self.server, self.tenants[0], self.versions)
        refresher.start()
        try:
            yield
        finally:
            refresher.stop_event.set()
            refresher.join()

    def run_low(self, rate: float, seconds: float, probe) -> None:
        """Open loop at the fixed low rate."""
        with probe.phase("serve_low"), self._refreshing():
            segment = _drive(self, rate, seconds, LOW_DEADLINE_S, self._rng)
        self.result.lows.append(segment)

    def run_ladder(self, ladder: tuple[float, ...], rung_s: float, probe) -> None:
        """The rate ladder, up to and including its first failing step.

        A step fails only when all ``LADDER_TRIES`` runs of it fail.
        """
        max_batch = self.server.batcher.policy.max_batch
        with probe.phase("serve_ladder"), self._refreshing():
            for rate in ladder:
                for attempt in range(LADDER_TRIES):
                    segment = _drive(self, rate, rung_s, LIMIT_S, self._rng)
                    self.result.ladder.append(segment)
                    rung = _rung(segment, max_batch, attempt)
                    self.result.rungs.append(rung)
                    if rung.passed:
                        break
                if not rung.passed:
                    break

    def finish(self, checker: Checker, probe) -> ServeResult:
        """Stop serving, count the low-rate operations, check every reply.

        Low-rate requests are the serving operations: refused or expired
        ones fail (without being wrong answers).
        """
        self.close()
        result = self.result
        after = self.server.stats()
        result.rejected = after.rejected - self._before.rejected
        result.deadline_exceeded = (
            after.deadline_expired - self._before.deadline_expired
        )
        result.versions = len(self.versions)
        low = result.low
        checker.attempt(len(low.requests))
        for outcome in ("rejected", "deadline", "error"):
            if low.count(outcome):
                checker.fail(
                    f"request {outcome}", wrong=False, count=low.count(outcome)
                )
        with probe.paused():
            _check_replies(
                self.tenants, self.versions, self.server.registry.cache,
                result, checker,
            )
        return result


class _Outstanding:
    """Requests submitted and not yet settled, waitable without futures.

    :meth:`settle` is a done-callback, so it runs on the server's worker
    inside its batch: it only stamps the time and keeps the reply.  The
    generator thread fingerprints kept replies in :meth:`drain`, which
    releases them (a reply is a view of its whole batch block).
    """

    def __init__(self):
        self._count = 0
        self._settled = threading.Condition()
        self._replies: deque[Request] = deque()

    def add(self) -> None:
        with self._settled:
            self._count += 1

    def settle(self, request: Request, future: concurrent.futures.Future) -> None:
        request.done = clock()
        error = future.exception()
        if error is None:
            request.value = future.result()
            request.outcome = "ok"
            self._replies.append(request)
        elif isinstance(error, DeadlineExceededError):
            request.outcome = "deadline"
        else:
            request.outcome = "error"
        with self._settled:
            self._count -= 1
            if self._count == 0:
                self._settled.notify_all()

    def drain(self, until: float, keep: int = 0) -> None:
        """Fingerprint kept replies until ``until``, then down to ``keep``."""
        replies = self._replies
        while replies and (len(replies) > keep or clock() < until):
            request = replies.popleft()
            request.reply = fingerprint(request.value)
            request.value = None

    def wait(self, timeout: float) -> bool:
        """Drain until every request settled; False on timeout."""
        deadline = clock() + timeout
        while True:
            self.drain(math.inf)
            with self._settled:
                if self._count == 0:
                    break
                if clock() > deadline:
                    return False
                self._settled.wait(0.005)
        self.drain(math.inf)
        return True


@contextlib.contextmanager
def _frozen_heap():
    """Keep the objects alive now out of the cyclic collector.

    A full collection walks every tracked object; with the requests the
    benchmark keeps for its oracle that is a pause of about 30 ms inside
    the latency being measured.  Objects made inside are still collected.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@_frozen_heap()
def _drive(
    session: "ServeSession",
    rate: float,
    seconds: float,
    deadline_s: float,
    rng: np.random.Generator,
) -> Segment:
    """Submit ``rate·seconds`` requests on schedule, then wait for all.

    Each request is due at ``start + i / rate`` whether or not earlier ones
    have finished (open loop); a late generator submits immediately and
    the lateness stays in the request's latency.
    """
    server = session.server
    count = max(1, int(round(rate * seconds)))
    tenant_ids = rng.integers(0, len(session.tenants), count)
    vector_ids = rng.integers(0, session.tenants[0].vectors.shape[0], count)
    sample_every = max(1, count // DEPTH_SAMPLES)
    requests: list[Request] = []
    outstanding = _Outstanding()
    depth_samples = []
    start = clock() + 0.002
    for i in range(count):
        due = start + i / rate
        outstanding.drain(due - DRAIN_MARGIN_S, keep=MAX_HELD_REPLIES)
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        tenant = session.tenants[tenant_ids[i]]
        request = Request(int(tenant_ids[i]), int(vector_ids[i]), due)
        request.sent = clock()
        try:
            future = server.submit(
                tenant.name,
                tenant.vectors[vector_ids[i]],
                deadline=due + deadline_s,
            )
        except ServeError:
            request.done = request.sent
            request.outcome = "rejected"
        else:
            outstanding.add()
            future.add_done_callback(
                lambda f, request=request: outstanding.settle(request, f)
            )
        requests.append(request)
        if i % sample_every == 0:
            depth_samples.append(server.batcher.pending())
    if not outstanding.wait(timeout=60):
        raise RuntimeError(f"requests at {rate:g} req/s never settled")
    return Segment(rate=rate, requests=requests, depth_samples=depth_samples)


def tail_percentile(samples: int) -> float:
    """Highest of the reported percentiles with >= 10 samples beyond it."""
    best = 500
    for per_mille in (500, 750, 900, 950, 990, 999):
        if samples * (1000 - per_mille) >= 10 * 1000:
            best = per_mille
    return best / 10


def _rung(segment: Segment, max_batch: int, attempt: int = 0) -> Rung:
    """Judge one ladder step.

    It passes when every request was answered, the tail latency is within
    the limit, and the queue did not grow: the shallowest queue seen in
    the last quarter of the step is no deeper than the shallowest in the
    first quarter plus one batch.  Minima ignore a transient burst (a
    short stall the server then drains) but not a backlog that only grows.
    """
    latencies = segment.latencies_s(failed_s=LIMIT_S)
    percentile = tail_percentile(latencies.size)
    tail = float(np.percentile(latencies, percentile))
    failed = sum(1 for r in segment.requests if r.outcome != "ok")
    quarter = max(1, len(segment.depth_samples) // 4)
    depth_start = min(segment.depth_samples[:quarter])
    depth_end = min(segment.depth_samples[-quarter:])
    lags = segment.lags_s
    return Rung(
        rate=segment.rate,
        tail_ms=tail * 1e3,
        percentile=percentile,
        failed=failed,
        depth_start=depth_start,
        depth_end=depth_end,
        passed=(
            failed == 0
            and tail <= LIMIT_S
            and depth_end <= depth_start + max_batch
        ),
        attempt=attempt,
        lag_ms=1e3 * float(lags.mean()),
        lag_max_ms=1e3 * float(lags.max()),
        answered_rps=segment.answered_rps,
    )


def _check_replies(
    tenants, versions, cache, result: ServeResult, checker: Checker
) -> None:
    """Every reply equals ``execute`` under a value version live in flight.

    Version ``v`` can be seen by a request sent at ``s`` and answered at
    ``d`` when its registration began by ``d`` and the registration of
    ``v + 1`` had not finished before ``s``.
    """
    checker.attempt(sum(
        1 for segment in result.ladder for r in segment.requests
        if r.outcome == "ok"
    ))
    began = [record[1] for record in versions]
    ended = [record[2] for record in versions]
    # The reference registry shares the server's schedule cache, so each
    # version costs a value refresh, not a coloring.
    reference = MatrixRegistry(cache=cache, length=LENGTH)
    live: dict[int, tuple[int, object]] = {}
    expected: dict[tuple[int, int, int], int] = {}

    def execute(tenant: int, version: int, vector: int) -> int:
        key = (tenant, version, vector)
        if key not in expected:
            owner = tenants[tenant]
            if live.get(tenant, (None,))[0] != version:
                live[tenant] = (version, reference.register(
                    owner.name, owner.version(version), replace=True
                ))
            expected[key] = fingerprint(live[tenant][1].execute(owner.vectors[vector]))
        return expected[key]

    checks = []
    for segment in result.lows + result.ladder:
        for request in segment.requests:
            if request.outcome != "ok":
                continue
            if request.tenant != 0:
                low, high = 0, 0
            else:
                high = bisect.bisect_right(began, request.done) - 1
                low = max(0, bisect.bisect_left(ended, request.sent) - 1)
            checks.append((low, high, request))
    # Grouped by version, so the reference registry refreshes each once.
    checks.sort(key=lambda check: (check[2].tenant, check[0]))
    for low, high, request in checks:
        reply = checker.observed(request.reply)
        if not any(
            reply == execute(request.tenant, version, request.vector)
            for version in range(low, high + 1)
        ):
            checker.fail("served reply matches no live value version")
