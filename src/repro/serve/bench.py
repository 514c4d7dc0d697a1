"""Measurement core for the serving-throughput benchmark.

Lives in the package (rather than only under ``benchmarks/``) so the
``repro bench-serve`` CLI command and ``benchmarks/
bench_serving_throughput.py`` run the identical measurement:

* **single** — sequential per-request replay through the tenant's pinned
  plan (``RegisteredMatrix.execute``, the PR 3 steady-state path);
* **batched** — the same requests coalesced into stacked right-hand
  sides and executed through :func:`~repro.serve.batcher.run_batch`
  (request objects, futures, and result handout included), exactly the
  code path the server's workers run;
* **server** — an end-to-end threaded run: closed-loop clients against a
  live :class:`~repro.serve.server.SpmvServer`, reporting the achieved
  batch histogram and latency percentiles.

Gates (enforced by the benchmark wrapper): batched throughput >=
:data:`MIN_BATCH_SPEEDUP` over the single-request path at batch >=
:data:`GATE_MIN_BATCH`, every batched result bit-identical to the
per-request compiled replay, and the threaded run answering every request
correctly.

Gate history: the original PR 4 gate demanded 3x, measured against a
single-request path that replayed through ``np.bincount`` with a
plan-memo lookup per call (~10k req/s on this regime).  The backend
registry redesign made the single-request baseline itself ~3x faster —
``"auto"`` selection now hands the per-request replay the probed scipy
CSR kernel and the compiled handle binds it directly — so batching's
*relative* win shrank while every absolute number improved.  The gate is
recalibrated to >= 1.5x over the now-much-faster baseline (measured
~1.6-1.8x at k in {16, 32}, machine-dependent; the CI wrapper retries
wall-clock flakes), still demanding that coalescing beats the best
per-request kernel on pure throughput.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs import clock as _obs_clock
from repro.serve.batcher import BatchPolicy, SpmvRequest, run_batch
from repro.serve.client import SpmvClient
from repro.serve.registry import MatrixRegistry
from repro.serve.server import SpmvServer
from repro.sparse.generators import uniform_random

#: Serving regime: a 2048-dim tenant at ~16 nnz/row, l = 64.  Denser rows
#: keep the batched kernel compute-bound (more arithmetic per byte of
#: right-hand-side traffic), which is both where batching shines and what
#: makes the gate stable on noisy shared runners; the bit-identity checks
#: run at every batch size regardless.
DIM = 2048
TARGET_NNZ = 32_000
LENGTH = 64
SEED = 11

#: Distinct right-hand sides cycled through every measurement.
NUM_VECTORS = 32

#: Batch sizes measured; the gate applies to sizes >= GATE_MIN_BATCH.
BATCH_SIZES = (1, 8, 16, 32)
GATE_MIN_BATCH = 8
MIN_BATCH_SPEEDUP = 1.5

#: A batch of one replays through ``matvec``, so it should cost about what
#: a direct per-request replay does; its ratio is printed, not gated.
K1_RATIO_TARGET = 0.9

#: Threaded end-to-end run.
SERVER_CLIENTS = 16
SERVER_REQUESTS_PER_CLIENT = 16


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = _obs_clock.monotonic()
        fn()
        best = min(best, _obs_clock.monotonic() - started)
    return best


def measure_batching(repeats: int = 30) -> dict:
    """Batched vs. sequential replay throughput plus bit-identity."""
    matrix = uniform_random(DIM, DIM, TARGET_NNZ / (DIM * DIM), seed=SEED)
    registry = MatrixRegistry(length=LENGTH)
    entry = registry.register("bench", matrix)
    rng = np.random.default_rng(SEED)
    xs = [np.ascontiguousarray(v) for v in rng.normal(size=(NUM_VECTORS, DIM))]
    reference = [entry.execute(x) for x in xs]

    def run_single():
        for x in xs:
            entry.execute(x)

    single_s = _best_of(run_single, repeats)
    results = {
        "matrix": {"dim": DIM, "nnz": matrix.nnz, "length": LENGTH},
        "backend": entry.stacked.backend,
        "num_vectors": NUM_VECTORS,
        "single_s": single_s,
        "single_rps": NUM_VECTORS / single_s,
        "batch": {},
    }

    for size in BATCH_SIZES:
        groups = [xs[i : i + size] for i in range(0, NUM_VECTORS, size)]

        def run_batched():
            blocks = []
            for group in groups:
                batch = [SpmvRequest(x=x) for x in group]
                blocks.append(run_batch(entry, batch))
            return blocks

        # Bit-identity before timing: every batched column must equal the
        # per-request plan replay exactly.
        flat = [
            column
            for block in run_batched()
            for column in np.asarray(block).T
        ]
        identical = all(
            bool((got == want).all())
            for got, want in zip(flat, reference)
        )
        batched_s = _best_of(run_batched, repeats)
        results["batch"][str(size)] = {
            "seconds": batched_s,
            "rps": NUM_VECTORS / batched_s,
            "speedup": single_s / batched_s,
            "bit_identical": identical,
        }
    gated = [
        spec["speedup"]
        for size, spec in results["batch"].items()
        if int(size) >= GATE_MIN_BATCH
    ]
    results["gated_speedup"] = max(gated) if gated else 0.0
    results["k1_ratio"] = results["batch"]["1"]["speedup"]
    return results


def measure_server() -> dict:
    """End-to-end threaded serving: closed-loop clients, live metrics."""
    rng = np.random.default_rng(SEED + 1)
    registry = MatrixRegistry(length=LENGTH)
    server = SpmvServer(
        registry=registry,
        policy=BatchPolicy(max_batch=16, max_queue=512),
        workers=1,
    )
    tenants = {}
    for name in ("alpha", "beta"):
        matrix = uniform_random(
            DIM // 4,
            DIM // 4,
            (TARGET_NNZ // 4) / ((DIM // 4) ** 2),
            seed=int(rng.integers(1 << 30)),
        )
        tenants[name] = server.register(name, matrix)
    client = SpmvClient(server)
    names = sorted(tenants)
    failures = []
    lock = threading.Lock()

    def client_loop(index: int) -> None:
        local = np.random.default_rng(1000 + index)
        name = names[index % len(names)]
        entry = tenants[name]
        for _ in range(SERVER_REQUESTS_PER_CLIENT):
            x = local.normal(size=entry.shape[1])
            y = client.spmv(name, x, timeout=30.0)
            if not (np.asarray(y) == entry.execute(x)).all():
                with lock:
                    failures.append(name)

    started = _obs_clock.monotonic()
    with server:
        threads = [
            threading.Thread(target=client_loop, args=(i,))
            for i in range(SERVER_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    # Counters are exact only once stop() (via the context manager) has
    # joined the workers; futures resolve before metrics are recorded.
    stats = server.stats()
    elapsed = _obs_clock.monotonic() - started
    total = SERVER_CLIENTS * SERVER_REQUESTS_PER_CLIENT
    return {
        "clients": SERVER_CLIENTS,
        "requests": total,
        "elapsed_s": elapsed,
        "throughput_rps": total / elapsed,
        "mismatches": len(failures),
        "completed": stats.completed,
        "batches": stats.batches,
        "mean_batch": stats.mean_batch_size,
        "batch_histogram": {
            str(k): v for k, v in sorted(stats.batch_histogram.items())
        },
        "p50_ms": stats.p50_ms,
        "p99_ms": stats.p99_ms,
    }


def run(json_path: str | None = None) -> dict:
    batching = measure_batching()
    server = measure_server()
    results = {"batching": batching, "server": server}
    print(
        f"matrix: {DIM}x{DIM}, nnz={batching['matrix']['nnz']}, "
        f"length={LENGTH}, backend={batching['backend']}"
    )
    print(
        f"single-request replay {batching['single_rps']:>10.0f} req/s"
    )
    for size, spec in batching["batch"].items():
        print(
            f"batched (k={size:>2s})        {spec['rps']:>10.0f} req/s   "
            f"{spec['speedup']:4.2f}x  "
            f"(bit-identical={spec['bit_identical']})"
        )
    print(
        f"k=1 batched/single ratio: {batching['k1_ratio']:.2f}x "
        f"(target >= {K1_RATIO_TARGET}x; reported, not gated)"
    )
    print(
        f"threaded server: {server['throughput_rps']:.0f} req/s over "
        f"{server['clients']} clients, mean batch "
        f"{server['mean_batch']:.2f}, p50 {server['p50_ms']:.2f} ms, "
        f"p99 {server['p99_ms']:.2f} ms, mismatches={server['mismatches']}"
    )
    print(f"batch histogram: {server['batch_histogram']}")
    if json_path:
        import json
        from pathlib import Path

        Path(json_path).write_text(json.dumps(results, indent=2))
        print(f"wrote {json_path}")
    return results


def failures(results: dict) -> list[str]:
    """Gate violations in a :func:`run` result (empty means pass)."""
    batching, server = results["batching"], results["server"]
    problems = []
    if batching["gated_speedup"] < MIN_BATCH_SPEEDUP:
        problems.append(
            f"batched serving {batching['gated_speedup']:.2f}x < "
            f"{MIN_BATCH_SPEEDUP}x at batch >= {GATE_MIN_BATCH}"
        )
    for size, spec in batching["batch"].items():
        if not spec["bit_identical"]:
            problems.append(
                f"batch size {size} is not bit-identical to per-request "
                f"replay"
            )
    if server["mismatches"]:
        problems.append(
            f"{server['mismatches']} threaded responses disagreed with "
            f"the reference replay"
        )
    if server["completed"] != server["requests"]:
        problems.append(
            f"server completed {server['completed']} of "
            f"{server['requests']} requests"
        )
    if server["batches"] >= server["completed"]:
        problems.append(
            "threaded run never coalesced a batch (histogram is trivial)"
        )
    return problems
